"""Base classes for distance measures.

A *distance measure* in this library is any callable ``d(x, y) -> float``
over objects of an arbitrary space ``X``.  The paper explicitly targets
measures that may be non-Euclidean and non-metric (no triangle inequality,
possibly asymmetric), so the base class makes no metric assumptions; metric
properties, when present, are advertised through the :attr:`is_metric` flag
so that components that need them can check.

Batch API
---------
Every cost the paper reports is dominated by exact distance evaluations, so
the base class exposes a *batch protocol* next to the scalar :meth:`compute`:

* :meth:`DistanceMeasure.compute_many` — distances from one object to a
  whole sequence of objects (argument order is preserved, so asymmetric
  measures stay correct);
* :meth:`DistanceMeasure.compute_pairs` — element-wise distances between two
  parallel sequences of objects.

The base implementations fall back to a scalar loop, so every measure
supports the batch API out of the box; the cheap vector measures and the
DP-based sequence measures override them with truly vectorised kernels.
The :class:`CountingDistance` wrapper overrides the batch methods too so
that cost accounting remains *exactly* equivalent to the scalar path while
delegating the heavy lifting to the wrapped measure's vectorised kernels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.exceptions import DistanceError


class DistanceMeasure(ABC):
    """Abstract base class for distance measures over an arbitrary space.

    Subclasses implement :meth:`compute`; users call the instance directly.
    Batch evaluations go through :meth:`compute_many` / :meth:`compute_pairs`,
    which subclasses may override with vectorised kernels.

    Attributes
    ----------
    name:
        Short human-readable identifier used in reports and reprs.
    is_metric:
        Whether the measure is known to satisfy the metric axioms.  The two
        headline measures of the paper (Shape Context, constrained DTW) set
        this to ``False``.
    """

    name: str = "distance"
    is_metric: bool = False

    @abstractmethod
    def compute(self, x: Any, y: Any) -> float:
        """Return the distance between objects ``x`` and ``y``."""

    def compute_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        """Distances from ``x`` to every element of ``ys``.

        Equivalent to ``[self.compute(x, y) for y in ys]``; the first
        argument of every underlying evaluation is ``x``, so asymmetric
        measures (KL, query-sensitive L1, directed chamfer) behave exactly
        as in the scalar path.  Subclasses override this with vectorised
        kernels; the fallback is a plain loop.
        """
        return np.array([self.compute(x, y) for y in ys], dtype=float)

    def compute_pairs(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        """Element-wise distances ``[self.compute(x, y) for x, y in zip(xs, ys)]``.

        ``xs`` and ``ys`` must have equal length.  Used by the batched
        embedding and retrieval paths, where many (query, anchor) pairs are
        evaluated in one call.
        """
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise DistanceError(
                f"compute_pairs needs equally long sequences, got {len(xs)} and {len(ys)}"
            )
        return np.array([self.compute(x, y) for x, y in zip(xs, ys)], dtype=float)

    def __call__(self, x: Any, y: Any) -> float:
        return self.compute(x, y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class FunctionDistance(DistanceMeasure):
    """Wrap an arbitrary ``f(x, y) -> float`` as a :class:`DistanceMeasure`.

    Parameters
    ----------
    func:
        The distance function.
    name:
        Identifier for reports; defaults to the function's ``__name__``.
    is_metric:
        Set to ``True`` only if the wrapped function is known to be metric.
    """

    def __init__(
        self,
        func: Callable[[Any, Any], float],
        name: Optional[str] = None,
        is_metric: bool = False,
    ) -> None:
        if not callable(func):
            raise DistanceError("func must be callable")
        self._func = func
        self.name = name or getattr(func, "__name__", "function_distance")
        self.is_metric = bool(is_metric)

    def compute(self, x: Any, y: Any) -> float:
        return float(self._func(x, y))


class CountingDistance(DistanceMeasure):
    """Wrap a measure and count how many times it is evaluated.

    The count is the cost unit of the whole paper: filter-and-refine retrieval
    is evaluated by the number of exact distance computations per query.

    Examples
    --------
    >>> from repro.distances import L2Distance
    >>> counting = CountingDistance(L2Distance())
    >>> _ = counting([0.0], [1.0])
    >>> counting.calls
    1
    """

    def __init__(self, base: DistanceMeasure) -> None:
        if not isinstance(base, DistanceMeasure):
            raise DistanceError(
                "CountingDistance wraps a DistanceMeasure; use FunctionDistance "
                "to adapt a plain callable first"
            )
        self.base = base
        self.name = f"counting({base.name})"
        self.is_metric = base.is_metric
        self.calls = 0

    def compute(self, x: Any, y: Any) -> float:
        self.calls += 1
        return self.base.compute(x, y)

    def compute_many(self, x: Any, ys: Sequence[Any]) -> np.ndarray:
        """Batch distances; the counter increases by exactly ``len(ys)``.

        Delegates to the wrapped measure's (possibly vectorised) batch kernel
        while charging one evaluation per element — identical accounting to
        the scalar path.
        """
        ys = ys if hasattr(ys, "__len__") else list(ys)
        self.calls += len(ys)
        return self.base.compute_many(x, ys)

    def compute_pairs(self, xs: Sequence[Any], ys: Sequence[Any]) -> np.ndarray:
        xs = xs if hasattr(xs, "__len__") else list(xs)
        ys = ys if hasattr(ys, "__len__") else list(ys)
        if len(xs) != len(ys):
            raise DistanceError(
                f"compute_pairs needs equally long sequences, got {len(xs)} and {len(ys)}"
            )
        self.calls += len(xs)
        return self.base.compute_pairs(xs, ys)

    def reset(self) -> int:
        """Reset the counter, returning the value it had before the reset."""
        previous = self.calls
        self.calls = 0
        return previous
