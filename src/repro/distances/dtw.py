"""Constrained Dynamic Time Warping (cDTW).

The paper's time-series experiments use constrained DTW with a Sakoe-Chiba
warping band whose width is 10% of the length of the shorter of the two
sequences (following Vlachos et al., KDD 2003).  Sequences are
multi-dimensional: each is an array of shape ``(length, n_dims)``.

cDTW is non-metric — it violates the triangle inequality — which is exactly
why the paper needs embedding-based indexing instead of metric trees.

Kernel dispatch
---------------
The DP itself lives in :mod:`repro.distances.kernels`: the numpy
closed-form kernels from PR 1 (one ``cumsum`` + one ``minimum.accumulate``
per band row, batched over many targets) are the always-available
reference backend, and a compiled straight-line port (a ctypes-loaded C
extension) is picked automatically when the host supports it.
``ConstrainedDTW(kernel="numpy")`` pins a measure to one backend; only the
backend *name* is stored, so pickling a measure to a pool worker ships the
name and each worker resolves its own compiled functions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.distances.base import DistanceMeasure
from repro.distances.kernels import get_kernel_backend
from repro.exceptions import DistanceError

_INF = np.inf


def _as_series(x: Union[np.ndarray, list], name: str) -> np.ndarray:
    # Hot-path fast path: conforming float64 arrays pass through without a
    # copy (1D gets a reshaped *view*); everything else is converted once.
    if isinstance(x, np.ndarray) and x.dtype == np.float64:
        arr = x
    else:
        arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DistanceError(
            f"{name} must be a 1D or 2D array (length, n_dims), got ndim={arr.ndim}"
        )
    if arr.shape[0] == 0:
        raise DistanceError(f"{name} must contain at least one sample")
    return arr


def dtw_distance(
    x: np.ndarray,
    y: np.ndarray,
    band_fraction: Optional[float] = 0.1,
    band_width: Optional[int] = None,
    kernel: Optional[str] = None,
) -> float:
    """Compute the constrained DTW distance between two series.

    Parameters
    ----------
    x, y:
        Arrays of shape ``(length, n_dims)`` (or 1D arrays, treated as
        single-dimensional series).  The two series may have different
        lengths but must share the same number of dimensions.
    band_fraction:
        Sakoe-Chiba band half-width as a fraction of the shorter series
        length (paper default: 0.1).  Ignored when ``band_width`` is given.
    band_width:
        Absolute band half-width in samples.  ``None`` with
        ``band_fraction=None`` means unconstrained DTW.
    kernel:
        Kernel backend name (``None`` = the process default; see
        :mod:`repro.distances.kernels`).

    Returns
    -------
    float
        The accumulated warped distance (sum of local Euclidean costs along
        the optimal warping path).  Returns ``inf`` if the band is too narrow
        to admit any warping path (cannot happen with the automatic widening
        applied below).
    """
    xs = _as_series(x, "x")
    ys = _as_series(y, "y")
    if xs.shape[1] != ys.shape[1]:
        raise DistanceError(
            f"series dimensionality mismatch: {xs.shape[1]} vs {ys.shape[1]}"
        )
    radius = _resolve_radius(
        xs.shape[0], ys.shape[0], band_fraction=band_fraction, band_width=band_width
    )
    backend = get_kernel_backend(kernel)
    return float(backend.dtw_batch(xs, ys[None, :, :], radius)[0])


def _resolve_radius(
    n: int,
    m: int,
    band_fraction: Optional[float],
    band_width: Optional[int],
) -> int:
    """The Sakoe-Chiba band half-width for a pair of lengths ``(n, m)``."""
    if band_width is not None:
        radius = int(band_width)
        if radius < 0:
            raise DistanceError("band_width must be non-negative")
    elif band_fraction is not None:
        if not 0.0 <= band_fraction <= 1.0:
            raise DistanceError("band_fraction must be in [0, 1]")
        radius = int(np.ceil(band_fraction * min(n, m)))
    else:
        radius = max(n, m)
    # The band must be at least |n - m| wide for a path to exist at all.
    return max(radius, abs(n - m))


def _pad_targets(targets: List[np.ndarray]) -> tuple:
    """Stack ragged series into a zero-padded ``(g, M, d)`` array + lengths."""
    lengths = np.array([t.shape[0] for t in targets], dtype=np.intp)
    m_max = int(lengths.max())
    ys = np.zeros((len(targets), m_max, targets[0].shape[1]))
    for t, target in enumerate(targets):
        ys[t, : target.shape[0]] = target
    return ys, lengths


class ConstrainedDTW(DistanceMeasure):
    """Constrained DTW as a :class:`~repro.distances.base.DistanceMeasure`.

    Parameters
    ----------
    band_fraction:
        Warping-band half-width as a fraction of the shorter series (paper
        default ``0.1``, i.e. a 10% band).
    band_width:
        Absolute band half-width; overrides ``band_fraction`` when given.
    normalize:
        If ``True``, divide the accumulated cost by the warping-path-free
        upper bound ``max(len(x), len(y))`` so that distances of series of
        different lengths are comparable.  The paper does not normalise, so
        the default is ``False``.
    kernel:
        Kernel backend name (``"numpy"``, ``"cext"``, or a registered
        third-party name).  ``None`` means "whatever the process default
        resolves to"; the name — not a function object — is what pickles
        to worker processes.
    """

    def __init__(
        self,
        band_fraction: Optional[float] = 0.1,
        band_width: Optional[int] = None,
        normalize: bool = False,
        kernel: Optional[str] = None,
    ) -> None:
        if band_fraction is not None and not 0.0 <= band_fraction <= 1.0:
            raise DistanceError("band_fraction must be in [0, 1]")
        if band_width is not None and band_width < 0:
            raise DistanceError("band_width must be non-negative")
        self.band_fraction = band_fraction
        self.band_width = band_width
        self.normalize = bool(normalize)
        self.kernel = kernel
        self.name = "constrained_dtw"
        self.is_metric = False
        if kernel is not None:
            get_kernel_backend(kernel)  # fail fast on unknown/broken names

    @property
    def kernel_backend(self):
        """The resolved backend instance (never pickled; resolved lazily)."""
        return get_kernel_backend(self.kernel)

    def compute(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(self.compute_many(x, [y])[0])

    def compute_many(self, x: np.ndarray, ys: Sequence[np.ndarray]) -> np.ndarray:
        """Batched cDTW from ``x`` to many series in one vectorised DP.

        Targets are grouped by length; uniform groups run the banded batch
        kernel, mixed lengths run the padded mixed kernel — on whichever
        backend this measure resolves.  Each series is normalised to float64
        exactly once per call (``_as_series`` is a no-copy pass-through for
        conforming arrays), so the scalar path :meth:`compute` costs one
        conversion, not two.
        """
        xs = _as_series(x, "x")
        targets: List[np.ndarray] = []
        for i, y in enumerate(ys):
            target = _as_series(y, f"ys[{i}]")
            if target.shape[1] != xs.shape[1]:
                raise DistanceError(
                    f"series dimensionality mismatch: {xs.shape[1]} vs {target.shape[1]}"
                )
            targets.append(target)
        results = np.empty(len(targets), dtype=float)
        if not targets:
            return results
        backend = get_kernel_backend(self.kernel)
        by_length: dict = {}
        for i, target in enumerate(targets):
            by_length.setdefault(target.shape[0], []).append(i)
        n = xs.shape[0]
        if len(by_length) == 1:
            # Uniform lengths: run the banded kernel, bit-identical to the
            # scalar path.
            ((m, indices),) = by_length.items()
            radius = _resolve_radius(
                n, m, band_fraction=self.band_fraction, band_width=self.band_width
            )
            values = np.asarray(
                backend.dtw_batch(xs, np.stack(targets), radius), dtype=float
            )
            if self.normalize:
                values = values / max(n, m)
            return values
        # Mixed lengths: one shared DP (numpy masks padded cells; compiled
        # backends run each target at its true length) — band semantics per
        # pair are unchanged.
        radii = np.array(
            [
                _resolve_radius(
                    n,
                    m,
                    band_fraction=self.band_fraction,
                    band_width=self.band_width,
                )
                for m in (t.shape[0] for t in targets)
            ],
            dtype=np.intp,
        )
        padded, lengths = _pad_targets(targets)
        results = np.asarray(
            backend.dtw_batch_mixed(xs, padded, lengths, radii), dtype=float
        )
        if self.normalize:
            results = results / np.maximum(n, [t.shape[0] for t in targets])
        return results

    def compute_pairs(self, xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> np.ndarray:
        """Element-wise cDTW, batched over runs of a shared second argument.

        The batched embedding paths evaluate many objects against one anchor
        (``compute_pairs(objects, [anchor] * n)``); cDTW is symmetric (the
        local costs and the band are), so such runs are regrouped as one
        batched :meth:`compute_many` call with the roles swapped.
        """
        xs = list(xs)
        ys = list(ys)
        if len(xs) != len(ys):
            raise DistanceError(
                f"compute_pairs needs equally long sequences, got {len(xs)} and {len(ys)}"
            )
        results = np.empty(len(xs), dtype=float)
        groups: dict = {}
        for i, y in enumerate(ys):
            groups.setdefault(id(y), []).append(i)
        for indices in groups.values():
            anchor = ys[indices[0]]
            results[indices] = self.compute_many(anchor, [xs[i] for i in indices])
        return results
