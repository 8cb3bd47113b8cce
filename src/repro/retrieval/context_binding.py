"""The refine stage's access to exact distances: one binding per measure.

Every retrieval pipeline refines through one object with one method,
``distances_to_many(objects, position_lists, n_jobs)``, returning the exact
distances from each object to its database positions plus the evaluations
each list actually performed.  :func:`bind_context` picks the binding:

* :class:`ContextBinding` for a
  :class:`~repro.distances.context.DistanceContext` — the mapping from the
  retriever's database positions to the context's universe indices lives
  here, and store hits are free;
* :class:`MeasureBinding` for any other measure — no store, every pair is
  evaluated and charged, and ``n_jobs`` fans the work out over worker
  processes with the caller's counters charged in the parent.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.distances.context import DistanceContext
from repro.distances.parallel import parallel_refine, resolve_jobs
from repro.exceptions import DistanceError, RetrievalError

__all__ = ["ContextBinding", "MeasureBinding", "Binding", "bind_context"]


class ContextBinding:
    """A :class:`DistanceContext` bound to one retriever's database.

    Attributes
    ----------
    context:
        The shared distance context.
    indices:
        ``indices[position]`` is the universe index of the database object
        at ``position``, so retriever-level candidate arrays translate to
        store keys with one fancy index.
    calls:
        Exact evaluations actually performed through this binding (store
        hits are free) — the number the retrievers report.
    """

    def __init__(self, context: DistanceContext, database: Dataset) -> None:
        try:
            self.indices = context.indices_of(list(database))
        except DistanceError as exc:
            raise RetrievalError(
                "the DistanceContext universe must contain every database "
                "object (build the context over the database, or database "
                "plus queries)"
            ) from exc
        self.context = context
        self.calls = 0

    def distances_to_many(
        self,
        objects: Sequence[Any],
        position_lists: Sequence[np.ndarray],
        n_jobs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Exact distances from each object to its database positions.

        Returns ``(values_list, spent_list)``; ``spent_list[i]`` counts the
        fresh evaluations list ``i`` performed (0 when every pair was
        cached).  The context resolves store hits in the parent and pools
        only the missing pairs.
        """
        values, computed = self.context.distances_to_many(
            objects, [self.indices[p] for p in position_lists], n_jobs=n_jobs
        )
        self.calls += sum(computed)
        return [np.asarray(v, dtype=float) for v in values], list(computed)


class MeasureBinding:
    """A store-less measure bound to a database: every pair is charged.

    ``database`` is read at call time, so a mutable list (the
    :class:`~repro.retrieval.dynamic.DynamicDatabase` contents) stays valid
    as it grows and shrinks.  Every call is one
    :func:`~repro.distances.parallel.parallel_refine` batch, which peels
    top-level :class:`~repro.distances.base.CountingDistance` wrappers:
    the inner measure evaluates, serially or over worker processes, and
    each peeled counter — the caller's — is charged one evaluation per
    pair in the parent, exactly as a serial ``compute_many`` would.

    Attributes
    ----------
    distance:
        The measure as the caller passed it.
    database:
        The objects positions refer to.
    calls:
        Exact evaluations performed through this binding.
    """

    def __init__(self, distance: DistanceMeasure, database: Sequence[Any]) -> None:
        self.distance = distance
        self.database = database
        self.calls = 0

    def distances_to_many(
        self,
        objects: Sequence[Any],
        position_lists: Sequence[np.ndarray],
        n_jobs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Exact distances from each object to its database positions.

        Same contract as :meth:`ContextBinding.distances_to_many`; every
        list spends exactly its length.  With ``n_jobs > 1`` and more than
        one list, the lists fan out over a process pool.
        """
        items = [
            (i, obj, np.asarray(positions, dtype=int))
            for i, (obj, positions) in enumerate(zip(objects, position_lists))
        ]
        by_key = parallel_refine(
            self.distance, self.database, items, resolve_jobs(n_jobs)
        )
        values = [np.asarray(by_key[i], dtype=float) for i in range(len(items))]
        spent = [int(positions.size) for _i, _obj, positions in items]
        self.calls += sum(spent)
        return values, spent


Binding = Union[ContextBinding, MeasureBinding]


def bind_context(distance: DistanceMeasure, database: Sequence[Any]) -> Binding:
    """Bind ``distance`` to ``database``: through its store if it is a context."""
    if isinstance(distance, DistanceContext):
        return ContextBinding(distance, database)
    return MeasureBinding(distance, database)
