"""Exact brute-force nearest-neighbor retrieval.

This is the reference point of the whole paper: answering a query exactly
costs one distance computation per database object.  The retriever counts its
evaluations so tests and benchmarks can verify the accounting.

The scan is the degenerate configuration of the shared
:class:`~repro.retrieval.engine.QueryEngine` — a
:class:`~repro.retrieval.engine.ScanStage` "filter" that keeps every
database position, followed by the same
:class:`~repro.retrieval.engine.RefineStage` the embedding retrievers
refine with — so vectorised distance kernels, ``n_jobs`` fan-out and the
exact accounting rules are the same code everywhere.  Ties in the exact
distance are resolved by the smallest database index (stable sort), the
reference tie order every filter-and-refine pipeline in
:mod:`repro.retrieval` reproduces.

When built on a :class:`~repro.distances.context.DistanceContext` whose
universe contains the database, the scan charges against the shared store:
(query, object) pairs already evaluated — e.g. by a persisted ground-truth
table — are free, and freshly scanned pairs are recorded for the rest of
the pipeline.  :attr:`BruteForceRetriever.distance_computations` then
counts the evaluations actually performed; the returned neighbors are
bit-identical either way.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.exceptions import RetrievalError
from repro.retrieval.engine import QueryEngine

__all__ = ["BruteForceRetriever"]


class BruteForceRetriever:
    """Exact k-NN retrieval by scanning the whole database.

    Parameters
    ----------
    distance:
        The exact distance measure ``D_X``, or a
        :class:`~repro.distances.context.DistanceContext` to scan through
        the shared store.
    database:
        The database to search.
    """

    def __init__(self, distance: DistanceMeasure, database: Dataset) -> None:
        if not isinstance(distance, DistanceMeasure):
            raise RetrievalError("distance must be a DistanceMeasure instance")
        if not isinstance(database, Dataset):
            raise RetrievalError("database must be a Dataset")
        self.database = database
        self.engine = QueryEngine.brute_force(distance, database)

    @property
    def distance_computations(self) -> int:
        """Total exact distance evaluations performed so far.

        For a context-backed retriever this counts the evaluations actually
        performed by this retriever's scans (store hits are free).
        """
        return self.engine.refine.calls

    def reset_counter(self) -> None:
        """Reset the distance-evaluation counter."""
        self.engine.refine.reset()

    def _check_k(self, k: int) -> None:
        if not 1 <= k <= len(self.database):
            raise RetrievalError(
                f"k must be in [1, {len(self.database)}], got {k}"
            )

    def scan_many(
        self, objects, n_jobs: Optional[int] = None
    ) -> Tuple[List[np.ndarray], List[int]]:
        """Full-database exact distance scans for many queries.

        Returns ``(distances_list, spent_list)`` aligned with the input:
        ``distances_list[i]`` holds query ``i``'s exact distances to every
        database object (in database order) and ``spent_list[i]`` the
        evaluations actually performed for it — ``len(database)`` for a
        plain measure, possibly fewer through a context-backed store.  This
        is the primitive both :meth:`query_many` and the
        :class:`~repro.index.embedding_index.EmbeddingIndex` brute-force
        backend rank from, so their per-query cost accounting can never
        diverge.
        """
        objects = list(objects)
        if not objects:
            return [], []
        plan = self.engine.make_plan(objects, k=1, p=None, n_jobs=n_jobs)
        plan = self.engine.run(plan)
        return plan.exact_lists, plan.refine_costs

    def query(self, obj: Any, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return the indices and distances of the ``k`` nearest neighbors.

        One :meth:`scan_many` over the whole database: ``len(database)``
        evaluations for a plain measure, fewer through a warm context
        store (see :attr:`distance_computations`).
        """
        self._check_k(k)
        distances = self.scan_many([obj])[0][0]
        order = np.argsort(distances, kind="stable")[:k]
        return order, distances[order]

    def query_many(
        self, objects, k: int, n_jobs: Optional[int] = None
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Run :meth:`query` for every object in an iterable.

        With ``n_jobs > 1`` (``-1`` = all CPUs) the per-query scans are
        spread over a process pool; results and the evaluation counter are
        identical to the serial path.
        """
        self._check_k(k)
        distances_list, _spent = self.scan_many(objects, n_jobs=n_jobs)
        results = []
        for distances in distances_list:
            order = np.argsort(distances, kind="stable")[:k]
            results.append((order, distances[order]))
        return results
