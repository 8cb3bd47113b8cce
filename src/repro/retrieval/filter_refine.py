"""Filter-and-refine retrieval (Sec. 8 of the paper).

Given a query ``q``:

1. **Embedding step** — compute ``F(q)`` by measuring the exact distances
   from ``q`` to the embedding's reference/pivot objects (cost =
   ``embedding.cost`` exact distances).
2. **Filter step** — rank the precomputed database vectors by a cheap vector
   distance.  For a query-sensitive model that distance is ``D_out`` with the
   per-query weights ``A_i(q)``; for plain embeddings it is an (optionally
   weighted) L1 distance.  This step touches no exact distances.
3. **Refine step** — evaluate the exact distance between ``q`` and the top
   ``p`` filter candidates and return the best ``k`` (cost = ``p`` exact
   distances).

Total cost per query: ``embedding.cost + p`` exact distance computations —
the quantity every figure and table of the paper reports.

Since the :mod:`repro.retrieval.engine` refactor the pipeline itself lives
in :class:`~repro.retrieval.engine.QueryEngine` as explicit stages
(:class:`~repro.retrieval.engine.EmbedStage` →
:class:`~repro.retrieval.engine.FilterStage` →
:class:`~repro.retrieval.engine.RefineStage` →
:class:`~repro.retrieval.engine.MergeStage`);
:class:`FilterRefineRetriever` is the filter-and-refine configuration of
that engine.  See the engine module for the batching, tie-breaking,
parameter clamping, parallelism and shared-store rules — they are
identical for every retriever because they are the *same code*:

* ``k``/``p`` clamping: ``p`` is raised to at least ``k`` and both are
  capped at the database size, so every query returns exactly
  ``min(k, n)`` neighbors; with ``p`` clamped to ``n`` the results equal
  brute force, tie order included.
* Tie-breaking: filter cut and refine both resolve distance ties by the
  smallest database index — the stable brute-force scan order.
* ``n_jobs``: queries are embedded and filtered in the parent process and
  the refine work fans out over worker processes
  (:func:`repro.distances.parallel.parallel_refine`), with parent-side
  :class:`~repro.distances.base.CountingDistance` wrappers charged exactly
  as in the serial path.
* Shared store: built on a
  :class:`~repro.distances.context.DistanceContext` (whose universe must
  contain the database), refine evaluations charge against the context's
  store — cached pairs are free and
  ``RetrievalResult.refine_distance_computations`` reports the evaluations
  actually performed (``0`` for a fully warm store).
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.embeddings.base import Embedding
from repro.exceptions import RetrievalError
from repro.retrieval.engine import QueryEngine, RetrievalResult

__all__ = ["FilterRefineRetriever", "RetrievalResult"]


class FilterRefineRetriever:
    """Approximate k-NN retrieval through an embedding.

    A thin configuration of :class:`~repro.retrieval.engine.QueryEngine`
    (embed → filter → refine → merge over the whole database).

    Parameters
    ----------
    distance:
        The exact distance measure (used for the refine step and, through
        the embedding, for the embedding step).  Passing a
        :class:`~repro.distances.context.DistanceContext` whose universe
        contains the database makes refine evaluations go through its
        shared store — cached pairs are free (see the module docstring).
    database:
        The database to search.
    embedder:
        Either a trained :class:`~repro.core.model.QuerySensitiveModel`
        (filter distances are then the query-sensitive ``D_out``) or any
        :class:`~repro.embeddings.base.Embedding` (filter distances are plain
        L1, the choice of the original BoostMap and FastMap baselines).
    database_vectors:
        Optional precomputed ``(n, d)`` matrix of database embeddings.  When
        omitted, the whole database is embedded at construction time (a
        one-time preprocessing cost, not charged to queries).
    """

    def __init__(
        self,
        distance: DistanceMeasure,
        database: Dataset,
        embedder: Union[QuerySensitiveModel, Embedding],
        database_vectors: Optional[np.ndarray] = None,
    ) -> None:
        if not isinstance(distance, DistanceMeasure):
            raise RetrievalError("distance must be a DistanceMeasure instance")
        if not isinstance(database, Dataset):
            raise RetrievalError("database must be a Dataset")
        if not isinstance(embedder, (QuerySensitiveModel, Embedding)):
            raise RetrievalError(
                "embedder must be a QuerySensitiveModel or an Embedding"
            )
        self.database = database
        self.embedder = embedder
        if database_vectors is None:
            database_vectors = embedder.embed_many(list(database))
        self.database_vectors = np.asarray(database_vectors, dtype=float)
        if self.database_vectors.shape != (len(database), self.dim):
            raise RetrievalError(
                f"database_vectors must have shape ({len(database)}, {self.dim}), "
                f"got {self.database_vectors.shape}"
            )
        self.engine = QueryEngine.filter_refine(
            distance, database, embedder, self.database_vectors
        )

    @property
    def dim(self) -> int:
        """Dimensionality of the embedding used for filtering."""
        return self.embedder.dim

    @property
    def embedding_cost(self) -> int:
        """Exact distances needed to embed one query."""
        return self.embedder.cost

    @property
    def refine_distance_evaluations(self) -> int:
        """Total exact distances spent refining, across all queries so far.

        For a context-backed retriever this counts the evaluations actually
        performed (store hits are free).
        """
        return self.engine.refine.calls

    def filter_distances(self, query_vector: np.ndarray) -> np.ndarray:
        """Vector distances from an embedded query to every database vector."""
        return self.engine.filter.distances(query_vector)

    def filter_order(self, query_vector: np.ndarray, p: Optional[int] = None) -> np.ndarray:
        """Database indices sorted by increasing filter distance.

        With ``p`` given, only the ``p`` best candidates are returned: the
        cut uses :func:`np.argpartition` (O(n) selection) and only those
        ``p`` survivors are sorted, instead of a full O(n log n) stable sort
        over the whole database.  The result is identical — including tie
        breaking by database index — to ``filter_order(...)[:p]``.
        """
        return self.engine.filter.cut(query_vector, p)

    def query(self, obj: Any, k: int, p: int) -> RetrievalResult:
        """Retrieve the approximate ``k`` nearest neighbors of ``obj``.

        The query runs the same pipeline as a one-query :meth:`query_many`
        batch: one ``embed_many`` call, then all ``p`` exact distances in
        one batched refine call (``p`` evaluations for a plain measure;
        pairs already in a context's store are free).

        Parameters
        ----------
        obj:
            The query object (in the original space).
        k:
            Number of neighbors to return; clamped to the database size, so
            exactly ``min(k, n)`` neighbors come back.
        p:
            Number of filter candidates to refine with exact distances;
            clamped to ``[min(k, n), n]`` (see the module docstring).
        """
        return self.engine.query(obj, k, p)

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: int,
        n_jobs: Optional[int] = None,
    ) -> List[RetrievalResult]:
        """Batched :meth:`query` over a sequence of query objects.

        All queries are embedded with one (batched) ``embed_many`` call, then
        each query's candidates are refined with one batched exact-distance
        call.  Results are identical to ``[self.query(obj, k, p) for obj in
        objects]``, including per-query cost accounting.

        With ``n_jobs > 1`` (or ``-1`` for all CPUs) the refine work is
        spread over a process pool; embedding and filtering stay in the
        parent, results and counter charges are bit-identical to the serial
        path, and the distance measure plus the database objects must be
        picklable.
        """
        return self.engine.query_many(objects, k, p, n_jobs=n_jobs)
