"""Sharded filter-and-refine retrieval.

:class:`ShardedRetriever` partitions the database into ``S`` contiguous
shards, runs the embedding filter of
:class:`~repro.retrieval.filter_refine.FilterRefineRetriever` per shard and
merges the per-shard candidates into the global candidate list, whose
exact refine yields globally exact top-``k`` results.  The
point is serving shape: each shard's filter scan is an independent unit
of work, and the :mod:`repro.remote` shard servers run each shard's filter
and refine on their own rows, while results stay *bit-identical* to the
single-process unsharded path.

The retriever is a thin configuration of
:class:`~repro.retrieval.engine.QueryEngine`: the shard merge lives in
:class:`~repro.retrieval.engine.ShardedFilterStage` and the refine in the
same :class:`~repro.retrieval.engine.RefineStage` the unsharded pipeline
runs, so tie-breaking, clamping and accounting cannot drift.

Shard/merge semantics
---------------------
Shards are contiguous database index ranges (``np.array_split`` over
``[0, n)``), so a shard-local index plus the shard offset is the global
database index and global tie-breaking by index is preserved.  Per query:

1. **Filter per shard** — compute filter distances against the shard's slice
   of the embedded database (row-wise, so values equal the full-database
   computation bit-for-bit) and keep the shard's ``min(p, shard_size)`` best
   candidates in stable (distance, index) order.
2. **Merge** — concatenate the per-shard survivor lists in shard order and
   take the globally best ``p`` by a stable sort on filter distance.
   Because each shard list is stable-ordered and shard order equals global
   index order, concatenation order breaks distance ties by ascending global
   index — exactly what the unsharded stable filter cut does, so the merged
   candidate list is identical to
   :meth:`~repro.retrieval.filter_refine.FilterRefineRetriever.filter_order`.
   (A shard's local top-``min(p, shard_size)`` necessarily contains every
   global top-``p`` member of that shard, so no candidate is lost.)
3. **Refine** — evaluate the exact distances from the query to its merged
   candidate list in filter order, exactly as the unsharded pipeline does,
   and keep the best ``min(k, n)`` with ties again resolved by global
   database index — the same brute-force-identical order as the unsharded
   path.

The per-query cost is unchanged: ``embedding.cost`` exact distances to embed
plus exactly ``p`` to refine, regardless of the shard count.

Parallelism and accounting
--------------------------
The ``n_jobs`` argument of :meth:`ShardedRetriever.query_many` fans the
batch's refine work out over a process pool, one unit per query, through
:func:`repro.distances.parallel.parallel_refine`; a one-query call stays
serial.  That fan-out keeps accounting exact: top-level
:class:`~repro.distances.base.CountingDistance` wrappers stay in the parent
and are charged one evaluation per refined candidate, and workers receive
the inner measure.  On a :class:`~repro.distances.context.DistanceContext`
the refine resolves store hits in the parent and evaluates only the
missing pairs (the context is never shipped), so per-query
``refine_distance_computations`` reports the evaluations actually
performed, exactly as on the unsharded context path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.embeddings.base import Embedding
from repro.exceptions import RetrievalError
from repro.retrieval.engine import QueryEngine, RetrievalResult

__all__ = ["Shard", "ShardedRetriever"]


@dataclass
class Shard:
    """One contiguous partition of the database.

    Attributes
    ----------
    offset:
        Global database index of the shard's first object.
    objects:
        The shard's objects (shared references into the database).
    vectors:
        The shard's slice of the embedded database matrix.
    """

    offset: int
    objects: List[Any]
    vectors: np.ndarray

    def __len__(self) -> int:
        return len(self.objects)


class ShardedRetriever:
    """Filter-and-refine retrieval over a sharded database.

    Results (neighbors, distances, candidate lists and per-query cost
    accounting) are bit-identical to an unsharded
    :class:`~repro.retrieval.filter_refine.FilterRefineRetriever` built on
    the same distance, database and embedder — sharding changes how the work
    is laid out, never what is computed.  See the module docstring for the
    merge semantics and the parallel accounting rules.

    Parameters
    ----------
    distance:
        The exact distance measure (refine step; also used by the embedder).
    database:
        The database to search.
    embedder:
        A trained :class:`~repro.core.model.QuerySensitiveModel` or any
        :class:`~repro.embeddings.base.Embedding`.
    n_shards:
        Number of contiguous shards to partition the database into; clamped
        to the database size.
    database_vectors:
        Optional precomputed ``(n, d)`` matrix of database embeddings (the
        same matrix an unsharded retriever would use; it is sliced per
        shard).  When omitted, the database is embedded at construction time.
    """

    def __init__(
        self,
        distance: DistanceMeasure,
        database: Dataset,
        embedder: Union[QuerySensitiveModel, Embedding],
        n_shards: int = 2,
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
        if n_shards < 1:
            raise RetrievalError(f"n_shards must be at least 1, got {n_shards}")
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
        objects = list(database)
        splits = np.array_split(np.arange(len(database)), min(n_shards, len(database)))
        self.shards: List[Shard] = [
            Shard(
                offset=int(chunk[0]),
                objects=[objects[int(i)] for i in chunk],
                vectors=self.database_vectors[chunk[0] : chunk[-1] + 1],
            )
            for chunk in splits
            if chunk.size
        ]
        self.engine = QueryEngine.sharded(distance, database, embedder, self.shards)

    @property
    def n_shards(self) -> int:
        """Number of database shards."""
        return len(self.shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Object count per shard."""
        return tuple(len(shard) for shard in self.shards)

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

    # ------------------------------------------------------------------ #
    # Queries                                                            #
    # ------------------------------------------------------------------ #

    def query(self, obj: Any, k: int, p: int) -> RetrievalResult:
        """Retrieve the approximate ``k`` nearest neighbors of ``obj``.

        ``k`` and ``p`` are clamped exactly like the unsharded retriever
        (``p`` into ``[min(k, n), n]``), so exactly ``min(k, n)`` neighbors
        come back.  A one-query call refines serially.
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

        Queries are embedded with one batched ``embed_many`` call and
        filtered/merged in the parent process; the refine work — one unit
        per query — runs serially or over a process pool (``n_jobs``;
        ``None``/``0``/``1`` = serial, ``-1`` = all CPUs).  Results and
        per-query exact-distance accounting are bit-identical to the serial
        unsharded
        :meth:`~repro.retrieval.filter_refine.FilterRefineRetriever.query_many`.
        """
        return self.engine.query_many(objects, k, p, n_jobs=n_jobs)
