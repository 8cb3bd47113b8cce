"""Dimensionality sweeps and the optimal (d, p) search of Sec. 9.

The paper evaluates every method at "the optimal parameters": for each
``(k, accuracy)`` pair it searches over the embedding dimensionality ``d``
and the filter size ``p`` for the combination minimising the number of exact
distance computations per query.  Because both the trained models
(:meth:`QuerySensitiveModel.truncate`) and FastMap
(:meth:`FastMapEmbedding.prefix`) order their coordinates by construction,
a single full-dimensional embedding of the database and queries is enough:
lower-dimensional variants reuse the leading columns of those matrices, so
the sweep costs no additional exact distance computations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.embeddings.base import Embedding
from repro.embeddings.fastmap import FastMapEmbedding
from repro.exceptions import RetrievalError
from repro.retrieval.engine import (
    QueryEngine,
    RetrievalResult,
    build_retrieval_result,
    clamp_query_params,
    refine_candidates,
)
from repro.retrieval.evaluation import (
    AccuracyCostPoint,
    FilterRankResult,
    cost_for_accuracy,
    filter_ranks,
)
from repro.retrieval.knn import NeighborTable

Embedder = Union[QuerySensitiveModel, Embedding]


def truncate_embedder(embedder: Embedder, dim: int) -> Embedder:
    """Return a lower-dimensional version of a trained embedder.

    Trained models are truncated to their first coordinates; FastMap
    embeddings keep their first levels; composite embeddings keep their first
    coordinates.  Anything else is rejected.
    """
    if isinstance(embedder, QuerySensitiveModel):
        return embedder if dim == embedder.dim else embedder.truncate(dim)
    if isinstance(embedder, Embedding):
        if dim == embedder.dim:
            return embedder
        if hasattr(embedder, "prefix"):
            return embedder.prefix(dim)
    raise RetrievalError(
        f"{type(embedder).__name__} does not support dimensionality truncation"
    )


@dataclass
class SweepEntry:
    """Filter ranks of one dimensionality setting within a sweep."""

    dim: int
    rank_result: FilterRankResult


class DimensionSweep:
    """Evaluate one embedding method across several dimensionalities.

    Parameters
    ----------
    embedder:
        The full-dimensional trained model or embedding.
    database_vectors, query_vectors:
        Full-dimensional embedding matrices of the database and queries.
    ground_truth:
        Exact nearest neighbors of the queries.
    dims:
        The dimensionalities to evaluate; values exceeding ``embedder.dim``
        are clipped to it (and duplicates removed).
    """

    def __init__(
        self,
        embedder: Embedder,
        database_vectors: np.ndarray,
        query_vectors: np.ndarray,
        ground_truth: NeighborTable,
        dims: Sequence[int],
    ) -> None:
        self.embedder = embedder
        self.database_vectors = np.asarray(database_vectors, dtype=float)
        self.query_vectors = np.asarray(query_vectors, dtype=float)
        self.ground_truth = ground_truth
        if self.database_vectors.shape[1] != embedder.dim:
            raise RetrievalError(
                "database_vectors dimensionality does not match the embedder"
            )
        if self.query_vectors.shape[1] != embedder.dim:
            raise RetrievalError(
                "query_vectors dimensionality does not match the embedder"
            )
        cleaned: List[int] = []
        for dim in dims:
            dim = int(min(dim, embedder.dim))
            if dim >= 1 and dim not in cleaned:
                cleaned.append(dim)
        if not cleaned:
            raise RetrievalError("the dimensionality sweep needs at least one value")
        self.dims = sorted(cleaned)
        self.entries: List[SweepEntry] = [
            self._evaluate_dim(dim) for dim in self.dims
        ]

    def _evaluate_dim(self, dim: int) -> SweepEntry:
        reduced = truncate_embedder(self.embedder, dim)
        rank_result = filter_ranks(
            reduced,
            self.database_vectors[:, :dim],
            self.query_vectors[:, :dim],
            self.ground_truth,
        )
        return SweepEntry(dim=dim, rank_result=rank_result)

    def best_point(
        self, k: int, accuracy: float, database_size: Optional[int] = None
    ) -> AccuracyCostPoint:
        """The minimum-cost (d, p) combination for one (k, accuracy) target."""
        if database_size is None:
            database_size = self.database_vectors.shape[0]
        best: Optional[AccuracyCostPoint] = None
        for entry in self.entries:
            point = cost_for_accuracy(entry.rank_result, k, accuracy, database_size)
            if best is None or point.cost < best.cost:
                best = point
        assert best is not None  # self.entries is never empty
        return best


def run_sweep(
    distance: DistanceMeasure,
    database: Dataset,
    embedder: Embedder,
    queries: Sequence,
    k: int,
    ps: Sequence[int],
    database_vectors: Optional[np.ndarray] = None,
) -> Dict[int, List[RetrievalResult]]:
    """Sweep the filter size ``p`` over one warm retrieval pipeline.

    Runs every query once through a single shared engine: the batch is
    embedded and filter-cut at the *largest* swept ``p`` once
    (:meth:`~repro.retrieval.engine.QueryEngine.prepare`), and each smaller
    sweep point reuses a prefix of that cut (stable top-``p`` cuts are
    prefix-closed), refining only the candidate block each point adds.  A
    naive sweep re-pays the embed + filter scan — and, without a shared
    store, the whole refine — for every point.

    Returns ``{p: [RetrievalResult, ...]}`` keyed by the requested ``p``
    values, results in query order.  Every point is bit-identical —
    neighbors, tie order and per-query accounting — to a fixed-``p``
    ``query_many`` run started from the store state the sweep began with:
    on a context-backed ``distance`` each point's ``refine_cost`` is the
    cumulative evaluations its prefix actually missed (exactly what the
    fixed run would have been charged), and this equals the adaptive
    planner's charge at its chosen ``p'`` — the parity the sweep tests
    assert.
    """
    ps_clean: List[int] = []
    for p in ps:
        p = int(p)
        if p < 1:
            raise RetrievalError(f"swept p values must be positive, got {p}")
        if p not in ps_clean:
            ps_clean.append(p)
    if not ps_clean:
        raise RetrievalError("the p sweep needs at least one value")
    ps_clean.sort()
    queries = list(queries)
    engine = QueryEngine.filter_refine(
        distance,
        database,
        embedder,
        embedder.embed_many(list(database))
        if database_vectors is None
        else database_vectors,
    )
    n = engine.n_database
    results: Dict[int, List[RetrievalResult]] = {p: [] for p in ps_clean}
    plan = engine.make_plan(queries, k, ps_clean[-1])
    if not queries:
        return results
    plan = engine.prepare(plan)
    for obj, candidates in zip(plan.objects, plan.candidate_lists):
        exact = np.empty(plan.p_eff, dtype=float)
        done = 0
        charged = 0
        for p in ps_clean:
            k_eff, p_eff = clamp_query_params(k, p, n)
            if p_eff > done:
                exact[done:p_eff], spent = refine_candidates(
                    engine.refine, obj, candidates[done:p_eff]
                )
                charged += spent
                done = p_eff
            results[p].append(
                build_retrieval_result(
                    candidates[:p_eff],
                    exact[:p_eff],
                    k_eff,
                    p_eff,
                    plan.embedding_cost,
                    refine_cost=charged,
                )
            )
    return results


def optimal_cost_curve(
    sweep: DimensionSweep,
    ks: Sequence[int],
    accuracies: Sequence[float],
    database_size: Optional[int] = None,
) -> Dict[float, Dict[int, AccuracyCostPoint]]:
    """Full accuracy/cost table for one method.

    Returns a nested mapping ``{accuracy: {k: AccuracyCostPoint}}`` — the raw
    material of Figures 4/5/6 and Table 1.
    """
    results: Dict[float, Dict[int, AccuracyCostPoint]] = {}
    for accuracy in accuracies:
        per_k: Dict[int, AccuracyCostPoint] = {}
        for k in ks:
            per_k[int(k)] = sweep.best_point(int(k), float(accuracy), database_size)
        results[float(accuracy)] = per_k
    return results
