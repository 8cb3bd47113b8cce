"""Accuracy-versus-cost evaluation (the protocol of Sec. 9).

The paper's definition of success is strict: a query is answered correctly,
for a given ``k``, only if **all** of its ``k`` true nearest neighbors appear
among the ``p`` candidates kept by the filter step (the refine step then
identifies them exactly, since it uses exact distances).  For an accuracy
target ``B`` (e.g. 90%), the relevant quantity is therefore the smallest
``p`` for which at least a fraction ``B`` of the queries keep all their true
neighbors; the cost per query is that ``p`` plus the embedding cost.

The implementation precomputes, for every query, the *rank* of each true
neighbor in the filter ordering; every (k, B) combination then reduces to a
quantile computation, so sweeping k from 1 to 50 and several accuracy levels
is essentially free once the ranks are known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.embeddings.base import Embedding
from repro.exceptions import RetrievalError
from repro.retrieval.engine import filter_vector_distances
from repro.retrieval.knn import NeighborTable


@dataclass
class FilterRankResult:
    """Filter-step ranks of the true nearest neighbors, for one embedding.

    Attributes
    ----------
    rank_matrix:
        ``(n_queries, k_max)`` array; entry ``[i, j]`` is the 1-based position
        of query ``i``'s ``(j+1)``-th true nearest neighbor in the filter
        ordering of that query.
    embedding_cost:
        Exact distance computations needed to embed one query.
    dim:
        Dimensionality of the embedding that produced the ranks.
    """

    rank_matrix: np.ndarray
    embedding_cost: int
    dim: int

    def __post_init__(self) -> None:
        self.rank_matrix = np.asarray(self.rank_matrix, dtype=int)
        if self.rank_matrix.ndim != 2:
            raise RetrievalError("rank_matrix must be 2D (queries x k_max)")
        if np.any(self.rank_matrix < 1):
            raise RetrievalError("ranks are 1-based and must be >= 1")

    @property
    def n_queries(self) -> int:
        """Number of evaluated queries (rows of the rank matrix)."""
        return int(self.rank_matrix.shape[0])

    @property
    def k_max(self) -> int:
        """Largest ``k`` the rank matrix covers (its column count)."""
        return int(self.rank_matrix.shape[1])


@dataclass(frozen=True)
class AccuracyCostPoint:
    """One point of the paper's accuracy/cost trade-off curves.

    Attributes
    ----------
    k:
        Number of nearest neighbors that must all be retrieved.
    accuracy:
        Fraction of queries for which that must succeed (e.g. 0.95).
    dim:
        Embedding dimensionality that achieves the minimum cost.
    p:
        Filter-candidate count that achieves the target at that
        dimensionality.
    cost:
        Exact distance computations per query (embedding cost + p), capped
        at the brute-force cost.
    """

    k: int
    accuracy: float
    dim: int
    p: int
    cost: int


def filter_ranks(
    embedder: Union[QuerySensitiveModel, Embedding],
    database_vectors: np.ndarray,
    query_vectors: np.ndarray,
    ground_truth: NeighborTable,
) -> FilterRankResult:
    """Compute the filter-step ranks of every query's true nearest neighbors.

    Parameters
    ----------
    embedder:
        The trained model (query-sensitive filter distance) or plain
        embedding (L1 filter distance).
    database_vectors:
        Precomputed ``(n_database, d)`` matrix of database embeddings.
    query_vectors:
        Precomputed ``(n_queries, d)`` matrix of query embeddings.
    ground_truth:
        Exact nearest neighbors of each query
        (:func:`repro.retrieval.knn.ground_truth_neighbors`).
    """
    database_vectors = np.asarray(database_vectors, dtype=float)
    query_vectors = np.asarray(query_vectors, dtype=float)
    if database_vectors.ndim != 2 or query_vectors.ndim != 2:
        raise RetrievalError("database_vectors and query_vectors must be 2D")
    if database_vectors.shape[1] != query_vectors.shape[1]:
        raise RetrievalError("database and query vectors must share dimensionality")
    if query_vectors.shape[0] != ground_truth.n_queries:
        raise RetrievalError(
            "query_vectors and ground_truth must describe the same queries"
        )
    if np.any(ground_truth.indices >= database_vectors.shape[0]):
        raise RetrievalError("ground truth references objects outside the database")

    n_queries = query_vectors.shape[0]
    k_max = ground_truth.k_max
    n_database = database_vectors.shape[0]
    rank_matrix = np.empty((n_queries, k_max), dtype=int)
    database_positions = np.arange(n_database)
    for qi in range(n_queries):
        filter_dists = filter_vector_distances(
            embedder, query_vectors[qi], database_vectors
        )
        # rank of database object j in the stable filter ordering = number of
        # objects with strictly smaller filter distance + number of equal
        # distances at smaller indices + 1 (ties broken by database index,
        # matching the stable argsort-based candidate selection).  Computing
        # the k_max needed ranks directly is O(n * k_max) instead of sorting
        # the whole database per query.
        neighbors = ground_truth.indices[qi]
        neighbor_dists = filter_dists[neighbors]
        smaller = (filter_dists[None, :] < neighbor_dists[:, None]).sum(axis=1)
        ties_before = (
            (filter_dists[None, :] == neighbor_dists[:, None])
            & (database_positions[None, :] < neighbors[:, None])
        ).sum(axis=1)
        rank_matrix[qi] = smaller + ties_before + 1
    return FilterRankResult(
        rank_matrix=rank_matrix,
        embedding_cost=int(embedder.cost),
        dim=int(embedder.dim),
    )


def required_filter_sizes(rank_result: FilterRankResult, k: int) -> np.ndarray:
    """Per-query minimal ``p`` that keeps all ``k`` true neighbors.

    For query ``i`` this is the maximum filter rank among its ``k`` true
    nearest neighbors: any smaller ``p`` would drop at least one of them.
    """
    if not 1 <= k <= rank_result.k_max:
        raise RetrievalError(f"k must be in [1, {rank_result.k_max}], got {k}")
    return rank_result.rank_matrix[:, :k].max(axis=1)


def cost_for_accuracy(
    rank_result: FilterRankResult,
    k: int,
    accuracy: float,
    database_size: int,
) -> AccuracyCostPoint:
    """Minimum per-query cost achieving an accuracy target at fixed ``d``.

    Parameters
    ----------
    rank_result:
        Filter ranks for one embedding dimensionality.
    k:
        All ``k`` true neighbors must be retrieved.
    accuracy:
        Required fraction of successful queries, in (0, 1].
    database_size:
        Size of the database; costs are capped at this value because a
        method that needs more work than brute force would simply not be
        used.
    """
    if not 0.0 < accuracy <= 1.0:
        raise RetrievalError(f"accuracy must be in (0, 1], got {accuracy}")
    if database_size <= 0:
        raise RetrievalError("database_size must be positive")
    required = np.sort(required_filter_sizes(rank_result, k))
    n_queries = required.shape[0]
    # Smallest p such that at least ceil(accuracy * n) queries succeed.
    needed_successes = int(np.ceil(accuracy * n_queries))
    needed_successes = min(max(needed_successes, 1), n_queries)
    p = int(required[needed_successes - 1])
    cost = min(rank_result.embedding_cost + p, database_size)
    return AccuracyCostPoint(
        k=int(k),
        accuracy=float(accuracy),
        dim=rank_result.dim,
        p=p,
        cost=int(cost),
    )


def success_rate(rank_result: FilterRankResult, k: int, p: int) -> float:
    """Fraction of queries whose ``k`` true neighbors all survive a size-``p`` filter."""
    if p < 1:
        raise RetrievalError("p must be at least 1")
    required = required_filter_sizes(rank_result, k)
    return float(np.mean(required <= p))


def retrieval_recall(results: Sequence, ground_truth: NeighborTable, k: int) -> float:
    """Fraction of queries whose reported neighbors are exactly correct.

    Applies the paper's strict criterion to actual retrieval output (a
    sequence of :class:`~repro.retrieval.filter_refine.RetrievalResult`, from
    any retriever): a query counts as correct only if
    *all* ``k`` true nearest neighbors appear among its reported top ``k``.
    Complementary to :func:`success_rate`, which predicts the same quantity
    from filter ranks without running the refine step.
    """
    results = list(results)
    if len(results) != ground_truth.n_queries:
        raise RetrievalError(
            f"got {len(results)} results for {ground_truth.n_queries} queries"
        )
    if not 1 <= k <= ground_truth.k_max:
        raise RetrievalError(f"k must be in [1, {ground_truth.k_max}], got {k}")
    correct = 0
    for qi, result in enumerate(results):
        reported = set(int(i) for i in result.neighbor_indices[:k])
        if all(int(i) in reported for i in ground_truth.indices[qi, :k]):
            correct += 1
    return correct / len(results)
