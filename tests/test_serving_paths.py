"""Every serving path is bit-identical to the serial flat retriever.

A query is served in one process, but along several paths:

* :class:`~repro.retrieval.filter_refine.FilterRefineRetriever` one object
  at a time, or batched with its refine spread over a process pool;
* the bare :meth:`~repro.retrieval.engine.QueryEngine.filter_refine`
  pipeline, and the flat retriever over a cold ``DistanceContext``;
* :class:`~repro.retrieval.planner.PlannedRetriever` and ``run_sweep`` at an
  explicit ``p``;
* the ``EmbeddingIndex`` entry points: ``query`` and ``query_many`` on the
  ``"filter_refine"`` and ``"planned"`` backends, ``query_many`` on a
  borrowed persistent pool, ``submit``, ``stream`` and ``aquery_many``.

For every path the suite checks that

* neighbours, distances, candidate lists and per-query exact-distance
  costs equal the serial flat ``query_many``, over a symmetric measure
  (L2), an asymmetric one (KL divergence) and a database of duplicates in
  which distance ties are everywhere;
* at ``p = n`` the result is the stable brute-force scan, ties ordered by
  database index (the ``"brute_force"`` backend included);
* ``p`` and ``k`` clamp alike (``p > n``, ``k > p``, ``k > n``), and
  ``k = 0`` or ``p = 0`` raises :class:`~repro.exceptions.RetrievalError`;
* a caller's ``CountingDistance`` is charged exactly the refine costs the
  results report.

Every index is built fresh per call from a prebuilt embedding, so each
query is a first sighting and its cost is comparable to the flat run's.
"""

from __future__ import annotations

import asyncio
from typing import Any, List, NamedTuple, Optional

import numpy as np
import pytest

from repro import EmbeddingIndex, IndexConfig
from repro.datasets import Dataset, RetrievalSplit, make_gaussian_clusters
from repro.distances import CountingDistance, KLDivergence, L2Distance
from repro.distances.context import DistanceContext
from repro.embeddings import build_lipschitz_embedding
from repro.exceptions import RetrievalError
from repro.index.pool import PersistentPool
from repro.retrieval import (
    BruteForceRetriever,
    FilterRefineRetriever,
    PlannedRetriever,
)
from repro.retrieval.engine import QueryEngine
from repro.retrieval.sweep import run_sweep


def assert_results_identical(lhs, rhs):
    """Bit-identical RetrievalResult lists: neighbors, distances, costs."""
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        np.testing.assert_array_equal(a.neighbor_distances, b.neighbor_distances)
        np.testing.assert_array_equal(a.candidate_indices, b.candidate_indices)
        assert a.embedding_distance_computations == b.embedding_distance_computations
        assert a.refine_distance_computations == b.refine_distance_computations


@pytest.fixture(scope="module")
def l2_setup():
    """Gaussian split + Lipschitz embedding under L2."""
    dataset = make_gaussian_clusters(n_objects=110, n_clusters=4, n_dims=5, seed=31)
    split = RetrievalSplit.from_dataset(dataset, n_queries=10, seed=32)
    distance = L2Distance()
    embedding = build_lipschitz_embedding(
        distance, split.database, dim=5, set_size=1, seed=33
    )
    return distance, split, embedding


@pytest.fixture(scope="module")
def kl_setup():
    """Probability-vector split + Lipschitz embedding under asymmetric KL."""
    rng = np.random.default_rng(41)
    histograms = rng.dirichlet(np.ones(6), size=90)
    dataset = Dataset(objects=[h for h in histograms], name="dirichlet")
    split = RetrievalSplit.from_dataset(dataset, n_queries=8, seed=42)
    distance = KLDivergence()
    embedding = build_lipschitz_embedding(
        distance, split.database, dim=4, set_size=1, seed=43
    )
    return distance, split, embedding


@pytest.fixture(scope="module")
def tied_setup():
    """A database where most objects are exact duplicates → massive ties."""
    rng = np.random.default_rng(51)
    distinct = rng.normal(size=(12, 3))
    objects = [distinct[i % 12].copy() for i in range(72)]
    rng.shuffle(objects)
    database = Dataset(objects=objects, name="tied-db")
    queries = Dataset(objects=[rng.normal(size=3) for _ in range(6)], name="tied-q")
    distance = L2Distance()
    embedding = build_lipschitz_embedding(distance, database, dim=3, set_size=1, seed=52)
    return distance, RetrievalSplit(database=database, queries=queries), embedding


class TestParallelEqualsSerial:
    def test_flat_query_many_n_jobs(self, kl_setup):
        distance, split, embedding = kl_setup
        flat = FilterRefineRetriever(distance, split.database, embedding)
        queries = list(split.queries)
        assert_results_identical(
            flat.query_many(queries, k=2, p=9),
            flat.query_many(queries, k=2, p=9, n_jobs=2),
        )

    def test_brute_force_n_jobs(self, l2_setup):
        distance, split, _ = l2_setup
        brute = BruteForceRetriever(distance, split.database)
        queries = list(split.queries)[:5]
        serial = brute.query_many(queries, k=4)
        serial_calls = brute.distance_computations
        brute.reset_counter()
        parallel = brute.query_many(queries, k=4, n_jobs=2)
        assert brute.distance_computations == serial_calls
        for (i1, d1), (i2, d2) in zip(serial, parallel):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)


# --------------------------------------------------------------------------- #
# Every serving path against the serial flat retriever                        #
# --------------------------------------------------------------------------- #


class Case(NamedTuple):
    """One database, its queries and embedding, and the store's symmetry."""

    distance: Any
    database: Dataset
    queries: List[Any]
    embedding: Any
    symmetric: bool


def _case(fixture, symmetric: bool = True) -> Case:
    distance, split, embedding = fixture
    return Case(distance, split.database, list(split.queries), embedding, symmetric)


@pytest.fixture(scope="module", params=("l2", "kl", "tied"))
def case(request) -> Case:
    return _case(
        request.getfixturevalue(f"{request.param}_setup"),
        symmetric=request.param != "kl",
    )


@pytest.fixture(scope="module")
def l2_case(l2_setup) -> Case:
    return _case(l2_setup)


@pytest.fixture(scope="module")
def pool():
    """A 2-worker persistent pool the ``index_pooled`` path borrows."""
    with PersistentPool(2) as shared:
        yield shared


PATHS = (
    "query",
    "query_many_jobs",
    "engine",
    "context",
    "planned",
    "sweep",
    "index",
    "index_query",
    "index_planned",
    "index_pooled",
    "submit",
    "stream",
    "aquery_many",
)
#: The paths checked at ``p = n``: every path above, plus the
#: ``"brute_force"`` backend, which refines the whole database whatever
#: ``p`` is.
FULL_SCAN_PATHS = PATHS + ("index_brute_force",)


def _index(distance, s: Case, backend: str, pool: Optional[PersistentPool]):
    """A fresh index over ``distance`` from the prebuilt embedding."""
    config = IndexConfig(
        backend=backend,
        symmetric=s.symmetric,
        n_jobs=None if pool is None else pool.n_workers,
    )
    return EmbeddingIndex.build(
        distance, s.database, config, embedder=s.embedding, pool=pool
    )


def serve(path: str, distance, s: Case, k: int, p: int, pool: PersistentPool):
    """Serve every query of ``s`` along ``path`` over ``distance``."""
    queries = s.queries
    if path in ("query", "query_many_jobs"):
        flat = FilterRefineRetriever(distance, s.database, s.embedding)
        if path == "query":
            return [flat.query(obj, k, p) for obj in queries]
        return flat.query_many(queries, k, p, n_jobs=2)
    if path == "engine":
        vectors = s.embedding.embed_many(list(s.database))
        engine = QueryEngine.filter_refine(distance, s.database, s.embedding, vectors)
        return engine.query_many(queries, k, p)
    if path == "context":
        context = DistanceContext(
            distance, list(s.database) + queries, symmetric=s.symmetric
        )
        return FilterRefineRetriever(context, s.database, s.embedding).query_many(
            queries, k, p
        )
    if path == "planned":
        return PlannedRetriever(distance, s.database, s.embedding).query_many(
            queries, k, p
        )
    if path == "sweep":
        return run_sweep(distance, s.database, s.embedding, queries, k, [p])[p]
    backend = {"index_planned": "planned", "index_brute_force": "brute_force"}.get(
        path, "filter_refine"
    )
    with _index(distance, s, backend, pool if path == "index_pooled" else None) as index:
        if path == "index_query":
            return [index.query(obj, k, p) for obj in queries]
        if path == "submit":
            return [index.submit(obj, k, p).result() for obj in queries]
        if path == "stream":
            return [r for _, r in index.stream(queries, k, p, order="submission")]
        if path == "aquery_many":
            return asyncio.run(index.aquery_many(queries, k, p))
        runs = index.pool.runs if index.pool is not None else 0
        results = index.query_many(queries, k, p)
        if path == "index_pooled":
            # The refine really ran on the borrowed pool.
            assert index.pool.runs > runs
        return results


@pytest.mark.parametrize("path", PATHS)
def test_bit_identical_to_flat(case, path, pool):
    n = len(case.database)
    flat = FilterRefineRetriever(case.distance, case.database, case.embedding)
    for k, p in [(1, 1), (3, 10), (5, 5), (2, 6), (5, 20), (4, n), (10, n)]:
        results = serve(path, case.distance, case, k, p, pool)
        assert_results_identical(results, flat.query_many(case.queries, k, p))
        # Distances are evaluated query first, as the raw measure does.
        for obj, result in zip(case.queries, results):
            neighbours = [case.database[j] for j in result.neighbor_indices]
            np.testing.assert_array_equal(
                result.neighbor_distances, case.distance.compute_many(obj, neighbours)
            )


@pytest.mark.parametrize("path", FULL_SCAN_PATHS)
def test_full_p_equals_brute_force_under_ties(tied_setup, path, pool):
    """With p = n every path reproduces brute force exactly, including tie
    resolution by database index."""
    s = _case(tied_setup)
    brute = BruteForceRetriever(s.distance, s.database)
    results = serve(path, s.distance, s, 8, len(s.database), pool)
    assert len(results) == len(s.queries)
    for obj, result in zip(s.queries, results):
        indices, distances = brute.query(obj, k=8)
        np.testing.assert_array_equal(result.neighbor_indices, indices)
        np.testing.assert_array_equal(result.neighbor_distances, distances)


@pytest.mark.parametrize("path", PATHS)
def test_p_and_k_clamping(l2_case, path, pool):
    n, m = len(l2_case.database), len(l2_case.queries)
    big_p = serve(path, l2_case.distance, l2_case, 4, 10**6, pool)
    assert [r.candidate_indices.shape for r in big_p] == [(n,)] * m
    assert [r.refine_distance_computations for r in big_p] == [n] * m
    small_p = serve(path, l2_case.distance, l2_case, 12, 2, pool)
    assert [r.neighbor_indices.shape for r in small_p] == [(12,)] * m
    assert [r.refine_distance_computations for r in small_p] == [12] * m
    big_k = serve(path, l2_case.distance, l2_case, n + 7, 1, pool)
    assert [r.neighbor_indices.shape for r in big_k] == [(n,)] * m


@pytest.mark.parametrize("path", PATHS)
def test_zero_k_or_p_is_refused(l2_case, path, pool):
    with pytest.raises(RetrievalError):
        serve(path, l2_case.distance, l2_case, 0, 5, pool)
    with pytest.raises(RetrievalError):
        serve(path, l2_case.distance, l2_case, 1, 0, pool)


@pytest.mark.parametrize("path", PATHS)
def test_callers_counter_is_charged_the_reported_cost(l2_case, path, pool):
    """A caller's counter is charged once per refined candidate, in this
    process or across a pool, and the results report the same cost."""
    counting = CountingDistance(l2_case.distance)
    results = serve(path, counting, l2_case, 4, 15, pool)
    assert [r.refine_distance_computations for r in results] == [15] * len(
        l2_case.queries
    )
    assert counting.calls == 15 * len(l2_case.queries)
