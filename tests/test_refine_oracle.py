"""Differential oracle for the refine step: every path against brute force.

Every retrieval configuration spends ``p`` exact distances per query in the
refine step, and all of them must agree on what those distances are, how
they rank and what they cost.  This module runs the full cross product of

* measure: a raw ``L2Distance``, a caller's ``CountingDistance``, a cold
  ``DistanceContext`` and a ``DistanceContext`` whose store already holds
  one query's full scan;
* retriever: ``BruteForceRetriever``, ``FilterRefineRetriever``,
  ``PlannedRetriever`` at an explicit ``p`` and ``run_sweep``;
* call: ``query`` per object, ``query_many`` and ``query_many(n_jobs=2)``;

plus the adaptive planner against fixed-``p'`` flat runs, and the ``EmbeddingIndex`` serving entry points (``query``,
``query_many``, ``submit``, ``stream``, ``aquery_many``) on a freshly
built index, on one reopened from its saved artifact and on a planned
index at ``p=None``.  It asserts that

* at ``p = n`` neighbours, distances and tie order equal a brute-force scan
  over the raw measure;
* at a fixed ``p`` they equal the flat ``FilterRefineRetriever.query_many``
  over the raw measure, candidate lists included;
* the per-query ``refine_distance_computations`` and the delta of the
  caller's counter agree across every retriever.

The database repeats a few distinct points, so exact-distance ties are
everywhere and tie order is tested on every query.  Only public API is used.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro import (
    CountingDistance,
    Dataset,
    EmbeddingIndex,
    IndexConfig,
    L2Distance,
    TrainingConfig,
)
from repro.distances.context import DistanceContext
from repro.embeddings import build_lipschitz_embedding
from repro.retrieval import (
    BruteForceRetriever,
    FilterRefineRetriever,
    PlannedRetriever,
)
from repro.retrieval.sweep import run_sweep

K = 4
P = 9

MEASURES = ("raw", "counting", "context", "context_warm")
RETRIEVERS = ("brute_force", "filter_refine", "planned", "sweep")
CALLS = ("query", "query_many", "query_many_jobs")


@pytest.fixture(scope="module")
def data():
    """A tied database (7 distinct points, each repeated), queries, embedding."""
    rng = np.random.default_rng(2024)
    distinct = rng.normal(size=(7, 3))
    objects = [distinct[i % 7].copy() for i in range(42)]
    rng.shuffle(objects)
    database = Dataset(objects=objects, name="oracle-db")
    queries = [rng.normal(size=3) for _ in range(5)]
    embedding = build_lipschitz_embedding(
        L2Distance(), database, dim=3, set_size=1, seed=5
    )
    vectors = embedding.embed_many(list(database))
    return database, queries, embedding, vectors


class Row:
    """One query's outcome: neighbours, distances, candidates and cost."""

    def __init__(
        self,
        indices: np.ndarray,
        distances: np.ndarray,
        candidates: Optional[np.ndarray] = None,
        cost: Optional[int] = None,
    ) -> None:
        self.indices = np.asarray(indices)
        self.distances = np.asarray(distances)
        self.candidates = None if candidates is None else np.asarray(candidates)
        self.cost = cost


def _rows(results) -> List[Row]:
    return [
        Row(
            r.neighbor_indices,
            r.neighbor_distances,
            r.candidate_indices,
            r.refine_distance_computations,
        )
        for r in results
    ]


def _measure(kind: str, database: Dataset, queries: List[Any]):
    """A fresh measure of ``kind`` and a reader of its evaluation counter."""
    if kind == "raw":
        return L2Distance(), None
    if kind == "counting":
        counting = CountingDistance(L2Distance())
        return counting, lambda: counting.calls
    context = DistanceContext(L2Distance(), list(database) + list(queries))
    if kind == "context_warm":
        context.distances_to(queries[0], np.arange(len(database)))
    return context, lambda: context.distance_evaluations


def _run(
    retriever: str, call: str, distance, data, p: int
) -> Tuple[List[Row], Optional[int]]:
    """Serve every query; returns rows plus the retriever's total refine count."""
    database, queries, embedding, vectors = data
    n_jobs = 2 if call == "query_many_jobs" else None
    if retriever == "brute_force":
        brute = BruteForceRetriever(distance, database)
        if call == "query":
            rows = [Row(*brute.query(obj, K)) for obj in queries]
        else:
            rows = [Row(*pair) for pair in brute.query_many(queries, K, n_jobs=n_jobs)]
        return rows, brute.distance_computations
    if retriever == "sweep":
        if call == "query":
            return [
                _rows(run_sweep(distance, database, embedding, [obj], K, [p], vectors)[p])[0]
                for obj in queries
            ], None
        return _rows(
            run_sweep(distance, database, embedding, queries, K, [p], vectors)[p]
        ), None
    if retriever == "filter_refine":
        engine: Any = FilterRefineRetriever(distance, database, embedding, vectors)
    else:
        engine = PlannedRetriever(distance, database, embedding, vectors)
    if call == "query":
        results = [engine.query(obj, K, p) for obj in queries]
    else:
        results = engine.query_many(queries, K, p, n_jobs=n_jobs)
    return _rows(results), engine.refine_distance_evaluations


def _brute_reference(data) -> List[Row]:
    """Stable brute-force scan over the raw measure (ties by database index)."""
    database, queries, _, _ = data
    raw = L2Distance()
    rows = []
    for obj in queries:
        exact = np.asarray(raw.compute_many(obj, list(database)), dtype=float)
        order = np.argsort(exact, kind="stable")[:K]
        rows.append(Row(order, exact[order]))
    return rows


def _flat_reference(kind: str, data, p: int) -> List[Row]:
    """Flat ``query_many`` at ``p`` over a fresh measure of ``kind``."""
    database, queries, embedding, vectors = data
    distance, _ = _measure(kind, database, queries)
    flat = FilterRefineRetriever(distance, database, embedding, vectors)
    return _rows(flat.query_many(queries, K, p))


def _assert_rows_equal(got: List[Row], expected: List[Row], candidates: bool) -> None:
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.distances, b.distances)
        if candidates:
            np.testing.assert_array_equal(a.candidates, b.candidates)


@pytest.mark.parametrize("call", CALLS)
@pytest.mark.parametrize("retriever", RETRIEVERS)
@pytest.mark.parametrize("measure", MEASURES)
def test_retrievers_agree_with_brute_force_and_flat(data, measure, retriever, call):
    database, queries, _, _ = data
    n = len(database)
    for p in (n, P):
        if retriever == "brute_force" and p != n:
            continue
        distance, counter = _measure(measure, database, queries)
        before = counter() if counter is not None else 0
        rows, total = _run(retriever, call, distance, data, p)
        spent = counter() - before if counter is not None else None

        expected = _flat_reference(measure, data, p)
        if p == n:
            _assert_rows_equal(rows, _brute_reference(data), candidates=False)
        if retriever != "brute_force":
            _assert_rows_equal(rows, _flat_reference("raw", data, p), candidates=True)
            assert [row.cost for row in rows] == [row.cost for row in expected]

        expected_total = sum(row.cost for row in expected)
        if total is not None:
            assert total == expected_total
        if spent is not None:
            assert spent == expected_total


@pytest.mark.parametrize("measure", MEASURES)
@pytest.mark.parametrize("call", ("query", "query_many"))
def test_adaptive_planner_equals_fixed_p(data, measure, call):
    """The planner's chosen ``p'`` equals a fixed-``p'`` flat
    ``FilterRefineRetriever`` run, cost included."""
    database, queries, embedding, vectors = data
    distance, counter = _measure(measure, database, queries)
    planner = PlannedRetriever(distance, database, embedding, vectors)
    before = counter() if counter is not None else 0
    if call == "query":
        results = [planner.query(obj, K) for obj in queries]
    else:
        results = planner.query_many(queries, K)
    spent = counter() - before if counter is not None else None

    reference, _ = _measure(measure, database, queries)
    fixed = FilterRefineRetriever(reference, database, embedding, vectors)
    expected = _rows(
        [fixed.query(obj, K, r.stats["planned_p"]) for obj, r in zip(queries, results)]
    )
    rows = _rows(results)
    _assert_rows_equal(rows, expected, candidates=True)
    assert [row.cost for row in rows] == [row.cost for row in expected]
    if spent is not None:
        assert spent == sum(row.cost for row in expected)


# --------------------------------------------------------------------------- #
# EmbeddingIndex serving entry points, cold and reopened                      #
# --------------------------------------------------------------------------- #

INDEX_CONFIG = IndexConfig(
    training=TrainingConfig(
        n_candidates=10,
        n_training_objects=20,
        n_triples=80,
        n_rounds=4,
        classifiers_per_round=8,
        kmax=5,
        seed=3,
    ),
    backend="filter_refine",
)
ENTRY_POINTS = (
    "query",
    "query_many",
    "submit",
    "stream",
    "aquery_many",
    "query_many_deadline",
)


def _serve(index: EmbeddingIndex, entry: str, queries: List[Any], p: Optional[int]):
    if entry == "query":
        results = [index.query(obj, K, p) for obj in queries]
    elif entry == "query_many":
        results = index.query_many(queries, K, p)
    elif entry == "submit":
        results = [index.submit(obj, K, p).result() for obj in queries]
    elif entry == "stream":
        results = [r for _, r in index.stream(queries, K, p, order="submission")]
    elif entry == "aquery_many":
        results = asyncio.run(index.aquery_many(queries, K, p))
    else:
        # A deadline routes the batch through the serving stream.
        results = index.query_many(queries, K, p, deadline=60)
    return results


@pytest.fixture(scope="module", params=("raw", "counting"))
def saved_index(request, data, tmp_path_factory):
    """An index built over a raw or counting measure, plus its saved artifact."""
    database, _, _, _ = data
    counting = request.param == "counting"
    distance = CountingDistance(L2Distance()) if counting else L2Distance()
    path = tmp_path_factory.mktemp(f"oracle-{request.param}") / "index"
    with EmbeddingIndex.build(distance, database, INDEX_CONFIG) as index:
        index.save(path)
    return request.param, path


def _index(kind: str, path, database: Dataset, reopen: bool):
    """A fresh index over a fresh measure; returns it and its caller counter."""
    counting = CountingDistance(L2Distance()) if kind == "counting" else None
    distance = counting if counting is not None else L2Distance()
    if reopen:
        index = EmbeddingIndex.open(path, database, distance=distance)
    else:
        index = EmbeddingIndex.build(distance, database, INDEX_CONFIG)
    return index, counting


@pytest.mark.parametrize("reopen", (False, True), ids=("cold", "reopened"))
def test_index_entry_points_agree(data, saved_index, reopen):
    database, queries, _, _ = data
    kind, path = saved_index
    n = len(database)
    for p in (n, P):
        costs: Dict[str, List[int]] = {}
        evaluations: Dict[str, int] = {}
        for entry in ENTRY_POINTS:
            index, counting = _index(kind, path, database, reopen)
            with index:
                flat = FilterRefineRetriever(
                    L2Distance(), database, index.embedder, index.database_vectors
                )
                expected = _rows(flat.query_many(queries, K, p))
                before = index.distance_evaluations
                caller_before = counting.calls if counting is not None else 0
                rows = _rows(_serve(index, entry, queries, p))
                evaluations[entry] = index.distance_evaluations - before
                if counting is not None:
                    assert counting.calls - caller_before == evaluations[entry], entry
            _assert_rows_equal(rows, expected, candidates=True)
            if p == n:
                _assert_rows_equal(rows, _brute_reference(data), candidates=False)
            costs[entry] = [row.cost for row in rows]
        assert all(c == costs["query_many"] for c in costs.values()), costs
        assert len(set(evaluations.values())) == 1, evaluations


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_planned_index_entry_points_at_p_none(data, entry):
    """``p=None`` on a planned index means one thing on every entry point.

    Each refines with the early exit and equals the flat run at its
    result's ``planned_p``, a step of ``explain(k)["schedule"]``, with
    ``query_many(p=None)``'s ``p'``.  Candidate lists and per-query costs
    are compared too.
    """
    database, queries, _, _ = data
    with EmbeddingIndex.build(L2Distance(), database, INDEX_CONFIG) as index:
        index.enable_planner(cost_budget=index.embedding_cost + 2 * P)
        plan = index.explain(K)
        results = _serve(index, entry, queries, None)
    with EmbeddingIndex.build(L2Distance(), database, INDEX_CONFIG) as index:
        index.enable_planner(cost_budget=index.embedding_cost + 2 * P)
        blocking = index.query_many(queries, K)
    assert plan["p"] == 2 * P
    ps = [r.stats["planned_p"] for r in results]
    assert ps == [r.stats["planned_p"] for r in blocking]
    assert set(ps) <= set(plan["schedule"])
    # A fresh flat index over the same config: equal embedder, and equal
    # store state per query, so per-query costs are comparable too.
    with EmbeddingIndex.build(L2Distance(), database, INDEX_CONFIG) as flat:
        expected = _rows([flat.query(obj, K, p) for obj, p in zip(queries, ps)])
    rows = _rows(results)
    _assert_rows_equal(rows, expected, candidates=True)
    assert [row.cost for row in rows] == [row.cost for row in expected]
