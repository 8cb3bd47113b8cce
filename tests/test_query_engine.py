"""The staged QueryEngine: stage composition, delegation, store-aware routing.

The heavy bit-identity oracles for the engine live in the existing
retrieval suites (every retriever now runs through it); this file covers
the engine-specific surface: stage composition, the retrievers exposing
one shared stage set, the store-aware refine accounting, and the
DynamicDatabase tie-break fix.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BruteForceRetriever,
    DynamicDatabase,
    FilterRefineRetriever,
    L2Distance,
)
from repro.datasets.base import Dataset
from repro.distances.context import DistanceContext
from repro.exceptions import RetrievalError
from repro.retrieval.engine import (
    EmbedStage,
    FilterStage,
    MergeStage,
    QueryEngine,
    RefineStage,
    ScanStage,
)


class TestEngineComposition:
    def test_retrievers_expose_the_shared_stages(self, gaussian_split, l2, trained_qs):
        model = trained_qs.model
        flat = FilterRefineRetriever(l2, gaussian_split.database, model)
        brute = BruteForceRetriever(l2, gaussian_split.database)

        assert isinstance(flat.engine, QueryEngine)
        assert isinstance(flat.engine.embed, EmbedStage)
        assert isinstance(flat.engine.filter, FilterStage)
        assert isinstance(flat.engine.refine, RefineStage)
        assert isinstance(flat.engine.merge, MergeStage)
        assert isinstance(brute.engine.filter, ScanStage)
        assert brute.engine.embed is None and brute.engine.merge is None
        # Stage list preserves run order (embed first, merge last).
        assert flat.engine.stages[0] is flat.engine.embed
        assert flat.engine.stages[-1] is flat.engine.merge

    def test_engine_query_equals_retriever_query(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        query = gaussian_split.queries[0]
        via_engine = retriever.engine.query(query, k=3, p=12)
        via_retriever = retriever.query(query, k=3, p=12)
        assert np.array_equal(
            via_engine.neighbor_indices, via_retriever.neighbor_indices
        )
        assert np.array_equal(
            via_engine.neighbor_distances, via_retriever.neighbor_distances
        )

    def test_plan_accumulates_stage_outputs(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        engine = retriever.engine
        plan = engine.make_plan(list(gaussian_split.queries)[:3], k=2, p=9)
        plan = engine.run(plan)
        assert plan.query_vectors.shape == (3, trained_qs.model.dim)
        assert all(c.shape == (9,) for c in plan.candidate_lists)
        assert all(e.shape == (9,) for e in plan.exact_lists)
        assert len(plan.results) == 3

    def test_prepare_runs_only_parent_stages(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        engine = retriever.engine
        before = retriever.refine_distance_evaluations
        plan = engine.prepare(engine.make_plan([gaussian_split.queries[0]], 2, 8))
        assert plan.candidate_lists[0].shape == (8,)
        assert plan.exact_lists == []
        # prepare never refines: no exact evaluations charged to the stage.
        assert retriever.refine_distance_evaluations == before

    def test_empty_batch_still_validates_params(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        with pytest.raises(RetrievalError):
            retriever.query_many([], k=0, p=5)
        assert retriever.query_many([], k=2, p=5) == []


class TestStoreAwareRefine:
    def _context_retriever(self, gaussian_split, trained_qs):
        context = DistanceContext(
            L2Distance(),
            list(gaussian_split.database) + list(gaussian_split.queries),
        )
        retriever = FilterRefineRetriever(
            context, gaussian_split.database, trained_qs.model
        )
        return context, retriever

    def test_refine_evaluations_accumulate(self, gaussian_split, trained_qs):
        context, retriever = self._context_retriever(gaussian_split, trained_qs)
        queries = list(gaussian_split.queries)
        # The second batch repeats queries 3 and 4: their pairs are in the
        # store, so it charges only the three new queries' candidates.
        charged = []
        for batch in (queries[:5], queries[3:8]):
            context_before = context.distance_evaluations
            refine_before = retriever.refine_distance_evaluations
            results = retriever.query_many(batch, k=3, p=12)
            spent = sum(r.refine_distance_computations for r in results)
            assert context.distance_evaluations - context_before == spent
            assert retriever.refine_distance_evaluations - refine_before == spent
            charged.append([r.refine_distance_computations for r in results])
        assert charged == [[12] * 5, [0, 0, 12, 12, 12]]
        assert retriever.refine_distance_evaluations == 5 * 12 + 3 * 12

    def test_partly_warm_store_charges_only_cold_candidates(
        self, gaussian_split, trained_qs
    ):
        context, retriever = self._context_retriever(gaussian_split, trained_qs)
        queries = list(gaussian_split.queries)[:4]
        # Warm every (query, database row < cut) pair: the refine must then
        # evaluate exactly the candidates at or beyond the cut.
        cut = len(gaussian_split.database) // 3
        for query in queries:
            context.distances_to(query, np.arange(cut))
        before = context.distance_evaluations
        results = retriever.query_many(queries, k=3, p=15)
        cold = sum(int(np.count_nonzero(r.candidate_indices >= cut)) for r in results)
        # Both sides of the cut hold candidates for these queries.
        assert 0 < cold < 4 * 15
        assert context.distance_evaluations - before == cold
        assert sum(r.refine_distance_computations for r in results) == cold
        # And results equal the context-free pipeline exactly.
        flat = FilterRefineRetriever(
            L2Distance(), gaussian_split.database, trained_qs.model
        )
        for lhs, rhs in zip(results, flat.query_many(queries, k=3, p=15)):
            assert np.array_equal(lhs.neighbor_indices, rhs.neighbor_indices)
            assert np.array_equal(lhs.neighbor_distances, rhs.neighbor_distances)


class TestDynamicTieOrder:
    def test_dynamic_ties_match_brute_force(self, trained_qs):
        # Four database points at identical distance from the query; the
        # embedding is free to rank them arbitrarily in the filter, so the
        # old filter-position tie-break could diverge from brute force.
        points = [
            np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([-1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([0.0, -1.0, 0.0, 0.0, 0.0, 0.0]),
            np.array([3.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
        ]
        query = np.zeros(6)
        l2 = L2Distance()
        dynamic = DynamicDatabase(l2, trained_qs.model, initial_objects=points)
        indices, distances, cost = dynamic.query(query, k=4, p=len(points))
        brute = BruteForceRetriever(l2, Dataset(objects=points, name="tied"))
        expected_indices, expected_distances = brute.query(query, k=4)
        assert np.array_equal(indices, expected_indices)
        assert np.array_equal(distances, expected_distances)
        assert cost == trained_qs.model.cost + len(points)

    def test_dynamic_routes_through_shared_refine_stage(self, trained_qs):
        dynamic = DynamicDatabase(L2Distance(), trained_qs.model)
        assert isinstance(dynamic._refine, RefineStage)
        # The stage must track the live object list, not a snapshot.
        assert dynamic._refine.binding.database is dynamic.objects
