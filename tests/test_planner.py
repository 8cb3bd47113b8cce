"""Tests for the query planner (``repro.retrieval.planner``).

The planner's acceptance bar is the exactness contract: with an explicit
``p`` it is a bit-identical pass-through; with ``p=None`` every served
result must equal the fixed-``p`` run whose ``p`` is the planner's chosen
``p'`` — same neighbors, same distances, same honest per-query evaluation
charge.  The suite asserts that contract on cold and warm stores, plus the
pure decision layer (schedules, operating points) and the sweep-parity
property that anchors it to ``run_sweep``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro import (
    EmbeddingIndex,
    FilterRefineRetriever,
    IndexConfig,
    L2Distance,
    PersistentPool,
    RetrievalSplit,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.distances.context import DistanceContext
from repro.exceptions import RetrievalError
from repro.retrieval import (
    PlannedRetriever,
    choose_operating_point,
    refine_schedule,
    run_sweep,
)

K = 3


def assert_same_answers(lhs, rhs):
    """Neighbors, distances and candidates equal (charges not compared)."""
    assert np.array_equal(lhs.neighbor_indices, rhs.neighbor_indices)
    assert np.array_equal(lhs.neighbor_distances, rhs.neighbor_distances)
    assert np.array_equal(lhs.candidate_indices, rhs.candidate_indices)


def assert_bit_identical(lhs, rhs):
    """Full-surface equality: answers, candidates, and the honest charge."""
    assert_same_answers(lhs, rhs)
    assert (
        lhs.refine_distance_computations == rhs.refine_distance_computations
    )
    assert (
        lhs.embedding_distance_computations
        == rhs.embedding_distance_computations
    )


# --------------------------------------------------------------------- #
# Pure decision layer                                                   #
# --------------------------------------------------------------------- #


class TestRefineSchedule:
    def test_doubles_from_quarter_ceiling(self):
        assert refine_schedule(64, 3) == [16, 32, 64]

    def test_starts_at_k_when_k_dominates(self):
        assert refine_schedule(20, 8) == [8, 16, 20]

    def test_k_at_or_above_ceiling_is_one_step(self):
        assert refine_schedule(5, 5) == [5]
        assert refine_schedule(5, 9) == [5]

    def test_last_entry_is_always_the_ceiling(self):
        for ceiling in (1, 2, 7, 33, 100):
            for k in (1, 3, 10):
                schedule = refine_schedule(ceiling, k)
                assert schedule[-1] == ceiling
                assert schedule == sorted(set(schedule))

    def test_rejects_nonpositive_ceiling(self):
        with pytest.raises(RetrievalError):
            refine_schedule(0, 3)


class TestChooseOperatingPoint:
    def test_uncalibrated_fallback(self):
        p = choose_operating_point(
            k=2,
            n_database=1000,
            embedding_cost=10,
            rank_profile=None,
            target_accuracy=0.9,
            cost_budget=None,
        )
        assert p == 32  # max(8k, 32)
        p = choose_operating_point(
            k=10,
            n_database=1000,
            embedding_cost=10,
            rank_profile=None,
            target_accuracy=0.9,
            cost_budget=None,
        )
        assert p == 80

    def test_cost_budget_caps_p(self):
        p = choose_operating_point(
            k=2,
            n_database=1000,
            embedding_cost=10,
            rank_profile=None,
            target_accuracy=0.9,
            cost_budget=30,
        )
        assert p == 20  # budget minus the embedding

    def test_budget_never_squeezes_below_k(self):
        p = choose_operating_point(
            k=5,
            n_database=1000,
            embedding_cost=8,
            rank_profile=None,
            target_accuracy=0.9,
            cost_budget=10,
        )
        assert p == 5

    def test_tiny_residual_goes_exact(self):
        # Filtering cannot pay for itself: embed + p >= n, so refine all.
        p = choose_operating_point(
            k=2,
            n_database=40,
            embedding_cost=10,
            rank_profile=None,
            target_accuracy=0.9,
            cost_budget=None,
        )
        assert p == 40


# --------------------------------------------------------------------- #
# Fixed-p pass-through                                                  #
# --------------------------------------------------------------------- #


class TestFixedPassThrough:
    def test_explicit_p_is_bit_identical_to_filter_refine(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:6]
        planned = PlannedRetriever(l2, gaussian_split.database, trained_qs.model)
        flat = FilterRefineRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        for lhs, rhs in zip(
            planned.query_many(queries, K, p=12),
            flat.query_many(queries, K, p=12),
        ):
            assert_bit_identical(lhs, rhs)

    def test_constructors_take_no_backend_fan_out_or_mode_knob(self):
        assert list(inspect.signature(PlannedRetriever).parameters) == [
            "distance",
            "database",
            "embedder",
            "database_vectors",
            "target_accuracy",
            "cost_budget",
        ]
        enable = inspect.signature(EmbeddingIndex.enable_planner)
        assert list(enable.parameters) == ["self", "target_accuracy", "cost_budget"]

    def test_constructor_validation(self, l2, gaussian_split, trained_qs):
        with pytest.raises(RetrievalError):
            PlannedRetriever(
                l2,
                gaussian_split.database,
                trained_qs.model,
                target_accuracy=1.5,
            )
        with pytest.raises(RetrievalError):
            PlannedRetriever(
                l2,
                gaussian_split.database,
                trained_qs.model,
                cost_budget=0,
            )


# --------------------------------------------------------------------- #
# Planned p                                                             #
# --------------------------------------------------------------------- #


class TestAdaptiveFlat:
    def test_every_result_matches_the_fixed_run_at_its_chosen_p(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:8]
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        results = planner.query_many(queries, K)
        assert len(results) == len(queries)
        for query, result in zip(queries, results):
            assert result.stats["planned"] is True
            chosen = result.stats["planned_p"]
            fixed = FilterRefineRetriever(
                l2, gaussian_split.database, trained_qs.model
            ).query(query, K, p=chosen)
            assert_bit_identical(result, fixed)

    def test_uncalibrated_ceiling_is_the_deterministic_fallback(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        assert planner.choose_p(K) == 32  # max(8k, 32), n = 150
        results = planner.query_many(list(gaussian_split.queries)[:5], K)
        assert all(r.stats["planned_p"] <= 32 for r in results)

    def test_early_exit_charges_only_refined_pairs(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        results = planner.query_many(queries, K)
        exits = [r for r in results if r.stats["early_exit"]]
        assert exits, "no query exited early on clustered data"
        for result in exits:
            assert result.stats["planned_p"] < planner.choose_p(K)
            assert (
                result.refine_distance_computations
                == result.stats["planned_p"]
            )
        assert planner.early_exits == len(exits)
        assert planner.planned_queries == len(queries)

    def test_cost_budget_caps_the_ceiling(self, l2, gaussian_split, trained_qs):
        budget = 30
        planner = PlannedRetriever(
            l2,
            gaussian_split.database,
            trained_qs.model,
            cost_budget=budget,
        )
        cap = budget - planner.embedding_cost
        results = planner.query_many(list(gaussian_split.queries)[:5], K)
        assert planner.choose_p(K) <= max(cap, K)
        assert all(len(r.candidate_indices) <= max(cap, K) for r in results)

    def test_calibration_fits_profile_and_charges_probes(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)
        planner = PlannedRetriever(
            l2,
            gaussian_split.database,
            trained_qs.model,
            target_accuracy=0.9,
        )
        record = planner.calibrate(queries[:4], k_max=5)
        n = len(gaussian_split.database)
        assert planner.rank_profile is not None
        assert record["probes"] == 4
        assert record["probe_evaluations"] == 4 * (n + planner.embedding_cost)
        assert record["fit_seconds"] > 0.0
        # The calibrated choice is pure: repeated calls agree.
        assert planner.choose_p(K) == planner.choose_p(K)

    def test_explain_is_deterministic_and_consistent_with_serving(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        first = planner.explain(K)
        second = planner.explain(K)
        assert first == second
        assert first["adaptive"] is True
        assert first["p"] == planner.choose_p(K)
        assert first["schedule"] == refine_schedule(first["p"], K)
        fixed = planner.explain(K, p=9)
        assert fixed["adaptive"] is False
        assert fixed["schedule"] == [9]
        result = planner.query(list(gaussian_split.queries)[0], K)
        assert result.stats["p"] == first["p"]

    def test_surfaces_report_p_and_no_backend_choice(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        result = planner.query(list(gaussian_split.queries)[0], K)
        assert set(result.stats) == {
            "p",
            "k",
            "n_queries",
            "calibrated",
            "planned",
            "planned_p",
            "early_exit",
            "refine_evaluations",
        }
        plan = planner.explain(K)
        assert set(plan) == {"adaptive", "k", "p", "schedule", "calibrated"}
        assert set(planner.planner_health()) == {
            "calibrated",
            "target_accuracy",
            "cost_budget",
            "planned_queries",
            "early_exits",
            "last_decision",
        }

    def test_planner_health_reports_counters(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        health = planner.planner_health()
        assert health["calibrated"] is False
        assert health["planned_queries"] == 0
        planner.query_many(list(gaussian_split.queries)[:3], K)
        health = planner.planner_health()
        assert health["planned_queries"] == 3
        assert health["last_decision"]["n_queries"] == 3


# --------------------------------------------------------------------- #
# Planned p over a warm store                                           #
# --------------------------------------------------------------------- #


def make_context(l2, gaussian_split, register_queries=False):
    objects = list(gaussian_split.database)
    context = DistanceContext(l2, objects)
    if register_queries:
        context.register(list(gaussian_split.queries))
    return context


class TestAdaptiveWarmStore:
    def test_warm_store_reserve_is_free_and_identical(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:8]
        context = make_context(l2, gaussian_split)
        context.register(queries)
        planner = PlannedRetriever(
            context, gaussian_split.database, trained_qs.model
        )
        cold = planner.query_many(queries, K)
        warm = planner.query_many(queries, K)
        assert sum(r.refine_distance_computations for r in cold) > 0
        assert sum(r.refine_distance_computations for r in warm) == 0
        for a, b in zip(cold, warm):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
            assert np.array_equal(a.neighbor_distances, b.neighbor_distances)


# --------------------------------------------------------------------- #
# Sweep parity                                                          #
# --------------------------------------------------------------------- #


class TestSweepParity:
    def test_run_sweep_matches_fixed_queries_at_every_p(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:5]
        ps = [8, 16, 32]
        swept = run_sweep(
            l2, gaussian_split.database, trained_qs.model, queries, K, ps
        )
        assert sorted(swept) == ps
        flat = FilterRefineRetriever(
            l2, gaussian_split.database, trained_qs.model
        )
        for p in ps:
            for query, result in zip(queries, swept[p]):
                assert_bit_identical(result, flat.query(query, K, p=p))

    def test_sweep_at_the_chosen_p_matches_the_planner_bit_for_bit(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:6]
        planner = PlannedRetriever(
            make_context(l2, gaussian_split),
            gaussian_split.database,
            trained_qs.model,
        )
        planned = planner.query_many(queries, K)
        chosen = sorted({r.stats["planned_p"] for r in planned})
        swept = run_sweep(
            make_context(l2, gaussian_split),
            gaussian_split.database,
            trained_qs.model,
            queries,
            K,
            chosen,
        )
        for i, result in enumerate(planned):
            assert_bit_identical(result, swept[result.stats["planned_p"]][i])

    def test_run_sweep_validates_ps(self, l2, gaussian_split, trained_qs):
        with pytest.raises(RetrievalError):
            run_sweep(
                l2,
                gaussian_split.database,
                trained_qs.model,
                list(gaussian_split.queries)[:2],
                K,
                [],
            )


# --------------------------------------------------------------------- #
# Index facade                                                          #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def planner_split():
    dataset = make_gaussian_clusters(n_objects=90, n_clusters=5, n_dims=5, seed=31)
    return RetrievalSplit.from_dataset(dataset, n_queries=10, seed=32)


PLANNER_TRAINING = TrainingConfig(
    n_candidates=20,
    n_training_objects=25,
    n_triples=300,
    n_rounds=6,
    classifiers_per_round=12,
    intervals_per_candidate=4,
    kmax=5,
    seed=3,
)


@pytest.fixture(scope="module")
def planned_index(planner_split):
    config = IndexConfig(
        training=PLANNER_TRAINING,
        planner_target_accuracy=0.9,
        backend="planned",
    )
    index = EmbeddingIndex.build(
        L2Distance(),
        planner_split.database,
        config,
        queries=list(planner_split.queries),
    )
    yield index
    index.close()


class TestIndexFacade:
    def test_config_roundtrip_preserves_planner_fields(self):
        config = IndexConfig(
            training=TrainingConfig(),
            planner_target_accuracy=0.85,
            planner_cost_budget=64,
        )
        # A payload that still carries the retired ``planner`` mode opens.
        with_mode = {**config.to_dict(), "planner": "adaptive"}
        for payload in (config.to_dict(), with_mode):
            restored = IndexConfig.from_dict(payload)
            assert restored.planner_target_accuracy == 0.85
            assert restored.planner_cost_budget == 64

    def test_config_rejects_bad_planner_fields(self):
        with pytest.raises(Exception):
            IndexConfig(training=TrainingConfig(), planner_target_accuracy=0.0)
        with pytest.raises(Exception):
            IndexConfig(training=TrainingConfig(), planner_cost_budget=0)

    def test_config_has_no_planner_mode(self):
        with pytest.raises(TypeError):
            IndexConfig(training=TrainingConfig(), planner="adaptive")
        assert "planner" not in IndexConfig(training=TrainingConfig()).to_dict()

    def test_pre_planner_payload_defaults_off(self):
        config = IndexConfig(training=TrainingConfig())
        payload = config.to_dict()
        for key in ("planner_target_accuracy", "planner_cost_budget"):
            payload.pop(key)
        restored = IndexConfig.from_dict(payload)
        assert restored.planner_target_accuracy == 0.95
        assert restored.planner_cost_budget is None

    def test_adaptive_serving_matches_fixed_p_neighbors(
        self, planned_index, planner_split
    ):
        queries = list(planner_split.queries)
        calibration = planned_index.calibrate_planner(queries[:3])
        assert calibration["probes"] == 3
        results = planned_index.query_many(queries, k=K)
        for query, result in zip(queries, results):
            chosen = result.stats["planned_p"]
            fixed = planned_index.query(query, k=K, p=chosen)
            assert np.array_equal(
                result.neighbor_indices, fixed.neighbor_indices
            )
            assert np.array_equal(
                result.neighbor_distances, fixed.neighbor_distances
            )

    def test_explain_and_health_surface(self, planned_index):
        plan = planned_index.explain(k=K)
        assert plan["adaptive"] is True
        assert plan["p"] >= K
        health = planned_index.health()
        assert health["planner"]["planned_queries"] > 0

    def test_submit_resolves_p_through_the_planner(
        self, planned_index, planner_split
    ):
        query = list(planner_split.queries)[0]
        expected = planned_index._backend.choose_p(K)
        ticket = planned_index.submit(query, k=K, p=None)
        result = ticket.result()
        assert len(result.candidate_indices) <= expected
        reference = planned_index.query(query, k=K, p=expected)
        assert np.array_equal(
            result.neighbor_indices, reference.neighbor_indices
        )

    def test_enable_planner_switches_backend(self, planner_split):
        config = IndexConfig(training=PLANNER_TRAINING)
        with EmbeddingIndex.build(
            L2Distance(), planner_split.database, config
        ) as index:
            assert index.backend != "planned"
            index.enable_planner(target_accuracy=0.9)
            assert index.backend == "planned"
            result = index.query(list(planner_split.queries)[0], k=K)
            assert result.stats["planned"] is True

    def test_enable_planner_keeps_the_calibration(self):
        dataset = make_gaussian_clusters(
            n_objects=300, n_clusters=6, n_dims=5, seed=31
        )
        config = IndexConfig(
            training=TrainingConfig(
                n_candidates=20,
                n_training_objects=20,
                n_triples=200,
                n_rounds=4,
                classifiers_per_round=8,
                kmax=5,
                seed=1,
            )
        )
        with EmbeddingIndex.build(
            L2Distance(), dataset.subset(range(260)), config
        ) as index:
            index.enable_planner(target_accuracy=0.9)
            index.calibrate_planner(list(dataset)[260:265])
            calibrated = index.explain(K)
            assert calibrated["calibrated"]
            # A budget that does not bind leaves the calibrated ceiling.
            index.enable_planner(cost_budget=60)
            assert index.explain(K)["calibrated"]
            assert index.explain(K)["p"] == calibrated["p"]
            # The live planner is retargeted: a binding budget caps it.
            index.enable_planner(cost_budget=index.embedding_cost + 5)
            assert index.explain(K)["calibrated"]
            assert index.explain(K)["p"] == 5
            health = index.health()["planner"]
            assert health["target_accuracy"] == 0.9
            assert health["cost_budget"] == index.embedding_cost + 5

    def test_explicit_p_batches_take_the_config_n_jobs(self, planner_split):
        queries = list(planner_split.queries)
        config = IndexConfig(
            training=PLANNER_TRAINING, backend="planned", n_jobs=2
        )
        with EmbeddingIndex.build(
            L2Distance(), planner_split.database, config
        ) as index:
            flat = FilterRefineRetriever(
                L2Distance(),
                planner_split.database,
                index.embedder,
                index.database_vectors,
            )
            runs = index.pool.runs
            results = index.query_many(queries, k=K, p=12)
            # No n_jobs from the caller: IndexConfig.n_jobs fans the refine
            # out on the index's own pool, with the flat pipeline's answers.
            assert index.pool.runs > runs
            for lhs, rhs in zip(results, flat.query_many(queries, K, p=12)):
                assert_same_answers(lhs, rhs)

    def test_borrowed_pool_refines_explicit_p_only_when_asked(
        self, planner_split
    ):
        queries = list(planner_split.queries)
        config = IndexConfig(training=PLANNER_TRAINING, backend="planned")
        with PersistentPool(2) as pool, EmbeddingIndex.build(
            L2Distance(), planner_split.database, config, pool=pool
        ) as index:
            flat = FilterRefineRetriever(
                L2Distance(),
                planner_split.database,
                index.embedder,
                index.database_vectors,
            )
            expected = flat.query_many(queries, K, p=12)
            runs = pool.runs
            serial = index.query_many(queries[:5], k=K, p=12)
            # Without IndexConfig.n_jobs an explicit-p batch runs serially,
            # as on every backend, until the caller passes n_jobs.
            assert pool.runs == runs
            fanned = index.query_many(queries[5:], k=K, p=12, n_jobs=2)
            assert pool.runs > runs
            for lhs, rhs in zip(serial + fanned, expected):
                assert_same_answers(lhs, rhs)
