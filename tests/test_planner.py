"""Tests for the cost-based query planner (``repro.retrieval.planner``).

The planner's acceptance bar is the exactness contract: with an explicit
``p`` (or ``mode="off"``) it is a bit-identical pass-through; in adaptive
mode every served result must equal the fixed-``p`` run whose ``p`` is the
planner's chosen ``p'`` — same neighbors, same distances, same honest
per-query evaluation charge.  The suite asserts that contract on the
flat, sharded and (stubbed) remote execution paths, plus the pure
decision layer (schedules, operating points, the cost model) and the
sweep-parity property that anchors it to ``run_sweep``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EmbeddingIndex,
    FilterRefineRetriever,
    IndexConfig,
    L2Distance,
    RetrievalSplit,
    ShardedRetriever,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.distances.context import DistanceContext
from repro.exceptions import RetrievalError
from repro.retrieval import (
    CostModel,
    PlannedRetriever,
    choose_operating_point,
    refine_schedule,
    run_sweep,
)

K = 3


def assert_bit_identical(lhs, rhs):
    """Full-surface equality: answers, candidates, and the honest charge."""
    assert np.array_equal(lhs.neighbor_indices, rhs.neighbor_indices)
    assert np.array_equal(lhs.neighbor_distances, rhs.neighbor_distances)
    assert np.array_equal(lhs.candidate_indices, rhs.candidate_indices)
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


class TestCostModel:
    def test_blend_replaces_zero_prior_then_ewma(self):
        model = CostModel(alpha=0.5)
        assert model._blend(0.0, 4.0) == 4.0
        assert model._blend(4.0, 8.0) == 6.0

    def test_observe_batch_fits_per_unit_rates(self):
        model = CostModel()
        model.observe_batch(
            n_queries=2,
            n_rows=200,
            embed_seconds=2.0,
            filter_seconds=4.0,
            refine_seconds=3.0,
            refine_evaluations=30,
            refine_pairs=60,
        )
        assert model.embed_seconds == 1.0
        assert model.filter_row_seconds == 0.02
        assert model.exact_eval_seconds == 0.1
        assert model.store_hit_rate == 0.5
        assert model.observations == 1

    def test_choose_n_jobs_serial_without_a_pool(self):
        model = CostModel()
        assert model.choose_n_jobs(4, 100, 0) is None
        assert model.choose_n_jobs(4, 100, 1) is None

    def test_choose_n_jobs_needs_misses_to_amortize(self):
        model = CostModel()
        assert model.choose_n_jobs(1, 10, 4) is None  # 10 misses < 8 * 4
        assert model.choose_n_jobs(4, 100, 4) == 4
        model.store_hit_rate = 0.99  # warm store: nothing left to fan out
        assert model.choose_n_jobs(4, 100, 4) is None

    def test_choose_backend_prefers_warm_sharded(self):
        model = CostModel()
        assert model.choose_backend(10, 100, True, False) == "flat"
        model.store_hit_rate = 0.5
        assert (
            model.choose_backend(10, 100, True, False) == "sharded"
        )
        assert model.choose_backend(10, 100, False, False) == "flat"

    def test_choose_backend_remote_only_when_round_trip_wins(self):
        model = CostModel()
        model.exact_eval_seconds = 1e-3
        model.remote_round_trip_seconds = 10.0
        assert (
            model.choose_backend(10, 100, False, True) == "flat"
        )
        model.remote_round_trip_seconds = 1e-9
        assert (
            model.choose_backend(10, 100, False, True)
            == "remote_sharded"
        )

    def test_to_dict_snapshot(self):
        snapshot = CostModel().to_dict()
        assert set(snapshot) == {
            "observations",
            "exact_eval_seconds",
            "embed_seconds",
            "filter_row_seconds",
            "store_hit_rate",
            "shard_hit_rates",
            "remote_round_trip_seconds",
            "calibrated",
        }
        assert snapshot["calibrated"] is False

    def test_rejects_bad_alpha(self):
        with pytest.raises(RetrievalError):
            CostModel(alpha=0.0)


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

    def test_off_mode_requires_p(self, l2, gaussian_split, trained_qs):
        planned = PlannedRetriever(l2, gaussian_split.database, trained_qs.model)
        with pytest.raises(RetrievalError, match="adaptive"):
            planned.query(list(gaussian_split.queries)[0], K)

    def test_constructor_validation(self, l2, gaussian_split, trained_qs):
        with pytest.raises(RetrievalError):
            PlannedRetriever(
                l2, gaussian_split.database, trained_qs.model, mode="clever"
            )
        with pytest.raises(RetrievalError):
            PlannedRetriever(
                l2,
                gaussian_split.database,
                trained_qs.model,
                mode="adaptive",
                target_accuracy=1.5,
            )
        with pytest.raises(RetrievalError):
            PlannedRetriever(
                l2,
                gaussian_split.database,
                trained_qs.model,
                mode="adaptive",
                cost_budget=0,
            )


# --------------------------------------------------------------------- #
# Adaptive mode: flat path                                              #
# --------------------------------------------------------------------- #


class TestAdaptiveFlat:
    def test_every_result_matches_the_fixed_run_at_its_chosen_p(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:8]
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
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
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        assert planner.choose_p(K) == 32  # max(8k, 32), n = 150
        results = planner.query_many(list(gaussian_split.queries)[:5], K)
        assert all(r.stats["planned_p"] <= 32 for r in results)

    def test_early_exit_charges_only_refined_pairs(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
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
            mode="adaptive",
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
            mode="adaptive",
            target_accuracy=0.9,
        )
        record = planner.calibrate(queries[:4], k_max=5)
        n = len(gaussian_split.database)
        assert planner.rank_profile is not None
        assert record["probes"] == 4
        assert record["probe_evaluations"] == 4 * (n + planner.embedding_cost)
        assert record["fit_seconds"] > 0.0
        assert planner.model.calibration is record
        # The calibrated choice is pure: repeated calls agree.
        assert planner.choose_p(K) == planner.choose_p(K)

    def test_explain_is_deterministic_and_consistent_with_serving(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        first = planner.explain(K)
        second = planner.explain(K)
        assert first == second
        assert first["adaptive"] is True
        assert first["p"] == planner.choose_p(K)
        assert first["schedule"] == refine_schedule(first["p"], K)
        assert first["backend"] == "flat"
        fixed = planner.explain(K, p=9)
        assert fixed["adaptive"] is False
        assert fixed["schedule"] == [9]
        result = planner.query(list(gaussian_split.queries)[0], K)
        assert result.stats["p"] == first["p"]

    def test_planner_health_reports_counters(
        self, l2, gaussian_split, trained_qs
    ):
        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        health = planner.planner_health()
        assert health["mode"] == "adaptive"
        assert health["calibrated"] is False
        assert health["planned_queries"] == 0
        planner.query_many(list(gaussian_split.queries)[:3], K)
        health = planner.planner_health()
        assert health["planned_queries"] == 3
        assert health["last_decision"]["backend"] == "flat"


# --------------------------------------------------------------------- #
# Adaptive mode: warm store and the sharded path                        #
# --------------------------------------------------------------------- #


def make_context(l2, gaussian_split, register_queries=False):
    objects = list(gaussian_split.database)
    context = DistanceContext(l2, objects)
    if register_queries:
        context.register(list(gaussian_split.queries))
    return context


class TestAdaptiveWarmAndSharded:
    def test_warm_store_reserve_is_free_and_identical(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:8]
        context = make_context(l2, gaussian_split)
        context.register(queries)
        planner = PlannedRetriever(
            context, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        cold = planner.query_many(queries, K)
        warm = planner.query_many(queries, K)
        assert sum(r.refine_distance_computations for r in cold) > 0
        assert sum(r.refine_distance_computations for r in warm) == 0
        for a, b in zip(cold, warm):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
            assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
        assert planner.model.store_hit_rate > 0.5

    def test_sharded_choice_is_bit_identical_to_sharded_fixed_run(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:6]
        planner = PlannedRetriever(
            make_context(l2, gaussian_split),
            gaussian_split.database,
            trained_qs.model,
            n_shards=3,
            mode="adaptive",
        )
        # Pretend the store is warm so the model routes to the sharded
        # path; the choice may only move *where* the work runs.
        planner.model.store_hit_rate = 0.5
        results = planner.query_many(queries, K)
        assert planner._last_decision["backend"] == "sharded"
        reference = ShardedRetriever(
            make_context(l2, gaussian_split),
            gaussian_split.database,
            trained_qs.model,
            n_shards=3,
        )
        for query, result in zip(queries, results):
            fixed = reference.query(query, K, p=result.stats["planned_p"])
            assert_bit_identical(result, fixed)
        assert planner.model.shard_hit_rates  # per-shard signals observed

    def test_remote_choice_ships_the_batch_and_stays_bit_identical(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:5]

        class StubRemote:
            """Remote delegate surface backed by a local sharded run."""

            def __init__(self, retriever):
                self.retriever = retriever
                self.batches = 0

            def query_many(self, objects, k, p):
                self.batches += 1
                return self.retriever.query_many(objects, k, p)

            def health(self):
                return {"degraded": False}

            def cost_signals(self):
                return self.retriever.shard_cost_signals()

        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        remote = StubRemote(
            ShardedRetriever(
                make_context(l2, gaussian_split),
                gaussian_split.database,
                trained_qs.model,
                n_shards=2,
            )
        )
        planner.attach_remote(remote)
        # Make the fitted round-trip beat the predicted local cost.
        planner.model.exact_eval_seconds = 1.0
        planner.model.remote_round_trip_seconds = 1e-9
        results = planner.query_many(queries, K)
        assert remote.batches == 1
        assert planner._last_decision["backend"] == "remote_sharded"
        reference = ShardedRetriever(
            make_context(l2, gaussian_split),
            gaussian_split.database,
            trained_qs.model,
            n_shards=2,
        )
        for query, result in zip(queries, results):
            assert result.stats["early_exit"] is False
            fixed = reference.query(query, K, p=result.stats["planned_p"])
            assert_bit_identical(result, fixed)
        assert planner.model.shard_hit_rates  # cost_signals were folded in

    def test_degraded_remote_replans_onto_the_local_path(
        self, l2, gaussian_split, trained_qs
    ):
        queries = list(gaussian_split.queries)[:4]

        class DeadRemote:
            def query_many(self, objects, k, p):  # pragma: no cover
                raise AssertionError("a degraded remote must not be queried")

            def health(self):
                raise ConnectionError("shard service unreachable")

        planner = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        planner.attach_remote(DeadRemote())
        planner.model.remote_round_trip_seconds = 1e-9
        results = planner.query_many(queries, K)
        assert planner._last_decision["backend"] == "flat"
        local = PlannedRetriever(
            l2, gaussian_split.database, trained_qs.model, mode="adaptive"
        )
        for lhs, rhs in zip(results, local.query_many(queries, K)):
            assert_bit_identical(lhs, rhs)


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
            mode="adaptive",
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


@pytest.fixture(scope="module")
def planned_index(planner_split):
    config = IndexConfig(
        training=TrainingConfig(
            n_candidates=20,
            n_training_objects=25,
            n_triples=300,
            n_rounds=6,
            classifiers_per_round=12,
            intervals_per_candidate=4,
            kmax=5,
            seed=3,
        ),
        planner="adaptive",
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
            planner="adaptive",
            planner_target_accuracy=0.85,
            planner_cost_budget=64,
        )
        restored = IndexConfig.from_dict(config.to_dict())
        assert restored.planner == "adaptive"
        assert restored.planner_target_accuracy == 0.85
        assert restored.planner_cost_budget == 64

    def test_config_rejects_bad_planner_fields(self):
        with pytest.raises(Exception):
            IndexConfig(training=TrainingConfig(), planner="sometimes")
        with pytest.raises(Exception):
            IndexConfig(training=TrainingConfig(), planner_target_accuracy=0.0)
        with pytest.raises(Exception):
            IndexConfig(training=TrainingConfig(), planner_cost_budget=0)

    def test_pre_planner_payload_defaults_off(self):
        config = IndexConfig(training=TrainingConfig())
        payload = config.to_dict()
        for key in ("planner", "planner_target_accuracy", "planner_cost_budget"):
            payload.pop(key)
        restored = IndexConfig.from_dict(payload)
        assert restored.planner == "off"

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
        assert health["planner"]["mode"] == "adaptive"
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
        config = IndexConfig(
            training=TrainingConfig(
                n_candidates=20,
                n_training_objects=25,
                n_triples=300,
                n_rounds=6,
                classifiers_per_round=12,
                intervals_per_candidate=4,
                kmax=5,
                seed=3,
            ),
        )
        with EmbeddingIndex.build(
            L2Distance(), planner_split.database, config
        ) as index:
            assert index.backend != "planned"
            index.enable_planner(target_accuracy=0.9)
            assert index.backend == "planned"
            assert index.config.planner == "adaptive"
            result = index.query(list(planner_split.queries)[0], k=K)
            assert result.stats["planned"] is True
