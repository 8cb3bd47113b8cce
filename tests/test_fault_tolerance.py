"""Chaos suite: the serving stack under injected faults.

The invariant under every scenario is the strongest one the paper's
filter-and-refine shape affords: refine work is pure over ``(index pair)
-> distance``, so recovery — respawn and resubmit, serial fallback,
degraded mode — must reproduce the healthy serial path *bit-identically*
(same neighbors, same distances, same per-query exact-evaluation counts).
A fault may cost latency; it may never cost correctness, and it may never
double-charge a pair that reached the store before the crash.

Faults are injected through :class:`repro.testing.faults.FaultPlan` (the
``PersistentPool.faults`` seam) and the file corruptors in the same
module; nothing here monkeypatches library internals.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import (
    EmbeddingIndex,
    IndexConfig,
    L2Distance,
    PersistentPool,
    RetrievalSplit,
    ServingError,
    ServingTimeout,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.distances.context import DistanceStore
from repro.exceptions import ArtifactError, DistanceError
from repro.index import artifacts
from repro.index.pool import _close_live_pools
from repro.testing import FaultPlan, flip_byte, truncate_file

pytestmark = pytest.mark.chaos


# --------------------------------------------------------------------- #
# Fixtures                                                              #
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def chaos_split():
    dataset = make_gaussian_clusters(n_objects=80, n_clusters=4, n_dims=5, seed=11)
    return RetrievalSplit.from_dataset(dataset, n_queries=10, seed=12)


@pytest.fixture(scope="module")
def chaos_config():
    return IndexConfig(
        training=TrainingConfig(
            n_candidates=10,
            n_training_objects=24,
            n_triples=80,
            n_rounds=4,
            classifiers_per_round=10,
            seed=23,
        ),
        backend="filter_refine",
        n_jobs=None,
    )


@pytest.fixture(scope="module")
def reference(chaos_split, chaos_config):
    """Healthy serial results for the whole query batch (the oracle)."""
    queries = list(chaos_split.queries)
    with EmbeddingIndex.build(
        L2Distance(), chaos_split.database, chaos_config
    ) as index:
        results = index.query_many(queries, k=3, p=12)
        evaluations = index.distance_evaluations
    return {"results": results, "evaluations": evaluations}


def _build(chaos_split, chaos_config):
    return EmbeddingIndex.build(L2Distance(), chaos_split.database, chaos_config)


def _attach(index, pool):
    """Wire a (faulty) pool into a serially-built index's query path."""
    index.pool = pool
    index.context.pool = pool
    index._owns_pool = True


def _assert_same_results(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
        assert a.refine_distance_computations == b.refine_distance_computations
        assert (
            a.embedding_distance_computations == b.embedding_distance_computations
        )


# Module-level pool task (pickled by reference).
def _double(_state, chunk):
    return [2 * value for value in chunk]


# --------------------------------------------------------------------- #
# Pool supervision                                                      #
# --------------------------------------------------------------------- #


class TestPoolSupervision:
    def test_respawn_after_worker_kill(self):
        plan = FaultPlan(kill_after_chunks=2)
        with PersistentPool(2, faults=plan) as pool:
            chunks = [[1], [2], [3], [4]]
            results = pool.run(_double, None, chunks, signature="sup")
            assert results == [[2], [4], [6], [8]]
            assert pool.restarts == 1
            assert pool.failed_jobs == 1
            health = pool.health()
            assert health["restarts"] == 1
            assert health["failed_jobs"] == 1

    def test_retries_exhausted_propagates(self):
        plan = FaultPlan(kill_after_chunks=1, kill_every_time=True)
        with PersistentPool(2, max_retries=1, faults=plan) as pool:
            with pytest.raises(Exception) as excinfo:
                pool.run(_double, None, [[1], [2]], signature="doom")
            from repro.index.pool import WORKER_FAILURES

            assert isinstance(excinfo.value, WORKER_FAILURES)
            assert pool.failed_jobs >= 2  # the first try and the retry

    def test_submit_after_kill_respawns(self):
        plan = FaultPlan(kill_after_chunks=1)
        with PersistentPool(2, faults=plan) as pool:
            first = pool.run(_double, None, [[5]], signature="sub")
            assert first == [[10]]
            assert pool.restarts == 1
            # The respawned pool keeps serving (and its published state).
            second = pool.run(_double, None, [[6], [7]], signature="sub")
            assert second == [[12], [14]]
            assert pool.restarts == 1

    def test_close_idempotent_and_atexit_safe(self):
        pool = PersistentPool(2)
        pool.run(_double, None, [[1]], signature="idem")
        pool.close()
        pool.close()  # second close is a no-op
        assert pool.closed
        _close_live_pools()  # the atexit hook tolerates closed pools

    def test_job_timeout_leaves_job_collectable(self):
        plan = FaultPlan(delay_seconds=0.8)
        with PersistentPool(1, faults=plan) as pool:
            job = pool.submit(_double, None, [[1]], signature="slow")
            with pytest.raises(ServingTimeout):
                job.results(timeout=0.05)
            # Not a failure: waiting again collects the same job.
            assert job.results(timeout=30.0) == [[2]]


# --------------------------------------------------------------------- #
# Serving under worker death                                            #
# --------------------------------------------------------------------- #


class TestServingRecovery:
    def test_worker_kill_mid_query_many_bit_identical(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(kill_after_chunks=3)))
            results = index.query_many(queries, k=3, p=12, n_jobs=2)
            _assert_same_results(results, reference["results"])
            assert index.distance_evaluations == reference["evaluations"]
            assert index.pool.restarts == 1

    def test_worker_kill_mid_stream_bit_identical(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(kill_after_chunks=3)))
            pairs = list(index.stream(queries, k=3, p=12, n_jobs=2, order="submission"))
            assert [position for position, _ in pairs] == list(range(len(queries)))
            _assert_same_results([r for _, r in pairs], reference["results"])
            # No double-charge: retried pairs already in the store stay
            # free, so the total evaluation count matches the serial path.
            assert index.distance_evaluations == reference["evaluations"]
            assert index.pool.restarts == 1
            health = index.health()
            assert health["degraded"] is False
            assert health["pool"]["restarts"] == 1

    def test_corrupt_reply_recomputed_not_served(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(corrupt_chunk=1)))
            ticket = index.submit(queries[0], k=3, p=12, n_jobs=2)
            result = ticket.result()
            expected = reference["results"][0]
            assert np.array_equal(result.neighbor_indices, expected.neighbor_indices)
            assert np.array_equal(
                result.neighbor_distances, expected.neighbor_distances
            )
            assert (
                result.refine_distance_computations
                == expected.refine_distance_computations
            )
            assert index.serving.fallbacks >= 1

    def test_corrupt_reply_in_blocking_query_many(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(corrupt_chunk=2)))
            results = index.query_many(queries, k=3, p=12, n_jobs=2)
            _assert_same_results(results, reference["results"])
            assert index.distance_evaluations == reference["evaluations"]

    def test_degraded_mode_after_consecutive_failures(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            plan = FaultPlan(kill_after_chunks=1, kill_every_time=True)
            _attach(index, PersistentPool(2, max_retries=0, faults=plan))
            results = []
            for query in queries:
                results.append(index.submit(query, k=3, p=12, n_jobs=2).result())
            _assert_same_results(results, reference["results"])
            assert index.distance_evaluations == reference["evaluations"]
            server = index.serving
            assert server.degraded is True
            assert server.fallbacks >= server.DEGRADE_AFTER
            assert index.health()["degraded"] is True
            assert index.health()["serving"]["degraded"] is True


# --------------------------------------------------------------------- #
# Deadlines, retries, partial results                                   #
# --------------------------------------------------------------------- #


class TestDeadlines:
    def test_deadline_resolves_to_typed_error(self, chaos_split, chaos_config):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(delay_seconds=1.2)))
            started = time.monotonic()
            ticket = index.submit(queries[0], k=3, p=12, n_jobs=2, deadline=0.3)
            with pytest.raises(ServingTimeout) as excinfo:
                ticket.result()
            elapsed = time.monotonic() - started
            assert isinstance(excinfo.value, ServingError)
            assert isinstance(excinfo.value, TimeoutError)
            assert elapsed < 5.0  # resolved near the deadline, no hang
            # Terminal: every later result() call returns the same outcome.
            with pytest.raises(ServingTimeout):
                ticket.result()

    def test_deadline_partial_result_ranks_resolved(
        self, chaos_split, chaos_config
    ):
        queries = list(chaos_split.queries)
        query = queries[0]
        with _build(chaos_split, chaos_config) as expected_index:
            expected = expected_index.query(query, k=3, p=6)
        with _build(chaos_split, chaos_config) as index:
            # Warm exactly the p=6 prefix of the candidate list, serially:
            # the first sighting is transient, the second stores its pairs.
            index.query(query, k=3, p=6)
            index.query(query, k=3, p=6)
            _attach(index, PersistentPool(2, faults=FaultPlan(delay_seconds=1.2)))
            ticket = index.submit(
                query, k=3, p=12, n_jobs=2, deadline=0.3, allow_partial=True
            )
            result = ticket.result()
            assert result.partial is True
            # The resolved candidates are the warmed p=6 prefix, so the
            # partial ranking equals the healthy p=6 ranking exactly.
            assert np.array_equal(result.neighbor_indices, expected.neighbor_indices)
            assert np.array_equal(
                result.neighbor_distances, expected.neighbor_distances
            )
            assert result.refine_distance_computations == 0

    def test_stream_keeps_draining_after_failure(self, chaos_split, chaos_config):
        queries = list(chaos_split.queries)[:4]
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(delay_seconds=1.2)))
            pairs = list(
                index.stream(
                    queries, k=3, p=12, n_jobs=2, order="submission", deadline=0.3
                )
            )
            assert len(pairs) == len(queries)  # nothing dropped, no hang
            assert all(isinstance(r, ServingError) for _, r in pairs)

    def test_expired_ticket_is_not_computed_inline_after_a_pool_failure(
        self, chaos_split, chaos_config
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            plan = FaultPlan(kill_after_chunks=1, kill_every_time=True)
            _attach(index, PersistentPool(2, max_retries=0, faults=plan))
            ticket = index.submit(queries[0], k=3, p=12, n_jobs=2, deadline=0.3)
            waited = time.monotonic() + 30.0
            while not ticket._job.done() and time.monotonic() < waited:
                time.sleep(0.01)
            time.sleep(0.35)  # the job broke and the deadline has passed
            before = index.distance_evaluations
            with pytest.raises(ServingTimeout):
                ticket.result()
            # The failure is recorded, but the expired ticket's misses are
            # not evaluated in the parent.
            assert index.serving.fallbacks == 1
            assert index.distance_evaluations == before

    def test_result_timeout_is_not_terminal(self, chaos_split, chaos_config):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as reference_index:
            expected = reference_index.query(queries[0], k=3, p=12)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2, faults=FaultPlan(delay_seconds=0.8)))
            ticket = index.submit(queries[0], k=3, p=12, n_jobs=2)
            with pytest.raises(ServingTimeout):
                ticket.result(timeout=0.05)
            # The ticket stays pending and a later wait completes it.
            result = ticket.result(timeout=30.0)
            assert np.array_equal(result.neighbor_indices, expected.neighbor_indices)
            assert np.array_equal(
                result.neighbor_distances, expected.neighbor_distances
            )

    def test_planned_p_none_deadline_is_checked_when_its_refine_ends(
        self, chaos_split, chaos_config
    ):
        query = list(chaos_split.queries)[0]
        with _build(chaos_split, chaos_config) as reference_index:
            reference_index.enable_planner()
            expected = reference_index.query(query, k=3)
        with _build(chaos_split, chaos_config) as index:
            index.enable_planner()
            # The planned refine runs at submission and always ends past a
            # one-nanosecond deadline.
            late = index.submit(query, k=3, deadline=1e-9)
            assert late.done()
            with pytest.raises(ServingTimeout):
                late.result()
            with pytest.raises(ServingTimeout):
                late.result()  # terminal
        with _build(chaos_split, chaos_config) as index:
            index.enable_planner()
            ticket = index.submit(query, k=3, deadline=1e-9, allow_partial=True)
            result = ticket.result()
            # Every candidate it ranks was refined: the full result.
            assert result.partial is False
            _assert_same_results([result], [expected])
            assert np.array_equal(result.candidate_indices, expected.candidate_indices)
            assert result.stats["planned_p"] == expected.stats["planned_p"]

    def test_cancel_races_completion_and_loses(self, chaos_split, chaos_config):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            _attach(index, PersistentPool(2))
            ticket = index.submit(queries[0], k=3, p=12, n_jobs=2)
            assert ticket._job is not None
            deadline = time.monotonic() + 30.0
            while not ticket._job.done() and time.monotonic() < deadline:
                time.sleep(0.01)
            # The pool reply has arrived but _finish has not run: cancel
            # must refuse (the work is unabandonable) and the result must
            # still be collectable.
            assert ticket.cancel() is False
            result = ticket.result()
            assert result.neighbor_indices.size > 0


# --------------------------------------------------------------------- #
# The query planner under faults                                        #
# --------------------------------------------------------------------- #


class TestPlannerUnderFaults:
    """The planned backend serves bit-identically around a dead pool.

    With an explicit ``p`` it runs the flat pipeline, so pool failures
    are recovered exactly as on every other backend.
    """

    def test_dead_pool_replans_onto_the_serial_path(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            index.enable_planner()
            pool = PersistentPool(2)
            _attach(index, pool)
            pool.close()
            results = index.query_many(queries, k=3, p=12)
            _assert_same_results(results, reference["results"])
            assert index.distance_evaluations == reference["evaluations"]

    def test_killed_workers_under_planned_fixed_p_stay_bit_identical(
        self, chaos_split, chaos_config, reference
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as index:
            index.enable_planner()
            _attach(index, PersistentPool(2, faults=FaultPlan(kill_after_chunks=3)))
            results = index.query_many(queries, k=3, p=12, n_jobs=2)
            _assert_same_results(results, reference["results"])
            assert index.distance_evaluations == reference["evaluations"]
            assert index.pool.restarts == 1

    def test_planned_p_none_never_runs_on_a_faulty_pool(
        self, chaos_split, chaos_config
    ):
        queries = list(chaos_split.queries)
        with _build(chaos_split, chaos_config) as healthy:
            healthy.enable_planner()
            expected = healthy.query_many(queries, k=3)
            expected_evaluations = healthy.distance_evaluations
        serves = {
            "query_many": lambda index: index.query_many(queries, k=3, n_jobs=2),
            "stream": lambda index: [
                r
                for _, r in index.stream(
                    queries, k=3, n_jobs=2, order="submission"
                )
            ],
        }
        for entry, serve in serves.items():
            with _build(chaos_split, chaos_config) as index:
                index.enable_planner()
                pool = PersistentPool(2, faults=FaultPlan(kill_after_chunks=1))
                _attach(index, pool)
                # p=None refines each query's slices serially whatever
                # n_jobs is, so the pool's injected worker kill never fires.
                results = serve(index)
                _assert_same_results(results, expected)
                assert [r.stats["planned_p"] for r in results] == [
                    r.stats["planned_p"] for r in expected
                ], entry
                assert index.distance_evaluations == expected_evaluations, entry
                assert pool.started is False, entry
                assert pool.runs == 0 and pool.restarts == 0, entry


# --------------------------------------------------------------------- #
# Artifact and store corruption                                         #
# --------------------------------------------------------------------- #


class TestArtifactCorruption:
    @pytest.fixture()
    def saved(self, tmp_path, chaos_split, chaos_config):
        with _build(chaos_split, chaos_config) as index:
            index.query_many(list(chaos_split.queries)[:2], k=3, p=12)
            index.save(tmp_path / "artifact")
        return tmp_path / "artifact"

    def _reopen(self, saved, chaos_split):
        return EmbeddingIndex.open(saved, chaos_split.database, L2Distance())

    def test_truncated_store_raises_typed_error(self, saved, chaos_split):
        truncate_file(saved / artifacts.STORE_NAME, keep_fraction=0.5)
        with pytest.raises(DistanceError) as excinfo:
            self._reopen(saved, chaos_split)
        assert artifacts.STORE_NAME in str(excinfo.value)

    def test_bitflipped_store_raises_typed_error(self, tmp_path, saved):
        store_path = saved / artifacts.STORE_NAME
        # Flip a data byte (mid-file): the zip structure survives but a
        # member's CRC/deflate stream does not — that must still surface
        # as a typed error, not a raw zipfile/zlib traceback.
        flip_byte(store_path, offset=store_path.stat().st_size // 2)
        with pytest.raises(DistanceError) as excinfo:
            DistanceStore.load(store_path)
        assert artifacts.STORE_NAME in str(excinfo.value)

    def test_truncated_arrays_raises_typed_error(self, saved, chaos_split):
        truncate_file(saved / artifacts.ARRAYS_NAME, keep_fraction=0.3)
        with pytest.raises(ArtifactError) as excinfo:
            self._reopen(saved, chaos_split)
        assert artifacts.ARRAYS_NAME in str(excinfo.value)

    def test_corrupt_manifest_raises_typed_error(self, saved, chaos_split):
        truncate_file(saved / artifacts.MANIFEST_NAME, keep_fraction=0.4)
        with pytest.raises(ArtifactError) as excinfo:
            self._reopen(saved, chaos_split)
        assert artifacts.MANIFEST_NAME in str(excinfo.value)

    def test_truncated_model_raises_typed_error(self, saved, chaos_split):
        truncate_file(saved / artifacts.MODEL_NAME, keep_fraction=0.4)
        with pytest.raises(ArtifactError) as excinfo:
            self._reopen(saved, chaos_split)
        assert artifacts.MODEL_NAME in str(excinfo.value)
