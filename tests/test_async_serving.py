"""Async serving semantics: submit/stream/aquery_many, backpressure, mmap.

The contract under test: the pipelined serving paths are *bit-identical*
to the blocking ``query_many`` — same neighbors, same distances, same
per-query exact-evaluation accounting — while overlapping parent-side
embed/filter with pooled refine (pool launched once), honouring the
``max_in_flight`` backpressure bound, and supporting cancellation of
pending tickets.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import CancelledError

import numpy as np
import pytest

import time

from repro import (
    CountingDistance,
    EmbeddingIndex,
    IndexConfig,
    L2Distance,
    PersistentPool,
    RetrievalSplit,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.distances.context import DistanceContext
from repro.exceptions import RetrievalError


def _slow_echo(_state, chunk):
    time.sleep(0.2)
    return chunk


def _echo(_state, chunk):
    return chunk


@pytest.fixture(scope="module")
def serve_split():
    dataset = make_gaussian_clusters(n_objects=90, n_clusters=4, n_dims=5, seed=3)
    return RetrievalSplit.from_dataset(dataset, n_queries=14, seed=4)


@pytest.fixture(scope="module")
def serve_config():
    return IndexConfig(
        training=TrainingConfig(
            n_candidates=10,
            n_training_objects=24,
            n_triples=80,
            n_rounds=5,
            classifiers_per_round=10,
            seed=17,
        ),
        backend="filter_refine",
        n_jobs=None,
    )


def _build(serve_split, serve_config, **overrides):
    config = serve_config.with_overrides(**overrides) if overrides else serve_config
    return EmbeddingIndex.build(L2Distance(), serve_split.database, config)


def _assert_same_results(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
        assert (
            a.refine_distance_computations == b.refine_distance_computations
        )
        assert (
            a.embedding_distance_computations == b.embedding_distance_computations
        )


class TestStreamSemantics:
    def test_submission_order_bit_identical(self, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as reference:
            blocking = reference.query_many(queries, k=3, p=12)
        with _build(serve_split, serve_config) as index:
            stream = index.stream(queries, k=3, p=12, order="submission")
            pairs = list(stream)
        assert [position for position, _ in pairs] == list(range(len(queries)))
        _assert_same_results([r for _, r in pairs], blocking)

    def test_completion_order_covers_all_queries(self, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as reference:
            blocking = reference.query_many(queries, k=3, p=12)
        with _build(serve_split, serve_config, n_jobs=2) as index:
            pairs = list(index.stream(queries, k=3, p=12, order="completion"))
        assert sorted(position for position, _ in pairs) == list(range(len(queries)))
        by_position = dict(pairs)
        _assert_same_results(
            [by_position[i] for i in range(len(queries))], blocking
        )

    def test_backpressure_bounds_in_flight(self, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as index:
            stream = index.stream(
                queries, k=3, p=12, max_in_flight=2, order="submission"
            )
            results = [r for _, r in stream]
        assert len(results) == len(queries)
        assert stream.max_pending_seen <= 2
        assert stream.completed == len(queries)

    def test_invalid_stream_arguments(self, serve_split, serve_config):
        with _build(serve_split, serve_config) as index:
            with pytest.raises(RetrievalError):
                index.stream([], k=3, p=12, order="sideways")
            with pytest.raises(RetrievalError):
                index.stream([], k=3, p=12, max_in_flight=0)
            with pytest.raises(RetrievalError):
                # filter backends need p, exactly like the blocking path
                index.submit(serve_split.queries[0], k=3)

    def test_pool_launched_once_across_blocking_and_stream(
        self, serve_split, serve_config
    ):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config, n_jobs=2) as index:
            index.query_many(queries[:7], k=3, p=12, n_jobs=2)
            # The second sighting stores the queries' pairs.
            blocking = index.query_many(queries[:7], k=3, p=12, n_jobs=2)
            pairs = list(index.stream(queries[:7], k=3, p=12, order="submission"))
            assert index.pool is not None
            assert index.pool.launches == 1
            # The stream served the same queries from the warm store: zero
            # fresh refine evaluations the second time around.
            assert all(
                r.refine_distance_computations == 0 for _, r in pairs
            )
            assert [
                r.neighbor_indices.tolist() for _, r in pairs
            ] == [r.neighbor_indices.tolist() for r in blocking]


class TestTickets:
    def test_submit_then_result(self, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as reference:
            blocking = reference.query_many(queries[:3], k=2, p=10)
        with _build(serve_split, serve_config) as index:
            tickets = [index.submit(q, k=2, p=10) for q in queries[:3]]
            results = [t.result() for t in tickets]
        _assert_same_results(results, blocking)

    def test_cancel_pending_ticket(self, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as index:
            keep = index.submit(queries[0], k=2, p=10)
            drop = index.submit(queries[1], k=2, p=10)
            evaluations_before = index.distance_evaluations
            assert drop.cancel() is True
            assert drop.cancelled
            with pytest.raises(CancelledError):
                drop.result()
            # Cancelling twice (or after completion) reports failure.
            assert drop.cancel() is False
            result = keep.result()
            assert result.refine_distance_computations > 0
            # The cancelled ticket's refine work was never evaluated: only
            # the kept ticket's evaluations were charged.
            assert (
                index.distance_evaluations - evaluations_before
                == result.refine_distance_computations
            )

    def test_cancel_completed_ticket_fails(self, serve_split, serve_config):
        with _build(serve_split, serve_config) as index:
            ticket = index.submit(serve_split.queries[0], k=2, p=10)
            ticket.result()
            assert ticket.cancel() is False
            assert ticket.done()

    def test_duplicate_queries_share_in_flight_work(self, serve_split, serve_config):
        query = serve_split.queries[0]
        with _build(serve_split, serve_config) as reference:
            blocking = reference.query_many([query, query], k=2, p=10)
        # Admitted up front with nothing stored: each submit is its own
        # request, so a first sighting would be served transiently.
        with EmbeddingIndex.build(
            L2Distance(), serve_split.database, serve_config, queries=[query]
        ) as index:
            first = index.submit(query, k=2, p=10)
            second = index.submit(query, k=2, p=10)
            results = [first.result(), second.result()]
        _assert_same_results(results, blocking)
        # The duplicate deferred onto the first ticket's in-flight pairs:
        # its refine was free, exactly like query_many's dedup.
        assert results[1].refine_distance_computations == 0


class TestCallerCounter:
    def test_submit_charges_the_callers_counter_like_query(self, timeseries_split, dtw):
        """Async refine evaluations reach a caller's CountingDistance too.

        The context counter, the result's cost and the caller's counter
        must move together on every entry point, including the
        resolve/complete path ``submit`` and ``stream`` refine through.
        """
        counting = CountingDistance(dtw)
        config = IndexConfig(
            training=TrainingConfig(
                n_candidates=10,
                n_training_objects=20,
                n_triples=80,
                n_rounds=3,
                classifiers_per_round=8,
                kmax=5,
                seed=7,
            ),
            backend="filter_refine",
        )
        queries = list(timeseries_split.queries)[:6]
        with EmbeddingIndex.build(counting, timeseries_split.database, config) as index:
            serve = [
                lambda obj: index.query(obj, k=3, p=30),
                lambda obj: index.submit(obj, k=3, p=30).result(),
                lambda obj: next(iter(index.stream([obj], k=3, p=30)))[1],
            ]
            for entry, obj in zip(serve * 2, queries):
                caller, context = counting.calls, index.distance_evaluations
                result = entry(obj)
                assert result.refine_distance_computations > 0
                assert (
                    counting.calls - caller
                    == index.distance_evaluations - context
                    == result.total_distance_computations
                )


class TestFailureIsolation:
    def test_partial_pool_cancel_still_delivers_results(self):
        # One worker, three chunks: by the time cancel() is attempted the
        # first chunk is running, so the cancel must fail — and the job
        # must still deliver every chunk result afterwards (a failed
        # cancel may not strand the queued chunks).
        with PersistentPool(1) as pool:
            job = pool.submit(_slow_echo, None, [1, 2, 3])
            time.sleep(0.05)  # let chunk 1 start on the single worker
            cancelled = job.cancel()
            assert cancelled is False
            assert job.results() == [1, 2, 3]

    def test_state_eviction_deferred_while_job_in_flight(self):
        # A submitted (non-blocking) job's chunks can sit queued while
        # other callers publish enough distinct states to evict its state
        # from the LRU.  The manager-side payload must survive until the
        # job finishes, or queued chunks would crash on the lookup.
        from repro.index.pool import MAX_CACHED_STATES

        with PersistentPool(1) as pool:
            job = pool.submit(_slow_echo, {"tag": "A"}, [1, 2], signature="sig-A")
            state_id = job._state_id
            fillers = [
                pool.submit(_echo, {"tag": i}, [i], signature=f"sig-{i}")
                for i in range(MAX_CACHED_STATES + 1)
            ]
            # sig-A is out of the LRU now, but its payload must persist.
            assert state_id in pool._proxy
            assert job.results() == [1, 2]
            assert [f.results() for f in fillers] == [[i] for i in range(len(fillers))]
            # With the job done, the deferred eviction finally lands.
            assert state_id not in pool._proxy

    def test_force_released_resolution_does_not_poison_dependents(self):
        # Ticket A reserves pairs, ticket B defers onto them, then A dies
        # (force release, the serving error path).  B must still complete:
        # it falls back to evaluating the abandoned pairs itself.
        objs = [np.array([float(i), 0.0]) for i in range(6)]
        context = DistanceContext(L2Distance(), objs)
        in_flight = {}
        first = context.resolve_distances(objs[0], [1, 2, 3], in_flight=in_flight)
        second = context.resolve_distances(objs[0], [1, 2, 4], in_flight=in_flight)
        assert len(second.deferred) == 2  # pairs (0,1) and (0,2) owned by first
        context.cancel_distances(first, in_flight=in_flight, force=True)
        fresh = np.asarray(
            [L2Distance()(objs[0], objs[j]) for j in second.miss_targets]
        )
        values, spent = context.complete_distances(
            second, fresh, in_flight=in_flight
        )
        expected = np.asarray([L2Distance()(objs[0], objs[j]) for j in (1, 2, 4)])
        assert np.array_equal(values, expected)
        # The two abandoned pairs were evaluated as fallbacks and must be
        # charged: spent = own miss + 2 fallback evaluations.
        assert spent == len(second.miss_targets) + 2
        assert spent == context.distance_evaluations
        assert not in_flight


class TestAqueryMany:
    @pytest.mark.parametrize("backend", ["filter_refine", "brute_force"])
    def test_bit_identical_to_query_many(self, serve_split, serve_config, backend):
        queries = list(serve_split.queries)
        p = None if backend == "brute_force" else 12
        with _build(serve_split, serve_config, backend=backend) as reference:
            blocking = reference.query_many(queries, k=3, p=p)
        with _build(serve_split, serve_config, backend=backend) as index:
            streamed = asyncio.run(index.aquery_many(queries, k=3, p=p))
        _assert_same_results(streamed, blocking)

    def test_aquery_on_warm_reopened_index(self, tmp_path, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as index:
            index.query_many(queries, k=3, p=12)
            # The second sighting stores the queries' pairs.
            blocking = index.query_many(queries, k=3, p=12)
            index.save(tmp_path / "artifact")
        with EmbeddingIndex.open(
            tmp_path / "artifact", serve_split.database
        ) as reopened:
            streamed = asyncio.run(reopened.aquery_many(queries, k=3, p=12))
            for warm, cold in zip(streamed, blocking):
                assert np.array_equal(warm.neighbor_indices, cold.neighbor_indices)
                assert np.array_equal(
                    warm.neighbor_distances, cold.neighbor_distances
                )
            # Warm store: the stream refined entirely from cached pairs.
            assert all(r.refine_distance_computations == 0 for r in streamed)


class TestMmapStore:
    def test_uncompressed_artifact_opens_mapped(self, tmp_path, serve_split, serve_config):
        queries = list(serve_split.queries)
        with _build(serve_split, serve_config) as index:
            index.query_many(queries, k=3, p=12)
            # The second sighting stores the queries' pairs.
            blocking = index.query_many(queries, k=3, p=12)
            index.save(tmp_path / "artifact", compress_store=False)
        with EmbeddingIndex.open(
            tmp_path / "artifact", serve_split.database, store_mmap_mode="r"
        ) as reopened:
            blocks = reopened.context.store._blocks
            assert blocks, "expected dense blocks in the persisted store"
            assert any(
                isinstance(block.values, np.memmap)
                or isinstance(getattr(block.values, "base", None), np.memmap)
                for block in blocks
            )
            warm = reopened.query_many(queries, k=3, p=12)
        for mapped, cold in zip(warm, blocking):
            assert np.array_equal(mapped.neighbor_indices, cold.neighbor_indices)
            assert np.array_equal(mapped.neighbor_distances, cold.neighbor_distances)
            # The mapped store serves the pairs without re-evaluating them.
            assert mapped.refine_distance_computations == 0

    def test_compressed_store_falls_back_with_warning(
        self, tmp_path, serve_split, serve_config
    ):
        with _build(serve_split, serve_config) as index:
            index.query_many(list(serve_split.queries)[:4], k=3, p=12)
            # The second sighting stores the queries' pairs.
            index.query_many(list(serve_split.queries)[:4], k=3, p=12)
            index.save(tmp_path / "artifact")  # compressed (default)
        with pytest.warns(RuntimeWarning, match="mmap"):
            reopened = EmbeddingIndex.open(
                tmp_path / "artifact", serve_split.database, store_mmap_mode="r"
            )
        with reopened:
            results = reopened.query_many(list(serve_split.queries)[:4], k=3, p=12)
            assert all(r.refine_distance_computations == 0 for r in results)
