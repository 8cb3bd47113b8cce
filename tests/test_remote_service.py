"""End-to-end tests for the distributed shard service (``repro.remote``).

The acceptance bar (ISSUE 9) is **bit-identity**: the remote backend's
results, tie order and per-query exact-evaluation accounting must equal
the in-process ``"sharded"`` backend on the same artifact — on clean runs,
under injected socket faults (frame corruption, mid-reply connection
kills, slow peers), with a shard server SIGKILLed mid-session, and across
warm second batches.  Every test therefore runs the same query sequence
through a fresh local index and a fresh remote one and compares the full
result surface.

Real subprocesses, real sockets: clusters come from
:class:`~repro.remote.cluster.LocalCluster`, faults from the same
:class:`~repro.testing.faults.FaultPlan` the pool-chaos suite uses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    EmbeddingIndex,
    IndexConfig,
    L2Distance,
    RetrievalSplit,
    TrainingConfig,
    make_gaussian_clusters,
)
from repro.exceptions import ArtifactError, ConfigurationError
from repro.remote import LocalCluster, use_remote_backend
from repro.testing.faults import FaultPlan

pytestmark = pytest.mark.chaos

N_SHARDS = 2
K, P = 3, 10


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One saved sharded artifact plus its dataset and queries."""
    training = TrainingConfig(
        n_candidates=25,
        n_training_objects=25,
        n_triples=400,
        n_rounds=8,
        classifiers_per_round=15,
        intervals_per_candidate=4,
        kmax=5,
        seed=2,
    )
    dataset = make_gaussian_clusters(n_objects=90, n_clusters=5, n_dims=5, seed=21)
    split = RetrievalSplit.from_dataset(dataset, n_queries=10, seed=22)
    config = IndexConfig(
        training=training, backend="sharded", n_shards=N_SHARDS, n_jobs=None
    )
    index = EmbeddingIndex.build(L2Distance(), split.database, config)
    artifact = tmp_path_factory.mktemp("remote_world") / "artifact"
    index.save(artifact, compress_store=False)
    index.close()
    return artifact, split


def open_local(world):
    artifact, split = world
    return EmbeddingIndex.open(artifact, split.database)


def open_remote(world, cluster, **kwargs):
    artifact, split = world
    index = EmbeddingIndex.open(artifact, split.database)
    backend = use_remote_backend(index, cluster.addresses, **kwargs)
    return index, backend


def assert_bit_identical(local_results, remote_results):
    assert len(local_results) == len(remote_results)
    for local, remote in zip(local_results, remote_results):
        np.testing.assert_array_equal(
            local.neighbor_indices, remote.neighbor_indices
        )
        np.testing.assert_array_equal(
            local.neighbor_distances, remote.neighbor_distances
        )
        np.testing.assert_array_equal(
            local.candidate_indices, remote.candidate_indices
        )
        assert (
            local.refine_distance_computations
            == remote.refine_distance_computations
        )
        assert (
            local.embedding_distance_computations
            == remote.embedding_distance_computations
        )


def test_clean_scatter_gather_is_bit_identical(world):
    _, split = world
    local = open_local(world)
    with LocalCluster(world[0], split.database, n_shards=N_SHARDS) as cluster:
        remote, backend = open_remote(world, cluster)
        # Batch path, then the single-query path, then a warm repeat batch
        # (second-batch costs drop to store hits — they must drop the same
        # way on both sides).
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        assert_bit_identical(
            [local.query(split.queries[0], k=K, p=P)],
            [remote.query(split.queries[0], k=K, p=P)],
        )
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        health = remote.health()["remote"]
        assert health["degraded"] is False
        assert health["fallbacks"] == 0
        assert health["round_trips"] > 0
        assert health["bytes_sent"] > 0 and health["bytes_received"] > 0
        local.close()
        remote.close()


def test_corrupt_frame_is_retried_without_degrading(world):
    _, split = world
    local = open_local(world)
    faults = {0: FaultPlan(corrupt_frame=2)}
    with LocalCluster(
        world[0], split.database, n_shards=N_SHARDS, faults=faults
    ) as cluster:
        remote, backend = open_remote(world, cluster)
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        health = remote.health()["remote"]
        assert health["retries"] >= 1
        assert health["degraded"] is False
        assert health["fallbacks"] == 0
        local.close()
        remote.close()


def test_mid_reply_connection_kill_is_retried(world):
    _, split = world
    faults = {1: FaultPlan(kill_connection_after=2)}
    local = open_local(world)
    with LocalCluster(
        world[0], split.database, n_shards=N_SHARDS, faults=faults
    ) as cluster:
        remote, backend = open_remote(world, cluster)
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        health = remote.health()["remote"]
        assert health["retries"] >= 1
        assert health["degraded"] is False
        local.close()
        remote.close()


def test_slow_peer_blows_the_deadline_and_is_retried(world):
    _, split = world
    faults = {0: FaultPlan(slow_frame=2, slow_frame_seconds=1.5)}
    local = open_local(world)
    with LocalCluster(
        world[0], split.database, n_shards=N_SHARDS, faults=faults
    ) as cluster:
        remote, backend = open_remote(world, cluster, read_timeout=0.4)
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        health = remote.health()["remote"]
        assert health["retries"] >= 1
        local.close()
        remote.close()


def test_killed_shard_degrades_to_local_fallback_then_revives(world):
    _, split = world
    local = open_local(world)
    with LocalCluster(world[0], split.database, n_shards=N_SHARDS) as cluster:
        remote, backend = open_remote(world, cluster)
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        cluster.kill(1)
        # Two degraded batches: the second exercises the once-per-batch
        # revival probe against a still-dead port.
        for _ in range(2):
            assert_bit_identical(
                local.query_many(split.queries, k=K, p=P),
                remote.query_many(split.queries, k=K, p=P),
            )
        health = remote.health()
        assert health["degraded"] is True
        assert health["remote"]["degraded"] is True
        assert health["remote"]["fallbacks"] >= 2  # filter + refine per batch
        cluster.restart(1)
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        health = remote.health()["remote"]
        assert health["degraded"] is False
        assert sum(s["revivals"] for s in health["shards"]) == 1
        local.close()
        remote.close()


def test_remote_refine_evaluations_reach_the_index_counter(world):
    """Pairs a healthy shard server evaluates are charged in the parent.

    The streamed values install missing pairs in the parent store; each
    such pair is one exact evaluation, so ``index.distance_evaluations``
    moves exactly as it does locally and as the results report.
    """
    _, split = world
    local = open_local(world)
    with LocalCluster(world[0], split.database, n_shards=N_SHARDS) as cluster:
        remote, backend = open_remote(world, cluster)
        deltas = []
        for index in (local, remote):
            before = index.distance_evaluations
            results = index.query_many(split.queries, k=K, p=P)
            deltas.append(index.distance_evaluations - before)
        assert backend.health()["fallbacks"] == 0
        assert deltas[1] == deltas[0]
        assert deltas[1] == sum(r.total_distance_computations for r in results)
        local.close()
        remote.close()


def test_streamed_and_fallback_charges_match_the_local_backend(world):
    """Both kinds of remote refine charge move the counters as locally.

    Over a cold batch, its second sighting (stored), its warm third and a
    batch with a shard down (its refine work then runs in the parent), the
    index's evaluation counter and the refine-stage counter must move
    batch by batch exactly as the in-process sharded backend's do, the
    latter by the refine charges the results report.
    """
    _, split = world
    queries = list(split.queries)
    local = open_local(world)
    with LocalCluster(world[0], split.database, n_shards=N_SHARDS) as cluster:
        remote, backend = open_remote(world, cluster)
        batches = (queries[:5], queries[:5], queries[:5], queries[5:])
        for step, batch in enumerate(batches):
            if step == 3:
                cluster.kill(1)
            moved = []
            for index in (local, remote):
                refine = index._backend.engine.refine
                evaluations, calls = index.distance_evaluations, refine.calls
                results = index.query_many(batch, k=K, p=P)
                moved.append(
                    (index.distance_evaluations - evaluations, refine.calls - calls)
                )
                assert moved[-1][1] == sum(
                    r.refine_distance_computations for r in results
                )
            assert moved[1] == moved[0], step
            if step == 2:
                assert moved[0] == (0, 0)  # the warm third sighting is free
            else:
                assert moved[0][1] > 0
        assert backend.health()["fallbacks"] > 0
        local.close()
        remote.close()


def test_miswired_addresses_never_serve_wrong_answers(world):
    _, split = world
    local = open_local(world)
    with LocalCluster(world[0], split.database, n_shards=N_SHARDS) as cluster:
        swapped = list(reversed(cluster.addresses))
        remote = EmbeddingIndex.open(world[0], split.database)
        use_remote_backend(remote, swapped, retries=0)
        # Every HELLO handshake fails the layout check, both shards fall
        # back locally: degraded, slower — but bit-identical, never wrong.
        assert_bit_identical(
            local.query_many(split.queries, k=K, p=P),
            remote.query_many(split.queries, k=K, p=P),
        )
        assert remote.health()["remote"]["degraded"] is True
        local.close()
        remote.close()


def test_address_count_must_match_the_shard_layout(world):
    _, split = world
    remote = EmbeddingIndex.open(world[0], split.database)
    with pytest.raises(ConfigurationError, match="address"):
        use_remote_backend(remote, [("127.0.0.1", 1)])
    remote.close()


def test_single_shard_open_refuses_inconsistent_spec(world):
    _, split = world
    with pytest.raises(ArtifactError, match="shard"):
        EmbeddingIndex.open(world[0], split.database, shard=f"0/{N_SHARDS + 1}")
    with pytest.raises(ArtifactError, match="shard"):
        EmbeddingIndex.open(world[0], split.database, shard="2/2:0-45")
