"""Tests for the EmbeddingIndex facade, its artifacts, and the worker pool.

Covers the acceptance surface of the build → save → open → query API:

* artifact round trips across all three built-in backends (neighbors,
  distances and per-query cost accounting bit-identical, zero retraining);
* fingerprint verification refusing mismatched databases and half-written
  artifacts;
* warm-open serving with zero exact evaluations for store-resident pairs;
* persistent-pool results bit-identical to the serial path, with a single
  pool launch across repeated ``query_many`` calls;
* equivalence with the hand-wired trainer → retriever → context path;
* the bounded ``DistanceStore`` (LRU over sparse entries, dense blocks
  kept) and the atomic ``save_store``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np
import pytest

from repro import (
    BoostMapTrainer,
    ConstrainedDTW,
    DistanceContext,
    EmbeddingIndex,
    FilterRefineRetriever,
    IndexConfig,
    L2Distance,
    PersistentPool,
    RetrievalSplit,
    TrainingConfig,
    make_gaussian_clusters,
    make_timeseries_dataset,
)
from repro.distances.context import DistanceStore
from repro.exceptions import (
    ArtifactError,
    ConfigurationError,
    DistanceError,
    RetrievalError,
)
from repro.index import available_backends
from repro.index.artifacts import MANIFEST_NAME, read_manifest, write_manifest


def _tiny_training(seed: int = 2) -> TrainingConfig:
    return TrainingConfig(
        n_candidates=25,
        n_training_objects=25,
        n_triples=400,
        n_rounds=8,
        classifiers_per_round=15,
        intervals_per_candidate=4,
        kmax=5,
        seed=seed,
    )


@pytest.fixture(scope="module")
def l2_split():
    dataset = make_gaussian_clusters(n_objects=100, n_clusters=5, n_dims=5, seed=11)
    return RetrievalSplit.from_dataset(dataset, n_queries=12, seed=12)


@pytest.fixture(scope="module")
def built_index(l2_split):
    index = EmbeddingIndex.build(
        L2Distance(),
        l2_split.database,
        IndexConfig(training=_tiny_training()),
        queries=list(l2_split.queries),
    )
    yield index
    index.close()


def assert_results_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
        assert a.total_distance_computations == b.total_distance_computations


class TestBuildAndQuery:
    def test_build_trains_once_and_serves(self, built_index, l2_split):
        results = built_index.query_many(list(l2_split.queries), k=3, p=10)
        assert len(results) == len(l2_split.queries)
        for result in results:
            assert result.neighbor_indices.shape == (3,)
            assert (
                result.total_distance_computations <= len(l2_split.database)
            )

    def test_query_matches_query_many(self, built_index, l2_split):
        single = [built_index.query(q, k=2, p=8) for q in l2_split.queries]
        batched = built_index.query_many(list(l2_split.queries), k=2, p=8)
        for a, b in zip(single, batched):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
            assert np.array_equal(a.neighbor_distances, b.neighbor_distances)

    def test_equivalent_to_hand_wired_pipeline(self, l2_split):
        """The facade path must be bit-identical — neighbors and per-query
        total_distance_computations — to trainer → retriever → context."""
        config = _tiny_training()
        context = DistanceContext(
            L2Distance(), list(l2_split.database) + list(l2_split.queries)
        )
        model = BoostMapTrainer(context, l2_split.database, config).train().model
        retriever = FilterRefineRetriever(context, l2_split.database, model)
        hand = retriever.query_many(list(l2_split.queries), k=3, p=10)

        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=config),
            queries=list(l2_split.queries),
        )
        got = index.query_many(list(l2_split.queries), k=3, p=10)
        assert_results_identical(hand, got)
        assert index.distance_evaluations == context.distance_evaluations
        index.close()

    def test_backend_switch_is_free_and_identical(self, l2_split):
        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training()),
            queries=list(l2_split.queries),
        )
        flat = index.query_many(list(l2_split.queries), k=3, p=10)
        before = index.distance_evaluations
        index.set_backend("planned")
        assert index.distance_evaluations == before  # switching costs nothing
        planned = index.query_many(list(l2_split.queries), k=3, p=10)
        # Same neighbors, and the switched backend reuses the shared store:
        # every refine pair was already evaluated, so the repeat is free.
        for a, b in zip(flat, planned):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
            assert np.array_equal(a.neighbor_distances, b.neighbor_distances)
            assert b.refine_distance_computations == 0
        assert index.distance_evaluations == before
        index.close()

    def test_brute_force_backend(self, l2_split):
        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training(), backend="brute_force"),
        )
        result = index.query(l2_split.queries[0], k=4)  # p not needed
        # Brute force must agree with an exhaustive scan.
        exact = np.array(
            [L2Distance()(l2_split.queries[0], obj) for obj in l2_split.database]
        )
        expected = np.argsort(exact, kind="stable")[:4]
        assert np.array_equal(result.neighbor_indices, expected)
        assert result.embedding_distance_computations == 0
        index.close()

    def test_filter_backend_requires_p(self, built_index, l2_split):
        with pytest.raises(RetrievalError, match="needs p"):
            built_index.query(l2_split.queries[0], k=2)

    def test_closed_index_refuses_queries(self, l2_split):
        index = EmbeddingIndex.build(
            L2Distance(), l2_split.database, IndexConfig(training=_tiny_training())
        )
        index.close()
        with pytest.raises(RetrievalError, match="closed"):
            index.query(l2_split.queries[0], k=1, p=5)


class TestArtifactLifecycle:
    @pytest.mark.parametrize("backend", ["brute_force", "filter_refine", "planned"])
    def test_round_trip_all_backends(self, tmp_path, l2_split, backend):
        """build → query → save → open → query round-trips bit-identically
        on every built-in backend, with zero retraining on open."""
        config = IndexConfig(training=_tiny_training(), backend=backend)
        index = EmbeddingIndex.build(
            L2Distance(), l2_split.database, config, queries=list(l2_split.queries)
        )
        kwargs = {} if backend == "brute_force" else {"p": 10}
        index.query_many(list(l2_split.queries), k=3, **kwargs)
        # A second pass on the (now warm) index is the reference state the
        # reopened index must reproduce — including per-query costs.
        warm = index.query_many(list(l2_split.queries), k=3, **kwargs)
        index.save(tmp_path / "artifact")
        index.close()

        reopened = EmbeddingIndex.open(tmp_path / "artifact", l2_split.database)
        assert reopened.backend == backend
        served = reopened.query_many(list(l2_split.queries), k=3, **kwargs)
        assert_results_identical(warm, served)
        # Zero retraining and zero exact evaluations: everything the serve
        # needed was persisted.
        assert reopened.distance_evaluations == 0
        reopened.close()

    def test_open_verifies_model_identity(self, tmp_path, built_index, l2_split):
        built_index.save(tmp_path / "artifact")
        reopened = EmbeddingIndex.open(tmp_path / "artifact", l2_split.database)
        assert reopened.embedder.to_dict() == built_index.embedder.to_dict()
        np.testing.assert_array_equal(
            reopened.database_vectors, built_index.database_vectors
        )
        reopened.close()

    def test_open_refuses_fingerprint_mismatch(self, tmp_path, built_index):
        built_index.save(tmp_path / "artifact")
        other = make_gaussian_clusters(n_objects=88, n_clusters=5, n_dims=5, seed=99)
        with pytest.raises(ArtifactError, match="fingerprint|database"):
            EmbeddingIndex.open(tmp_path / "artifact", other)

    def test_open_refuses_reordered_database(self, tmp_path, built_index, l2_split):
        built_index.save(tmp_path / "artifact")
        reordered = l2_split.database.subset(
            list(range(len(l2_split.database)))[::-1]
        )
        with pytest.raises(ArtifactError, match="fingerprint"):
            EmbeddingIndex.open(tmp_path / "artifact", reordered)

    def test_open_refuses_missing_manifest(self, tmp_path, built_index, l2_split):
        """A save that crashed before its manifest commit point is refused."""
        built_index.save(tmp_path / "artifact")
        (tmp_path / "artifact" / MANIFEST_NAME).unlink()
        with pytest.raises(ArtifactError, match="manifest"):
            EmbeddingIndex.open(tmp_path / "artifact", l2_split.database)

    def test_open_refuses_future_format_version(
        self, tmp_path, built_index, l2_split
    ):
        built_index.save(tmp_path / "artifact")
        manifest = read_manifest(tmp_path / "artifact")
        manifest["format_version"] = 999
        # write_manifest stamps the supported version, so write by hand.
        import json

        (tmp_path / "artifact" / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format version"):
            EmbeddingIndex.open(tmp_path / "artifact", l2_split.database)

    def test_open_ignores_retired_filter_tier(self, tmp_path, built_index, l2_split):
        """Artifacts saved with the retired quantized filter tier still open.

        Their config names a ``filter_dtype`` and a ``filter.npz`` lies
        beside ``arrays.npz``; both are ignored, and the index serves from
        the float64 table the artifact always held.
        """
        directory = tmp_path / "artifact"
        built_index.save(directory)
        queries = list(l2_split.queries)
        with EmbeddingIndex.open(directory, l2_split.database) as saved:
            expected = saved.query_many(queries, k=3, p=10)
        manifest = read_manifest(directory)
        manifest["config"]["filter_dtype"] = "int8"
        write_manifest(directory, manifest)
        (directory / "filter.npz").write_bytes(b"not an npz archive")
        with EmbeddingIndex.open(directory, l2_split.database) as reopened:
            served = reopened.query_many(queries, k=3, p=10)
        assert_results_identical(expected, served)

    def test_open_refuses_retired_sharded_backend(
        self, tmp_path, built_index, l2_split
    ):
        """An artifact saved under the deleted ``"sharded"`` backend is
        refused at open with an artifact error naming the directory and the
        backend; a ``backend=`` override opens it and serves like the
        original index, while an unknown override stays a configuration
        error."""
        directory = tmp_path / "artifact"
        built_index.save(directory)
        manifest = read_manifest(directory)
        manifest["config"]["backend"] = manifest["backend"] = "sharded"
        manifest["config"]["n_shards"] = 4
        write_manifest(directory, manifest)
        with pytest.raises(ArtifactError, match="unknown backend 'sharded'") as info:
            EmbeddingIndex.open(directory, l2_split.database)
        assert str(directory) in str(info.value)
        assert isinstance(info.value.__cause__, ConfigurationError)
        with pytest.raises(ConfigurationError, match="unknown backend 'nope'"):
            EmbeddingIndex.open(directory, l2_split.database, backend="nope")

        queries = list(l2_split.queries)
        with EmbeddingIndex.open(
            directory, l2_split.database, backend="filter_refine"
        ) as reopened:
            assert reopened.backend == "filter_refine"
            served = reopened.query_many(queries, k=3, p=10)
        assert_results_identical(served, built_index.query_many(queries, k=3, p=10))

    def test_open_checks_supplied_distance_name(
        self, tmp_path, built_index, l2_split
    ):
        built_index.save(tmp_path / "artifact")
        with pytest.raises(ArtifactError, match="distance"):
            EmbeddingIndex.open(
                tmp_path / "artifact", l2_split.database, distance=ConstrainedDTW()
            )
        # The right measure (by name) is accepted.
        reopened = EmbeddingIndex.open(
            tmp_path / "artifact", l2_split.database, distance=L2Distance()
        )
        reopened.close()

    def test_warm_open_serves_stored_queries_for_free(self, tmp_path):
        """The acceptance scenario: a reopened index answers a previously
        served query batch with zero exact evaluations, even though the
        caller's query objects are new (equal-content) instances."""
        database, queries = make_timeseries_dataset(
            n_database=60, n_queries=8, n_seeds=6, length=24, n_dims=1, seed=3
        )
        index = EmbeddingIndex.build(
            ConstrainedDTW(),
            database,
            IndexConfig(training=_tiny_training(seed=5)),
        )
        index.query_many(list(queries), k=3, p=12)
        assert index.distance_evaluations > 0
        index.query_many(list(queries), k=3, p=12)  # second sighting: stored
        warm = index.query_many(list(queries), k=3, p=12)
        index.save(tmp_path / "artifact")
        index.close()

        # Regenerate the dataset: distinct objects, identical content.
        database2, queries2 = make_timeseries_dataset(
            n_database=60, n_queries=8, n_seeds=6, length=24, n_dims=1, seed=3
        )
        reopened = EmbeddingIndex.open(tmp_path / "artifact", database2)
        served = reopened.query_many(list(queries2), k=3, p=12)
        assert reopened.distance_evaluations == 0
        assert_results_identical(warm, served)
        for result in served:
            assert result.refine_distance_computations == 0
        reopened.close()

    def test_asymmetric_context_round_trips(self, tmp_path):
        """An index adopted from an asymmetric context must reopen: the
        config records the store's symmetry convention at build time."""
        rng = np.random.default_rng(4)

        def histogram():
            h = rng.random(6) + 0.05
            return h / h.sum()

        from repro.datasets.base import Dataset

        database = Dataset([histogram() for _ in range(40)], name="hists")
        queries = [histogram() for _ in range(5)]
        from repro import KLDivergence

        context = DistanceContext(
            KLDivergence(), list(database) + queries, symmetric=False
        )
        index = EmbeddingIndex.build(
            context,
            database,
            IndexConfig(training=_tiny_training(seed=8)),
        )
        assert index.config.symmetric is False  # reconciled with the store
        index.query_many(queries, k=2, p=8)
        warm = index.query_many(queries, k=2, p=8)
        index.save(tmp_path / "artifact")
        index.close()
        reopened = EmbeddingIndex.open(tmp_path / "artifact", database)
        assert reopened.context.store.symmetric is False
        served = reopened.query_many(queries, k=2, p=8)
        assert_results_identical(warm, served)
        assert reopened.distance_evaluations == 0
        reopened.close()

    def test_save_refuses_non_prefix_database_layout(self, tmp_path, l2_split):
        """The artifact format keys everything by database position, so a
        context whose universe does not start with the database cannot be
        persisted (it would reopen against wrong store keys)."""
        context = DistanceContext(
            L2Distance(), list(l2_split.queries) + list(l2_split.database)
        )
        index = EmbeddingIndex.build(
            context, l2_split.database, IndexConfig(training=_tiny_training())
        )
        index.query(l2_split.queries[0], k=1, p=5)  # serving still works
        with pytest.raises(ArtifactError, match="universe positions"):
            index.save(tmp_path / "artifact")
        index.close()

    def test_save_requires_trained_model(self, tmp_path, l2_split):
        from repro.embeddings.lipschitz import build_lipschitz_embedding

        embedding = build_lipschitz_embedding(
            L2Distance(), l2_split.database, dim=4, set_size=1, seed=0
        )
        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training()),
            embedder=embedding,
        )
        with pytest.raises(ArtifactError, match="QuerySensitiveModel"):
            index.save(tmp_path / "artifact")
        index.close()

    def test_crashed_resave_leaves_unopenable_artifact(
        self, tmp_path, built_index, l2_split
    ):
        """Overwriting an existing artifact retracts the manifest first, so
        a crash mid-re-save cannot leave the old manifest validating a
        mixed old/new file set."""
        built_index.save(tmp_path / "artifact")

        import repro.index.embedding_index as module

        original = module.artifacts.write_arrays
        calls = {"n": 0}

        def crash_after_arrays(*args, **kwargs):
            calls["n"] += 1
            original(*args, **kwargs)
            raise RuntimeError("simulated crash mid-save")

        module.artifacts.write_arrays = crash_after_arrays
        try:
            with pytest.raises(RuntimeError):
                built_index.save(tmp_path / "artifact")
        finally:
            module.artifacts.write_arrays = original
        assert calls["n"] == 1
        with pytest.raises(ArtifactError, match="manifest"):
            EmbeddingIndex.open(tmp_path / "artifact", l2_split.database)
        # A completed re-save repairs the directory.
        built_index.save(tmp_path / "artifact")
        EmbeddingIndex.open(tmp_path / "artifact", l2_split.database).close()

    def test_saved_store_includes_served_queries(self, tmp_path, built_index):
        """Ad-hoc queries served before save() are part of the artifact."""
        built_index.save(tmp_path / "artifact")
        manifest = read_manifest(tmp_path / "artifact")
        assert manifest["n_extra_objects"] > 0  # the registered queries


def _novel(n, seed):
    """``n`` fresh query vectors no index has seen."""
    rng = np.random.default_rng(seed)
    return [rng.normal(size=5) for _ in range(n)]


class TestQueryAdmission:
    """A query is stored from its second sighting and free from its third."""

    @pytest.fixture
    def index(self, l2_split):
        index = EmbeddingIndex.build(
            L2Distance(), l2_split.database, IndexConfig(training=_tiny_training())
        )
        yield index
        index.close()

    @staticmethod
    def _sizes(index):
        return index.context.n_objects, index.context.store.n_sparse_entries

    def test_first_sighting_is_served_transiently(self, index, l2_split):
        """No universe index, no store entry, and the answers and costs of
        a query stored up front."""
        queries = list(l2_split.queries)
        before = self._sizes(index)
        served = index.query_many(queries, k=3, p=10)
        assert self._sizes(index) == before
        assert all(index.context.index_of(q) is None for q in queries)
        with EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training()),
            queries=queries,
        ) as stored:
            assert_results_identical(served, stored.query_many(queries, k=3, p=10))

    def test_anchor_that_is_a_candidate_is_evaluated_once(self, index, l2_split):
        """With every database object a candidate, each embedding anchor is
        also refined: the request's memo serves it, so a first sighting
        evaluates each database object exactly once."""
        n = len(l2_split.database)
        queries = _novel(4, seed=21)
        before = self._sizes(index)
        evaluations = index.distance_evaluations
        served = index.query_many(queries, k=3, p=n)
        assert self._sizes(index) == before
        assert index.distance_evaluations - evaluations == n * len(queries)
        for result in served:
            assert result.refine_distance_computations == n - index.embedding_cost

    def test_second_sighting_admits_the_query(self, index):
        (query,) = _novel(1, seed=22)
        n_objects, _ = self._sizes(index)
        index.query(query, k=3, p=10)
        assert self._sizes(index)[0] == n_objects
        entries = index.context.store.n_sparse_entries
        again = index.query(query, k=3, p=10)
        assert index.context.index_of(query) == n_objects
        assert self._sizes(index)[0] == n_objects + 1
        assert index.context.store.n_sparse_entries > entries
        assert again.refine_distance_computations > 0  # stored, not yet reused

    def test_third_sighting_is_free_in_process_and_after_open(
        self, index, l2_split, tmp_path
    ):
        queries = _novel(5, seed=23)
        once = _novel(2, seed=24)
        index.query_many(queries + once, k=3, p=10)
        second = index.query_many(queries, k=3, p=10)
        assert all(r.refine_distance_computations > 0 for r in second)
        evaluations = index.distance_evaluations
        third = index.query_many(queries, k=3, p=10)
        assert index.distance_evaluations == evaluations
        assert all(r.refine_distance_computations == 0 for r in third)
        index.save(tmp_path / "artifact")
        assert read_manifest(tmp_path / "artifact")["n_extra_objects"] == len(queries)
        with EmbeddingIndex.open(tmp_path / "artifact", l2_split.database) as reopened:
            served = reopened.query_many([q.copy() for q in queries], k=3, p=10)
            assert reopened.distance_evaluations == 0
            assert_results_identical(third, served)
            # A query seen once before the save is a first sighting again.
            n_objects = reopened.context.n_objects
            reopened.query_many(once, k=3, p=10)
            assert reopened.distance_evaluations > 0
            assert reopened.context.n_objects == n_objects

    def test_duplicates_within_one_request_are_admitted_at_once(self, index):
        query, copied, single = _novel(3, seed=25)
        n_objects, _ = self._sizes(index)
        served = index.query_many(
            [query, query, copied, copied.copy(), single], k=3, p=10
        )
        # One index each for the repeated object and the equal copies; the
        # query present once stays transient.
        assert self._sizes(index)[0] == n_objects + 2
        assert index.context.index_of(single) is None
        assert served[1].refine_distance_computations == 0
        assert served[3].refine_distance_computations == 0
        assert served[0].refine_distance_computations > 0
        assert served[2].refine_distance_computations > 0

    def test_sighting_is_forgotten_after_len_database_novel_queries(
        self, index, l2_split
    ):
        bound = len(l2_split.database)
        remembered, forgotten = _novel(2, seed=26)
        n_objects, _ = self._sizes(index)
        index.query(remembered, k=3, p=10)
        index.query_many(_novel(bound - 1, seed=27), k=3, p=10)
        index.query(remembered, k=3, p=10)
        assert index.context.index_of(remembered) == n_objects
        index.query(forgotten, k=3, p=10)
        index.query_many(_novel(bound, seed=28), k=3, p=10)
        index.query(forgotten, k=3, p=10)
        assert index.context.index_of(forgotten) is None
        assert self._sizes(index)[0] == n_objects + 1

    def test_novel_traffic_leaves_universe_and_store_flat(self, index):
        before = self._sizes(index)
        for batch in range(20):
            index.query_many(_novel(100, seed=1000 + batch), k=3, p=10)
        assert self._sizes(index) == before


class TestPersistentPoolServing:
    def test_pooled_results_bit_identical_to_serial(self):
        database, queries = make_timeseries_dataset(
            n_database=50, n_queries=8, n_seeds=6, length=24, n_dims=1, seed=7
        )
        serial = EmbeddingIndex.build(
            ConstrainedDTW(), database, IndexConfig(training=_tiny_training(seed=9))
        )
        serial_results = serial.query_many(list(queries), k=3, p=10)

        pooled = EmbeddingIndex.build(
            ConstrainedDTW(),
            database,
            IndexConfig(training=_tiny_training(seed=9), n_jobs=2),
        )
        pooled_results = pooled.query_many(list(queries), k=3, p=10, n_jobs=2)
        assert_results_identical(serial_results, pooled_results)
        serial.close()
        pooled.close()

    def test_single_pool_instance_serves_repeated_batches(self):
        """One persistent pool (one launch) across build + every query_many."""
        database, queries = make_timeseries_dataset(
            n_database=50, n_queries=6, n_seeds=6, length=24, n_dims=1, seed=7
        )
        index = EmbeddingIndex.build(
            ConstrainedDTW(),
            database,
            IndexConfig(training=_tiny_training(seed=9), n_jobs=2),
        )
        fresh_batches = [list(queries)[:3], list(queries)[3:]]
        for batch in fresh_batches:
            index.query_many(batch, k=2, p=10, n_jobs=2)
        assert index.pool.launches == 1
        assert index.pool.runs >= 2
        index.close()
        # Closing is idempotent and leaves the pool unusable.
        index.close()
        with pytest.raises(DistanceError, match="closed"):
            index.pool.run(lambda s, c: c, {}, [[1]])

    def test_novel_batches_publish_the_pool_state_once(self):
        """First sightings leave the universe alone, so the refine state
        shipped to the workers keeps its signature across novel batches."""
        database, queries = make_timeseries_dataset(
            n_database=60, n_queries=40, n_seeds=6, length=24, n_dims=1, seed=8
        )
        with EmbeddingIndex.build(
            ConstrainedDTW(),
            database,
            IndexConfig(training=_tiny_training(seed=9), n_jobs=2),
        ) as index:
            queries = list(queries)
            for start in range(0, 40, 4):
                index.query_many(queries[start:start + 4], k=2, p=10, n_jobs=2)
            health = index.pool.health()
            assert health["runs"] >= 10
            assert health["states_published"] == 1

    def test_shared_pool_is_borrowed_not_owned(self, l2_split):
        with PersistentPool(2) as pool:
            index = EmbeddingIndex.build(
                L2Distance(),
                l2_split.database,
                IndexConfig(training=_tiny_training()),
                pool=pool,
            )
            index.close()  # must NOT close the shared pool
            assert not pool._closed
            pool.run(_echo_chunk, {"tag": 1}, [[1, 2]])

    def test_serial_config_creates_no_pool(self, l2_split):
        """A serial index stays pool-less (nothing to leak), and a per-call
        n_jobs override still serves the same neighbours, in the parent."""
        index = EmbeddingIndex.build(
            L2Distance(), l2_split.database, IndexConfig(training=_tiny_training())
        )
        assert index.pool is None
        assert index.context.pool is None
        serial = index.query_many(list(l2_split.queries)[:4], k=2, p=8)
        fresh = list(l2_split.queries)[4:8]
        pooled = index.query_many(fresh, k=2, p=8, n_jobs=2)
        reference = index.query_many(fresh, k=2, p=8)
        for a, b in zip(pooled, reference):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        index.close()

    def test_pool_less_serving_starts_no_one_shot_pool(self, l2_split, monkeypatch):
        """query_many(n_jobs=2) on an index without a persistent pool
        refines in the parent: no process pool is started per call."""
        from repro.distances import parallel

        started = []

        class CountingExecutor(parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountingExecutor)
        with EmbeddingIndex.build(
            L2Distance(), l2_split.database, IndexConfig(training=_tiny_training())
        ) as index:
            assert index.pool is None
            for seed in range(5):
                fresh = _novel(10, seed=100 + seed)
                served = index.query_many(fresh, k=2, p=8, n_jobs=2)
                assert_results_identical(served, index.query_many(fresh, k=2, p=8))
        assert len(started) == 0

    def test_undersized_pool_bypassed_for_wider_requests(self, l2_split):
        """A 1-worker pool must not serialize a multi-worker request."""
        context = DistanceContext(
            L2Distance(), list(l2_split.database) + list(l2_split.queries)
        )
        with PersistentPool(1) as pool:
            context.pool = pool
            assert context._pool_for(4) is None  # fall back to per-call
            assert context._pool_for(1) is pool
        context.pool = None

    def test_closed_borrowed_pool_degrades_gracefully(self, l2_split):
        """An index outliving its borrowed pool detaches it and serves the
        next parallel batch in the parent instead of erroring."""
        pool = PersistentPool(2)
        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training(), n_jobs=2),
            pool=pool,
        )
        reference = index.query_many(list(l2_split.queries), k=2, p=8)
        pool.close()
        # Genuinely novel queries → real refine work that would hit the pool.
        rng = np.random.default_rng(3)
        fresh = [rng.normal(size=5) for _ in range(4)]
        served = index.query_many(fresh, k=2, p=8, n_jobs=2)
        expected = index.query_many(fresh, k=2, p=8)
        for a, b in zip(served, expected):
            assert np.array_equal(a.neighbor_indices, b.neighbor_indices)
        assert index.context.pool is None  # closed pool was detached
        assert len(reference) == len(l2_split.queries)
        index.close()

    def test_adoption_survives_batches_larger_than_the_lru(self, tmp_path):
        """A warm-open batch larger than the adopted-id LRU must still be
        served entirely from the store (no silent cache-nothing fallback)."""
        database, queries = make_timeseries_dataset(
            n_database=40, n_queries=6, n_seeds=5, length=20, n_dims=1, seed=5
        )
        index = EmbeddingIndex.build(
            ConstrainedDTW(), database, IndexConfig(training=_tiny_training(seed=6))
        )
        index.query_many(list(queries), k=2, p=8)
        index.query_many(list(queries), k=2, p=8)  # second sighting: stored
        index.save(tmp_path / "artifact")
        index.close()

        _db2, queries2 = make_timeseries_dataset(
            n_database=40, n_queries=6, n_seeds=5, length=20, n_dims=1, seed=5
        )
        reopened = EmbeddingIndex.open(tmp_path / "artifact", database)
        reopened.context.ADOPTED_CACHE_SIZE = 2  # force eviction pressure
        served = reopened.query_many(list(queries2), k=2, p=8)
        assert reopened.distance_evaluations == 0
        for result in served:
            assert result.refine_distance_computations == 0
        reopened.close()

    def test_pool_cannot_be_pickled(self):
        with PersistentPool(1) as pool:
            with pytest.raises(DistanceError, match="pickle"):
                pickle.dumps(pool)


def _echo_chunk(state, chunk):
    return [state["tag"]] + list(chunk)


class TestPersistentPoolUnit:
    def test_run_preserves_chunk_order_and_state(self):
        with PersistentPool(2) as pool:
            results = pool.run(
                _echo_chunk, {"tag": 7}, [[1], [2], [3], [4]], signature=("s", 1)
            )
            assert results == [[7, 1], [7, 2], [7, 3], [7, 4]]
            assert pool.launches == 1
            # Same signature: the state is not re-published.
            pool.run(_echo_chunk, {"tag": 7}, [[5]], signature=("s", 1))
            assert pool.states_published == 1
            # New signature: published once more, same workers.
            pool.run(_echo_chunk, {"tag": 8}, [[6]], signature=("s", 2))
            assert pool.states_published == 2
            assert pool.launches == 1

    def test_unsigned_state_never_cached(self):
        with PersistentPool(1) as pool:
            pool.run(_echo_chunk, {"tag": 1}, [[1]])
            pool.run(_echo_chunk, {"tag": 2}, [[2]])
            assert pool.states_published == 2


class TestIndexConfig:
    # An artifact saved before the sharded backend was deleted carries an
    # ``n_shards`` key; ``from_dict`` ignores it.
    @pytest.mark.parametrize(
        "legacy", [{}, {"n_shards": 5}], ids=["current", "n_shards"]
    )
    def test_round_trip(self, legacy):
        config = IndexConfig(
            training=_tiny_training(seed=4),
            backend="planned",
            n_jobs=3,
            symmetric=False,
            max_sparse_entries=1000,
        )
        clone = IndexConfig.from_dict({**config.to_dict(), **legacy})
        assert clone == config

    def test_rejects_unknown_backend(self):
        assert available_backends() == ("brute_force", "filter_refine", "planned")
        for name in ("warp-drive", "sharded", "remote_sharded"):
            with pytest.raises(ConfigurationError, match="unknown backend"):
                IndexConfig(backend=name)


class TestBoundedStore:
    def test_lru_eviction_over_sparse_entries(self):
        store = DistanceStore(max_sparse_entries=3)
        for i in range(5):
            store.put(0, i + 1, float(i))
        assert store.n_sparse_entries == 3
        assert store.sparse_evictions == 2
        assert store.get(0, 1) is None  # oldest two evicted
        assert store.get(0, 5) == 4.0

    def test_get_refreshes_recency(self):
        store = DistanceStore(max_sparse_entries=2)
        store.put(0, 1, 1.0)
        store.put(0, 2, 2.0)
        assert store.get(0, 1) == 1.0  # refresh (0, 1)
        store.put(0, 3, 3.0)  # evicts (0, 2), the least recently used
        assert store.get(0, 2) is None
        assert store.get(0, 1) == 1.0

    def test_dense_blocks_never_evicted(self):
        store = DistanceStore(max_sparse_entries=1)
        values = np.arange(9, dtype=float).reshape(3, 3)
        store.put_block([0, 1, 2], [3, 4, 5], values)
        for i in range(50):
            store.put(10, 11 + i, float(i))
        assert store.get(1, 4) == 4.0  # block cell survives any sparse churn
        assert store.n_sparse_entries == 1

    def test_bound_must_be_positive(self):
        with pytest.raises(DistanceError, match="positive"):
            DistanceStore(max_sparse_entries=0)

    def test_context_results_identical_under_tight_bound(self):
        """A tiny bound may cost re-evaluations but never changes values,
        including batches larger than the bound and duplicate targets."""
        rng = np.random.default_rng(0)
        objects = [rng.normal(size=4) for _ in range(20)]
        unbounded = DistanceContext(L2Distance(), objects)
        bounded = DistanceContext(L2Distance(), objects, max_sparse_entries=3)
        targets = list(range(1, 20)) + [5, 5, 7]
        a = unbounded.distances_to(objects[0], targets)
        b = bounded.distances_to(objects[0], targets)
        np.testing.assert_array_equal(a, b)
        # Batched path with duplicate queries/targets exercises the
        # deferred-pair bookkeeping under eviction pressure.
        batch = [objects[2], objects[3], objects[2]]
        values_a, _ = unbounded.distances_to_many(batch, [targets] * 3)
        # n_jobs=2 exercises the deferred-pair fallback: a pair computed
        # under another query's plan can be evicted again before the
        # deferred position reads it back.
        values_b, counts_b = bounded.distances_to_many(batch, [targets] * 3, n_jobs=2)
        for lhs, rhs in zip(values_a, values_b):
            np.testing.assert_array_equal(lhs, rhs)
        assert bounded.store.n_sparse_entries <= 3
        assert bounded.store.sparse_evictions > 0
        # The per-query costs do not depend on where the misses run: an
        # evicted pair is still evaluated once per call at n_jobs=1.
        serial = DistanceContext(L2Distance(), objects, max_sparse_entries=3)
        assert serial.distances_to_many(batch, [targets] * 3)[1] == counts_b

    def test_index_config_surfaces_bound(self, l2_split):
        index = EmbeddingIndex.build(
            L2Distance(),
            l2_split.database,
            IndexConfig(training=_tiny_training(), max_sparse_entries=40),
        )
        index.query_many(list(l2_split.queries), k=2, p=15)
        assert index.context.store.max_sparse_entries == 40
        assert index.context.store.n_sparse_entries <= 40
        index.close()

    def test_merge_respects_bound(self):
        big = DistanceStore()
        for i in range(10):
            big.put(0, i + 1, float(i))
        small = DistanceStore(max_sparse_entries=4)
        small.merge(big)
        assert small.n_sparse_entries == 4


class TestAtomicStoreSave:
    def test_failed_save_preserves_existing_file(self, tmp_path, monkeypatch):
        store = DistanceStore()
        store.put(0, 1, 1.5)
        path = tmp_path / "store.npz"
        store.save(path)
        original = path.read_bytes()

        store.put(0, 2, 2.5)
        import repro.distances.context as context_module

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(context_module.np, "savez_compressed", boom)
        with pytest.raises(OSError):
            store.save(path)
        # The original file is intact and no temp litter remains.
        assert path.read_bytes() == original
        assert list(tmp_path.iterdir()) == [path]

    def test_save_leaves_no_temp_files(self, tmp_path):
        store = DistanceStore()
        store.put(3, 4, 5.0)
        path = tmp_path / "store.npz"
        store.save(path)
        assert [p.name for p in tmp_path.iterdir()] == ["store.npz"]
        loaded = DistanceStore.load(path)
        assert loaded.get(3, 4) == 5.0
