"""Tests for the shared distance layer (DistanceContext / DistanceStore).

Covers the store itself (keys, persistence round-trips, partial-store
merging, fingerprint safety), the context's DistanceMeasure interface and
matrix primitives (bit-identical to the context-free batch engine when
cold, zero evaluations when warm), and the full train → embed → retrieve
pipeline the acceptance criteria describe: a warm store makes every cached
pair free while the retrieval output stays bit-identical.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro import (
    BoostMapTrainer,
    BruteForceRetriever,
    ConstrainedDTW,
    CountingDistance,
    DistanceContext,
    DistanceStore,
    FilterRefineRetriever,
    KLDivergence,
    L2Distance,
    TrainingConfig,
    make_timeseries_dataset,
)
from repro.core.trainer import build_training_tables
from repro.datasets.base import Dataset
from repro.distances import (
    cross_distances,
    fingerprint_objects,
    pairwise_distances,
)
from repro.distances.parallel import ensure_parallel_safe
from repro.exceptions import DistanceError
from repro.retrieval.knn import ground_truth_neighbors


@pytest.fixture
def vectors(rng):
    return [rng.normal(size=5) for _ in range(20)]


@pytest.fixture
def l2_context(vectors):
    return DistanceContext(L2Distance(), vectors)


def _assert_results_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        np.testing.assert_array_equal(a.neighbor_distances, b.neighbor_distances)
        np.testing.assert_array_equal(a.candidate_indices, b.candidate_indices)


# --------------------------------------------------------------------------- #
# DistanceStore                                                               #
# --------------------------------------------------------------------------- #


class TestDistanceStore:
    def test_sparse_put_get_symmetric(self):
        store = DistanceStore(symmetric=True)
        store.put(3, 7, 1.25)
        assert store.get(3, 7) == 1.25
        assert store.get(7, 3) == 1.25
        assert store.get(3, 4) is None
        assert len(store) == 1

    def test_asymmetric_keeps_directions_separate(self):
        store = DistanceStore(symmetric=False)
        store.put(1, 2, 0.5)
        assert store.get(1, 2) == 0.5
        assert store.get(2, 1) is None

    def test_block_lookup_and_invalid_diagonal(self):
        store = DistanceStore(symmetric=True)
        values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        store.put_block([4, 5, 6], [4, 5, 6], values, diagonal_valid=False)
        assert store.get(5, 6) == 3.0
        assert store.get(6, 5) == 3.0
        # The mirrored-zero diagonal was never evaluated: it must miss.
        assert store.get(5, 5) is None
        assert len(store) == 6

    def test_save_load_round_trip_bit_identical(self, tmp_path, rng):
        store = DistanceStore(symmetric=True, fingerprint="abc")
        block = rng.normal(size=(3, 4))
        store.put_block([0, 1, 2], [5, 6, 7, 8], block)
        store.put(9, 10, float(rng.normal()))
        store.put(11, 11, float(rng.normal()))
        path = tmp_path / "store.npz"
        store.save(path)
        loaded = DistanceStore.load(path, expected_fingerprint="abc")
        assert loaded.symmetric is True
        assert loaded.fingerprint == "abc"
        assert len(loaded) == len(store)
        for i in range(3):
            for j in range(5, 9):
                assert loaded.get(i, j) == store.get(i, j)  # bit-exact
        assert loaded.get(9, 10) == store.get(9, 10)
        assert loaded.get(11, 11) == store.get(11, 11)

    def test_float32_blocks_round_trip_without_upcast(self, tmp_path, rng):
        # Regression: _DenseBlock used to normalise every block to float64,
        # so a float32 table silently doubled its memory on every
        # (re)open.  Reduced-precision float blocks must survive put_block,
        # save(compress=False) and load(mmap_mode="r") unchanged.
        values = rng.normal(size=(3, 4)).astype(np.float32)
        store = DistanceStore(symmetric=False, fingerprint="f32")
        store.put_block([0, 1, 2], [5, 6, 7, 8], values)
        assert store._blocks[0].values.dtype == np.float32
        path = tmp_path / "store32.npz"
        store.save(path, compress=False)
        eager = DistanceStore.load(path, expected_fingerprint="f32")
        assert eager._blocks[0].values.dtype == np.float32
        mapped = DistanceStore.load(
            path, expected_fingerprint="f32", mmap_mode="r"
        )
        block = mapped._blocks[0].values
        assert block.dtype == np.float32
        # Still backed by the on-disk mapping (np.asarray strips the memmap
        # subclass but keeps the mapped buffer as base).
        assert not block.flags.owndata and isinstance(block.base, np.memmap)
        for i in range(3):
            for j in range(5, 9):
                assert eager.get(i, j) == store.get(i, j)  # bit-exact
                assert mapped.get(i, j) == store.get(i, j)

    def test_load_refuses_fingerprint_mismatch(self, tmp_path):
        store = DistanceStore(symmetric=True, fingerprint="fingerprint-a")
        store.put(0, 1, 2.0)
        path = tmp_path / "store.npz"
        store.save(path)
        with pytest.raises(DistanceError, match="different dataset"):
            DistanceStore.load(path, expected_fingerprint="fingerprint-b")
        # Without an expectation the store loads fine.
        assert DistanceStore.load(path).get(0, 1) == 2.0

    def test_partial_stores_merge(self):
        a = DistanceStore(symmetric=True, fingerprint="f")
        a.put_block([0, 1], [0, 1], np.array([[0.0, 5.0], [5.0, 0.0]]),
                    diagonal_valid=False)
        b = DistanceStore(symmetric=True, fingerprint="f")
        b.put(2, 3, 7.0)
        b.put(0, 2, 9.0)
        a.merge(b)
        assert a.get(1, 0) == 5.0
        assert a.get(3, 2) == 7.0
        assert a.get(2, 0) == 9.0
        assert len(a) == 4

    def test_merge_refuses_mismatched_universe_or_symmetry(self):
        a = DistanceStore(symmetric=True, fingerprint="f1")
        b = DistanceStore(symmetric=True, fingerprint="f2")
        with pytest.raises(DistanceError, match="fingerprint"):
            a.merge(b)
        c = DistanceStore(symmetric=False, fingerprint="f1")
        with pytest.raises(DistanceError, match="symmetry"):
            a.merge(c)


class TestFingerprints:
    def test_order_sensitive(self, vectors):
        assert fingerprint_objects(vectors) != fingerprint_objects(vectors[::-1])

    def test_content_sensitive_and_stable(self, vectors):
        copies = [v.copy() for v in vectors]
        assert fingerprint_objects(vectors) == fingerprint_objects(copies)
        changed = [v.copy() for v in vectors]
        changed[3][0] += 1.0
        assert fingerprint_objects(vectors) != fingerprint_objects(changed)

    def test_mixed_object_kinds(self):
        objects = ["abc", b"abc", 3, 3.0, (1, 2), np.arange(3)]
        assert fingerprint_objects(objects) == fingerprint_objects(list(objects))
        assert fingerprint_objects(objects) != fingerprint_objects(objects[:-1])


# --------------------------------------------------------------------------- #
# DistanceContext core                                                        #
# --------------------------------------------------------------------------- #


class TestDistanceContextCore:
    def test_is_a_distance_measure(self, l2_context, vectors):
        base = L2Distance()
        assert l2_context(vectors[0], vectors[1]) == base(vectors[0], vectors[1])
        # Second evaluation is a store hit: no new base evaluations.
        before = l2_context.distance_evaluations
        l2_context(vectors[1], vectors[0])  # symmetric mirror
        assert l2_context.distance_evaluations == before

    def test_compute_many_mixed_known_unknown(self, l2_context, vectors, rng):
        outsider = rng.normal(size=5)
        values = l2_context.compute_many(vectors[0], [vectors[1], outsider])
        base = L2Distance()
        assert values[0] == base(vectors[0], vectors[1])
        assert values[1] == base(vectors[0], outsider)
        # The outsider pair has no stable key: evaluated again on repeat.
        before = l2_context.distance_evaluations
        l2_context.compute_many(vectors[0], [vectors[1], outsider])
        assert l2_context.distance_evaluations == before + 1

    def test_compute_pairs_caches_known_pairs(self, l2_context, vectors):
        anchors = [vectors[3]] * 5
        objs = vectors[:5]
        first = l2_context.compute_pairs(objs, anchors)
        before = l2_context.distance_evaluations
        second = l2_context.compute_pairs(objs, anchors)
        np.testing.assert_array_equal(first, second)
        assert l2_context.distance_evaluations == before

    def test_pairwise_bit_identical_and_block_backed(self, vectors):
        context = DistanceContext(L2Distance(), vectors)
        reference = pairwise_distances(L2Distance(), vectors)
        cold = context.pairwise(np.arange(len(vectors)))
        np.testing.assert_array_equal(cold, reference)
        evaluations = context.distance_evaluations
        assert evaluations == len(vectors) * (len(vectors) - 1) // 2
        warm = context.pairwise(np.arange(len(vectors)))
        np.testing.assert_array_equal(warm, reference)
        assert context.distance_evaluations == evaluations  # zero new

    def test_cross_reuses_pairwise_entries(self, l2_context, vectors):
        l2_context.pairwise(np.arange(10))
        before = l2_context.distance_evaluations
        cross = l2_context.cross(np.arange(5), np.arange(10))
        # Only the 5 diagonal self-pairs were never evaluated.
        assert l2_context.distance_evaluations == before + 5
        reference = cross_distances(L2Distance(), vectors[:5], vectors[:10])
        np.testing.assert_array_equal(cross, reference)

    def test_matrix_builders_delegate_to_context(self, vectors):
        context = DistanceContext(L2Distance(), vectors)
        matrix = pairwise_distances(context, vectors[:8])
        assert context.distance_evaluations == 8 * 7 // 2
        before = context.distance_evaluations
        again = pairwise_distances(context, vectors[:8])
        np.testing.assert_array_equal(matrix, again)
        assert context.distance_evaluations == before
        cross_distances(context, vectors[:4], vectors[4:8])
        assert context.distance_evaluations == before  # all cached

    def test_parallel_pairwise_matches_serial(self, vectors):
        serial = DistanceContext(L2Distance(), vectors)
        parallel = DistanceContext(L2Distance(), vectors)
        lhs = serial.pairwise(np.arange(len(vectors)))
        rhs = parallel.pairwise(np.arange(len(vectors)), n_jobs=2)
        np.testing.assert_array_equal(lhs, rhs)
        assert serial.distance_evaluations == parallel.distance_evaluations

    def test_save_preserves_suffixless_paths(self, tmp_path, vectors):
        """np.savez would append '.npz' behind our back; save must not."""
        context = DistanceContext(L2Distance(), vectors)
        context.pairwise(np.arange(4))
        path = tmp_path / "store-without-suffix"
        context.save_store(path)
        assert path.is_file()
        fresh = DistanceContext(L2Distance(), vectors)
        fresh.load_store(path)
        assert fresh.distance_evaluations == 0
        np.testing.assert_array_equal(
            fresh.pairwise(np.arange(4)), context.pairwise(np.arange(4))
        )
        assert fresh.distance_evaluations == 0

    def test_parallel_duplicate_queries_match_serial_counts(self, vectors):
        """A query listed twice must not be computed (or charged) twice in
        the pooled path — later occurrences see the store, like serial."""
        serial = DistanceContext(L2Distance(), vectors)
        parallel = DistanceContext(L2Distance(), vectors)
        queries = [vectors[0], vectors[0], vectors[1]]
        targets = [np.arange(10)] * 3
        serial_values, serial_counts = serial.distances_to_many(
            queries, targets, n_jobs=1
        )
        parallel_values, parallel_counts = parallel.distances_to_many(
            queries, targets, n_jobs=2
        )
        # The duplicated query is free, and vectors[1]'s pair with target 0
        # was already evaluated as (0, 1) by the first query (symmetric).
        assert serial_counts == [10, 0, 9]
        assert parallel_counts == serial_counts
        assert parallel.distance_evaluations == serial.distance_evaluations == 19
        for lhs, rhs in zip(serial_values, parallel_values):
            np.testing.assert_array_equal(lhs, rhs)

    def test_distances_to_many_parallel_merges_into_parent_store(self, vectors):
        context = DistanceContext(L2Distance(), vectors)
        serial = DistanceContext(L2Distance(), vectors)
        queries = vectors[:4]
        targets = [np.arange(len(vectors))] * 4
        values, computed = context.distances_to_many(queries, targets, n_jobs=2)
        _, serial_computed = serial.distances_to_many(queries, targets, n_jobs=1)
        # Symmetric cross-query pairs dedupe the same way serially and pooled.
        assert computed == serial_computed == [20, 19, 18, 17]
        # Worker results merged into the parent store: warm repeat is free.
        warm_values, warm_computed = context.distances_to_many(
            queries, targets, n_jobs=2
        )
        assert warm_computed == [0] * 4
        for a, b in zip(values, warm_values):
            np.testing.assert_array_equal(a, b)

    def test_register_extends_universe(self, l2_context, rng):
        fingerprint_before = l2_context.fingerprint
        newcomer = rng.normal(size=5)
        (index,) = l2_context.register([newcomer])
        assert index == l2_context.n_objects - 1
        assert l2_context.fingerprint != fingerprint_before
        assert l2_context.index_of(newcomer) == index
        # Re-registering is a no-op.
        assert l2_context.register([newcomer])[0] == index

    def test_register_hashes_the_universe_only_when_read(self, l2_context, rng, monkeypatch):
        import repro.distances.context as context_module

        calls = []
        combine = context_module._combine_digests

        def counting_combine(digests):
            calls.append(len(digests))
            return combine(digests)

        monkeypatch.setattr(context_module, "_combine_digests", counting_combine)
        for _ in range(5):
            l2_context.register([rng.normal(size=5)])
        assert calls == []
        assert l2_context.fingerprint == fingerprint_objects(l2_context.objects)
        assert l2_context.store.fingerprint == l2_context.fingerprint
        # A pickled context keeps its store tied to the universe.
        clone = pickle.loads(pickle.dumps(l2_context))
        clone.register([rng.normal(size=5)])
        assert clone.fingerprint == fingerprint_objects(clone.objects)

    def test_universe_indices_fit_a_store_key(self, l2_context, rng, monkeypatch):
        import repro.distances.context as context_module

        monkeypatch.setattr(context_module, "MAX_STORE_INDEX", l2_context.n_objects - 1)
        with pytest.raises(DistanceError, match="at most"):
            l2_context.register([rng.normal(size=5)])
        with pytest.raises(DistanceError, match="at most"):
            DistanceContext(L2Distance(), l2_context.objects + [rng.normal(size=5)])
        store = DistanceStore()
        with pytest.raises(DistanceError, match="store indices"):
            store.put(0, 2**31, 1.0)
        with pytest.raises(DistanceError, match="store indices"):
            store.get(-1, 3)

    def test_pickle_round_trip_rebuilds_identity_index(self, l2_context, vectors):
        l2_context.pairwise(np.arange(5))
        clone = pickle.loads(pickle.dumps(l2_context))
        # The clone's id map points at the clone's own (copied) objects.
        assert clone.index_of(clone.objects[3]) == 3
        assert clone.index_of(vectors[3]) is None
        before = clone.distance_evaluations
        clone.pairwise(np.arange(5))
        assert clone.distance_evaluations == before  # store survived

    def test_context_rejected_by_parallel_shipping(self, l2_context):
        with pytest.raises(DistanceError, match="DistanceContext"):
            ensure_parallel_safe(l2_context)
        with pytest.raises(DistanceError, match="DistanceContext"):
            ensure_parallel_safe(CountingDistance(l2_context))

    def test_rejects_wrapping_a_context(self, l2_context, vectors):
        with pytest.raises(DistanceError, match="cannot wrap"):
            DistanceContext(l2_context, vectors)

    def test_store_fingerprint_must_match_universe(self, vectors):
        store = DistanceStore(symmetric=True, fingerprint="not-the-universe")
        with pytest.raises(DistanceError, match="fingerprint"):
            DistanceContext(L2Distance(), vectors, store=store)

    def test_asymmetric_store_for_asymmetric_measure(self, rng):
        distributions = [rng.dirichlet(np.ones(4)) for _ in range(8)]
        kl = KLDivergence()
        context = DistanceContext(kl, distributions, symmetric=False)
        matrix = context.pairwise(np.arange(8), symmetric=False)
        reference = pairwise_distances(KLDivergence(), distributions, symmetric=False)
        np.testing.assert_array_equal(matrix, reference)
        # Both directions are distinct entries; both are warm now.
        before = context.distance_evaluations
        assert context.compute(distributions[2], distributions[5]) == matrix[2, 5]
        assert context.compute(distributions[5], distributions[2]) == matrix[5, 2]
        assert context.distance_evaluations == before

    def test_symmetric_build_never_mirrors_into_asymmetric_store(self, rng):
        """A symmetric pairwise request against an asymmetric store must
        only record the directions it actually evaluated — the mirrored
        half would be silently wrong for an asymmetric measure."""
        distributions = [rng.dirichlet(np.ones(4)) for _ in range(6)]
        context = DistanceContext(KLDivergence(), distributions, symmetric=False)
        # symmetric=True is what pairwise_distances defaults to.
        context.pairwise(np.arange(6), symmetric=True)
        reference = pairwise_distances(KLDivergence(), distributions, symmetric=False)
        # The reverse direction was never computed: it must be a store miss
        # that evaluates the true D(j, i), not a mirrored D(i, j).
        assert context.compute(distributions[3], distributions[1]) == reference[3, 1]
        assert context.compute(distributions[1], distributions[3]) == reference[1, 3]


# --------------------------------------------------------------------------- #
# Store persistence through a context                                         #
# --------------------------------------------------------------------------- #


class TestContextPersistence:
    def test_save_load_round_trip_bit_identical(self, tmp_path, vectors):
        context = DistanceContext(L2Distance(), vectors)
        matrix = context.pairwise(np.arange(len(vectors)))
        path = tmp_path / "ctx.npz"
        context.save_store(path)

        fresh = DistanceContext(L2Distance(), [v.copy() for v in vectors])
        fresh.load_store(path)
        warm = fresh.pairwise(np.arange(len(vectors)))
        np.testing.assert_array_equal(warm, matrix)
        assert fresh.distance_evaluations == 0

    def test_load_refuses_mismatched_dataset(self, tmp_path, vectors, rng):
        context = DistanceContext(L2Distance(), vectors)
        context.pairwise(np.arange(4))
        path = tmp_path / "ctx.npz"
        context.save_store(path)
        reordered = DistanceContext(L2Distance(), vectors[::-1])
        with pytest.raises(DistanceError, match="different dataset"):
            reordered.load_store(path)
        different = DistanceContext(L2Distance(), [rng.normal(size=5) for _ in range(3)])
        with pytest.raises(DistanceError, match="different dataset"):
            different.load_store(path)

    def test_partial_stores_merge_through_context(self, tmp_path, vectors):
        first = DistanceContext(L2Distance(), vectors)
        first.pairwise(np.arange(8))
        path_a = tmp_path / "a.npz"
        first.save_store(path_a)

        second = DistanceContext(L2Distance(), vectors)
        second.cross(np.arange(8, 12), np.arange(8))
        path_b = tmp_path / "b.npz"
        second.save_store(path_b)

        combined = DistanceContext(L2Distance(), vectors)
        combined.load_store(path_a)
        combined.load_store(path_b)
        before = combined.distance_evaluations
        np.testing.assert_array_equal(
            combined.pairwise(np.arange(8)), first.pairwise(np.arange(8))
        )
        np.testing.assert_array_equal(
            combined.cross(np.arange(8, 12), np.arange(8)),
            second.cross(np.arange(8, 12), np.arange(8)),
        )
        assert combined.distance_evaluations == before


# --------------------------------------------------------------------------- #
# Pipeline integration: train -> embed -> retrieve                            #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def ts_split():
    database, queries = make_timeseries_dataset(
        n_database=60, n_queries=10, n_seeds=6, length=30, n_dims=1, seed=5
    )
    return database, queries


_PIPE_CONFIG = TrainingConfig(
    n_candidates=25,
    n_training_objects=25,
    n_triples=400,
    n_rounds=6,
    classifiers_per_round=15,
    intervals_per_candidate=3,
    kmax=5,
    seed=7,
)


def _run_pipeline(distance, database, queries):
    """A table1-shaped workload: ground truth, train, embed, retrieve."""
    ground_truth = ground_truth_neighbors(distance, database, queries, k_max=5)
    tables = build_training_tables(
        distance, database, n_candidates=25, n_training_objects=25, seed=3
    )
    model = BoostMapTrainer(distance, database, _PIPE_CONFIG, tables=tables).train().model
    database_vectors = model.embed_many(list(database))
    retriever = FilterRefineRetriever(
        distance, database, model, database_vectors=database_vectors
    )
    results = retriever.query_many(list(queries), k=3, p=10)
    return ground_truth, tables, database_vectors, results


class TestPipelineThroughContext:
    def test_warm_run_costs_zero_and_is_bit_identical(self, tmp_path, ts_split):
        database, queries = ts_split
        universe = list(database) + list(queries)

        cold = DistanceContext(ConstrainedDTW(), universe)
        gt_cold, tables_cold, vectors_cold, results_cold = _run_pipeline(
            cold, database, queries
        )
        assert cold.distance_evaluations > 0
        path = tmp_path / "pipeline.npz"
        cold.save_store(path)

        warm = DistanceContext(ConstrainedDTW(), universe)
        warm.load_store(path)
        gt_warm, tables_warm, vectors_warm, results_warm = _run_pipeline(
            warm, database, queries
        )
        # The acceptance criterion: zero exact evaluations for cached pairs.
        assert warm.distance_evaluations == 0
        assert tables_warm.distance_evaluations == 0
        np.testing.assert_array_equal(gt_warm.indices, gt_cold.indices)
        np.testing.assert_array_equal(gt_warm.distances, gt_cold.distances)
        np.testing.assert_array_equal(
            tables_warm.pool_to_pool, tables_cold.pool_to_pool
        )
        np.testing.assert_array_equal(vectors_warm, vectors_cold)
        _assert_results_identical(results_warm, results_cold)
        assert all(r.refine_distance_computations == 0 for r in results_warm)

    def test_l2_context_pipeline_bit_identical_to_context_free(
        self, gaussian_split
    ):
        """With a direction-faithful measure the whole pipeline matches
        the context-free path bit for bit, vectors included."""
        database, queries = gaussian_split.database, gaussian_split.queries
        free = _run_pipeline(L2Distance(), database, queries)
        context = DistanceContext(L2Distance(), list(database) + list(queries))
        ctx = _run_pipeline(context, database, queries)
        np.testing.assert_array_equal(free[0].indices, ctx[0].indices)
        np.testing.assert_array_equal(free[0].distances, ctx[0].distances)
        np.testing.assert_array_equal(free[1].pool_to_pool, ctx[1].pool_to_pool)
        np.testing.assert_array_equal(free[2], ctx[2])
        _assert_results_identical(free[3], ctx[3])

    def test_dtw_context_retrieval_identical_to_context_free(self, ts_split):
        database, queries = ts_split
        free = _run_pipeline(ConstrainedDTW(), database, queries)
        context = DistanceContext(ConstrainedDTW(), list(database) + list(queries))
        ctx = _run_pipeline(context, database, queries)
        np.testing.assert_array_equal(free[0].indices, ctx[0].indices)
        np.testing.assert_array_equal(free[0].distances, ctx[0].distances)
        np.testing.assert_array_equal(free[1].pool_to_pool, ctx[1].pool_to_pool)
        _assert_results_identical(free[3], ctx[3])

    def test_refine_charges_only_fresh_pairs(self, ts_split):
        database, queries = ts_split
        context = DistanceContext(ConstrainedDTW(), list(database) + list(queries))
        # The ground-truth scan warms every (query, database) pair, so the
        # refine step afterwards is free.
        ground_truth_neighbors(context, database, queries, k_max=5)
        from repro.embeddings.lipschitz import build_lipschitz_embedding

        embedding = build_lipschitz_embedding(
            context, database, dim=4, set_size=1, seed=3
        )
        retriever = FilterRefineRetriever(context, database, embedding)
        before = context.distance_evaluations
        results = retriever.query_many(list(queries), k=3, p=10)
        assert context.distance_evaluations == before
        assert all(r.refine_distance_computations == 0 for r in results)
        assert retriever.refine_distance_evaluations == 0
        # Context-free comparison: identical neighbors, nominal costs.
        plain = FilterRefineRetriever(
            ConstrainedDTW(),
            database,
            build_lipschitz_embedding(ConstrainedDTW(), database, dim=4, set_size=1, seed=3),
        )
        _assert_results_identical(results, plain.query_many(list(queries), k=3, p=10))

    def test_brute_force_through_context(self, ts_split):
        database, queries = ts_split
        context = DistanceContext(ConstrainedDTW(), list(database) + list(queries))
        retriever = BruteForceRetriever(context, database)
        plain = BruteForceRetriever(ConstrainedDTW(), database)
        for query in list(queries)[:3]:
            idx_ctx, dist_ctx = retriever.query(query, k=4)
            idx_plain, dist_plain = plain.query(query, k=4)
            np.testing.assert_array_equal(idx_ctx, idx_plain)
            np.testing.assert_array_equal(dist_ctx, dist_plain)
        first_pass = retriever.distance_computations
        assert first_pass == 3 * len(database)
        # Second pass over the same queries is fully cached.
        retriever.query_many(list(queries)[:3], k=4)
        assert retriever.distance_computations == first_pass

    def test_retriever_requires_database_in_universe(self, ts_split, rng):
        database, queries = ts_split
        context = DistanceContext(
            ConstrainedDTW(), [rng.normal(size=(30, 1)) for _ in range(4)]
        )
        from repro.embeddings.lipschitz import build_lipschitz_embedding
        from repro.exceptions import RetrievalError

        embedding = build_lipschitz_embedding(
            ConstrainedDTW(), database, dim=2, set_size=1, seed=0
        )
        with pytest.raises(RetrievalError, match="universe"):
            FilterRefineRetriever(context, database, embedding)


class TestCompareMethodsStore:
    @pytest.mark.slow
    def test_compare_methods_store_reuse(self, tmp_path):
        from repro.experiments.config import TINY
        from repro.experiments.runner import compare_methods

        database, queries = make_timeseries_dataset(
            n_database=TINY.database_size,
            n_queries=TINY.n_queries,
            n_seeds=8,
            length=30,
            n_dims=1,
            seed=11,
        )
        scale = TINY.with_overrides(dims=(2, 4), ks=(1, 3), accuracies=(0.9,), kmax=3)
        path = tmp_path / "cmp.npz"
        cold = compare_methods(
            ConstrainedDTW(), database, queries, scale,
            methods=("FastMap", "Se-QS"), seed=0, store_path=path,
        )
        assert path.is_file()
        context = DistanceContext(
            ConstrainedDTW(), list(database) + list(queries)
        )
        context.load_store(path)
        warm = compare_methods(
            context, database, queries, scale,
            methods=("FastMap", "Se-QS"), seed=0, store_path=path,
        )
        assert context.distance_evaluations == 0
        assert warm.preprocessing_distance_evaluations == 0
        for tag in ("FastMap", "Se-QS"):
            assert warm.method(tag).costs == cold.method(tag).costs

    @pytest.mark.slow
    def test_stale_store_warns_and_runs_cold(self, tmp_path):
        from repro.experiments.config import TINY
        from repro.experiments.runner import compare_methods

        database, queries = make_timeseries_dataset(
            n_database=TINY.database_size,
            n_queries=TINY.n_queries,
            n_seeds=8,
            length=30,
            n_dims=1,
            seed=11,
        )
        scale = TINY.with_overrides(dims=(2,), ks=(1,), accuracies=(0.9,), kmax=3)
        path = tmp_path / "stale.npz"
        # A store persisted for a *different* dataset (wrong fingerprint).
        stale = DistanceStore(symmetric=True, fingerprint="some-other-dataset")
        stale.put(0, 1, 1.0)
        stale.save(path)
        with pytest.warns(RuntimeWarning, match="ignoring distance store"):
            result = compare_methods(
                ConstrainedDTW(), database, queries, scale,
                methods=("FastMap",), seed=0, store_path=path,
            )
        assert result.method("FastMap").costs
        # The unusable file was overwritten with the fresh store.
        loaded = DistanceStore.load(path)
        assert loaded.fingerprint != "some-other-dataset"
