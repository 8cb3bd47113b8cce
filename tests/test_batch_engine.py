"""Tests for the batch distance engine.

Property tests asserting that the batch protocol
(``compute_many``/``compute_pairs``) agrees with the scalar ``compute`` to
1e-9 for every distance measure — including the asymmetric KL family, banded
DTW edge cases (unequal lengths, band clamping, unconstrained bands) and
weighted edit distances with asymmetric substitution tables — plus exactness
of :class:`~repro.distances.base.CountingDistance` accounting through every
batch path, the matrix builders (serial and ``n_jobs`` parallel), the batched
``embed_many`` implementations, and the ``argpartition`` filter cut.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trainer import build_training_tables
from repro.datasets.base import Dataset
from repro.distances import (
    ChamferDistance,
    ConstrainedDTW,
    CountingDistance,
    EditDistance,
    FunctionDistance,
    HausdorffDistance,
    JensenShannonDistance,
    KLDivergence,
    L1Distance,
    L2Distance,
    LpDistance,
    QuerySensitiveL1,
    SymmetricKL,
    WeightedEditDistance,
    WeightedL1Distance,
    cross_distances,
    pairwise_distances,
)
from repro.distances.parallel import parallel_refine, split_counting
from repro.embeddings.composite import CompositeEmbedding
from repro.embeddings.fastmap import build_fastmap_embedding
from repro.embeddings.lipschitz import build_lipschitz_embedding
from repro.embeddings.pivot import PivotEmbedding
from repro.embeddings.reference import ReferenceEmbedding
from repro.index.pool import PersistentPool
from repro.retrieval.engine import stable_smallest
from repro.retrieval.filter_refine import FilterRefineRetriever

ATOL = 1e-9


def assert_batch_matches_scalar(distance, x, ys):
    """compute_many and compute_pairs must match the scalar loop to 1e-9."""
    scalar = np.array([distance.compute(x, y) for y in ys], dtype=float)
    many = np.asarray(distance.compute_many(x, ys), dtype=float)
    np.testing.assert_allclose(many, scalar, atol=ATOL, rtol=0.0)
    pairs = np.asarray(distance.compute_pairs([x] * len(ys), ys), dtype=float)
    np.testing.assert_allclose(pairs, scalar, atol=ATOL, rtol=0.0)


# --------------------------------------------------------------------------- #
# Vector measures                                                             #
# --------------------------------------------------------------------------- #


class TestVectorBatchKernels:
    @pytest.mark.parametrize(
        "distance",
        [L1Distance(), L2Distance(), LpDistance(3.0), LpDistance(np.inf)],
        ids=["l1", "l2", "l3", "linf"],
    )
    def test_lp_family(self, distance, rng):
        x = rng.normal(size=7)
        ys = [rng.normal(size=7) for _ in range(11)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_weighted_l1(self, rng):
        distance = WeightedL1Distance(rng.random(5) + 0.1)
        x = rng.normal(size=5)
        ys = [rng.normal(size=5) for _ in range(9)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_query_sensitive_l1_uses_first_argument_weights(self, rng):
        distance = QuerySensitiveL1(lambda q: np.abs(q) + 0.5)
        x = rng.normal(size=6)
        ys = [rng.normal(size=6) for _ in range(8)]
        assert_batch_matches_scalar(distance, x, ys)
        # Asymmetry: swapping arguments must change the result, and the
        # batch path must follow the scalar convention (weights from arg 1).
        y = ys[0]
        assert distance.compute(x, y) != pytest.approx(distance.compute(y, x))

    def test_legacy_batch_alias_matches_compute_many(self, rng):
        weighted = WeightedL1Distance(rng.random(4) + 0.1)
        sensitive = QuerySensitiveL1(lambda q: np.abs(q) + 1.0)
        x = rng.normal(size=4)
        others = rng.normal(size=(6, 4))
        np.testing.assert_array_equal(
            weighted.batch(x, others), weighted.compute_many(x, others)
        )
        np.testing.assert_array_equal(
            sensitive.batch(x, others), sensitive.compute_many(x, others)
        )

    def test_empty_batches(self, rng):
        x = rng.random(4)
        for distance in [L2Distance(), WeightedL1Distance(np.ones(4)), KLDivergence()]:
            assert distance.compute_many(x, []).shape == (0,)
            assert distance.compute_pairs([], []).shape == (0,)


class TestDivergenceBatchKernels:
    @pytest.mark.parametrize(
        "distance",
        [KLDivergence(), SymmetricKL(), JensenShannonDistance()],
        ids=["kl", "symmetric_kl", "jensen_shannon"],
    )
    def test_matches_scalar(self, distance, rng):
        x = rng.random(10) + 1e-3
        ys = [rng.random(10) + 1e-3 for _ in range(7)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_kl_asymmetry_preserved_in_batch(self, rng):
        kl = KLDivergence()
        x = rng.random(6) + 0.05
        ys = [rng.random(6) + 0.05 for _ in range(5)]
        forward = kl.compute_many(x, ys)
        backward = np.array([kl.compute(y, x) for y in ys])
        assert not np.allclose(forward, backward)


class TestPointSetBatchKernels:
    @pytest.mark.parametrize("directed", [False, True], ids=["symmetric", "directed"])
    def test_chamfer(self, directed, rng):
        distance = ChamferDistance(directed=directed)
        x = rng.normal(size=(6, 2))
        ys = [rng.normal(size=(rng.integers(1, 10), 2)) for _ in range(9)]
        assert_batch_matches_scalar(distance, x, ys)

    @pytest.mark.parametrize("directed", [False, True], ids=["symmetric", "directed"])
    def test_hausdorff(self, directed, rng):
        distance = HausdorffDistance(directed=directed)
        x = rng.normal(size=(5, 3))
        ys = [rng.normal(size=(rng.integers(1, 8), 3)) for _ in range(9)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_single_point_sets(self, rng):
        distance = HausdorffDistance()
        x = rng.normal(size=(1, 2))
        ys = [rng.normal(size=(1, 2)), rng.normal(size=(4, 2))]
        assert_batch_matches_scalar(distance, x, ys)


# --------------------------------------------------------------------------- #
# Sequence measures (DP kernels)                                              #
# --------------------------------------------------------------------------- #


class TestDTWBatchKernel:
    def test_mixed_lengths(self, rng):
        distance = ConstrainedDTW()
        x = rng.normal(size=(20, 2))
        ys = [rng.normal(size=(int(rng.integers(1, 40)), 2)) for _ in range(15)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_band_clamping_with_unequal_lengths(self, rng):
        # band_width=0 forces the band to widen to |n - m| per pair.
        distance = ConstrainedDTW(band_width=0)
        x = rng.normal(size=(12, 1))
        ys = [rng.normal(size=(m, 1)) for m in (1, 3, 12, 25)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_unconstrained_band(self, rng):
        distance = ConstrainedDTW(band_fraction=None, band_width=None)
        x = rng.normal(size=(9, 2))
        ys = [rng.normal(size=(int(rng.integers(1, 14)), 2)) for _ in range(6)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_narrow_band_rows(self, rng):
        # A tiny fractional band on long series exercises rows where the
        # banded window is much narrower than the full row.
        distance = ConstrainedDTW(band_fraction=0.02)
        x = rng.normal(size=(60, 1))
        ys = [rng.normal(size=(60, 1)) for _ in range(4)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_normalized_variant(self, rng):
        distance = ConstrainedDTW(normalize=True)
        x = rng.normal(size=(10, 1))
        ys = [rng.normal(size=(m, 1)) for m in (2, 10, 17)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_length_one_series(self, rng):
        distance = ConstrainedDTW()
        x = rng.normal(size=(1, 2))
        ys = [rng.normal(size=(m, 2)) for m in (1, 2, 7)]
        assert_batch_matches_scalar(distance, x, ys)


class TestEditBatchKernel:
    def test_strings(self, rng):
        distance = EditDistance()
        alphabet = list("ACGT")
        x = "".join(rng.choice(alphabet, size=15))
        ys = ["".join(rng.choice(alphabet, size=int(rng.integers(0, 25)))) for _ in range(12)]
        assert_batch_matches_scalar(distance, x, ys)

    def test_token_sequences_and_empties(self, rng):
        distance = EditDistance()
        x = ["alpha", "beta", "gamma", "beta"]
        ys = [[], ["beta"], ["alpha", "gamma"], ("beta", "beta", "delta")]
        assert_batch_matches_scalar(distance, x, ys)
        assert distance.compute("", "abc") == 3.0
        assert distance.compute("abc", "") == 3.0
        np.testing.assert_array_equal(distance.compute_many("", ["ab", ""]), [2.0, 0.0])

    def test_weighted_asymmetric_table(self, rng):
        costs = {("A", "B"): 0.25, ("B", "A"): 2.0, ("C", "D"): 0.5}
        distance = WeightedEditDistance(
            costs, insertion_cost=0.8, deletion_cost=1.2, default_substitution=1.5
        )
        alphabet = list("ABCDE")
        x = [str(s) for s in rng.choice(alphabet, size=10)]
        ys = [
            [str(s) for s in rng.choice(alphabet, size=int(rng.integers(0, 16)))]
            for _ in range(10)
        ]
        assert_batch_matches_scalar(distance, x, ys)
        # Asymmetric: (A, B) entry must beat the reversed (B, A) entry.
        assert distance.compute(["A"], ["B"]) == pytest.approx(0.25)
        assert distance.compute(["B"], ["A"]) == pytest.approx(2.0)

    def test_weighted_reversed_lookup(self):
        distance = WeightedEditDistance({("C", "D"): 0.5})
        assert distance.compute(["D"], ["C"]) == pytest.approx(0.5)
        np.testing.assert_allclose(
            distance.compute_many(["D"], [["C"], ["D"], ["E"]]), [0.5, 0.0, 1.0]
        )

    def test_alphabet_registry_grows_across_calls(self):
        distance = WeightedEditDistance({("x", "y"): 0.1})
        assert distance.compute("xy", "yx") == pytest.approx(0.2)
        # New symbols after the table was first built must still resolve.
        assert distance.compute("xz", "zy") > 0.0
        assert distance.compute(["x"], ["y"]) == pytest.approx(0.1)


# --------------------------------------------------------------------------- #
# Wrappers: counting and caching through batch paths                          #
# --------------------------------------------------------------------------- #


class TestWrapperBatchSemantics:
    def test_counting_is_exact_through_batches(self, rng):
        counting = CountingDistance(L2Distance())
        x = rng.normal(size=4)
        ys = [rng.normal(size=4) for _ in range(13)]
        counting.compute_many(x, ys)
        assert counting.calls == 13
        counting.compute_pairs(ys, ys)
        assert counting.calls == 26
        counting.reset()
        for y in ys:
            counting.compute(x, y)
        assert counting.calls == 13

    def test_counting_values_match_scalar(self, rng):
        counting = CountingDistance(ConstrainedDTW())
        x = rng.normal(size=(8, 1))
        ys = [rng.normal(size=(int(rng.integers(2, 12)), 1)) for _ in range(6)]
        assert_batch_matches_scalar(counting, x, ys)

    def test_generic_fallback_through_function_distance(self, rng):
        distance = FunctionDistance(lambda a, b: abs(float(a) - float(b)))
        x = 1.5
        ys = [0.0, 2.0, -3.5]
        assert_batch_matches_scalar(distance, x, ys)


# --------------------------------------------------------------------------- #
# Matrix builders                                                             #
# --------------------------------------------------------------------------- #


def _brute_pairwise(distance, objects, symmetric=True):
    n = len(objects)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if symmetric and j < i:
                continue
            matrix[i, j] = distance.compute(objects[i], objects[j])
            if symmetric:
                matrix[j, i] = matrix[i, j]
    return matrix


class TestMatrixBuilders:
    def test_pairwise_matches_brute_force(self, rng, l2):
        objects = [rng.normal(size=5) for _ in range(14)]
        np.testing.assert_allclose(
            pairwise_distances(l2, objects),
            _brute_pairwise(l2, objects),
            atol=ATOL,
            rtol=0.0,
        )

    def test_pairwise_asymmetric(self, rng):
        kl = KLDivergence()
        objects = [rng.random(4) + 0.1 for _ in range(8)]
        result = pairwise_distances(kl, objects, symmetric=False)
        np.testing.assert_allclose(
            result, _brute_pairwise(kl, objects, symmetric=False), atol=ATOL, rtol=0.0
        )
        assert not np.allclose(result, result.T)

    def test_cross_matches_brute_force(self, rng, l2):
        rows = [rng.normal(size=5) for _ in range(6)]
        columns = [rng.normal(size=5) for _ in range(9)]
        expected = np.array(
            [[l2.compute(r, c) for c in columns] for r in rows]
        )
        np.testing.assert_allclose(
            cross_distances(l2, rows, columns), expected, atol=ATOL, rtol=0.0
        )

    def test_counting_matches_seed_semantics(self, rng, l2):
        objects = [rng.normal(size=3) for _ in range(10)]
        counting = CountingDistance(l2)
        pairwise_distances(counting, objects)
        assert counting.calls == 10 * 9 // 2
        counting.reset()
        pairwise_distances(counting, objects, symmetric=False)
        assert counting.calls == 100
        counting.reset()
        cross_distances(counting, objects[:4], objects)
        assert counting.calls == 40

    def test_progress_reaches_total(self, rng, l2):
        objects = [rng.normal(size=3) for _ in range(7)]
        seen = []
        pairwise_distances(l2, objects, progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (7, 7)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    @pytest.mark.slow
    def test_parallel_matches_serial(self, rng, l2):
        objects = [rng.normal(size=4) for _ in range(12)]
        counting = CountingDistance(l2)
        parallel = pairwise_distances(counting, objects, n_jobs=2)
        np.testing.assert_allclose(
            parallel, pairwise_distances(l2, objects), atol=ATOL, rtol=0.0
        )
        assert counting.calls == 12 * 11 // 2
        counting.reset()
        cross = cross_distances(counting, objects[:3], objects, n_jobs=2)
        np.testing.assert_allclose(
            cross, cross_distances(l2, objects[:3], objects), atol=ATOL, rtol=0.0
        )
        assert counting.calls == 36

    @pytest.mark.parametrize("path", ["parent", "one-shot pool", "persistent pool"])
    def test_parallel_refine_evaluates_and_charges_once(self, rng, l2, path):
        objects = [rng.normal(size=4) for _ in range(12)]
        queries = [rng.normal(size=4) for _ in range(3)]
        items = [
            ("a", queries[0], np.array([3, 0, 7])),
            ("empty", queries[1], np.array([], dtype=int)),
            ("all", queries[2], np.arange(12)),
            ("repeat", queries[0], np.array([11, 11])),
        ]
        expected = {
            key: l2.compute_many(query, [objects[i] for i in indices])
            for key, query, indices in items
            if indices.size
        }
        n_workers = 1 if path == "parent" else 2
        pool = PersistentPool(2) if path == "persistent pool" else None
        nested = CountingDistance(l2)
        outer = CountingDistance(nested)
        peeled = CountingDistance(l2)
        seen = []
        try:
            charged = parallel_refine(
                outer,
                objects,
                items,
                n_workers,
                pool=pool,
                progress=lambda done, total: seen.append((done, total)),
            )
            uncharged = parallel_refine(
                split_counting(peeled)[0], objects, items, n_workers, pool=pool
            )
        finally:
            if pool is not None:
                pool.close()
        for values in (charged, uncharged):
            assert set(values) == {"a", "empty", "all", "repeat"}
            assert values["empty"].shape == (0,)
            for key, exact in expected.items():
                assert np.array_equal(values[key], exact)
        # One charge per evaluated pair on every peeled counter, none on a
        # counter the caller peeled off itself.
        assert outer.calls == nested.calls == 3 + 12 + 2
        assert peeled.calls == 0
        assert seen[-1] == (4, 4)
        assert [done for done, _ in seen] == sorted(done for done, _ in seen)

    @pytest.mark.slow
    def test_training_tables_parallel_identical(self, rng, l2, gaussian_dataset):
        serial = build_training_tables(l2, gaussian_dataset, 15, 15, seed=3)
        parallel = build_training_tables(l2, gaussian_dataset, 15, 15, seed=3, n_jobs=2)
        np.testing.assert_allclose(
            serial.candidate_to_candidate, parallel.candidate_to_candidate
        )
        assert serial.distance_evaluations == parallel.distance_evaluations


# --------------------------------------------------------------------------- #
# Batched embeddings                                                          #
# --------------------------------------------------------------------------- #


def assert_embed_many_matches_scalar(embedding, objects):
    batched = embedding.embed_many(objects)
    scalar = np.vstack([embedding.embed(obj) for obj in objects])
    np.testing.assert_allclose(batched, scalar, atol=ATOL, rtol=0.0)


class TestBatchedEmbeddings:
    def test_reference(self, rng, l2):
        embedding = ReferenceEmbedding(l2, rng.normal(size=4))
        assert_embed_many_matches_scalar(embedding, [rng.normal(size=4) for _ in range(7)])

    def test_reference_asymmetric_measure(self, rng):
        kl = KLDivergence()
        embedding = ReferenceEmbedding(kl, rng.random(5) + 0.1)
        assert_embed_many_matches_scalar(
            embedding, [rng.random(5) + 0.1 for _ in range(6)]
        )

    def test_pivot(self, rng, l2):
        embedding = PivotEmbedding(l2, rng.normal(size=4), rng.normal(size=4) + 3.0)
        assert_embed_many_matches_scalar(embedding, [rng.normal(size=4) for _ in range(7)])

    def test_lipschitz(self, rng, l2, gaussian_dataset):
        embedding = build_lipschitz_embedding(l2, gaussian_dataset, dim=4, set_size=3, seed=5)
        assert_embed_many_matches_scalar(embedding, list(gaussian_dataset)[:10])

    def test_fastmap(self, rng, l2, gaussian_dataset):
        embedding = build_fastmap_embedding(l2, gaussian_dataset, dim=3, seed=5)
        assert_embed_many_matches_scalar(embedding, list(gaussian_dataset)[:10])

    def test_composite_shares_anchor_evaluations(self, rng):
        counting = CountingDistance(L2Distance())
        shared = rng.normal(size=3)
        other = rng.normal(size=3) + 2.0
        composite = CompositeEmbedding(
            [
                ReferenceEmbedding(counting, shared),
                PivotEmbedding(counting, shared, other),
                ReferenceEmbedding(counting, other),
            ]
        )
        assert composite.cost == 2
        objects = [rng.normal(size=3) for _ in range(5)]
        counting.reset()
        batched = composite.embed_many(objects)
        assert counting.calls == 5 * composite.cost
        counting.reset()
        scalar = np.vstack([composite.embed(obj) for obj in objects])
        assert counting.calls == 5 * composite.cost
        np.testing.assert_allclose(batched, scalar, atol=ATOL, rtol=0.0)

    def test_trained_model_embed_many(self, trained_qs, gaussian_split):
        model = trained_qs.model
        objects = list(gaussian_split.queries)[:8]
        batched = model.embed_many(objects)
        scalar = np.vstack([model.embed(obj) for obj in objects])
        np.testing.assert_allclose(batched, scalar, atol=ATOL, rtol=0.0)

    def test_dtw_composite_mixed_lengths(self, rng):
        dtw = ConstrainedDTW()
        anchors = [rng.normal(size=(int(rng.integers(5, 15)), 1)) for _ in range(3)]
        composite = CompositeEmbedding(
            [
                ReferenceEmbedding(dtw, anchors[0]),
                ReferenceEmbedding(dtw, anchors[1]),
                PivotEmbedding(dtw, anchors[1], anchors[2]),
            ]
        )
        objects = [rng.normal(size=(int(rng.integers(4, 20)), 1)) for _ in range(6)]
        assert_embed_many_matches_scalar(composite, objects)


# --------------------------------------------------------------------------- #
# Batched retrieval                                                           #
# --------------------------------------------------------------------------- #


class TestBatchedRetrieval:
    def test_stable_smallest_matches_stable_argsort(self, rng):
        for _ in range(50):
            values = rng.integers(0, 6, size=int(rng.integers(1, 40))).astype(float)
            p = int(rng.integers(1, values.size + 1))
            np.testing.assert_array_equal(
                stable_smallest(values, p),
                np.argsort(values, kind="stable")[:p],
            )

    def test_filter_order_top_p(self, trained_qs, gaussian_split):
        retriever = FilterRefineRetriever(
            L2Distance(), gaussian_split.database, trained_qs.model
        )
        query_vector = trained_qs.model.embed(gaussian_split.queries[0])
        full = retriever.filter_order(query_vector)
        top = retriever.filter_order(query_vector, 10)
        np.testing.assert_array_equal(full[:10], top)

    def test_query_counts_exact_refine_cost(self, trained_qs, gaussian_split):
        retriever = FilterRefineRetriever(
            L2Distance(), gaussian_split.database, trained_qs.model
        )
        before = retriever.refine_distance_evaluations
        result = retriever.query(gaussian_split.queries[0], k=3, p=12)
        assert retriever.refine_distance_evaluations - before == 12
        assert result.refine_distance_computations == 12
        assert result.neighbor_indices.shape == (3,)

    def test_query_many_matches_query_loop(self, trained_qs, gaussian_split):
        retriever = FilterRefineRetriever(
            L2Distance(), gaussian_split.database, trained_qs.model
        )
        queries = list(gaussian_split.queries)[:6]
        batched = retriever.query_many(queries, k=4, p=15)
        for obj, result in zip(queries, batched):
            single = retriever.query(obj, k=4, p=15)
            np.testing.assert_array_equal(result.neighbor_indices, single.neighbor_indices)
            np.testing.assert_allclose(
                result.neighbor_distances, single.neighbor_distances, atol=ATOL, rtol=0.0
            )
            np.testing.assert_array_equal(
                result.candidate_indices, single.candidate_indices
            )
            assert (
                result.total_distance_computations == single.total_distance_computations
            )

    def test_query_many_empty(self, trained_qs, gaussian_split):
        retriever = FilterRefineRetriever(
            L2Distance(), gaussian_split.database, trained_qs.model
        )
        assert retriever.query_many([], k=2, p=5) == []
