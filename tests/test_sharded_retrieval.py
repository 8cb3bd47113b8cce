"""Property tests for sharded + process-parallel retrieval.

The contract of :class:`~repro.retrieval.sharded.ShardedRetriever` is strict:
for any shard count and any ``n_jobs``, neighbors, distances, candidate
lists and per-query exact-distance accounting must be *bit-identical* to the
single-process unsharded
:class:`~repro.retrieval.filter_refine.FilterRefineRetriever`.  The suite
checks that contract over symmetric (L2) and asymmetric (KL) measures, over
databases stuffed with duplicate objects (so distance ties are everywhere),
and over the clamped edge cases (``p > n``, ``k > p``, ``k`` larger than any
single shard's population).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Dataset, make_gaussian_clusters, RetrievalSplit
from repro.distances import (
    CountingDistance,
    KLDivergence,
    L2Distance,
)
from repro.embeddings import build_lipschitz_embedding
from repro.exceptions import RetrievalError
from repro.retrieval import (
    BruteForceRetriever,
    FilterRefineRetriever,
    ShardedRetriever,
    ground_truth_neighbors,
    retrieval_recall,
)


def assert_results_identical(lhs, rhs):
    """Bit-identical RetrievalResult lists: neighbors, distances, costs."""
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        np.testing.assert_array_equal(a.neighbor_indices, b.neighbor_indices)
        np.testing.assert_array_equal(a.neighbor_distances, b.neighbor_distances)
        np.testing.assert_array_equal(a.candidate_indices, b.candidate_indices)
        assert a.embedding_distance_computations == b.embedding_distance_computations
        assert a.refine_distance_computations == b.refine_distance_computations


@pytest.fixture(scope="module")
def l2_setup():
    """Gaussian split + Lipschitz embedding under L2."""
    dataset = make_gaussian_clusters(n_objects=110, n_clusters=4, n_dims=5, seed=31)
    split = RetrievalSplit.from_dataset(dataset, n_queries=10, seed=32)
    distance = L2Distance()
    embedding = build_lipschitz_embedding(
        distance, split.database, dim=5, set_size=1, seed=33
    )
    return distance, split, embedding


@pytest.fixture(scope="module")
def kl_setup():
    """Probability-vector split + Lipschitz embedding under asymmetric KL."""
    rng = np.random.default_rng(41)
    histograms = rng.dirichlet(np.ones(6), size=90)
    dataset = Dataset(objects=[h for h in histograms], name="dirichlet")
    split = RetrievalSplit.from_dataset(dataset, n_queries=8, seed=42)
    distance = KLDivergence()
    embedding = build_lipschitz_embedding(
        distance, split.database, dim=4, set_size=1, seed=43
    )
    return distance, split, embedding


@pytest.fixture(scope="module")
def tied_setup():
    """A database where most objects are exact duplicates → massive ties."""
    rng = np.random.default_rng(51)
    # 12 distinct points, each repeated several times, shuffled so duplicate
    # groups span shard boundaries.
    distinct = rng.normal(size=(12, 3))
    objects = [distinct[i % 12].copy() for i in range(72)]
    rng.shuffle(objects)
    database = Dataset(objects=objects, name="tied-db")
    queries = Dataset(objects=[rng.normal(size=3) for _ in range(6)], name="tied-q")
    distance = L2Distance()
    embedding = build_lipschitz_embedding(distance, database, dim=3, set_size=1, seed=52)
    return distance, RetrievalSplit(database=database, queries=queries), embedding


class TestShardedEqualsUnsharded:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
    def test_l2_bit_identical(self, l2_setup, n_shards):
        distance, split, embedding = l2_setup
        flat = FilterRefineRetriever(distance, split.database, embedding)
        sharded = ShardedRetriever(
            distance, split.database, embedding, n_shards=n_shards
        )
        queries = list(split.queries)
        for k, p in [(1, 1), (3, 10), (5, 5), (4, len(split.database))]:
            assert_results_identical(
                flat.query_many(queries, k=k, p=p),
                sharded.query_many(queries, k=k, p=p),
            )

    @pytest.mark.parametrize("n_shards", [2, 5])
    def test_asymmetric_kl_bit_identical(self, kl_setup, n_shards):
        distance, split, embedding = kl_setup
        flat = FilterRefineRetriever(distance, split.database, embedding)
        sharded = ShardedRetriever(
            distance, split.database, embedding, n_shards=n_shards
        )
        queries = list(split.queries)
        assert_results_identical(
            flat.query_many(queries, k=3, p=12),
            sharded.query_many(queries, k=3, p=12),
        )

    @pytest.mark.parametrize("n_shards", [2, 4, 9])
    def test_duplicate_distance_ties_bit_identical(self, tied_setup, n_shards):
        distance, split, embedding = tied_setup
        flat = FilterRefineRetriever(distance, split.database, embedding)
        sharded = ShardedRetriever(
            distance, split.database, embedding, n_shards=n_shards
        )
        queries = list(split.queries)
        for k, p in [(2, 6), (5, 20), (10, len(split.database))]:
            assert_results_identical(
                flat.query_many(queries, k=k, p=p),
                sharded.query_many(queries, k=k, p=p),
            )

    def test_single_query_matches_query_many(self, l2_setup):
        distance, split, embedding = l2_setup
        sharded = ShardedRetriever(distance, split.database, embedding, n_shards=3)
        queries = list(split.queries)[:4]
        batched = sharded.query_many(queries, k=3, p=9)
        for obj, expected in zip(queries, batched):
            single = sharded.query(obj, k=3, p=9)
            np.testing.assert_array_equal(
                single.neighbor_indices, expected.neighbor_indices
            )
            np.testing.assert_array_equal(
                single.neighbor_distances, expected.neighbor_distances
            )

    def test_full_p_equals_brute_force_under_ties(self, tied_setup):
        """With p = n the pipeline must reproduce brute force exactly,
        including tie resolution by database index."""
        distance, split, embedding = tied_setup
        brute = BruteForceRetriever(distance, split.database)
        sharded = ShardedRetriever(distance, split.database, embedding, n_shards=5)
        n = len(split.database)
        for obj in list(split.queries):
            indices, distances = brute.query(obj, k=8)
            result = sharded.query(obj, k=8, p=n)
            np.testing.assert_array_equal(result.neighbor_indices, indices)
            np.testing.assert_array_equal(result.neighbor_distances, distances)


class TestParallelEqualsSerial:
    def test_sharded_n_jobs_bit_identical_with_counts(self, l2_setup):
        distance, split, embedding = l2_setup
        counting = CountingDistance(distance)
        serial = ShardedRetriever(counting, split.database, embedding, n_shards=3)
        queries = list(split.queries)
        serial_results = serial.query_many(queries, k=4, p=15)
        serial_calls = counting.reset()

        parallel = ShardedRetriever(counting, split.database, embedding, n_shards=3)
        parallel_results = parallel.query_many(queries, k=4, p=15, n_jobs=2)
        parallel_calls = counting.reset()

        assert_results_identical(serial_results, parallel_results)
        # The user-level counter is charged identically across the pool.
        assert parallel_calls == serial_calls == 15 * len(queries)
        assert (
            serial.refine_distance_evaluations
            == parallel.refine_distance_evaluations
            == 15 * len(queries)
        )

    def test_sharded_n_jobs_ties_and_asymmetry(self, tied_setup, kl_setup):
        for distance, split, embedding in (tied_setup, kl_setup):
            serial = ShardedRetriever(distance, split.database, embedding, n_shards=4)
            queries = list(split.queries)
            assert_results_identical(
                serial.query_many(queries, k=5, p=18),
                serial.query_many(queries, k=5, p=18, n_jobs=2),
            )

    def test_flat_query_many_n_jobs(self, kl_setup):
        distance, split, embedding = kl_setup
        flat = FilterRefineRetriever(distance, split.database, embedding)
        queries = list(split.queries)
        assert_results_identical(
            flat.query_many(queries, k=2, p=9),
            flat.query_many(queries, k=2, p=9, n_jobs=2),
        )

    def test_brute_force_n_jobs(self, l2_setup):
        distance, split, _ = l2_setup
        brute = BruteForceRetriever(distance, split.database)
        queries = list(split.queries)[:5]
        serial = brute.query_many(queries, k=4)
        serial_calls = brute.distance_computations
        brute.reset_counter()
        parallel = brute.query_many(queries, k=4, n_jobs=2)
        assert brute.distance_computations == serial_calls
        for (i1, d1), (i2, d2) in zip(serial, parallel):
            np.testing.assert_array_equal(i1, i2)
            np.testing.assert_array_equal(d1, d2)


class TestShardedEdgeCases:
    def test_k_larger_than_shard_population(self, l2_setup):
        """k beyond every shard's size must still return min(k, n) globally
        exact results — candidates from several shards are merged."""
        distance, split, embedding = l2_setup
        n = len(split.database)
        sharded = ShardedRetriever(distance, split.database, embedding, n_shards=9)
        assert max(sharded.shard_sizes) < 30
        result = sharded.query(split.queries[0], k=30, p=n)
        assert result.neighbor_indices.shape == (30,)
        brute_indices, _ = BruteForceRetriever(distance, split.database).query(
            split.queries[0], k=30
        )
        np.testing.assert_array_equal(result.neighbor_indices, brute_indices)

    def test_p_and_k_clamping(self, l2_setup):
        distance, split, embedding = l2_setup
        n = len(split.database)
        sharded = ShardedRetriever(distance, split.database, embedding, n_shards=3)
        result = sharded.query(split.queries[1], k=4, p=10**6)
        assert result.refine_distance_computations == n
        result = sharded.query(split.queries[1], k=12, p=2)
        assert result.neighbor_indices.shape == (12,)
        assert result.refine_distance_computations == 12
        result = sharded.query(split.queries[1], k=n + 7, p=1)
        assert result.neighbor_indices.shape == (n,)
        with pytest.raises(RetrievalError):
            sharded.query(split.queries[1], k=0, p=5)
        with pytest.raises(RetrievalError):
            sharded.query(split.queries[1], k=1, p=0)

    def test_more_shards_than_objects_clamped(self, l2_setup):
        distance, split, embedding = l2_setup
        sharded = ShardedRetriever(
            distance, split.database, embedding, n_shards=10**4
        )
        assert sharded.n_shards == len(split.database)
        flat = FilterRefineRetriever(distance, split.database, embedding)
        assert_results_identical(
            flat.query_many(list(split.queries)[:3], k=3, p=10),
            sharded.query_many(list(split.queries)[:3], k=3, p=10),
        )

    def test_invalid_construction(self, l2_setup):
        distance, split, embedding = l2_setup
        with pytest.raises(RetrievalError):
            ShardedRetriever(distance, split.database, embedding, n_shards=0)
        with pytest.raises(RetrievalError):
            ShardedRetriever("not-a-distance", split.database, embedding)

    def test_recall_against_ground_truth(self, l2_setup):
        distance, split, embedding = l2_setup
        ground_truth = ground_truth_neighbors(
            distance, split.database, split.queries, k_max=5
        )
        sharded = ShardedRetriever(distance, split.database, embedding, n_shards=4)
        exact = sharded.query_many(list(split.queries), k=5, p=len(split.database))
        assert retrieval_recall(exact, ground_truth, k=5) == 1.0
