"""Tests for ground truth, brute force, filter-and-refine and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.distances import CountingDistance, L2Distance
from repro.embeddings import build_fastmap_embedding
from repro.exceptions import RetrievalError
from repro.retrieval import (
    BruteForceRetriever,
    FilterRefineRetriever,
    NeighborTable,
    ground_truth_neighbors,
)
from repro.retrieval.evaluation import (
    cost_for_accuracy,
    filter_ranks,
    required_filter_sizes,
    retrieval_recall,
    success_rate,
)
from repro.retrieval.knn import knn_from_distances
from repro.retrieval.sweep import DimensionSweep, optimal_cost_curve, truncate_embedder


class TestNeighborTable:
    def test_knn_from_distances(self):
        matrix = np.array([[0.5, 0.1, 0.9], [0.2, 0.8, 0.05]])
        table = knn_from_distances(matrix, k=2)
        assert list(table.indices[0]) == [1, 0]
        assert list(table.indices[1]) == [2, 0]
        assert table.distances[0, 0] == pytest.approx(0.1)
        assert table.n_queries == 2 and table.k_max == 2

    def test_neighbors_accessor_bounds(self):
        table = knn_from_distances(np.array([[0.1, 0.2, 0.3]]), k=2)
        assert list(table.neighbors(0, 1)) == [0]
        with pytest.raises(RetrievalError):
            table.neighbors(0, 3)

    def test_k_bounds(self):
        with pytest.raises(RetrievalError):
            knn_from_distances(np.ones((2, 3)), k=4)

    def test_shape_validation(self):
        with pytest.raises(RetrievalError):
            NeighborTable(indices=np.zeros((2, 3)), distances=np.zeros((2, 2)))


class TestGroundTruth:
    def test_matches_brute_force(self, gaussian_split, l2, gaussian_ground_truth):
        brute = BruteForceRetriever(l2, gaussian_split.database)
        for qi in (0, 5, 17):
            indices, distances = brute.query(gaussian_split.queries[qi], k=5)
            assert list(indices) == list(gaussian_ground_truth.indices[qi, :5])

    def test_return_matrix_option(self, gaussian_split, l2):
        table, matrix = ground_truth_neighbors(
            l2, gaussian_split.database, gaussian_split.queries, k_max=3, return_matrix=True
        )
        assert matrix.shape == (len(gaussian_split.queries), len(gaussian_split.database))
        assert table.k_max == 3

    def test_k_max_bounds(self, gaussian_split, l2):
        with pytest.raises(RetrievalError):
            ground_truth_neighbors(
                l2, gaussian_split.database, gaussian_split.queries, k_max=0
            )


class TestBruteForce:
    def test_cost_equals_database_size(self, gaussian_split, l2):
        brute = BruteForceRetriever(l2, gaussian_split.database)
        brute.query(gaussian_split.queries[0], k=3)
        assert brute.distance_computations == len(gaussian_split.database)
        brute.reset_counter()
        assert brute.distance_computations == 0

    def test_results_sorted_by_distance(self, gaussian_split, l2):
        brute = BruteForceRetriever(l2, gaussian_split.database)
        _, distances = brute.query(gaussian_split.queries[1], k=10)
        assert np.all(np.diff(distances) >= 0)

    def test_k_bounds(self, gaussian_split, l2):
        brute = BruteForceRetriever(l2, gaussian_split.database)
        with pytest.raises(RetrievalError):
            brute.query(gaussian_split.queries[0], k=0)

    def test_query_many(self, gaussian_split, l2):
        brute = BruteForceRetriever(l2, gaussian_split.database)
        results = brute.query_many(list(gaussian_split.queries)[:3], k=2)
        assert len(results) == 3

    def test_type_validation(self, gaussian_split, l2):
        with pytest.raises(RetrievalError):
            BruteForceRetriever(lambda a, b: 0.0, gaussian_split.database)
        with pytest.raises(RetrievalError):
            BruteForceRetriever(l2, [1, 2, 3])


class TestFilterRefine:
    def test_cost_accounting(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        result = retriever.query(gaussian_split.queries[0], k=3, p=15)
        assert result.refine_distance_computations == 15
        assert result.embedding_distance_computations == trained_qs.model.cost
        assert (
            result.total_distance_computations
            == trained_qs.model.cost + 15
        )
        assert result.candidate_indices.shape == (15,)
        assert result.neighbor_indices.shape == (3,)

    def test_full_p_recovers_exact_neighbors(
        self, gaussian_split, l2, trained_qs, gaussian_ground_truth
    ):
        """With p = |database| the refine step sees everything, so results are exact."""
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        n = len(gaussian_split.database)
        for qi in (0, 7):
            result = retriever.query(gaussian_split.queries[qi], k=4, p=n)
            assert list(result.neighbor_indices) == list(
                gaussian_ground_truth.indices[qi, :4]
            )
        exact = retriever.query_many(list(gaussian_split.queries), k=5, p=n)
        assert retrieval_recall(exact, gaussian_ground_truth, k=5) == 1.0

    def test_neighbors_sorted_by_exact_distance(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        result = retriever.query(gaussian_split.queries[2], k=5, p=20)
        assert np.all(np.diff(result.neighbor_distances) >= 0)

    def test_works_with_plain_embedding(self, gaussian_split, l2):
        fastmap = build_fastmap_embedding(l2, gaussian_split.database, dim=4, seed=0)
        retriever = FilterRefineRetriever(l2, gaussian_split.database, fastmap)
        result = retriever.query(gaussian_split.queries[0], k=2, p=10)
        assert result.embedding_distance_computations == 8

    def test_precomputed_vectors_accepted(self, gaussian_split, l2, trained_qs):
        vectors = trained_qs.model.embed_many(list(gaussian_split.database))
        retriever = FilterRefineRetriever(
            l2, gaussian_split.database, trained_qs.model, database_vectors=vectors
        )
        assert retriever.database_vectors.shape == vectors.shape

    def test_wrong_vector_shape_rejected(self, gaussian_split, l2, trained_qs):
        with pytest.raises(RetrievalError):
            FilterRefineRetriever(
                l2,
                gaussian_split.database,
                trained_qs.model,
                database_vectors=np.zeros((3, trained_qs.model.dim)),
            )

    def test_parameter_bounds(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        with pytest.raises(RetrievalError):
            retriever.query(gaussian_split.queries[0], k=0, p=5)
        with pytest.raises(RetrievalError):
            retriever.query(gaussian_split.queries[0], k=1, p=0)

    def test_k_larger_than_p_clamps_p_up(self, gaussian_split, l2, trained_qs):
        """k > p raises the refine size to k so all k neighbors come back."""
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        result = retriever.query(gaussian_split.queries[0], k=10, p=5)
        assert result.neighbor_indices.shape == (10,)
        assert result.refine_distance_computations == 10

    def test_p_larger_than_database_clamps_to_brute_force(
        self, gaussian_split, l2, trained_qs
    ):
        """p > n clamps to n; results then equal an exact brute-force scan."""
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        brute = BruteForceRetriever(l2, gaussian_split.database)
        n = len(gaussian_split.database)
        result = retriever.query(gaussian_split.queries[1], k=6, p=10**6)
        assert result.refine_distance_computations == n
        indices, distances = brute.query(gaussian_split.queries[1], k=6)
        np.testing.assert_array_equal(result.neighbor_indices, indices)
        np.testing.assert_allclose(result.neighbor_distances, distances)

    def test_k_larger_than_database_returns_min_k_n(
        self, gaussian_split, l2, trained_qs
    ):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        n = len(gaussian_split.database)
        result = retriever.query(gaussian_split.queries[2], k=n + 25, p=n + 25)
        assert result.neighbor_indices.shape == (n,)
        assert result.refine_distance_computations == n

    def test_query_many_parallel_matches_serial(self, gaussian_split, l2, trained_qs):
        retriever = FilterRefineRetriever(l2, gaussian_split.database, trained_qs.model)
        queries = list(gaussian_split.queries)[:5]
        serial = retriever.query_many(queries, k=3, p=12)
        parallel = retriever.query_many(queries, k=3, p=12, n_jobs=2)
        for s, par in zip(serial, parallel):
            np.testing.assert_array_equal(s.neighbor_indices, par.neighbor_indices)
            np.testing.assert_array_equal(s.neighbor_distances, par.neighbor_distances)
            assert s.total_distance_computations == par.total_distance_computations


class TestEvaluation:
    @pytest.fixture(scope="class")
    def rank_result(self, gaussian_split, trained_qs, gaussian_ground_truth):
        model = trained_qs.model
        db_vectors = model.embed_many(list(gaussian_split.database))
        query_vectors = model.embed_many(list(gaussian_split.queries))
        return filter_ranks(model, db_vectors, query_vectors, gaussian_ground_truth)

    def test_rank_matrix_shape_and_bounds(self, rank_result, gaussian_split):
        assert rank_result.rank_matrix.shape == (
            len(gaussian_split.queries),
            10,
        )
        assert rank_result.rank_matrix.min() >= 1
        assert rank_result.rank_matrix.max() <= len(gaussian_split.database)

    def test_required_filter_sizes_monotone_in_k(self, rank_result):
        p1 = required_filter_sizes(rank_result, 1)
        p5 = required_filter_sizes(rank_result, 5)
        assert np.all(p5 >= p1)

    def test_cost_for_accuracy_monotone_in_accuracy(self, rank_result, gaussian_split):
        n = len(gaussian_split.database)
        costs = [
            cost_for_accuracy(rank_result, 1, acc, n).cost for acc in (0.5, 0.9, 1.0)
        ]
        assert costs[0] <= costs[1] <= costs[2]

    def test_cost_capped_at_brute_force(self, rank_result):
        point = cost_for_accuracy(rank_result, 10, 1.0, database_size=5)
        assert point.cost == 5

    def test_success_rate_consistent_with_cost(self, rank_result, gaussian_split):
        n = len(gaussian_split.database)
        point = cost_for_accuracy(rank_result, 3, 0.9, n)
        assert success_rate(rank_result, 3, point.p) >= 0.9
        if point.p > 1:
            assert success_rate(rank_result, 3, point.p - 1) < 0.9

    def test_accuracy_bounds_validated(self, rank_result):
        with pytest.raises(RetrievalError):
            cost_for_accuracy(rank_result, 1, 0.0, 100)
        with pytest.raises(RetrievalError):
            cost_for_accuracy(rank_result, 1, 1.5, 100)
        with pytest.raises(RetrievalError):
            required_filter_sizes(rank_result, 0)

    def test_filter_ranks_validates_shapes(self, trained_qs, gaussian_ground_truth):
        with pytest.raises(RetrievalError):
            filter_ranks(
                trained_qs.model,
                np.zeros((10, trained_qs.model.dim)),
                np.zeros((3, trained_qs.model.dim + 1)),
                gaussian_ground_truth,
            )


class TestDimensionSweep:
    @pytest.fixture(scope="class")
    def sweep(self, gaussian_split, trained_qs, gaussian_ground_truth):
        model = trained_qs.model
        db_vectors = model.embed_many(list(gaussian_split.database))
        query_vectors = model.embed_many(list(gaussian_split.queries))
        return DimensionSweep(
            model, db_vectors, query_vectors, gaussian_ground_truth, dims=(1, 2, 4, 64)
        )

    def test_dims_clipped_and_deduplicated(self, sweep, trained_qs):
        assert max(sweep.dims) <= trained_qs.model.dim
        assert len(sweep.dims) == len(set(sweep.dims))

    def test_best_point_minimises_over_dims(self, sweep, gaussian_split):
        best = sweep.best_point(k=1, accuracy=0.9, database_size=len(gaussian_split.database))
        for entry in sweep.entries:
            point = cost_for_accuracy(
                entry.rank_result, 1, 0.9, len(gaussian_split.database)
            )
            assert best.cost <= point.cost

    def test_optimal_cost_curve_structure(self, sweep, gaussian_split):
        curve = optimal_cost_curve(sweep, ks=(1, 5), accuracies=(0.9, 1.0))
        assert set(curve.keys()) == {0.9, 1.0}
        assert set(curve[0.9].keys()) == {1, 5}
        assert curve[0.9][1].cost <= curve[1.0][1].cost

    def test_truncate_embedder_on_unsupported_type(self):
        with pytest.raises(RetrievalError):
            truncate_embedder("not-an-embedder", 2)

    def test_sweep_requires_matching_dims(self, trained_qs, gaussian_ground_truth):
        with pytest.raises(RetrievalError):
            DimensionSweep(
                trained_qs.model,
                np.zeros((5, trained_qs.model.dim + 1)),
                np.zeros((3, trained_qs.model.dim + 1)),
                gaussian_ground_truth,
                dims=(1,),
            )
