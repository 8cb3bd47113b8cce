"""Tests for dynamic-database maintenance and drift detection."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import make_gaussian_clusters
from repro.exceptions import RetrievalError
from repro.retrieval import DriftMonitor, DynamicDatabase


class TestDynamicDatabase:
    def test_add_and_query(self, gaussian_split, l2, trained_qs):
        dynamic = DynamicDatabase(
            l2, trained_qs.model, initial_objects=list(gaussian_split.database)
        )
        assert len(dynamic) == len(gaussian_split.database)
        indices, distances, cost = dynamic.query(gaussian_split.queries[0], k=3, p=15)
        assert indices.shape == (3,)
        assert np.all(np.diff(distances) >= 0)
        assert cost == trained_qs.model.cost + 15

    def test_insertion_cost_tracked(self, gaussian_split, l2, trained_qs):
        dynamic = DynamicDatabase(l2, trained_qs.model)
        dynamic.add(gaussian_split.database[0])
        dynamic.add(gaussian_split.database[1])
        assert dynamic.insertion_distance_computations == 2 * trained_qs.model.cost
        # The paper's bound: embedding a new object needs at most 2d distances.
        assert trained_qs.model.cost <= 2 * trained_qs.model.dim

    def test_remove(self, gaussian_split, l2, trained_qs):
        dynamic = DynamicDatabase(
            l2, trained_qs.model, initial_objects=list(gaussian_split.database)[:5]
        )
        removed = dynamic.remove(2)
        assert len(dynamic) == 4
        assert removed is gaussian_split.database[2]
        with pytest.raises(RetrievalError):
            dynamic.remove(10)

    def test_query_added_object_is_its_own_neighbor(self, gaussian_split, l2, trained_qs):
        dynamic = DynamicDatabase(
            l2, trained_qs.model, initial_objects=list(gaussian_split.database)[:30]
        )
        new_object = gaussian_split.queries[0]
        index = dynamic.add(new_object)
        indices, distances, _ = dynamic.query(new_object, k=1, p=10)
        assert indices[0] == index
        assert distances[0] == pytest.approx(0.0)

    def test_empty_database_query_rejected(self, l2, trained_qs):
        dynamic = DynamicDatabase(l2, trained_qs.model)
        with pytest.raises(RetrievalError):
            dynamic.query(np.zeros(6), k=1, p=1)

    def test_vectors_matrix_shape(self, gaussian_split, l2, trained_qs):
        dynamic = DynamicDatabase(
            l2, trained_qs.model, initial_objects=list(gaussian_split.database)[:7]
        )
        assert dynamic.vectors.shape == (7, trained_qs.model.dim)

    def test_type_validation(self, l2, trained_qs):
        with pytest.raises(RetrievalError):
            DynamicDatabase(lambda a, b: 0.0, trained_qs.model)
        with pytest.raises(RetrievalError):
            DynamicDatabase(l2, "not-a-model")


class TestDriftMonitor:
    def test_no_drift_on_same_distribution(self, gaussian_split, l2, trained_qs):
        baseline = trained_qs.final_training_error
        monitor = DriftMonitor(
            distance=l2, model=trained_qs.model, baseline_error=baseline, tolerance=0.2
        )
        same_distribution = list(gaussian_split.database)[:40]
        assert monitor.has_drifted(same_distribution, n_triples=300, seed=0) is False

    def test_drift_detected_on_shifted_distribution(self, l2, trained_qs):
        baseline = trained_qs.final_training_error
        monitor = DriftMonitor(
            distance=l2, model=trained_qs.model, baseline_error=baseline, tolerance=0.05
        )
        # A completely different distribution: far-away, tightly packed points.
        shifted = make_gaussian_clusters(
            n_objects=40, n_clusters=2, n_dims=6, cluster_spread=0.001, seed=10
        )
        shifted_objects = [obj + 50.0 for obj in shifted.objects]
        error = monitor.measure_error(shifted_objects, n_triples=300, seed=0)
        assert error > baseline

    def test_measure_error_requires_enough_objects(self, l2, trained_qs):
        monitor = DriftMonitor(l2, trained_qs.model, baseline_error=0.1)
        with pytest.raises(RetrievalError):
            monitor.measure_error([np.zeros(6)], n_triples=10)
