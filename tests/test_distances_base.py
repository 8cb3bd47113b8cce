"""Tests for the distance-measure framework (base classes and counting)."""

from __future__ import annotations

import pytest

from repro.distances import (
    CountingDistance,
    FunctionDistance,
    L2Distance,
)
from repro.exceptions import DistanceError


class TestFunctionDistance:
    def test_wraps_callable(self):
        dist = FunctionDistance(lambda a, b: abs(a - b), name="abs-diff")
        assert dist(3, 5) == 2.0
        assert dist.name == "abs-diff"
        assert dist.is_metric is False

    def test_default_name_from_function(self):
        def my_distance(a, b):
            return 0.0

        assert FunctionDistance(my_distance).name == "my_distance"

    def test_rejects_non_callable(self):
        with pytest.raises(DistanceError):
            FunctionDistance("not callable")

    def test_metric_flag_propagates(self):
        dist = FunctionDistance(lambda a, b: abs(a - b), is_metric=True)
        assert dist.is_metric is True


class TestCountingDistance:
    def test_counts_calls(self):
        counting = CountingDistance(L2Distance())
        for _ in range(5):
            counting([0.0, 0.0], [1.0, 1.0])
        assert counting.calls == 5

    def test_reset_returns_previous_count(self):
        counting = CountingDistance(L2Distance())
        counting([0.0], [1.0])
        assert counting.reset() == 1
        assert counting.calls == 0

    def test_value_matches_base(self):
        base = L2Distance()
        counting = CountingDistance(base)
        assert counting([1.0, 2.0], [4.0, 6.0]) == base([1.0, 2.0], [4.0, 6.0])

    def test_requires_distance_measure(self):
        with pytest.raises(DistanceError):
            CountingDistance(lambda a, b: 0.0)

    def test_metric_flag_propagates(self):
        assert CountingDistance(L2Distance()).is_metric is True
