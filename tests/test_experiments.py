"""Tests for the experiment harness (configs, runner, reporting, figures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import ConstrainedDTW, L2Distance, RetrievalSplit, make_gaussian_clusters
from repro.exceptions import ConfigurationError, ExperimentError
from repro.experiments import (
    MEDIUM,
    SMALL,
    TINY,
    ExperimentScale,
    compare_methods,
    format_comparison,
    format_cost_table,
    format_figure_series,
    format_table1,
    run_figure1,
    run_timing,
)
from repro.experiments.ablations import run_dimension_ablation, run_k1_ablation
from repro.experiments.reporting import speedup_table
from repro.experiments.runner import ALL_METHODS
from repro.experiments.timing import TimingResult, speedup_report


@pytest.fixture(scope="module")
def micro_scale():
    """An even smaller scale than TINY, for fast runner tests on L2 data."""
    return ExperimentScale(
        name="micro",
        database_size=90,
        n_queries=15,
        n_candidates=25,
        n_training_objects=25,
        n_triples=400,
        n_rounds=8,
        classifiers_per_round=15,
        intervals_per_candidate=4,
        dims=(2, 4, 8),
        ks=(1, 5),
        accuracies=(0.9, 1.0),
        kmax=5,
    )


@pytest.fixture(scope="module")
def micro_comparison(micro_scale):
    dataset = make_gaussian_clusters(n_objects=105, n_clusters=5, n_dims=5, seed=20)
    split = RetrievalSplit.from_dataset(dataset, n_queries=15, seed=21)
    return compare_methods(
        L2Distance(),
        split.database,
        split.queries,
        micro_scale,
        seed=22,
        dataset_name="micro-gaussian",
    )


class TestExperimentScale:
    def test_presets_are_valid(self):
        for scale in (TINY, SMALL, MEDIUM):
            assert scale.k_max_needed == max(scale.ks)
            assert scale.n_candidates <= scale.database_size

    def test_with_overrides(self):
        quick = SMALL.with_overrides(name="quick", n_triples=10)
        assert quick.n_triples == 10 and SMALL.n_triples != 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"database_size": 0},
            {"n_candidates": 10**6},
            {"ks": ()},
            {"accuracies": (1.5,)},
            {"ks": (10**6,)},
        ],
    )
    def test_invalid_scales_rejected(self, kwargs):
        base = dict(
            name="bad",
            database_size=100,
            n_queries=10,
            n_candidates=20,
            n_training_objects=20,
            n_triples=100,
            n_rounds=5,
            classifiers_per_round=10,
            intervals_per_candidate=3,
            dims=(2,),
            ks=(1,),
            accuracies=(0.9,),
            kmax=5,
        )
        base.update(kwargs)
        with pytest.raises(ConfigurationError):
            ExperimentScale(**base)


class TestRunner:
    def test_all_methods_present(self, micro_comparison):
        assert set(micro_comparison.methods) == set(ALL_METHODS)

    def test_costs_never_exceed_brute_force(self, micro_comparison):
        for result in micro_comparison.methods.values():
            for accuracy in micro_comparison.accuracies:
                for k in micro_comparison.ks:
                    cost = result.cost(k, accuracy)
                    assert 1 <= cost <= micro_comparison.brute_force_cost

    def test_costs_monotone_in_accuracy(self, micro_comparison):
        for result in micro_comparison.methods.values():
            for k in micro_comparison.ks:
                assert result.cost(k, 0.9) <= result.cost(k, 1.0)

    def test_costs_monotone_in_k(self, micro_comparison):
        """Retrieving more neighbors can never be cheaper at fixed accuracy."""
        for result in micro_comparison.methods.values():
            for accuracy in micro_comparison.accuracies:
                assert result.cost(1, accuracy) <= result.cost(5, accuracy)

    def test_trained_methods_report_training_error(self, micro_comparison):
        assert np.isnan(micro_comparison.method("FastMap").training_error)
        for tag in ("Ra-QI", "Se-QS"):
            assert 0.0 <= micro_comparison.method(tag).training_error <= 0.5

    def test_method_accessor_rejects_unknown(self, micro_comparison):
        with pytest.raises(ExperimentError):
            micro_comparison.method("Nonexistent")
        with pytest.raises(ExperimentError):
            micro_comparison.method("Se-QS").cost(999, 0.9)

    def test_unknown_method_tag_rejected(self, micro_scale):
        dataset = make_gaussian_clusters(n_objects=100, seed=0)
        split = RetrievalSplit.from_dataset(dataset, n_queries=10, seed=1)
        with pytest.raises(ExperimentError):
            compare_methods(
                L2Distance(), split.database, split.queries, micro_scale, methods=("Bogus",)
            )

    def test_subset_of_methods(self, micro_scale):
        dataset = make_gaussian_clusters(n_objects=100, n_dims=4, seed=30)
        split = RetrievalSplit.from_dataset(dataset, n_queries=12, seed=31)
        comparison = compare_methods(
            L2Distance(),
            split.database,
            split.queries,
            micro_scale,
            methods=("FastMap", "Se-QS"),
            seed=32,
        )
        assert set(comparison.methods) == {"FastMap", "Se-QS"}
        assert comparison.preprocessing_distance_evaluations > 0


class TestReporting:
    def test_cost_table_contains_all_cells(self, micro_comparison):
        text = format_cost_table(micro_comparison)
        assert "FastMap" in text and "Se-QS" in text
        # one row per (k, accuracy) pair
        data_rows = [l for l in text.splitlines()[3:] if l.strip()]
        assert len(data_rows) == len(micro_comparison.ks) * len(micro_comparison.accuracies)

    def test_figure_series_header(self, micro_comparison):
        text = format_figure_series(micro_comparison, accuracy=0.9)
        assert "90% accuracy" in text
        assert str(micro_comparison.brute_force_cost) in text

    def test_format_comparison_includes_summary(self, micro_comparison):
        text = format_comparison(micro_comparison)
        assert "method summary" in text
        assert "train_error" in text

    def test_format_table1_drops_missing_grid_points(self, micro_comparison):
        text = format_table1({"micro": micro_comparison}, ks=(1, 50), accuracies=(0.9,))
        assert " 1 " in text or "1  " in text
        assert "50" not in text.splitlines()[2]  # k=50 not evaluated at micro scale

    def test_speedup_table_positive(self, micro_comparison):
        table = speedup_table(micro_comparison, accuracy=0.9)
        for per_k in table.values():
            for value in per_k.values():
                assert value >= 1.0


class TestFigure1:
    def test_caption_statistics_reproduced(self):
        result = run_figure1(seed=7)
        assert result.n_triples == 3800
        # The full embedding is better overall than each single coordinate...
        for ref_error in result.reference_errors:
            assert result.full_embedding_error < ref_error
        # ...but each special query is served better by its own coordinate,
        # for at least 2 of the 3 queries (the qualitative claim of Figure 1).
        assert sum(result.query_sensitive_wins()) >= 2

    def test_summary_text(self):
        result = run_figure1(seed=7)
        text = result.summary()
        assert "triple error" in text
        assert "q1" in text

    def test_custom_sizes(self):
        result = run_figure1(n_database=12, n_queries=6, n_references=2, seed=3)
        assert result.n_triples == 6 * 12 * 11
        assert len(result.reference_errors) == 2


class TestTiming:
    def test_throughputs_positive(self):
        timing = run_timing(n_pairs=4, shape_context_points=12, series_length=32)
        assert timing.shape_context_per_second > 0
        assert timing.dtw_per_second > 0
        assert timing.vector_l1_per_second > timing.dtw_per_second
        assert "shape context" in timing.summary()

    def test_per_query_seconds(self):
        timing = TimingResult(
            shape_context_per_second=10.0, dtw_per_second=100.0, vector_l1_per_second=1e6
        )
        assert timing.per_query_seconds(50, "shape_context") == pytest.approx(5.0)
        assert timing.per_query_seconds(50, "dtw") == pytest.approx(0.5)
        with pytest.raises(ExperimentError):
            timing.per_query_seconds(10, "bogus")

    def test_speedup_report(self, micro_comparison):
        timing = TimingResult(
            shape_context_per_second=10.0, dtw_per_second=100.0, vector_l1_per_second=1e6
        )
        text = speedup_report(micro_comparison, accuracy=0.9, k=1, timing=timing)
        assert "Speed-up over brute force" in text
        assert "x)" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def dtw_split(self):
        from repro import make_timeseries_dataset

        database, queries = make_timeseries_dataset(
            n_database=90, n_queries=15, n_seeds=8, length=40, seed=40
        )
        return database, queries

    @pytest.mark.slow
    def test_k1_ablation_runs(self, dtw_split):
        database, queries = dtw_split
        scale = TINY.with_overrides(
            database_size=90, n_queries=15, n_candidates=30, n_training_objects=30,
            n_triples=500, n_rounds=8, classifiers_per_round=15, ks=(1, 5), kmax=5,
        )
        result = run_k1_ablation(
            ConstrainedDTW(), database, queries, scale=scale,
            k1_values=(1, 3, 9), k=1, accuracy=0.9, seed=1,
        )
        assert set(result.costs_by_k1) <= {1, 3, 9}
        assert result.best_k1() in result.costs_by_k1
        assert "k1 ablation" in result.summary()

    def test_k1_ablation_validates_grid(self, dtw_split):
        database, queries = dtw_split
        with pytest.raises(ExperimentError):
            run_k1_ablation(
                ConstrainedDTW(), database, queries, scale=TINY, k=999, accuracy=0.9
            )

    def test_dimension_ablation_monotone_embedding_cost(self):
        dataset = make_gaussian_clusters(n_objects=100, n_dims=5, seed=50)
        split = RetrievalSplit.from_dataset(dataset, n_queries=12, seed=51)
        scale = TINY.with_overrides(
            database_size=88, n_queries=12, n_candidates=30, n_training_objects=30,
            n_triples=400, n_rounds=10, classifiers_per_round=15, kmax=5, ks=(1, 5),
        )
        entries = run_dimension_ablation(
            L2Distance(), split.database, split.queries, scale=scale, k=1, accuracy=0.9, seed=2
        )
        assert len(entries) >= 2
        dims = [e.dim for e in entries]
        embed_costs = [e.embedding_cost for e in entries]
        assert dims == sorted(dims)
        assert embed_costs == sorted(embed_costs)
        for entry in entries:
            assert entry.total_cost >= entry.p
