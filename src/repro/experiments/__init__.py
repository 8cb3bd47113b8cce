"""Experiment harness reproducing the paper's figures and tables.

Every module corresponds to one artifact of the evaluation section (see the
experiment index in DESIGN.md):

* :mod:`repro.experiments.figure1` — the toy motivation example.
* :mod:`repro.experiments.figure4` — MNIST-style digits + Shape Context.
* :mod:`repro.experiments.figure5` — time series + constrained DTW.
* :mod:`repro.experiments.figure6` — the "quick" low-preprocessing variant.
* :mod:`repro.experiments.table1`  — the combined cost table.
* :mod:`repro.experiments.timing`  — distance throughput and speed-up factors.
* :mod:`repro.experiments.ablations` — k1 and dimensionality ablations.

The shared machinery lives in :mod:`repro.experiments.config` (scales),
:mod:`repro.experiments.runner` (method comparison) and
:mod:`repro.experiments.reporting` (text tables in the paper's layout).
"""

from repro.experiments.config import ExperimentScale, TINY, SMALL, MEDIUM
from repro.experiments.runner import MethodResult, ComparisonResult, compare_methods
from repro.experiments.reporting import (
    format_cost_table,
    format_figure_series,
    format_comparison,
)
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.figure6 import Figure6Result, run_figure6
from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.timing import (
    ServingTimingResult,
    TimingResult,
    run_serving_timing,
    run_timing,
)
from repro.experiments.ablations import K1AblationResult, run_k1_ablation, run_dimension_ablation
from repro.experiments.planner_points import (
    PlannerOperatingPoint,
    planner_operating_points,
)

__all__ = [
    "ExperimentScale",
    "TINY",
    "SMALL",
    "MEDIUM",
    "MethodResult",
    "ComparisonResult",
    "compare_methods",
    "format_cost_table",
    "format_figure_series",
    "format_comparison",
    "Figure1Result",
    "run_figure1",
    "run_figure4",
    "run_figure5",
    "Figure6Result",
    "run_figure6",
    "format_table1",
    "run_table1",
    "TimingResult",
    "run_timing",
    "ServingTimingResult",
    "run_serving_timing",
    "K1AblationResult",
    "run_k1_ablation",
    "run_dimension_ablation",
    "PlannerOperatingPoint",
    "planner_operating_points",
]
