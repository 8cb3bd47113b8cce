"""Nearest-neighbor retrieval: ground truth, filter-and-refine, evaluation.

This subpackage implements Sec. 8 and the evaluation protocol of Sec. 9:

* exact brute-force retrieval (the baseline every speed-up is measured
  against) and ground-truth computation (:mod:`repro.retrieval.brute_force`,
  :mod:`repro.retrieval.knn`);
* the filter-and-refine pipeline driven by an embedding and its (possibly
  query-sensitive) vector distance (:mod:`repro.retrieval.filter_refine`);
* the accuracy-versus-cost evaluation with the paper's optimal-parameter
  search over the embedding dimensionality ``d`` and the filter size ``p``
  (:mod:`repro.retrieval.evaluation`, :mod:`repro.retrieval.sweep`);
* the query planner that chooses the filter size ``p`` per query from a
  calibrated accuracy profile and refines with an early exit
  (:mod:`repro.retrieval.planner`);
* dynamic-database maintenance and drift detection
  (:mod:`repro.retrieval.dynamic`, Sec. 7.1).
"""

from repro.retrieval.knn import NeighborTable, knn_from_distances, ground_truth_neighbors
from repro.retrieval.engine import (
    EmbedStage,
    FilterStage,
    MergeStage,
    QueryEngine,
    QueryPlan,
    RefineStage,
    ScanStage,
)
from repro.retrieval.brute_force import BruteForceRetriever
from repro.retrieval.filter_refine import FilterRefineRetriever, RetrievalResult
from repro.retrieval.evaluation import (
    FilterRankResult,
    filter_ranks,
    required_filter_sizes,
    cost_for_accuracy,
    retrieval_recall,
    success_rate,
    AccuracyCostPoint,
)
from repro.retrieval.sweep import (
    DimensionSweep,
    SweepEntry,
    optimal_cost_curve,
    run_sweep,
)
from repro.retrieval.planner import (
    PlannedRetriever,
    choose_operating_point,
    refine_schedule,
)
from repro.retrieval.dynamic import DynamicDatabase, DriftMonitor

__all__ = [
    "NeighborTable",
    "knn_from_distances",
    "ground_truth_neighbors",
    "QueryEngine",
    "QueryPlan",
    "EmbedStage",
    "FilterStage",
    "ScanStage",
    "RefineStage",
    "MergeStage",
    "BruteForceRetriever",
    "FilterRefineRetriever",
    "RetrievalResult",
    "FilterRankResult",
    "filter_ranks",
    "required_filter_sizes",
    "cost_for_accuracy",
    "retrieval_recall",
    "success_rate",
    "AccuracyCostPoint",
    "DimensionSweep",
    "SweepEntry",
    "optimal_cost_curve",
    "run_sweep",
    "PlannedRetriever",
    "choose_operating_point",
    "refine_schedule",
    "DynamicDatabase",
    "DriftMonitor",
]
