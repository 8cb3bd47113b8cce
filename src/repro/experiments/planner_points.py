"""Planner-chosen operating points overlaid on the Figure 4/5 curves.

The figure curves report the *offline-optimal* cost per ``(k, accuracy)``
target: an oracle sweep over the embedding dimensionality ``d`` and the
filter size ``p`` picks the cheapest combination in hindsight.  The query
planner (:mod:`repro.retrieval.planner`) has no oracle — it calibrates a
filter-rank profile from a handful of probe queries and then chooses ``p``
per query.  This module computes, for one method of a finished comparison,
the operating points that calibrated planner would choose across the same
``(k, accuracy)`` grid, so they can be plotted on (or tabulated against)
the figure curves.

The planner runs the full-dimensional embedding (it plans ``p``, not
``d``), so its points are directly comparable to the curve only where the
oracle also picked the full dimensionality;
:attr:`PlannerOperatingPoint.curve_cost` carries the oracle's number either
way so the gap is visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.exceptions import ExperimentError
from repro.experiments.runner import ComparisonResult
from repro.retrieval.planner import PlannedRetriever, choose_operating_point

__all__ = ["PlannerOperatingPoint", "planner_operating_points"]


@dataclass(frozen=True)
class PlannerOperatingPoint:
    """One planner-chosen point on a method's accuracy-vs-cost grid.

    Attributes
    ----------
    tag:
        The method's abbreviation in the comparison.
    k, target_accuracy:
        The grid coordinates the point answers for.
    p:
        The filter size the calibrated planner would choose.
    planner_cost:
        Exact distance computations per query at that choice
        (embedding cost + ``p``, capped at the database size).
    curve_cost:
        The figure curve's offline-optimal cost at the same coordinates
        (oracle sweep over ``d`` and ``p``), for overlay/comparison.
    """

    tag: str
    k: int
    target_accuracy: float
    p: int
    planner_cost: int
    curve_cost: int


def planner_operating_points(
    comparison: ComparisonResult,
    tag: str,
    probes: Sequence[Any],
    ks: Optional[Sequence[int]] = None,
    accuracies: Optional[Sequence[float]] = None,
) -> List[PlannerOperatingPoint]:
    """Operating points a calibrated planner would choose for one method.

    Builds a :class:`~repro.retrieval.planner.PlannedRetriever` over the
    method's ready-to-query index (context-backed comparisons only, so the
    probe scans land in — and benefit from — the shared store), calibrates
    it from ``probes``, and evaluates the planner's pure ``p`` choice
    (:func:`~repro.retrieval.planner.choose_operating_point`) across the
    comparison's ``(k, accuracy)`` grid.  The comparison itself is not
    modified: the index keeps its configured backend.
    """
    method = comparison.method(tag)
    index = comparison.index(tag)
    probes = list(probes)
    if not probes:
        raise ExperimentError("planner_operating_points needs probe queries")
    retriever = PlannedRetriever(
        index.context,
        index.database,
        index.embedder,
        database_vectors=index.database_vectors,
    )
    k_max = max(int(k) for k in (ks if ks is not None else comparison.ks))
    retriever.calibrate(probes, k_max=max(k_max, 1))
    n = len(index.database)
    embedding_cost = index.embedding_cost
    points: List[PlannerOperatingPoint] = []
    for accuracy in accuracies if accuracies is not None else comparison.accuracies:
        for k in ks if ks is not None else comparison.ks:
            p = choose_operating_point(
                k=int(k),
                n_database=n,
                embedding_cost=embedding_cost,
                rank_profile=retriever.rank_profile,
                target_accuracy=float(accuracy),
                cost_budget=None,
            )
            points.append(
                PlannerOperatingPoint(
                    tag=tag,
                    k=int(k),
                    target_accuracy=float(accuracy),
                    p=p,
                    planner_cost=min(embedding_cost + p, n),
                    curve_cost=method.cost(int(k), float(accuracy)),
                )
            )
    return points
