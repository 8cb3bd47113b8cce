"""Per-query planning of the filter size ``p`` with an early-exit refine.

The paper's filter-and-refine operating point — the filter size ``p`` behind
the Figure 4/5 accuracy-vs-cost curves — is a single knob tuned offline.
This module turns it into a per-query decision:

* :func:`choose_operating_point` — the refine ceiling ``p`` for one query:
  the accuracy quantile of a filter-rank profile calibrated from a few
  probe queries (:meth:`PlannedRetriever.calibrate`), capped by an
  optional per-query evaluation budget.  It is pure over the calibration
  profile and the configured targets — no clocks, no RNG (analysis rule
  RP012) — so ``explain()`` is deterministic and identical queries plan
  identically.
* :class:`PlannedRetriever` — the ``"planned"`` index backend.  With
  ``p=None`` it (a) picks the refine ceiling ``p`` from the calibrated
  rank profile to hit a target accuracy or cost budget and (b) shrinks
  the refine set adaptively: candidates are refined in prefix-extending
  slices and refinement stops as soon as the top-``k`` is stable across
  an extension (the incremental-refine early exit), charging only the
  pairs actually evaluated.  Everything runs on one flat
  :class:`~repro.retrieval.engine.QueryEngine`.

Exactness contract
------------------
With an explicit ``p`` the planned backend delegates to the flat
:class:`~repro.retrieval.engine.QueryEngine` pipeline and is bit-identical
to :class:`~repro.retrieval.filter_refine.FilterRefineRetriever`.  With
``p=None`` the chosen per-query ``p'`` is *defined* as the refined prefix
length at the deterministic stopping point; because a stable filter cut at
``p'`` is exactly the first ``p'`` entries of the cut at the ceiling
``p_max`` (stable top-``p`` cuts are prefix-closed), the result —
neighbors, tie order, candidate list and per-query accounting — is
bit-identical *by construction* to the flat fixed-``p'`` run over the same
store state.  Every serving entry point of
:class:`~repro.index.embedding_index.EmbeddingIndex` serves ``p=None``
through this early exit (the async ones one query at a time), so they all
stop at the same ``p'``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.base import Dataset
from repro.exceptions import RetrievalError
from repro.retrieval.engine import (
    QueryEngine,
    RetrievalResult,
    build_retrieval_result,
    clamp_query_params,
    refine_candidates,
    refine_order,
)
from repro.retrieval.evaluation import (
    FilterRankResult,
    cost_for_accuracy,
    filter_ranks,
)
from repro.retrieval.knn import knn_from_distances

__all__ = [
    "PlannedRetriever",
    "choose_operating_point",
    "refine_schedule",
]


#: Default neighbor-table width of the calibration profile: accuracy-targeted
#: ``p`` selection supports any ``k`` up to this without re-probing.
CALIBRATION_KMAX = 8

#: Uncalibrated fallback ceiling: ``max(DEFAULT_P_FACTOR * k, DEFAULT_P_MIN)``
#: candidates, clamped to the database size.
DEFAULT_P_FACTOR = 8
DEFAULT_P_MIN = 32


def refine_schedule(p_ceiling: int, k: int) -> List[int]:
    """The deterministic prefix-extension schedule of the adaptive refine.

    Starts at ``max(k, ceil(p_ceiling / 4))`` and doubles until the ceiling:
    the early exit needs two consecutive prefixes agreeing on the
    top-``k``, so the cheapest possible stop costs half the ceiling.  Pure
    arithmetic — the schedule (and therefore the chosen ``p'``) depends
    only on ``(p_ceiling, k)`` and the refined distances, never on timing.
    """
    if p_ceiling < 1:
        raise RetrievalError(f"p_ceiling must be positive, got {p_ceiling}")
    sizes: List[int] = []
    current = min(p_ceiling, max(int(k), (int(p_ceiling) + 3) // 4, 1))
    while True:
        sizes.append(current)
        if current >= p_ceiling:
            return sizes
        current = min(current * 2, p_ceiling)


def choose_operating_point(
    k: int,
    n_database: int,
    embedding_cost: int,
    rank_profile: Optional[FilterRankResult],
    target_accuracy: float,
    cost_budget: Optional[int],
) -> int:
    """Pick the refine ceiling ``p`` for one query — the planner's operating point.

    Pure (RP012): a function of the calibration profile and the configured
    targets only.  With a profile, ``p`` is the paper's accuracy quantile
    (:func:`~repro.retrieval.evaluation.cost_for_accuracy`); without one, a
    deterministic ``max(8k, 32)`` fallback.  A ``cost_budget`` (total exact
    evaluations per query, embedding included) caps it; when the capped
    operating point costs as much as a brute-force scan anyway, the residual
    is tiny and the planner refines everything (``p = n``), which is
    bit-identical to the exact scan.  The experiments layer shares this
    function to overlay planner-chosen operating points on the Figure 4/5
    curves.
    """
    if n_database < 1:
        raise RetrievalError("n_database must be positive")
    if rank_profile is not None:
        point = cost_for_accuracy(
            rank_profile,
            min(int(k), rank_profile.k_max),
            target_accuracy,
            n_database,
        )
        p = point.p
    else:
        p = max(DEFAULT_P_FACTOR * int(k), DEFAULT_P_MIN)
    if cost_budget is not None:
        p = min(p, int(cost_budget) - int(embedding_cost))
    p = min(max(p, int(k), 1), n_database)
    if int(embedding_cost) + p >= n_database:
        # Tiny residual: the filter step cannot pay for itself, so the
        # cheapest *correct* plan refines the whole database.
        p = n_database
    return int(p)


class PlannedRetriever:
    """The ``"planned"`` backend: filter-and-refine at a planned ``p``.

    Wraps one flat :class:`~repro.retrieval.engine.QueryEngine` pipeline.
    With an explicit ``p`` every call delegates to the engine and is
    bit-identical to
    :class:`~repro.retrieval.filter_refine.FilterRefineRetriever`; with
    ``p=None`` the planner picks the refine ceiling per query from its
    calibration profile and targets (:meth:`choose_p`) and refines
    incrementally (see the module docstring for the exactness contract).

    Parameters
    ----------
    distance, database, embedder, database_vectors:
        As for :class:`~repro.retrieval.filter_refine.FilterRefineRetriever`.
    target_accuracy:
        Accuracy target for the calibrated ``p`` choice, in (0, 1].
    cost_budget:
        Optional per-query budget in exact evaluations (embedding
        included) capping the chosen operating point.
    """

    def __init__(
        self,
        distance: Any,
        database: Dataset,
        embedder: Any,
        database_vectors: Optional[np.ndarray] = None,
        target_accuracy: float = 0.95,
        cost_budget: Optional[int] = None,
    ) -> None:
        if not 0.0 < float(target_accuracy) <= 1.0:
            raise RetrievalError(
                f"target_accuracy must be in (0, 1], got {target_accuracy}"
            )
        if cost_budget is not None and int(cost_budget) < 1:
            raise RetrievalError("cost_budget must be a positive evaluation count")
        self.database = database
        self.embedder = embedder
        if database_vectors is None:
            database_vectors = embedder.embed_many(list(database))
        self.database_vectors = np.asarray(database_vectors, dtype=float)
        self.engine = QueryEngine.filter_refine(
            distance, database, embedder, self.database_vectors
        )
        self.target_accuracy = float(target_accuracy)
        self.cost_budget = None if cost_budget is None else int(cost_budget)
        #: Accuracy profile fitted by :meth:`calibrate` (``None`` = the
        #: deterministic uncalibrated fallback ceiling is used).
        self.rank_profile: Optional[FilterRankResult] = None
        self.planned_queries = 0
        self.early_exits = 0
        self._last_decision: Optional[Dict[str, Any]] = None

    # -- introspection ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimensionality of the filter embedding."""
        return self.engine.embed.dim

    @property
    def embedding_cost(self) -> int:
        """Exact evaluations one query embedding costs."""
        return self.engine.embed.cost

    @property
    def refine_distance_evaluations(self) -> int:
        """Exact evaluations performed by the refine stage so far."""
        return self.engine.refine.calls

    # -- pure decision functions (RP012: no clocks, no RNG) --------------

    def choose_p(self, k: int) -> int:
        """The planner's refine ceiling for one query at ``k``.

        Pure over the calibration profile and configured targets (see
        :func:`choose_operating_point`): the last step of every ``p=None``
        query's refine schedule, where the early exit stops if nothing
        earlier does.
        """
        if k < 1:
            raise RetrievalError(f"k must be a positive integer, got {k}")
        return choose_operating_point(
            k=k,
            n_database=self.engine.n_database,
            embedding_cost=self.engine.embed.cost,
            rank_profile=self.rank_profile,
            target_accuracy=self.target_accuracy,
            cost_budget=self.cost_budget,
        )

    # -- calibration -----------------------------------------------------

    def calibrate(
        self,
        probes: Sequence[Any],
        k_max: int = CALIBRATION_KMAX,
        n_jobs: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Fit the accuracy profile from a few probe queries.

        Each probe is embedded, filter-scanned and exact-scanned against
        the whole database through the engine's stages — charged honestly
        through its accounting (through a shared store the scans also warm
        it).  The exact scans yield ground truth, from which the
        filter-rank profile
        (:func:`~repro.retrieval.evaluation.filter_ranks`) drives the
        accuracy-targeted ``p`` choice for any ``k`` up to ``k_max``.
        Returns the calibration record: ``probes``, ``k_max``,
        ``probe_evaluations`` (the exact evaluations charged, embeddings
        included) and ``fit_seconds``.
        """
        probes = list(probes)
        n = self.engine.n_database
        if not probes:
            raise RetrievalError("calibration needs at least one probe query")
        k_max = min(int(k_max), n)
        if k_max < 1:
            raise RetrievalError(f"k_max must be a positive integer, got {k_max}")
        started = time.perf_counter()
        # At p = n every probe's candidate list is the whole database in
        # filter order, so the refine is an exact scan: the ground truth.
        plan = self.engine.prepare(self.engine.make_plan(probes, 1, n, n_jobs=n_jobs))
        self.engine.refine.run(plan)

        exact = np.empty((len(probes), n))
        for row, candidates, values in zip(exact, plan.candidate_lists, plan.exact_lists):
            row[candidates] = values
        ground_truth = knn_from_distances(exact, k_max)
        self.rank_profile = filter_ranks(
            self.embedder, self.database_vectors, plan.query_vectors, ground_truth
        )
        return {
            "probes": len(probes),
            "k_max": k_max,
            "probe_evaluations": int(sum(plan.refine_costs))
            + self.engine.embed.cost * len(probes),
            "fit_seconds": time.perf_counter() - started,
        }

    # -- explain / health ------------------------------------------------

    def explain(self, k: int, p: Optional[int] = None) -> Dict[str, Any]:
        """Describe the plan one query at ``k`` would execute, without running it.

        Deterministic given the calibration profile and targets (RP012).
        With an explicit ``p`` the plan is the fixed pass-through; with
        ``p=None`` it is the adaptive plan every entry point serves next:
        the ceiling ``p`` and the prefix ``schedule`` whose steps are the
        only ``p'`` the early exit can stop at.
        """
        adaptive = p is None
        ceiling = self.choose_p(k) if adaptive else int(p)
        k_eff, p_eff = clamp_query_params(k, ceiling, self.engine.n_database)
        return {
            "adaptive": adaptive,
            "k": k_eff,
            "p": p_eff,
            "schedule": refine_schedule(p_eff, k_eff) if adaptive else [p_eff],
            "calibrated": self.rank_profile is not None,
        }

    def planner_health(self) -> Dict[str, Any]:
        """Planner status for ``EmbeddingIndex.health()["planner"]``."""
        return {
            "calibrated": self.rank_profile is not None,
            "target_accuracy": self.target_accuracy,
            "cost_budget": self.cost_budget,
            "planned_queries": self.planned_queries,
            "early_exits": self.early_exits,
            "last_decision": self._last_decision,
        }

    # -- querying --------------------------------------------------------

    def query(self, obj: Any, k: int, p: Optional[int] = None) -> RetrievalResult:
        """One query: fixed pass-through with explicit ``p``, planned without."""
        if p is not None:
            return self.engine.query(obj, k, p)
        return self._run_adaptive([obj], k)[0]

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int] = None,
        n_jobs: Optional[int] = None,
    ) -> List[RetrievalResult]:
        """Batched :meth:`query`; explicit ``p`` stays bit-identical to the
        flat pipeline (fanned out over ``n_jobs``), ``p=None`` plans each
        query and refines its prefix slices serially."""
        objects = list(objects)
        if p is None:
            return self._run_adaptive(objects, k)
        return self.engine.query_many(objects, k, p, n_jobs=n_jobs)

    # -- the adaptive path -----------------------------------------------

    def _run_adaptive(self, objects: List[Any], k: int) -> List[RetrievalResult]:
        """Serve a batch with the planned ceiling and incremental refine.

        Embed and filter run once for the whole batch, cut at the ceiling;
        each query's candidates are then refined in prefix slices.
        """
        k_eff, p_eff = clamp_query_params(
            k, self.choose_p(k), self.engine.n_database
        )
        if not objects:
            return []
        decision = {
            "p": p_eff,
            "k": k_eff,
            "n_queries": len(objects),
            "calibrated": self.rank_profile is not None,
        }
        self._last_decision = decision
        plan = self.engine.prepare(self.engine.make_plan(objects, k_eff, p_eff))
        results: List[RetrievalResult] = []
        for obj, candidates in zip(plan.objects, plan.candidate_lists):
            exact, charged, chosen, early = self._refine_slices(obj, candidates, k_eff)
            self.planned_queries += 1
            if early:
                self.early_exits += 1
            result = build_retrieval_result(
                candidates[:chosen],
                exact,
                k_eff,
                chosen,
                plan.embedding_cost,
                refine_cost=charged,
            )
            result.stats = {
                **decision,
                "planned": True,
                "planned_p": chosen,
                "early_exit": early,
                "refine_evaluations": charged,
            }
            results.append(result)
        return results

    def _refine_slices(
        self, obj: Any, candidates: np.ndarray, k_eff: int
    ) -> Tuple[np.ndarray, int, int, bool]:
        """Refine a filter-ordered candidate list in prefix-extending slices.

        Stops as soon as the ranked top-``k`` is unchanged across one
        extension of the schedule (or the ceiling is reached).  Returns
        ``(exact_prefix, charged, p_chosen, early_exit)`` where
        ``p_chosen`` is the refined prefix length — *the* planner-chosen
        ``p'``.  Because stable cuts are prefix-closed and the refined
        pairs are exactly the fixed-``p'`` run's pairs, result and
        accounting are bit-identical to that run by construction.
        """
        p_ceiling = int(candidates.shape[0])
        exact = np.empty(p_ceiling, dtype=float)
        charged = 0
        done = 0
        previous_top: Optional[np.ndarray] = None
        early = False
        for target in refine_schedule(p_ceiling, k_eff):
            block = candidates[done:target]
            exact[done:target], spent = refine_candidates(
                self.engine.refine, obj, block
            )
            charged += spent
            done = target
            order = refine_order(exact[:done], candidates[:done], k_eff)
            top = candidates[:done][order]
            if previous_top is not None and np.array_equal(top, previous_top):
                early = done < p_ceiling
                break
            previous_top = top
        return exact[:done], charged, done, early
