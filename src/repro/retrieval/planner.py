"""Cost-model planning of the filter size ``p`` with an early-exit refine.

The paper's filter-and-refine operating point — the filter size ``p`` behind
the Figure 4/5 accuracy-vs-cost curves — is a single knob tuned offline.
This module turns it into a per-query decision:

* :class:`CostModel` — fitted online from *observed* stage timings: exact
  evaluations per second, filter scan seconds per row and the store hit
  rate.  Calibrated from a few probe queries
  (:meth:`PlannedRetriever.calibrate`) and updated from every served
  batch.  :meth:`CostModel.observe_batch` ingests values measured by the
  caller; every ``predict_*`` method is a pure function of the fitted
  state — no clocks, no RNG (analysis rule RP012) — so ``explain()`` is
  deterministic given the model.
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
store state.  The async serving layer has no early exit: a ``p=None``
ticket runs the fixed pipeline at the ceiling
:meth:`PlannedRetriever.choose_p` (``explain(k)["p"]``), so its bit-identity
with ``query_many`` holds for explicit ``p``.
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
    "CostModel",
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


class CostModel:
    """Per-stage cost coefficients, fitted online from observed timings.

    The split between measurement and decision is strict:
    :meth:`observe_batch` ingests wall-clock values its *caller* measured
    (it never reads clocks itself), and ``predict_*`` methods are pure
    functions of the fitted state — analysis rule RP012 enforces that they
    call no clocks and no RNG, so the same model state always produces the
    same ``explain()`` output.

    Fitted quantities (exponentially-weighted moving averages):

    * ``exact_eval_seconds`` — seconds per exact refine evaluation (the
      active kernel backend's throughput shows up here);
    * ``embed_seconds`` — seconds to embed one query;
    * ``filter_row_seconds`` — filter scan seconds per database row;
    * ``store_hit_rate`` — fraction of routed refine pairs absorbed by the
      distance store.
    """

    def __init__(self, alpha: float = 0.3) -> None:
        if not 0.0 < alpha <= 1.0:
            raise RetrievalError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.observations = 0
        self.exact_eval_seconds = 0.0
        self.embed_seconds = 0.0
        self.filter_row_seconds = 0.0
        self.store_hit_rate = 0.0
        #: Calibration record of the last :meth:`PlannedRetriever.calibrate`
        #: run (probe cost, fit seconds), ``None`` until calibrated.
        self.calibration: Optional[Dict[str, Any]] = None

    # -- fitting (values measured by the caller; no clocks here) ---------

    def _blend(self, old: float, new: float) -> float:
        """EWMA update; the first observation replaces the zero prior."""
        if old == 0.0:
            return float(new)
        return float(old + self.alpha * (new - old))

    def observe_batch(
        self,
        *,
        n_queries: int,
        n_rows: int,
        embed_seconds: float,
        filter_seconds: float,
        refine_seconds: float,
        refine_evaluations: int,
        refine_pairs: int,
    ) -> None:
        """Fold one served batch's measured stage costs into the model.

        ``n_rows`` is the total filter rows scanned (database size times
        queries), ``refine_pairs`` the candidate pairs routed to refine,
        ``refine_evaluations`` how many of those the store did not absorb.
        """
        if n_queries <= 0:
            return
        if embed_seconds > 0.0:
            self.embed_seconds = self._blend(
                self.embed_seconds, embed_seconds / n_queries
            )
        if n_rows > 0 and filter_seconds > 0.0:
            self.filter_row_seconds = self._blend(
                self.filter_row_seconds, filter_seconds / n_rows
            )
        if refine_evaluations > 0 and refine_seconds > 0.0:
            self.exact_eval_seconds = self._blend(
                self.exact_eval_seconds, refine_seconds / refine_evaluations
            )
        if refine_pairs > 0:
            hit_rate = 1.0 - refine_evaluations / refine_pairs
            self.store_hit_rate = self._blend(self.store_hit_rate, hit_rate)
        self.observations += 1

    # -- prediction (pure over fitted state; RP012) ----------------------

    def predict_filter_seconds(self, n_rows: int) -> float:
        """Predicted scan seconds for ``n_rows`` filter rows."""
        return n_rows * self.filter_row_seconds

    def predict_refine_seconds(self, n_candidates: int) -> float:
        """Predicted refine seconds: store-miss fraction times eval cost."""
        misses = (1.0 - self.store_hit_rate) * n_candidates
        return misses * self.exact_eval_seconds

    def predict_query_seconds(self, p: int, n_rows: int) -> float:
        """Predicted wall-clock of one local filter-and-refine query."""
        return (
            self.embed_seconds
            + self.predict_filter_seconds(n_rows)
            + self.predict_refine_seconds(p)
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of the fitted state (health / explain)."""
        return {
            "observations": self.observations,
            "exact_eval_seconds": self.exact_eval_seconds,
            "embed_seconds": self.embed_seconds,
            "filter_row_seconds": self.filter_row_seconds,
            "store_hit_rate": self.store_hit_rate,
            "calibrated": self.calibration is not None,
        }


class PlannedRetriever:
    """The ``"planned"`` backend: filter-and-refine at a planned ``p``.

    Wraps one flat :class:`~repro.retrieval.engine.QueryEngine` pipeline
    behind a :class:`CostModel`.  With an explicit ``p`` every call
    delegates to the engine and is bit-identical to
    :class:`~repro.retrieval.filter_refine.FilterRefineRetriever`; with
    ``p=None`` the planner picks the refine ceiling per query and refines
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
        self.model = CostModel()
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
        :func:`choose_operating_point`); the async serving layer serves
        ``p=None`` submissions at this ceiling.
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

    # -- measurement -----------------------------------------------------

    def _observe_stats(self, stats: Optional[Dict[str, Any]]) -> None:
        """Fold an engine batch's ``plan.stats`` into the cost model."""
        if not stats:
            return
        seconds = stats.get("stage_seconds", {})
        self.model.observe_batch(
            n_queries=int(stats.get("n_queries", 0)),
            n_rows=self.engine.n_database * int(stats.get("n_queries", 0)),
            embed_seconds=float(seconds.get("embed", 0.0)),
            filter_seconds=float(seconds.get("filter", 0.0)),
            refine_seconds=float(seconds.get("refine", 0.0)),
            refine_evaluations=int(stats.get("refine_evaluations", 0)),
            refine_pairs=int(stats.get("candidates", 0)),
        )

    # -- calibration -----------------------------------------------------

    def calibrate(
        self,
        probes: Sequence[Any],
        k_max: int = CALIBRATION_KMAX,
        n_jobs: Optional[int] = None,
    ) -> Dict[str, Any]:
        """Fit the cost model and accuracy profile from a few probe queries.

        Each probe is embedded, filter-scanned and exact-scanned against
        the whole database through the engine's stages — charged honestly
        through its accounting (through a shared store the scans also warm
        it).  The filter timing the cost model sees includes the stage's
        cut, here a full-length sort.  The exact scans yield ground truth,
        from which the filter-rank profile
        (:func:`~repro.retrieval.evaluation.filter_ranks`) drives the
        accuracy-targeted ``p`` choice for any ``k`` up to ``k_max``.
        Returns the calibration record (probe cost, fit seconds), which is
        also kept on ``model.calibration``.
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
        t0 = time.perf_counter()
        self.engine.refine.run(plan)
        spent_total = int(sum(plan.refine_costs))
        plan.stats["stage_seconds"]["refine"] = time.perf_counter() - t0
        plan.stats["refine_evaluations"] = spent_total
        self._observe_stats(plan.stats)

        exact = np.empty((len(probes), n))
        for row, candidates, values in zip(exact, plan.candidate_lists, plan.exact_lists):
            row[candidates] = values
        ground_truth = knn_from_distances(exact, k_max)
        self.rank_profile = filter_ranks(
            self.embedder, self.database_vectors, plan.query_vectors, ground_truth
        )
        record = {
            "probes": len(probes),
            "k_max": k_max,
            "probe_evaluations": spent_total
            + self.engine.embed.cost * len(probes),
            "fit_seconds": time.perf_counter() - started,
            "exact_eval_seconds": self.model.exact_eval_seconds,
            "filter_row_seconds": self.model.filter_row_seconds,
        }
        self.model.calibration = record
        return record

    # -- explain / health ------------------------------------------------

    def explain(self, k: int, p: Optional[int] = None) -> Dict[str, Any]:
        """Describe the plan one query at ``k`` would execute, without running it.

        Deterministic given the model state (RP012).  With an explicit
        ``p`` the plan is the fixed pass-through; with ``p=None`` it is
        the adaptive plan the next query would get.
        """
        n = self.engine.n_database
        adaptive = p is None
        ceiling = self.choose_p(k) if adaptive else int(p)
        k_eff, p_eff = clamp_query_params(k, ceiling, n)
        return {
            "adaptive": adaptive,
            "k": k_eff,
            "p": p_eff,
            "schedule": refine_schedule(p_eff, k_eff) if adaptive else [p_eff],
            "predicted_seconds": self.model.predict_query_seconds(p_eff, n),
            "calibrated": self.rank_profile is not None,
            "model": self.model.to_dict(),
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
            "model": self.model.to_dict(),
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
        results = self.engine.query_many(objects, k, p, n_jobs=n_jobs)
        if results:
            self._observe_stats(results[0].stats)
        return results

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
        refine_seconds = 0.0
        charged_total = 0
        refined_total = 0
        results: List[RetrievalResult] = []
        for obj, candidates in zip(plan.objects, plan.candidate_lists):
            t0 = time.perf_counter()
            exact, charged, chosen, early = self._refine_slices(obj, candidates, k_eff)
            refine_seconds += time.perf_counter() - t0
            charged_total += charged
            refined_total += chosen
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
        plan.stats["stage_seconds"]["refine"] = refine_seconds
        plan.stats["refine_evaluations"] = charged_total
        plan.stats["candidates"] = refined_total
        self._observe_stats(plan.stats)
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
