"""QueryEngine: the staged embed → filter → refine → merge retrieval pipeline.

The paper's retrieval model is one fixed pipeline — embed the query (exact
distances to the embedding's reference objects), filter the database by a
cheap vector distance, refine the best ``p`` candidates with exact
distances — yet the repo used to implement that pipeline once per
retriever.  This module decomposes it into
explicit, composable *stages*, each a small object with a ``run(plan) ->
plan`` step over a shared :class:`QueryPlan`:

* :class:`EmbedStage` — embed the queries with one batched ``embed_many``
  call (a single query included);
* :class:`FilterStage` — rank database vectors by the cheap filter distance
  and keep the stable top-``p`` cut (no exact distances);
* :class:`ScanStage` — the degenerate "filter" of brute force: every
  database position is a candidate;
* :class:`RefineStage` — evaluate the exact distances from each query to
  its candidates with one call on the stage's binding
  (:mod:`repro.retrieval.context_binding`): through a shared
  :class:`~repro.distances.context.DistanceContext` store when one is
  bound (cached pairs are free), every pair charged otherwise, and over
  worker processes when ``n_jobs`` asks for them;
* :class:`MergeStage` — order the refined candidates (ties by database
  index, the brute-force-identical order) into
  :class:`RetrievalResult` objects.

:class:`QueryEngine` chains the stages; the public retrievers
(:class:`~repro.retrieval.brute_force.BruteForceRetriever`,
:class:`~repro.retrieval.filter_refine.FilterRefineRetriever` and the
planner's :class:`~repro.retrieval.planner.PlannedRetriever`) are thin
configurations of it, so the tie-breaking, clamping, accounting and
parallel fan-out rules exist exactly once.  The async serving layer
(:mod:`repro.index.serving`) reuses the embed/filter stages to prepare
queries in the parent while refine batches run on the persistent pool;
the adaptive planner and the ``p`` sweep prepare their batches the same
way and refine their prefix slices through :meth:`RefineStage.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.embeddings.base import Embedding
from repro.exceptions import RetrievalError
from repro.retrieval.context_binding import Binding, bind_context

__all__ = [
    "RetrievalResult",
    "QueryPlan",
    "QueryEngine",
    "EmbedStage",
    "FilterStage",
    "ScanStage",
    "RefineStage",
    "MergeStage",
    "stable_smallest",
    "clamp_query_params",
    "filter_vector_distances",
    "refine_order",
    "build_retrieval_result",
    "build_scan_result",
    "refine_candidates",
]


# --------------------------------------------------------------------------- #
# Shared primitives (formerly private helpers of filter_refine)               #
# --------------------------------------------------------------------------- #


def stable_smallest(values: np.ndarray, p: Optional[int]) -> np.ndarray:
    """Indices of the ``p`` smallest values, in stable ascending order.

    Exactly equivalent to ``np.argsort(values, kind="stable")[:p]`` but uses
    :func:`np.argpartition` for the top-``p`` cut, so only the survivors pay
    the sort.  Boundary ties are resolved by smallest index, matching the
    stable full sort.
    """
    values = np.asarray(values)
    n = values.shape[0]
    if p is None or p >= n:
        return np.argsort(values, kind="stable")
    if p <= 0:
        return np.zeros(0, dtype=int)
    partition = np.argpartition(values, p - 1)[:p]
    # argpartition breaks ties at the cut arbitrarily; rebuild the selection
    # so that equal values at the boundary keep the lowest database indices.
    boundary = values[partition].max()
    below = np.flatnonzero(values < boundary)
    needed = p - below.size
    chosen = np.concatenate([below, np.flatnonzero(values == boundary)[:needed]])
    order = np.argsort(values[chosen], kind="stable")
    return chosen[order]


def clamp_query_params(k: int, p: int, n: int) -> Tuple[int, int]:
    """Clamp ``(k, p)`` against a database of ``n`` objects.

    ``k`` and ``p`` must be positive; beyond that they are clamped rather
    than rejected: ``k`` is capped at ``n`` (a query cannot have more
    neighbors than the database holds) and ``p`` is raised to at least the
    effective ``k`` (so the refine step can return ``k`` results) and capped
    at ``n`` (refining more candidates than exist is meaningless).  Returns
    the effective ``(k, p)``; the refine cost charged per query is the
    effective ``p``.
    """
    if k < 1:
        raise RetrievalError(f"k must be a positive integer, got {k}")
    if p < 1:
        raise RetrievalError(f"p must be a positive integer, got {p}")
    k_eff = min(int(k), n)
    p_eff = min(max(int(p), k_eff), n)
    return k_eff, p_eff


def filter_vector_distances(
    embedder: Union[QuerySensitiveModel, Embedding],
    query_vector: np.ndarray,
    database_vectors: np.ndarray,
) -> np.ndarray:
    """Filter-step distances from one embedded query to database vectors.

    Each row's score depends only on that row and the query, so evaluating
    it on a row subset yields bit-identical values to one full-database
    call.
    """
    query_vector = np.asarray(query_vector, dtype=float)
    if isinstance(embedder, QuerySensitiveModel):
        return embedder.distances_to(query_vector, database_vectors)
    return np.abs(database_vectors - query_vector[None, :]).sum(axis=1)


def refine_order(exact: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Positions of the ``k`` best refined candidates, ties by database index.

    ``np.lexsort`` with the exact distance as the primary key and the global
    database index as the secondary key reproduces exactly the tie-stable
    order of a brute-force scan, regardless of the order the candidates
    survived the filter in.
    """
    return np.lexsort((candidates, exact))[:k]


def build_retrieval_result(
    candidates: np.ndarray,
    exact: np.ndarray,
    k_eff: int,
    p_eff: int,
    embedding_cost: int,
    refine_cost: int,
    partial: bool = False,
) -> "RetrievalResult":
    """Assemble a :class:`RetrievalResult` from refined candidate distances.

    Shared by every pipeline configuration so the neighbor ordering and
    cost accounting can never diverge between paths.  ``refine_cost`` is
    the number of exact evaluations the refine actually performed (``p``
    for a plain measure; cached pairs are free through a context).
    ``partial`` marks a deadline-expired serving result ranked over the
    candidates that were resolved in time (see
    :meth:`EmbeddingIndex.submit`).
    """
    order = refine_order(exact, candidates, k_eff)
    return RetrievalResult(
        neighbor_indices=candidates[order],
        neighbor_distances=exact[order],
        candidate_indices=candidates,
        embedding_distance_computations=int(embedding_cost),
        refine_distance_computations=int(refine_cost),
        partial=partial,
    )


def build_scan_result(
    exact: np.ndarray,
    candidates: np.ndarray,
    k: int,
    refine_cost: int,
    partial: bool = False,
) -> "RetrievalResult":
    """Rank one full exact scan (the brute-force result shape).

    ``k`` is clamped to the scan length; ties resolve by the smallest
    database index (stable sort) — the reference order every pipeline
    reproduces.  Shared by the ``EmbeddingIndex`` brute-force backend and
    the async serving layer so the scan ranking exists exactly once.
    """
    if k < 1:
        raise RetrievalError(f"k must be a positive integer, got {k}")
    k_eff = min(int(k), exact.shape[0])
    order = np.argsort(exact, kind="stable")[:k_eff]
    return RetrievalResult(
        neighbor_indices=order,
        neighbor_distances=exact[order],
        candidate_indices=candidates,
        embedding_distance_computations=0,
        refine_distance_computations=int(refine_cost),
        partial=partial,
    )


@dataclass
class RetrievalResult:
    """Outcome of one filter-and-refine query.

    Attributes
    ----------
    neighbor_indices:
        Database indices of the ``min(k, n)`` reported neighbors, best first.
    neighbor_distances:
        Their exact distances to the query.
    candidate_indices:
        The (effective) ``p`` database indices that survived the filter step,
        in filter order.
    embedding_distance_computations:
        Exact distances spent embedding the query (the embedder's nominal
        per-query cost).
    refine_distance_computations:
        Exact distances spent in the refine step.  Equals the effective
        ``p`` for a plain distance measure; for a pipeline backed by a
        :class:`~repro.distances.context.DistanceContext` it is the number
        of evaluations actually performed — pairs already in the shared
        store are free, so a fully warm store reports ``0``.
    partial:
        ``False`` everywhere except the serving layer's
        ``allow_partial=True`` deadline path: ``True`` means the neighbors
        were ranked over only the candidates whose exact distances were
        resolved before the deadline — correct distances, possibly missing
        neighbors — and must not be compared bit-for-bit with a full
        result.
    stats:
        The query planner's per-query decision (``planned_p``,
        ``early_exit``, the ceiling ``p``, the charged
        ``refine_evaluations``, ...) on results served at ``p=None`` by the
        ``"planned"`` backend; ``None`` everywhere else.  Diagnostic only —
        never part of the bit-identity contract.
    """

    neighbor_indices: np.ndarray
    neighbor_distances: np.ndarray
    candidate_indices: np.ndarray
    embedding_distance_computations: int
    refine_distance_computations: int
    partial: bool = False
    stats: Optional[Dict[str, Any]] = None

    @property
    def total_distance_computations(self) -> int:
        """The paper's cost metric: embedding cost plus refine cost."""
        return self.embedding_distance_computations + self.refine_distance_computations


# --------------------------------------------------------------------------- #
# The plan                                                                    #
# --------------------------------------------------------------------------- #

@dataclass
class QueryPlan:
    """The state one query batch accumulates as it flows through the stages.

    A plan is built by :meth:`QueryEngine.make_plan`, then each stage's
    ``run(plan)`` reads the fields earlier stages filled and adds its own —
    embed fills :attr:`query_vectors`, filter fills :attr:`candidate_lists`,
    refine fills :attr:`exact_lists` and :attr:`refine_costs`, merge fills
    :attr:`results`.
    """

    objects: List[Any]
    k: int
    p: Optional[int]
    n_jobs: Optional[int] = None
    k_eff: int = 0
    p_eff: int = 0
    embedding_cost: int = 0
    query_vectors: Optional[np.ndarray] = None
    candidate_lists: List[np.ndarray] = field(default_factory=list)
    exact_lists: List[np.ndarray] = field(default_factory=list)
    #: Exact evaluations actually performed per query.
    refine_costs: List[int] = field(default_factory=list)
    results: List[RetrievalResult] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Stages                                                                      #
# --------------------------------------------------------------------------- #


class EmbedStage:
    """Embed the query objects (cost: ``embedder.cost`` exact distances each)."""

    def __init__(self, embedder: Union[QuerySensitiveModel, Embedding]) -> None:
        self.embedder = embedder

    @property
    def dim(self) -> int:
        """Dimensionality of the embedding space."""
        return self.embedder.dim

    @property
    def cost(self) -> int:
        """Exact evaluations one embedding costs."""
        return self.embedder.cost

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Embed the plan's query objects into ``plan.query_vectors``."""
        plan.embedding_cost = self.embedder.cost
        plan.query_vectors = np.asarray(
            self.embedder.embed_many(plan.objects), dtype=float
        )
        return plan


class FilterStage:
    """Stable top-``p`` cut of the database by the cheap filter distance."""

    def __init__(
        self,
        embedder: Union[QuerySensitiveModel, Embedding],
        database_vectors: np.ndarray,
    ) -> None:
        self.embedder = embedder
        self.database_vectors = database_vectors

    def distances(self, query_vector: np.ndarray) -> np.ndarray:
        """Vector distances from an embedded query to every database vector."""
        return filter_vector_distances(
            self.embedder, query_vector, self.database_vectors
        )

    def cut(self, query_vector: np.ndarray, p: Optional[int] = None) -> np.ndarray:
        """Database indices of the ``p`` best filter distances (all if ``None``).

        Sorted by increasing filter distance, ties by database index.
        """
        return stable_smallest(self.distances(query_vector), p)

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Rank the database per query vector into ``plan.candidate_lists``."""
        plan.candidate_lists = [
            self.cut(vector, plan.p_eff) for vector in plan.query_vectors
        ]
        return plan


class ScanStage:
    """The degenerate filter of brute force: every position is a candidate."""

    def __init__(self, n_database: int) -> None:
        # One shared candidate array (read-only by convention), so a large
        # batch does not allocate O(batch x database) identical arrays.
        self.all_positions = np.arange(n_database)

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Mark every database position a candidate (brute-force baseline)."""
        plan.embedding_cost = 0
        plan.candidate_lists = [self.all_positions] * len(plan.objects)
        return plan


class RefineStage:
    """Evaluate exact distances from each query to its filter candidates.

    One object owns the pipeline's exact-distance access: a binding from
    :func:`~repro.retrieval.context_binding.bind_context` (store-backed
    through a context, every pair charged for a plain measure).  Every
    retriever, the planner's prefix slices and the sweep refine through
    :meth:`run`, so accounting can never drift between them.
    """

    def __init__(self, binding: Binding) -> None:
        self.binding = binding

    @property
    def calls(self) -> int:
        """Exact evaluations performed by this stage so far."""
        return self.binding.calls

    def reset(self) -> None:
        """Reset the evaluation counter."""
        self.binding.calls = 0

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Evaluate exact distances for each query's candidate list.

        One ``distances_to_many`` call on the binding resolves every
        query's candidates; a one-query plan stays serial.
        """
        n_queries = len(plan.objects)
        plan.exact_lists, plan.refine_costs = self.binding.distances_to_many(
            plan.objects,
            plan.candidate_lists,
            n_jobs=plan.n_jobs if n_queries > 1 else 1,
        )
        return plan


def refine_candidates(
    refine: RefineStage, obj: Any, candidates: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Exact distances from one object to ``candidates`` through ``refine.run``.

    Returns ``(values, spent)``.  The planner's prefix slices and the
    sweep's blocks use this, so they refine exactly as a one-query pipeline
    batch does.
    """
    plan = QueryPlan(objects=[obj], k=1, p=None)
    plan.candidate_lists = [candidates]
    refine.run(plan)
    return plan.exact_lists[0], plan.refine_costs[0]


class MergeStage:
    """Order refined candidates into results (ties by database index)."""

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Assemble per-query RetrievalResults from the refined distances."""
        plan.results = [
            build_retrieval_result(
                candidates,
                exact,
                plan.k_eff,
                plan.p_eff,
                plan.embedding_cost,
                refine_cost=cost,
            )
            for candidates, exact, cost in zip(
                plan.candidate_lists, plan.exact_lists, plan.refine_costs
            )
        ]
        return plan


# --------------------------------------------------------------------------- #
# The engine                                                                  #
# --------------------------------------------------------------------------- #


class QueryEngine:
    """A staged retrieval pipeline: embed → filter → refine → merge.

    Build one with :meth:`filter_refine` or :meth:`brute_force` (or pass
    custom stages).  ``embed`` may be ``None`` (brute force has nothing to
    embed); the remaining stages are required.
    """

    def __init__(
        self,
        embed: Optional[EmbedStage],
        filter: Any,
        refine: RefineStage,
        merge: Optional[MergeStage],
        n_database: int,
    ) -> None:
        self.embed = embed
        self.filter = filter
        self.refine = refine
        self.merge = merge
        self.n_database = int(n_database)

    @property
    def stages(self) -> List[Any]:
        """The pipeline's stages, in run order."""
        return [
            stage
            for stage in (self.embed, self.filter, self.refine, self.merge)
            if stage is not None
        ]

    # -- construction ----------------------------------------------------

    @classmethod
    def filter_refine(
        cls,
        distance: DistanceMeasure,
        database: Dataset,
        embedder: Union[QuerySensitiveModel, Embedding],
        database_vectors: np.ndarray,
    ) -> "QueryEngine":
        """The filter-and-refine pipeline."""
        return cls(
            embed=EmbedStage(embedder),
            filter=FilterStage(embedder, database_vectors),
            refine=RefineStage(bind_context(distance, database)),
            merge=MergeStage(),
            n_database=len(database),
        )

    @classmethod
    def brute_force(
        cls, distance: DistanceMeasure, database: Dataset
    ) -> "QueryEngine":
        """The exact-scan pipeline (no embedding, every position refined).

        Built without a merge stage: brute-force callers rank the full
        scan themselves (their ``k`` validation is strict, not clamped).
        """
        return cls(
            embed=None,
            filter=ScanStage(len(database)),
            refine=RefineStage(bind_context(distance, database)),
            merge=None,
            n_database=len(database),
        )

    # -- plans -----------------------------------------------------------

    def make_plan(
        self,
        objects: Sequence[Any],
        k: int,
        p: Optional[int],
        n_jobs: Optional[int] = None,
    ) -> QueryPlan:
        """Clamp the parameters and seed a plan for one query batch."""
        objects = list(objects)
        plan = QueryPlan(objects=objects, k=k, p=p, n_jobs=n_jobs)
        if p is None:
            # Scan pipelines refine every database position.
            plan.k_eff = min(int(k), self.n_database)
            plan.p_eff = self.n_database
        else:
            plan.k_eff, plan.p_eff = clamp_query_params(k, p, self.n_database)
        return plan

    def run(self, plan: QueryPlan) -> QueryPlan:
        """Run every stage over the plan, in order."""
        for stage in self.stages:
            plan = stage.run(plan)
        return plan

    def prepare(self, plan: QueryPlan) -> QueryPlan:
        """Run only the parent-CPU stages (embed + filter).

        This is the async serving split: the serving layer prepares query
        ``i+1`` here while query ``i``'s refine batch runs on the worker
        pool, then completes the refine/merge itself.  The planner and the
        ``p`` sweep prepare their batches here too, then refine in slices.
        """
        if self.embed is not None:
            plan = self.embed.run(plan)
        return self.filter.run(plan)

    # -- conveniences ----------------------------------------------------

    def query(self, obj: Any, k: int, p: int) -> RetrievalResult:
        """Run the full pipeline for one query object (refined serially)."""
        plan = self.run(self.make_plan([obj], k, p))
        return plan.results[0]

    def query_many(
        self,
        objects: Sequence[Any],
        k: int,
        p: int,
        n_jobs: Optional[int] = None,
    ) -> List[RetrievalResult]:
        """Run the full pipeline for a batch of query objects."""
        objects = list(objects)
        # Clamping validates (k, p) even for an empty batch, exactly like
        # a one-query call.
        plan = self.make_plan(objects, k, p, n_jobs=n_jobs)
        if not objects:
            return []
        plan = self.run(plan)
        return plan.results
