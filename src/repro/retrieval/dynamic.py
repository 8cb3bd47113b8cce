"""Dynamic datasets: online insertions, deletions and drift detection.

Sec. 7.1 of the paper: as long as the distribution of database objects does
not change, adding an object only requires computing its embedding (at most
``2d`` exact distances) and removing one requires no distance computations at
all.  If the distribution drifts, the quality of the embedding should be
monitored by re-measuring its triple classification error on fresh triples
drawn from the current database; when the error exceeds a threshold, the
embedding should be retrained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import QuerySensitiveModel
from repro.core.training_data import make_sampler
from repro.datasets.base import Dataset
from repro.distances.base import DistanceMeasure
from repro.distances.matrix import pairwise_distances
from repro.exceptions import RetrievalError
from repro.retrieval.context_binding import MeasureBinding
from repro.retrieval.engine import MergeStage, QueryPlan, RefineStage, stable_smallest
from repro.utils.rng import RngLike, ensure_rng


class DynamicDatabase:
    """A database that supports online insertion and removal of objects.

    Parameters
    ----------
    distance:
        The exact distance measure (needed to embed new objects and to refine
        query results).
    model:
        The trained embedding model used for filtering.
    initial_objects:
        Objects present at construction time.
    """

    def __init__(
        self,
        distance: DistanceMeasure,
        model: QuerySensitiveModel,
        initial_objects: Optional[Sequence[Any]] = None,
    ) -> None:
        if not isinstance(distance, DistanceMeasure):
            raise RetrievalError("distance must be a DistanceMeasure instance")
        if not isinstance(model, QuerySensitiveModel):
            raise RetrievalError("model must be a QuerySensitiveModel")
        self.model = model
        self.objects: List[Any] = []
        # The refine/merge stages are shared with every other retrieval
        # pipeline, so tie-breaking and accounting cannot drift from them.
        # The binding is store-less even for a context: a ContextBinding
        # freezes the position-to-universe mapping, which this mutable
        # list would invalidate.  The binding reads the list at call time.
        self._refine = RefineStage(MeasureBinding(distance, self.objects))
        self._merge = MergeStage()
        self._vectors: List[np.ndarray] = []
        self.insertion_distance_computations = 0
        for obj in initial_objects or []:
            self.add(obj)

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def vectors(self) -> np.ndarray:
        """The ``(n, d)`` matrix of embeddings of the current objects."""
        if not self._vectors:
            return np.zeros((0, self.model.dim), dtype=float)
        return np.vstack(self._vectors)

    def add(self, obj: Any) -> int:
        """Insert an object; returns its index.

        Cost: ``model.cost`` exact distance computations (at most ``2d``),
        tracked in :attr:`insertion_distance_computations`.
        """
        vector = self.model.embed(obj)
        self.objects.append(obj)
        self._vectors.append(np.asarray(vector, dtype=float))
        self.insertion_distance_computations += self.model.cost
        return len(self.objects) - 1

    def remove(self, index: int) -> Any:
        """Remove and return the object at ``index`` (no distance cost)."""
        if not 0 <= index < len(self.objects):
            raise RetrievalError(f"index {index} out of range")
        self._vectors.pop(index)
        return self.objects.pop(index)

    def query(self, obj: Any, k: int, p: int) -> Tuple[np.ndarray, np.ndarray, int]:
        """Filter-and-refine k-NN query against the current contents.

        Returns ``(indices, exact_distances, distance_computations)``.

        The refine step runs through the shared
        :class:`~repro.retrieval.engine.RefineStage` /
        :class:`~repro.retrieval.engine.MergeStage`, so exact-distance ties
        are resolved by the smallest database index — identical to a
        brute-force scan and to every other retriever.  (An earlier
        implementation re-sorted by *filter order* among tied exact
        distances, which could disagree with brute force when the embedding
        ranked tied objects differently.)
        """
        n = len(self.objects)
        if n == 0:
            raise RetrievalError("the dynamic database is empty")
        if not 1 <= k <= n:
            raise RetrievalError(f"k must be in [1, {n}], got {k}")
        if not k <= p <= n:
            raise RetrievalError(f"p must be in [{k}, {n}], got {p}")
        query_vector = self.model.embed(obj)
        filter_dists = self.model.distances_to(query_vector, self.vectors)
        candidates = stable_smallest(filter_dists, p)
        plan = QueryPlan(objects=[obj], k=k, p=p)
        plan.k_eff, plan.p_eff = int(k), int(p)
        plan.embedding_cost = self.model.cost
        plan.candidate_lists = [candidates]
        plan = self._merge.run(self._refine.run(plan))
        result = plan.results[0]
        return (
            result.neighbor_indices,
            result.neighbor_distances,
            result.total_distance_computations,
        )


@dataclass
class DriftMonitor:
    """Detect distribution drift by re-measuring the triple error (Sec. 7.1).

    Parameters
    ----------
    distance:
        The exact distance measure.
    model:
        The embedding model being monitored.
    baseline_error:
        The triple error measured right after training (or on the original
        distribution).
    tolerance:
        Allowed absolute increase of the triple error before
        :meth:`has_drifted` reports drift.
    """

    distance: DistanceMeasure
    model: QuerySensitiveModel
    baseline_error: float
    tolerance: float = 0.05

    def measure_error(
        self,
        objects: Sequence[Any],
        n_triples: int = 500,
        sampler: str = "selective",
        k1: int = 3,
        seed: RngLike = 0,
    ) -> float:
        """Triple classification error of the model on fresh objects.

        Triples are drawn from ``objects`` with the same samplers used during
        training; the exact pairwise distances over the (small) sample are the
        only expensive computations involved.
        """
        objects = list(objects)
        if len(objects) < 3:
            raise RetrievalError("need at least three objects to form triples")
        matrix = pairwise_distances(self.distance, objects)
        triple_sampler = make_sampler(sampler, k1=k1, seed=seed)
        triples = triple_sampler.sample(matrix, n_triples)
        vectors = self.model.embed_many(objects)
        return self.model.triple_error(
            vectors[triples.q], vectors[triples.a], vectors[triples.b], triples.labels
        )

    def has_drifted(
        self,
        objects: Sequence[Any],
        n_triples: int = 500,
        seed: RngLike = 0,
    ) -> bool:
        """Whether the measured error exceeds ``baseline_error + tolerance``."""
        error = self.measure_error(objects, n_triples=n_triples, seed=seed)
        return error > self.baseline_error + self.tolerance
