"""The trained output: embedding ``F_out`` plus query-sensitive distance ``D_out``.

Sec. 5.4 of the paper defines the training output as a classifier
``H = Σ_j α_j Q̃_{F'_j, V_j}`` and shows (Proposition 1) that it is exactly
equivalent to

* the embedding ``F_out(x) = (F_1(x), ..., F_d(x))`` over the *unique* 1D
  embeddings appearing in ``H``, together with
* the query-sensitive distance
  ``D_out(F_out(q), F_out(x)) = Σ_i A_i(q) |F_i(q) − F_i(x)|`` where
  ``A_i(q) = Σ_{j : F'_j = F_i, F_i(q) ∈ V_j} α_j`` (Eq. 10–11).

:class:`QuerySensitiveModel` stores the unique coordinates and the weighted,
interval-gated terms, and exposes both views: the triple classifier (used by
Proposition-1 tests and by drift monitoring) and the embedding + distance
(used by filter-and-refine retrieval).  A model whose every interval is the
global interval is exactly an original-BoostMap (query-insensitive) model,
and :meth:`weights` then returns the same vector for every query.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.splitters import GLOBAL_INTERVAL, Interval
from repro.distances.base import DistanceMeasure
from repro.embeddings.base import OneDimensionalEmbedding
from repro.embeddings.composite import CompositeEmbedding
from repro.embeddings.pivot import PivotEmbedding
from repro.embeddings.reference import ReferenceEmbedding
from repro.exceptions import SerializationError, TrainingError


@dataclass(frozen=True)
class CoordinateSpec:
    """Serializable description of one output coordinate (a 1D embedding).

    Attributes
    ----------
    kind:
        ``"reference"`` or ``"pivot"``.
    candidate_indices:
        Indices into the candidate-object set ``C``: one index for a
        reference embedding, two for a pivot embedding.
    """

    kind: str
    candidate_indices: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("reference", "pivot"):
            raise TrainingError(f"unknown coordinate kind {self.kind!r}")
        expected = 1 if self.kind == "reference" else 2
        if len(self.candidate_indices) != expected:
            raise TrainingError(
                f"{self.kind} coordinates need {expected} candidate indices, "
                f"got {len(self.candidate_indices)}"
            )

    @property
    def key(self) -> Tuple:
        """Hashable identity used to detect duplicate 1D embeddings."""
        return (self.kind,) + tuple(self.candidate_indices)


@dataclass(frozen=True)
class ClassifierTerm:
    """One weighted weak classifier ``α_j · Q̃_{F'_j, V_j}`` of the ensemble."""

    coordinate: int
    interval: Interval
    alpha: float

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise TrainingError("classifier terms must have positive alpha")
        if self.coordinate < 0:
            raise TrainingError("coordinate index must be non-negative")


class QuerySensitiveModel:
    """Embedding + query-sensitive distance produced by the trainer.

    Parameters
    ----------
    coordinates:
        The unique 1D embeddings ``F_1 ... F_d`` (actual callable embeddings
        holding real objects).
    coordinate_specs:
        Parallel serializable descriptions of the coordinates.
    terms:
        The weighted, interval-gated weak classifiers making up ``H``.
    query_sensitive:
        Whether the model was trained with splitters.  Query-insensitive
        models have only global intervals; the flag is kept for reporting.
    """

    def __init__(
        self,
        coordinates: Sequence[OneDimensionalEmbedding],
        coordinate_specs: Sequence[CoordinateSpec],
        terms: Sequence[ClassifierTerm],
        query_sensitive: bool = True,
    ) -> None:
        coordinates = list(coordinates)
        coordinate_specs = list(coordinate_specs)
        terms = list(terms)
        if not coordinates:
            raise TrainingError("a model needs at least one coordinate")
        if len(coordinates) != len(coordinate_specs):
            raise TrainingError("coordinates and coordinate_specs must align")
        if not terms:
            raise TrainingError("a model needs at least one classifier term")
        for term in terms:
            if term.coordinate >= len(coordinates):
                raise TrainingError(
                    f"term references coordinate {term.coordinate} but the model "
                    f"has only {len(coordinates)} coordinates"
                )
        self.coordinates = coordinates
        self.coordinate_specs = coordinate_specs
        self.terms = terms
        self.query_sensitive = bool(query_sensitive)
        self._composite = CompositeEmbedding(coordinates)
        # The terms as arrays, so weights() tests every interval at once.
        self._term_coordinates = np.array([t.coordinate for t in terms], dtype=np.intp)
        self._term_low = np.array([t.interval.low for t in terms], dtype=float)
        self._term_high = np.array([t.interval.high for t in terms], dtype=float)
        self._term_alpha = np.array([t.alpha for t in terms], dtype=float)

    # ------------------------------------------------------------------ #
    # Embedding view                                                     #
    # ------------------------------------------------------------------ #

    @property
    def dim(self) -> int:
        """Dimensionality ``d`` of the output embedding."""
        return len(self.coordinates)

    @property
    def embedding(self) -> CompositeEmbedding:
        """The embedding ``F_out`` as a :class:`CompositeEmbedding`."""
        return self._composite

    @property
    def cost(self) -> int:
        """Exact distance computations needed to embed one new object."""
        return self._composite.cost

    def embed(self, obj: Any) -> np.ndarray:
        """Embed a single object of the original space."""
        return self._composite.embed(obj)

    def embed_many(self, objects) -> np.ndarray:
        """Embed an iterable of objects into an ``(n, d)`` matrix."""
        return self._composite.embed_many(objects)

    # ------------------------------------------------------------------ #
    # Query-sensitive distance view                                      #
    # ------------------------------------------------------------------ #

    def weights(self, query_vector: np.ndarray) -> np.ndarray:
        """The per-coordinate weights ``A_i(q)`` of Eq. 10.

        ``query_vector`` must be the embedding ``F_out(q)`` of the query.
        A query that falls outside every splitter interval would get an
        all-zero weight vector, which makes every database object equidistant;
        for such (out-of-distribution) queries the model falls back to the
        query-insensitive weights :meth:`global_weights`, so retrieval
        degrades gracefully to original-BoostMap behaviour instead of
        becoming random.
        """
        q = np.asarray(query_vector, dtype=float)
        if q.shape != (self.dim,):
            raise TrainingError(
                f"query_vector must have shape ({self.dim},), got {q.shape}"
            )
        values = q[self._term_coordinates]
        active = (values >= self._term_low) & (values <= self._term_high)
        weights = np.zeros(self.dim, dtype=float)
        # add.at accumulates repeated coordinates in term order, so every
        # sum is the one a loop over the terms would form.
        np.add.at(weights, self._term_coordinates[active], self._term_alpha[active])
        if not weights.any():
            return self.global_weights()
        return weights

    def weight_matrix(self, query_vectors: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`weights` for a ``(n, d)`` matrix of queries."""
        matrix = np.atleast_2d(np.asarray(query_vectors, dtype=float))
        if matrix.shape[1] != self.dim:
            raise TrainingError(
                f"query_vectors must have {self.dim} columns, got {matrix.shape[1]}"
            )
        weights = np.zeros_like(matrix)
        for term in self.terms:
            column = matrix[:, term.coordinate]
            mask = term.interval.contains(column)
            weights[mask, term.coordinate] += term.alpha
        inactive = ~weights.any(axis=1)
        if inactive.any():
            weights[inactive] = self.global_weights()
        return weights

    def distance(self, query_vector: np.ndarray, other_vector: np.ndarray) -> float:
        """``D_out`` between a query vector and one database vector (Eq. 11)."""
        q = np.asarray(query_vector, dtype=float)
        x = np.asarray(other_vector, dtype=float)
        if q.shape != x.shape:
            raise TrainingError("query and database vectors must have equal shape")
        return float(self.distances_to(q, x[None, :])[0])

    def distances_to(self, query_vector: np.ndarray, database_vectors: np.ndarray) -> np.ndarray:
        """``D_out`` from one query vector to every row of ``database_vectors``.

        Each row is reduced on its own, in a fixed order, so a row's score
        does not depend on how many rows one call scores: a subset or a
        duplicated row scores bit-identically to the full table.  (A
        BLAS ``.dot`` sums rows in an order that depends on the row count.)
        """
        q = np.asarray(query_vector, dtype=float)
        matrix = np.atleast_2d(np.asarray(database_vectors, dtype=float))
        if matrix.shape[1] != q.shape[0]:
            raise TrainingError(
                f"database vectors have {matrix.shape[1]} columns, expected {q.shape[0]}"
            )
        # C order keeps each row contiguous, so einsum reduces every row
        # with the same loop whatever the caller's memory layout.
        diff = np.abs(np.subtract(matrix, q[None, :], order="C"))
        return np.einsum("ij,j->i", diff, self.weights(q))

    # ------------------------------------------------------------------ #
    # Classifier view (Proposition 1)                                    #
    # ------------------------------------------------------------------ #

    def classify_vectors(
        self, query_vector: np.ndarray, a_vector: np.ndarray, b_vector: np.ndarray
    ) -> float:
        """``H(q, a, b)`` computed as ``D_out(q, b) − D_out(q, a)``.

        Positive values predict that ``q`` is closer to ``a``.  By
        Proposition 1 this equals the boosted-classifier output, a fact the
        test suite verifies directly.
        """
        return self.distance(query_vector, b_vector) - self.distance(
            query_vector, a_vector
        )

    def classify_objects(self, query: Any, a: Any, b: Any) -> float:
        """``H(q, a, b)`` for raw objects (embeds all three first)."""
        return self.classify_vectors(self.embed(query), self.embed(a), self.embed(b))

    def classifier_margins(
        self,
        query_vectors: np.ndarray,
        a_vectors: np.ndarray,
        b_vectors: np.ndarray,
    ) -> np.ndarray:
        """Vectorised ``H`` outputs for batches of embedded triples."""
        q = np.atleast_2d(np.asarray(query_vectors, dtype=float))
        a = np.atleast_2d(np.asarray(a_vectors, dtype=float))
        b = np.atleast_2d(np.asarray(b_vectors, dtype=float))
        if not (q.shape == a.shape == b.shape):
            raise TrainingError("triple vector batches must have identical shapes")
        weights = self.weight_matrix(q)
        margin_b = np.abs(q - b) * weights
        margin_a = np.abs(q - a) * weights
        return (margin_b - margin_a).sum(axis=1)

    def triple_error(
        self,
        query_vectors: np.ndarray,
        a_vectors: np.ndarray,
        b_vectors: np.ndarray,
        labels: np.ndarray,
    ) -> float:
        """Fraction of triples misclassified by the model (ties count half)."""
        margins = self.classifier_margins(query_vectors, a_vectors, b_vectors)
        labels = np.asarray(labels, dtype=float)
        if labels.shape != margins.shape:
            raise TrainingError("labels must match the number of triples")
        signs = np.sign(margins)
        wrong = float(np.mean(signs * labels < 0))
        ties = float(np.mean(signs == 0))
        return wrong + 0.5 * ties

    # ------------------------------------------------------------------ #
    # Model surgery and reporting                                        #
    # ------------------------------------------------------------------ #

    def truncate(self, n_coordinates: int) -> "QuerySensitiveModel":
        """A model restricted to the first ``n_coordinates`` coordinates.

        Coordinates are kept in the order boosting first selected them, so a
        truncated model corresponds to stopping training earlier — this is
        how the evaluation protocol sweeps dimensionality without retraining.
        """
        if not 1 <= n_coordinates <= self.dim:
            raise TrainingError(
                f"n_coordinates must be in [1, {self.dim}], got {n_coordinates}"
            )
        kept_terms = [t for t in self.terms if t.coordinate < n_coordinates]
        if not kept_terms:
            raise TrainingError("truncation removed every classifier term")
        return QuerySensitiveModel(
            coordinates=self.coordinates[:n_coordinates],
            coordinate_specs=self.coordinate_specs[:n_coordinates],
            terms=kept_terms,
            query_sensitive=self.query_sensitive,
        )

    def global_weights(self) -> np.ndarray:
        """Total α mass per coordinate, ignoring splitters.

        For a query-insensitive model this equals :meth:`weights` for any
        query; for a query-sensitive model it is an upper bound.
        """
        weights = np.zeros(self.dim, dtype=float)
        for term in self.terms:
            weights[term.coordinate] += term.alpha
        return weights

    def summary(self) -> str:
        """Multi-line human-readable description of the model."""
        kind = "query-sensitive" if self.query_sensitive else "query-insensitive"
        lines = [
            f"QuerySensitiveModel ({kind})",
            f"  dimensions: {self.dim}",
            f"  classifier terms: {len(self.terms)}",
            f"  embedding cost per object: {self.cost} exact distances",
        ]
        totals = self.global_weights()
        for i, (spec, total) in enumerate(zip(self.coordinate_specs, totals)):
            n_terms = sum(1 for t in self.terms if t.coordinate == i)
            lines.append(
                f"  [{i}] {spec.kind}{spec.candidate_indices} "
                f"terms={n_terms} total_alpha={total:.4f}"
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Serialization                                                      #
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """Serializable description (references candidate objects by index)."""
        return {
            "query_sensitive": self.query_sensitive,
            "coordinates": [
                {"kind": spec.kind, "candidate_indices": list(spec.candidate_indices)}
                for spec in self.coordinate_specs
            ],
            "terms": [
                {
                    "coordinate": term.coordinate,
                    "low": float(term.interval.low),
                    "high": float(term.interval.high),
                    "alpha": float(term.alpha),
                }
                for term in self.terms
            ],
        }

    @staticmethod
    def from_dict(
        payload: Dict[str, Any],
        distance: DistanceMeasure,
        candidate_objects: Sequence[Any],
        candidate_distances: Optional[np.ndarray] = None,
    ) -> "QuerySensitiveModel":
        """Rebuild a model from :meth:`to_dict` output.

        Parameters
        ----------
        payload:
            The dictionary produced by :meth:`to_dict`.
        distance:
            The underlying distance measure.
        candidate_objects:
            The candidate set ``C`` used at training time, in the same order.
        candidate_distances:
            Optional ``|C| x |C|`` matrix of pairwise candidate distances;
            if given, pivot coordinates avoid re-evaluating the expensive
            measure between their pivots.
        """
        try:
            coord_payload = payload["coordinates"]
            term_payload = payload["terms"]
            query_sensitive = bool(payload["query_sensitive"])
        except KeyError as exc:
            raise SerializationError(f"missing model field: {exc}") from exc

        coordinates: List[OneDimensionalEmbedding] = []
        specs: List[CoordinateSpec] = []
        for entry in coord_payload:
            spec = CoordinateSpec(
                kind=entry["kind"],
                candidate_indices=tuple(int(i) for i in entry["candidate_indices"]),
            )
            specs.append(spec)
            coordinates.append(
                build_coordinate(spec, distance, candidate_objects, candidate_distances)
            )
        terms = [
            ClassifierTerm(
                coordinate=int(entry["coordinate"]),
                interval=Interval(low=float(entry["low"]), high=float(entry["high"])),
                alpha=float(entry["alpha"]),
            )
            for entry in term_payload
        ]
        return QuerySensitiveModel(coordinates, specs, terms, query_sensitive)


def build_coordinate(
    spec: CoordinateSpec,
    distance: DistanceMeasure,
    candidate_objects: Sequence[Any],
    candidate_distances: Optional[np.ndarray] = None,
) -> OneDimensionalEmbedding:
    """Instantiate the 1D embedding described by a :class:`CoordinateSpec`."""
    indices = spec.candidate_indices
    for idx in indices:
        if not 0 <= idx < len(candidate_objects):
            raise SerializationError(
                f"coordinate references candidate {idx} but only "
                f"{len(candidate_objects)} candidates are available"
            )
    if spec.kind == "reference":
        return ReferenceEmbedding(
            distance, candidate_objects[indices[0]], reference_id=indices[0]
        )
    interpivot = None
    if candidate_distances is not None:
        interpivot = float(candidate_distances[indices[0], indices[1]])
    return PivotEmbedding(
        distance,
        candidate_objects[indices[0]],
        candidate_objects[indices[1]],
        interpivot_distance=interpivot,
        pivot_ids=indices,
    )
