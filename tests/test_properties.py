"""Property-based tests (hypothesis) for the core invariants of the library.

These tests check structural properties that must hold for *any* input, not
just the hand-picked examples of the unit tests: metric axioms of the vector
distances, the Lipschitz property of reference embeddings, conservation laws
of the boosting weights, the equivalence of the classifier and embedding
views of a model (Proposition 1), the consistency of the evaluation
protocol, and filter scores that do not depend on the table layout.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.adaboost import initialize_weights, update_weights
from repro.core.model import ClassifierTerm, CoordinateSpec, QuerySensitiveModel
from repro.core.splitters import GLOBAL_INTERVAL, Interval
from repro.core.weak_classifiers import classifier_margins, optimize_alpha
from repro.distances import (
    ConstrainedDTW,
    EditDistance,
    JensenShannonDistance,
    L1Distance,
    L2Distance,
)
from repro.embeddings import PivotEmbedding, ReferenceEmbedding

# --------------------------------------------------------------------------- #
# Strategies                                                                  #
# --------------------------------------------------------------------------- #

finite_floats = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def vectors(dim: int = 4):
    return arrays(dtype=float, shape=dim, elements=finite_floats)


small_series = arrays(
    dtype=float,
    shape=st.tuples(st.integers(4, 12), st.just(1)),
    elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
)

probability_vectors = arrays(
    dtype=float, shape=5, elements=st.floats(min_value=0.01, max_value=1.0)
)

dna_strings = st.text(alphabet="ACGT", min_size=0, max_size=12)


# --------------------------------------------------------------------------- #
# Distance axioms                                                             #
# --------------------------------------------------------------------------- #


class TestMetricAxioms:
    @given(x=vectors(), y=vectors())
    def test_l1_symmetry_and_nonnegativity(self, x, y):
        d = L1Distance()
        assert d(x, y) >= 0
        assert d(x, y) == pytest.approx(d(y, x))
        assert d(x, x) == 0

    @given(x=vectors(), y=vectors(), z=vectors())
    def test_l2_triangle_inequality(self, x, y, z):
        d = L2Distance()
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-9

    @given(a=dna_strings, b=dna_strings, c=dna_strings)
    @settings(max_examples=40, deadline=None)
    def test_edit_distance_triangle_inequality(self, a, b, c):
        d = EditDistance()
        assert d(a, c) <= d(a, b) + d(b, c)

    @given(a=dna_strings, b=dna_strings)
    @settings(max_examples=40, deadline=None)
    def test_edit_distance_bounded_by_longer_string(self, a, b):
        assert EditDistance()(a, b) <= max(len(a), len(b))

    @given(p=probability_vectors, q=probability_vectors, r=probability_vectors)
    @settings(max_examples=40, deadline=None)
    def test_jensen_shannon_triangle_inequality(self, p, q, r):
        d = JensenShannonDistance()
        assert d(p, r) <= d(p, q) + d(q, r) + 1e-9

    @given(x=small_series, y=small_series)
    @settings(max_examples=30, deadline=None)
    def test_dtw_symmetry_and_identity(self, x, y):
        d = ConstrainedDTW(band_fraction=0.3)
        assert d(x, x) == pytest.approx(0.0, abs=1e-9)
        assert d(x, y) == pytest.approx(d(y, x), rel=1e-9, abs=1e-9)
        assert d(x, y) >= 0


# --------------------------------------------------------------------------- #
# Embedding properties                                                        #
# --------------------------------------------------------------------------- #


class TestEmbeddingProperties:
    @given(x=vectors(3), y=vectors(3), r=vectors(3))
    def test_reference_embedding_is_contractive_for_metrics(self, x, y, r):
        """|F^r(x) - F^r(y)| <= D(x, y) — the Lipschitz property."""
        d = L2Distance()
        emb = ReferenceEmbedding(d, r)
        assert abs(emb.value(x) - emb.value(y)) <= d(x, y) + 1e-9

    @given(x=vectors(3), p1=vectors(3), p2=vectors(3))
    def test_pivot_embedding_projection_bounded_in_euclidean_space(self, x, p1, p2):
        """In Euclidean space the pivot projection differs from each endpoint
        distance by at most the interpivot distance (a coarse but universal bound)."""
        d = L2Distance()
        assume(d(p1, p2) > 1e-3)
        emb = PivotEmbedding(d, p1, p2)
        value = emb.value(x)
        # The exact Euclidean projection lies within [−|x−p1|, |x−p1|+|p1p2|].
        assert value <= d(x, p1) + 1e-6
        assert value >= -d(x, p2) - 1e-6

    @given(q=finite_floats, a=finite_floats, b=finite_floats)
    def test_1d_classifier_sign_matches_proximity(self, q, a, b):
        """For a 1D embedding, F~(q,a,b) > 0 iff |q-a| < |q-b| (up to ties)."""
        margin = classifier_margins(np.array([q]), np.array([a]), np.array([b]))[0]
        if abs(q - a) < abs(q - b):
            assert margin > 0
        elif abs(q - a) > abs(q - b):
            assert margin < 0
        else:
            assert margin == pytest.approx(0.0)


# --------------------------------------------------------------------------- #
# Splitters and boosting                                                      #
# --------------------------------------------------------------------------- #


class TestSplitterProperties:
    @given(
        low=finite_floats,
        high=finite_floats,
        values=arrays(dtype=float, shape=10, elements=finite_floats),
    )
    def test_interval_membership_consistent(self, low, high, values):
        assume(low <= high)
        interval = Interval(low=low, high=high)
        mask = interval.contains(values)
        for value, inside in zip(values, mask):
            assert inside == (low <= value <= high)

    @given(values=arrays(dtype=float, shape=8, elements=finite_floats))
    def test_global_interval_accepts_everything(self, values):
        assert np.all(GLOBAL_INTERVAL.contains(values))


class TestBoostingProperties:
    @given(
        margins=arrays(dtype=float, shape=20, elements=st.floats(-1, 1, allow_nan=False)),
        label_bits=arrays(dtype=bool, shape=20),
        alpha=st.floats(min_value=0.01, max_value=3.0),
    )
    def test_weight_update_preserves_normalisation(self, margins, label_bits, alpha):
        labels = np.where(label_bits, 1.0, -1.0)
        weights = initialize_weights(20)
        updated = update_weights(weights, margins, labels, alpha)
        assert updated.sum() == pytest.approx(1.0)
        assert np.all(updated >= 0)

    @given(
        margins=arrays(dtype=float, shape=30, elements=st.floats(-1, 1, allow_nan=False)),
        label_bits=arrays(dtype=bool, shape=30),
    )
    @settings(max_examples=50, deadline=None)
    def test_optimal_alpha_never_increases_z_above_one(self, margins, label_bits):
        """The selected (alpha, Z) always satisfies Z <= 1: boosting never
        accepts a classifier that would make training error worse."""
        labels = np.where(label_bits, 1.0, -1.0)
        weights = initialize_weights(30)
        for mode in ("confidence", "discrete"):
            alpha, z = optimize_alpha(margins, labels, weights, mode=mode)
            assert z <= 1.0 + 1e-9
            assert alpha >= 0.0


# --------------------------------------------------------------------------- #
# Proposition 1: classifier view == embedding + D_out view                    #
# --------------------------------------------------------------------------- #


@st.composite
def random_models(draw):
    """Random small query-sensitive models over R^2 reference embeddings."""
    l2 = L2Distance()
    n_coords = draw(st.integers(1, 3))
    references = [
        np.array([draw(st.floats(-5, 5, allow_nan=False)),
                  draw(st.floats(-5, 5, allow_nan=False))])
        for _ in range(n_coords)
    ]
    coordinates = [
        ReferenceEmbedding(l2, r, reference_id=i) for i, r in enumerate(references)
    ]
    specs = [CoordinateSpec("reference", (i,)) for i in range(n_coords)]
    n_terms = draw(st.integers(1, 4))
    terms = []
    for _ in range(n_terms):
        coord = draw(st.integers(0, n_coords - 1))
        if draw(st.booleans()):
            interval = GLOBAL_INTERVAL
        else:
            low = draw(st.floats(0, 5, allow_nan=False))
            width = draw(st.floats(0.1, 5, allow_nan=False))
            interval = Interval(low=low, high=low + width)
        alpha = draw(st.floats(0.05, 2.0, allow_nan=False))
        terms.append(ClassifierTerm(coordinate=coord, interval=interval, alpha=alpha))
    return QuerySensitiveModel(coordinates, specs, terms, query_sensitive=True)


class TestProposition1Property:
    @given(
        model=random_models(),
        q=vectors(2),
        a=vectors(2),
        b=vectors(2),
    )
    @settings(max_examples=60, deadline=None)
    def test_classifier_equals_distance_difference(self, model, q, a, b):
        """H(q,a,b) computed from the terms equals D_out(q,b) - D_out(q,a),
        whenever the query activates at least one splitter (the documented
        fallback case is excluded)."""
        q_vec, a_vec, b_vec = model.embed(q), model.embed(a), model.embed(b)
        active_terms = [
            t for t in model.terms if t.interval.contains(q_vec[t.coordinate])
        ]
        assume(active_terms)
        explicit = sum(
            t.alpha
            * (
                abs(q_vec[t.coordinate] - b_vec[t.coordinate])
                - abs(q_vec[t.coordinate] - a_vec[t.coordinate])
            )
            for t in active_terms
        )
        assert model.classify_vectors(q_vec, a_vec, b_vec) == pytest.approx(
            explicit, rel=1e-9, abs=1e-9
        )

    @given(model=random_models(), q=vectors(2), x=vectors(2))
    @settings(max_examples=60, deadline=None)
    def test_dout_nonnegative_and_zero_on_self(self, model, q, x):
        q_vec, x_vec = model.embed(q), model.embed(x)
        assert model.distance(q_vec, x_vec) >= 0.0
        assert model.distance(q_vec, q_vec) == pytest.approx(0.0)

    @given(model=random_models(), q=vectors(2))
    @settings(max_examples=40, deadline=None)
    def test_weights_nonnegative(self, model, q):
        weights = model.weights(model.embed(q))
        assert np.all(weights >= 0)
        assert weights.shape == (model.dim,)


# --------------------------------------------------------------------------- #
# Filter scores do not depend on the table layout                             #
# --------------------------------------------------------------------------- #


@st.composite
def weighted_tables(draw):
    """A model with random per-coordinate weights, an embedded table whose
    last row duplicates row 0, a query vector and a row subset."""
    n = draw(st.integers(1, 200))
    d = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    l2 = L2Distance()
    coordinates = [
        ReferenceEmbedding(l2, np.zeros(1), reference_id=i) for i in range(d)
    ]
    specs = [CoordinateSpec("reference", (i,)) for i in range(d)]
    weighted = np.flatnonzero(rng.random(d) < 0.8)
    terms = [
        ClassifierTerm(
            coordinate=int(i),
            interval=GLOBAL_INTERVAL,
            alpha=float(rng.uniform(0.05, 2.0)),
        )
        for i in (weighted if weighted.size else [0])
    ]
    model = QuerySensitiveModel(coordinates, specs, terms, query_sensitive=True)
    rows = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0, size=d)
    table = np.vstack([rows, rows[:1]])
    query = rng.normal(size=d) * 10.0
    size = int(rng.integers(1, table.shape[0] + 1))
    subset = np.sort(rng.choice(table.shape[0], size=size, replace=False))
    return model, table, query, subset


class TestLayoutIndependentFilterScores:
    @given(case=weighted_tables())
    @settings(max_examples=60, deadline=None)
    def test_scores_bit_equal_across_layouts(self, case):
        """Flat and subset scores are bit-equal score for score, and a
        duplicate of row 0 placed last scores exactly like row 0."""
        from repro.retrieval import FilterStage

        model, table, query, subset = case
        flat = FilterStage(model, table).distances(query)
        assert flat[-1] == flat[0]

        rescored = FilterStage(model, table[subset]).distances(query)
        assert np.array_equal(rescored, flat[subset])


# --------------------------------------------------------------------------- #
# Evaluation protocol                                                         #
# --------------------------------------------------------------------------- #


class TestEvaluationProperties:
    @given(
        ranks=arrays(
            dtype=int,
            shape=st.tuples(st.integers(2, 12), st.integers(1, 5)),
            elements=st.integers(1, 50),
        ),
        accuracy=st.floats(0.1, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_cost_for_accuracy_meets_target(self, ranks, accuracy):
        """The chosen p really does give at least the requested accuracy."""
        from repro.retrieval.evaluation import (
            FilterRankResult,
            cost_for_accuracy,
            success_rate,
        )

        result = FilterRankResult(rank_matrix=ranks, embedding_cost=3, dim=4)
        k = ranks.shape[1]
        point = cost_for_accuracy(result, k, accuracy, database_size=1000)
        assert success_rate(result, k, point.p) >= accuracy - 1e-12
        assert point.cost == min(3 + point.p, 1000)
