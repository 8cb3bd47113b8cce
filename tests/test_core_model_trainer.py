"""Tests for the trained model (F_out, A_i(q), D_out) and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import BoostMapTrainer, QuerySensitiveModel, TrainingConfig
from repro.core.model import ClassifierTerm, CoordinateSpec, build_coordinate
from repro.core.splitters import GLOBAL_INTERVAL, Interval
from repro.core.trainer import build_training_tables
from repro.distances import L2Distance
from repro.embeddings import ReferenceEmbedding
from repro.exceptions import (
    ConfigurationError,
    SerializationError,
    TrainingError,
)


# --------------------------------------------------------------------------- #
# Hand-built models                                                           #
# --------------------------------------------------------------------------- #


def _hand_built_model(query_sensitive: bool = True) -> QuerySensitiveModel:
    """A small model over R^2 with two reference coordinates."""
    l2 = L2Distance()
    refs = [np.array([0.0, 0.0]), np.array([4.0, 0.0])]
    coordinates = [ReferenceEmbedding(l2, r, reference_id=i) for i, r in enumerate(refs)]
    specs = [CoordinateSpec("reference", (i,)) for i in range(2)]
    if query_sensitive:
        terms = [
            ClassifierTerm(coordinate=0, interval=Interval(0.0, 2.0), alpha=1.0),
            ClassifierTerm(coordinate=1, interval=Interval(0.0, 2.0), alpha=0.5),
            ClassifierTerm(coordinate=0, interval=GLOBAL_INTERVAL, alpha=0.25),
        ]
    else:
        terms = [
            ClassifierTerm(coordinate=0, interval=GLOBAL_INTERVAL, alpha=1.0),
            ClassifierTerm(coordinate=1, interval=GLOBAL_INTERVAL, alpha=0.5),
        ]
    return QuerySensitiveModel(coordinates, specs, terms, query_sensitive=query_sensitive)


class TestModelBasics:
    def test_dim_and_cost(self):
        model = _hand_built_model()
        assert model.dim == 2
        assert model.cost == 2

    def test_embed_matches_reference_distances(self):
        model = _hand_built_model()
        vec = model.embed(np.array([3.0, 0.0]))
        assert vec[0] == pytest.approx(3.0)
        assert vec[1] == pytest.approx(1.0)

    def test_weights_follow_eq_10(self):
        model = _hand_built_model()
        # Query at (1, 0): F = (1, 3).  Coordinate 0 gets alpha 1.0 (interval
        # [0,2] contains 1) + 0.25 (global); coordinate 1 gets nothing
        # (3 outside [0,2]).
        weights = model.weights(model.embed(np.array([1.0, 0.0])))
        assert weights[0] == pytest.approx(1.25)
        assert weights[1] == pytest.approx(0.0)

    def test_weights_fall_back_to_global_when_nothing_fires(self):
        l2 = L2Distance()
        coordinates = [ReferenceEmbedding(l2, np.zeros(2), reference_id=0)]
        specs = [CoordinateSpec("reference", (0,))]
        terms = [ClassifierTerm(0, Interval(0.0, 1.0), alpha=0.7)]
        model = QuerySensitiveModel(coordinates, specs, terms)
        far_query_vec = model.embed(np.array([50.0, 0.0]))  # F = 50, outside [0,1]
        weights = model.weights(far_query_vec)
        assert weights[0] == pytest.approx(0.7)  # global fallback

    def test_weights_match_the_term_loop(self, rng):
        """The vectorised interval test sums alphas exactly as the per-term
        loop of Eq. 10 does, bounds included."""
        l2 = L2Distance()
        dim = 4
        coordinates = [ReferenceEmbedding(l2, np.zeros(2), reference_id=i) for i in range(dim)]
        specs = [CoordinateSpec("reference", (i,)) for i in range(dim)]
        bounds = np.round(rng.uniform(-2.0, 2.0, size=(20, 2)), 1)
        terms = [
            ClassifierTerm(
                coordinate=int(rng.integers(dim)),
                interval=Interval(float(min(lo, hi)), float(max(lo, hi))),
                alpha=float(rng.uniform(0.01, 1.0)),
            )
            for lo, hi in bounds
        ] + [ClassifierTerm(2, Interval(-np.inf, -1.5), 0.3)]
        model = QuerySensitiveModel(coordinates, specs, terms)

        def loop(q):
            weights = np.zeros(dim)
            for term in terms:
                if term.interval.contains(q[term.coordinate]):
                    weights[term.coordinate] += term.alpha
            return weights if weights.any() else model.global_weights()

        on_bounds = [
            np.array([t.interval.low if k % 2 else t.interval.high] * dim)
            for k, t in enumerate(terms[:-1])
        ]
        vectors = list(rng.uniform(-2.5, 2.5, size=(200, dim))) + on_bounds
        vectors.append(np.full(dim, 50.0))  # no term active: global weights
        assert loop(vectors[-1]).tolist() == model.global_weights().tolist()
        for q in vectors:
            assert model.weights(q).tolist() == loop(q).tolist()

    def test_weight_matrix_matches_per_query_weights(self):
        model = _hand_built_model()
        queries = np.array([[1.0, 3.0], [0.5, 0.5], [10.0, 10.0]])
        matrix = model.weight_matrix(queries)
        for row, q in zip(matrix, queries):
            assert np.allclose(row, model.weights(q))

    def test_distance_is_weighted_l1(self):
        model = _hand_built_model(query_sensitive=False)
        q = np.array([1.0, 1.0])
        x = np.array([2.0, 3.0])
        assert model.distance(q, x) == pytest.approx(1.0 * 1 + 0.5 * 2)

    def test_distances_to_matches_scalar(self):
        model = _hand_built_model()
        q = model.embed(np.array([1.0, 0.0]))
        db = np.array([[0.0, 4.0], [2.0, 2.0], [5.0, 1.0]])
        batch = model.distances_to(q, db)
        assert np.array_equal(batch, [model.distance(q, row) for row in db])

    def test_global_weights_sum_alphas(self):
        model = _hand_built_model()
        assert np.allclose(model.global_weights(), [1.25, 0.5])

    def test_summary_mentions_dimensions(self):
        text = _hand_built_model().summary()
        assert "dimensions: 2" in text

    def test_validation_errors(self):
        l2 = L2Distance()
        coords = [ReferenceEmbedding(l2, np.zeros(2))]
        specs = [CoordinateSpec("reference", (0,))]
        good_terms = [ClassifierTerm(0, GLOBAL_INTERVAL, 1.0)]
        with pytest.raises(TrainingError):
            QuerySensitiveModel([], [], good_terms)
        with pytest.raises(TrainingError):
            QuerySensitiveModel(coords, specs, [])
        with pytest.raises(TrainingError):
            QuerySensitiveModel(coords, specs, [ClassifierTerm(3, GLOBAL_INTERVAL, 1.0)])
        with pytest.raises(TrainingError):
            ClassifierTerm(0, GLOBAL_INTERVAL, alpha=0.0)
        with pytest.raises(TrainingError):
            CoordinateSpec("reference", (0, 1))
        with pytest.raises(TrainingError):
            CoordinateSpec("mystery", (0,))


class TestProposition1:
    """The classifier view must equal the embedding + D_out view (Prop. 1)."""

    def test_hand_built_model_equivalence(self):
        model = _hand_built_model()
        rng = np.random.default_rng(0)
        for _ in range(50):
            q, a, b = rng.uniform(-1, 5, size=(3, 2))
            q_vec, a_vec, b_vec = model.embed(q), model.embed(a), model.embed(b)
            # Explicit H(q,a,b) = sum_j alpha_j * S_j(q) * (|F_j(q)-F_j(b)| - |F_j(q)-F_j(a)|)
            explicit = 0.0
            active = False
            for term in model.terms:
                if term.interval.contains(q_vec[term.coordinate]):
                    active = True
                    i = term.coordinate
                    explicit += term.alpha * (
                        abs(q_vec[i] - b_vec[i]) - abs(q_vec[i] - a_vec[i])
                    )
            if not active:
                continue  # the fallback path intentionally deviates from H
            assert model.classify_vectors(q_vec, a_vec, b_vec) == pytest.approx(explicit)

    def test_trained_model_equivalence_on_training_pool(self, trained_qs):
        model = trained_qs.model
        tables = trained_qs.tables
        triples = trained_qs.triples
        vectors = model.embed_many(tables.pool_objects)
        margins = model.classifier_margins(
            vectors[triples.q], vectors[triples.a], vectors[triples.b]
        )
        # Rebuild H explicitly from the terms.
        weights = model.weight_matrix(vectors[triples.q])
        explicit = (
            (np.abs(vectors[triples.q] - vectors[triples.b]) * weights).sum(axis=1)
            - (np.abs(vectors[triples.q] - vectors[triples.a]) * weights).sum(axis=1)
        )
        assert np.allclose(margins, explicit)


class TestModelSurgery:
    def test_truncate_keeps_leading_coordinates(self, trained_qs):
        model = trained_qs.model
        if model.dim < 2:
            pytest.skip("model too small to truncate")
        truncated = model.truncate(model.dim - 1)
        assert truncated.dim == model.dim - 1
        assert all(t.coordinate < truncated.dim for t in truncated.terms)

    def test_truncate_bounds(self, trained_qs):
        model = trained_qs.model
        with pytest.raises(TrainingError):
            model.truncate(0)
        with pytest.raises(TrainingError):
            model.truncate(model.dim + 1)

    def test_truncated_embedding_is_prefix_of_full(self, trained_qs, gaussian_split):
        model = trained_qs.model
        if model.dim < 2:
            pytest.skip("model too small to truncate")
        truncated = model.truncate(2)
        obj = gaussian_split.queries[0]
        assert np.allclose(model.embed(obj)[:2], truncated.embed(obj))

    def test_triple_error_in_unit_interval(self, trained_qs):
        model = trained_qs.model
        tables = trained_qs.tables
        triples = trained_qs.triples
        vectors = model.embed_many(tables.pool_objects)
        error = model.triple_error(
            vectors[triples.q], vectors[triples.a], vectors[triples.b], triples.labels
        )
        assert 0.0 <= error <= 1.0
        # The trained model should do far better than random guessing on its
        # own training triples.
        assert error < 0.25


class TestSerialization:
    def test_round_trip(self, trained_qs, gaussian_split, l2):
        model = trained_qs.model
        payload = model.to_dict()
        rebuilt = QuerySensitiveModel.from_dict(
            payload,
            l2,
            trained_qs.tables.candidate_objects,
            trained_qs.tables.candidate_to_candidate,
        )
        obj = gaussian_split.queries[1]
        assert np.allclose(model.embed(obj), rebuilt.embed(obj))
        vec = model.embed(obj)
        assert np.allclose(model.weights(vec), rebuilt.weights(vec))

    def test_missing_field_rejected(self, l2):
        with pytest.raises(SerializationError):
            QuerySensitiveModel.from_dict({"coordinates": []}, l2, [])

    def test_out_of_range_candidate_rejected(self, l2):
        spec = CoordinateSpec("reference", (5,))
        with pytest.raises(SerializationError):
            build_coordinate(spec, l2, [np.zeros(2)])


class TestTrainingTables:
    def test_shared_sample_reuses_matrix(self, gaussian_split, l2):
        tables = build_training_tables(
            l2, gaussian_split.database, n_candidates=20, n_training_objects=20, seed=0
        )
        assert np.array_equal(tables.candidate_indices, tables.pool_indices)
        assert np.array_equal(tables.candidate_to_candidate, tables.pool_to_pool)
        # Only C(20, 2) distinct distances were evaluated.
        assert tables.distance_evaluations == 20 * 19 // 2

    def test_distinct_sizes_build_all_matrices(self, gaussian_split, l2):
        tables = build_training_tables(
            l2, gaussian_split.database, n_candidates=10, n_training_objects=15, seed=0
        )
        assert tables.candidate_to_pool.shape == (10, 15)
        assert tables.pool_to_pool.shape == (15, 15)
        assert tables.candidate_to_candidate.shape == (10, 10)

    def test_oversized_requests_rejected(self, gaussian_split, l2):
        with pytest.raises(ConfigurationError):
            build_training_tables(
                l2, gaussian_split.database, n_candidates=10**6, n_training_objects=5
            )


class TestTrainingConfig:
    def test_method_tags(self):
        assert TrainingConfig(sampler="selective", query_sensitive=True).method_tag == "Se-QS"
        assert TrainingConfig(sampler="random", query_sensitive=False).method_tag == "Ra-QI"

    def test_with_overrides(self):
        config = TrainingConfig()
        other = config.with_overrides(n_rounds=5)
        assert other.n_rounds == 5
        assert config.n_rounds == 32  # the original is unchanged

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_candidates": 0},
            {"n_triples": -1},
            {"sampler": "bogus"},
            {"mode": "bogus"},
            {"pivot_fraction": 2.0},
            {"min_interval_fraction": -0.1},
            {"k1": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def test_training_produces_consistent_result(self, trained_qs, tiny_training_config):
        model = trained_qs.model
        assert 1 <= model.dim <= tiny_training_config.n_rounds
        assert len(trained_qs.rounds) == len(model.terms)
        assert trained_qs.final_training_error < 0.5
        # Error history is recorded per accepted round.
        assert len(trained_qs.training_error_history) == len(trained_qs.rounds)

    def test_query_insensitive_model_has_only_global_intervals(self, trained_qi):
        model = trained_qi.model
        assert model.query_sensitive is False
        assert all(term.interval.is_global for term in model.terms)

    def test_query_sensitive_model_uses_some_splitters(self, trained_qs):
        """At least one term should use a non-global interval."""
        assert any(not term.interval.is_global for term in trained_qs.model.terms)

    def test_shared_tables_are_reused(self, gaussian_split, l2, shared_tables):
        config = TrainingConfig(
            n_candidates=40,
            n_training_objects=40,
            n_triples=300,
            n_rounds=4,
            classifiers_per_round=10,
            seed=3,
        )
        result = BoostMapTrainer(
            l2, gaussian_split.database, config, tables=shared_tables
        ).train()
        assert result.tables is shared_tables

    def test_reproducible_given_seed(self, gaussian_split, l2):
        config = TrainingConfig(
            n_candidates=25,
            n_training_objects=25,
            n_triples=200,
            n_rounds=4,
            classifiers_per_round=10,
            seed=99,
        )
        a = BoostMapTrainer(l2, gaussian_split.database, config).train()
        b = BoostMapTrainer(l2, gaussian_split.database, config).train()
        assert a.model.to_dict() == b.model.to_dict()

    def test_k1_derived_from_kmax_when_missing(self, gaussian_split, l2):
        config = TrainingConfig(
            n_candidates=30,
            n_training_objects=30,
            n_triples=200,
            n_rounds=3,
            classifiers_per_round=10,
            sampler="selective",
            k1=None,
            kmax=10,
            seed=1,
        )
        trainer = BoostMapTrainer(l2, gaussian_split.database, config)
        assert trainer._resolve_k1(30) == max(
            1, round(10 * 30 / len(gaussian_split.database))
        )

    def test_invalid_inputs_rejected(self, gaussian_split, l2):
        with pytest.raises(TrainingError):
            BoostMapTrainer("not-a-distance", gaussian_split.database)
        with pytest.raises(TrainingError):
            BoostMapTrainer(l2, "not-a-dataset")

    def test_discrete_mode_trains(self, gaussian_split, l2):
        config = TrainingConfig(
            n_candidates=25,
            n_training_objects=25,
            n_triples=300,
            n_rounds=6,
            classifiers_per_round=15,
            mode="discrete",
            seed=4,
        )
        result = BoostMapTrainer(l2, gaussian_split.database, config).train()
        assert result.model.dim >= 1
        assert result.final_training_error < 0.5
