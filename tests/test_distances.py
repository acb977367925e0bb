"""Tests for the metric distance functions."""

import numpy as np
import pytest

from repro.metric import (
    ChebyshevDistance,
    CosineAngularDistance,
    EuclideanDistance,
    LevenshteinDistance,
    ManhattanDistance,
    MetricViolation,
    MinkowskiDistance,
    QuadraticFormDistance,
    WeightedEuclideanDistance,
    check_metric_axioms,
    get_distance,
)

VECTOR_METRICS = [
    EuclideanDistance(),
    WeightedEuclideanDistance(np.linspace(0.5, 2.0, 6)),
    ManhattanDistance(),
    ChebyshevDistance(),
    MinkowskiDistance(3),
    QuadraticFormDistance.color_histogram(6),
    CosineAngularDistance(),
]


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(3).random((40, 6)) + 0.1


class TestKnownValues:
    def test_euclidean(self):
        assert EuclideanDistance().one([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan(self):
        assert ManhattanDistance().one([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev(self):
        assert ChebyshevDistance().one([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_p1_equals_manhattan(self):
        a, b = [0.2, 0.7, 0.1], [0.9, 0.3, 0.4]
        assert MinkowskiDistance(1).one(a, b) == pytest.approx(
            ManhattanDistance().one(a, b)
        )

    def test_minkowski_p2_equals_euclidean(self):
        a, b = [0.2, 0.7, 0.1], [0.9, 0.3, 0.4]
        assert MinkowskiDistance(2).one(a, b) == pytest.approx(
            EuclideanDistance().one(a, b)
        )

    def test_minkowski_requires_p_at_least_one(self):
        with pytest.raises(ValueError):
            MinkowskiDistance(0.5)

    def test_weighted_euclidean_identity_weights(self):
        a, b = np.array([0.1, 0.9]), np.array([0.4, 0.5])
        weighted = WeightedEuclideanDistance([1.0, 1.0])
        assert weighted.one(a, b) == pytest.approx(EuclideanDistance().one(a, b))

    def test_weighted_euclidean_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedEuclideanDistance([1.0, -1.0])

    def test_quadratic_form_identity_matrix_is_euclidean(self):
        quadratic = QuadraticFormDistance(np.eye(4))
        a, b = np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.5, 0.1, 0.9, 0.2])
        assert quadratic.one(a, b) == pytest.approx(EuclideanDistance().one(a, b))

    def test_quadratic_form_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            QuadraticFormDistance(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_quadratic_form_rejects_indefinite(self):
        with pytest.raises(ValueError):
            QuadraticFormDistance(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_cosine_angular_orthogonal(self):
        angular = CosineAngularDistance()
        assert angular.one([1, 0], [0, 1]) == pytest.approx(np.pi / 2)

    def test_levenshtein_classic(self):
        lev = LevenshteinDistance()
        assert lev.one("kitten", "sitting") == 3.0
        assert lev.one("", "abc") == 3.0
        assert lev.one("abc", "abc") == 0.0


class TestBatchConsistency:
    @pytest.mark.parametrize("metric", VECTOR_METRICS, ids=lambda m: m.name)
    def test_many_matches_one(self, metric, points):
        q = points[0]
        batch = metric.many(points, q)
        singles = [metric.one(p, q) for p in points]
        assert np.allclose(batch, singles, atol=1e-12)

    def test_generic_many_fallback(self):
        lev = LevenshteinDistance()
        batch = lev.many(["abc", "abd", "xyz"], "abc")
        assert list(batch) == [0.0, 1.0, 3.0]


class TestMetricAxioms:
    @pytest.mark.parametrize("metric", VECTOR_METRICS, ids=lambda m: m.name)
    def test_vector_metrics_satisfy_axioms(self, metric, points):
        check_metric_axioms(metric, list(points), max_triples=150)

    def test_levenshtein_satisfies_axioms(self):
        rng = np.random.default_rng(5)
        words = [
            "".join(rng.choice(list("abcd"), size=rng.integers(1, 7)))
            for _ in range(25)
        ]
        check_metric_axioms(LevenshteinDistance(), words, max_triples=200)

    def test_violation_detected_for_non_metric(self):
        class Squared(EuclideanDistance):
            def one(self, a, b):
                return super().one(a, b) ** 2

        points = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        with pytest.raises(MetricViolation):
            check_metric_axioms(Squared(), points)

    def test_asymmetry_detected(self):
        class Lopsided(EuclideanDistance):
            def one(self, a, b):
                base = super().one(a, b)
                return base * 1.5 if a[0] > b[0] else base

        points = [np.array([0.0, 0.0]), np.array([1.0, 1.0])]
        with pytest.raises(MetricViolation):
            check_metric_axioms(Lopsided(), points)


class TestMbrMindist:
    @pytest.mark.parametrize(
        "metric",
        [m for m in VECTOR_METRICS if m.supports_mbr()],
        ids=lambda m: m.name,
    )
    def test_mindist_is_lower_bound(self, metric, points):
        rng = np.random.default_rng(11)
        box_points = points[:15]
        lo, hi = box_points.min(axis=0), box_points.max(axis=0)
        for _ in range(20):
            q = rng.random(points.shape[1]) * 1.5
            bound = metric.mbr_mindist(lo, hi, q)
            for p in box_points:
                assert bound <= metric.one(p, q) + 1e-9

    def test_mindist_zero_inside_box(self):
        metric = EuclideanDistance()
        lo, hi = np.zeros(3), np.ones(3)
        assert metric.mbr_mindist(lo, hi, np.array([0.5, 0.5, 0.5])) == 0.0

    def test_mindist_many_matches_single(self, points):
        """One definition: a block of bounds is bit-identical to the same
        bounds taken one box and one query at a time."""
        los = np.array([points[i : i + 10].min(axis=0) for i in range(0, 20, 2)])
        his = np.array([points[i : i + 10].max(axis=0) for i in range(0, 20, 2)])
        queries = points[30:40] * 1.5
        for metric in (m for m in VECTOR_METRICS if m.supports_mbr()):
            batch = metric.mbr_mindist(los[0], his[0], queries)
            singles = [metric.mbr_mindist(los[0], his[0], q) for q in queries]
            assert np.array_equal(batch, singles), metric.name
            batch = metric.mbr_mindist(los, his, queries[0])
            singles = [
                metric.mbr_mindist(lo, hi, queries[0]) for lo, hi in zip(los, his)
            ]
            assert np.array_equal(batch, singles), metric.name

    def test_cosine_has_no_mbr(self):
        assert not CosineAngularDistance().supports_mbr()
        with pytest.raises(NotImplementedError):
            CosineAngularDistance().mbr_mindist(
                np.zeros(2), np.ones(2), np.ones(2)
            )


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_distance("euclidean").name == "euclidean"
        assert get_distance("levenshtein").name == "levenshtein"

    def test_instance_passthrough(self):
        metric = ManhattanDistance()
        assert get_distance(metric) is metric

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown distance"):
            get_distance("hamming")
