"""Property-based tests (hypothesis) for the core invariants."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database, knn_query, range_query
from repro.core.answers import AnswerList
from repro.core.types import bounded_knn_query
from repro.costmodel import Counters
from repro.index.rstar.mbr import MBR
from repro.index.rstar.str_load import kd_partition
from repro.metric.distances import EuclideanDistance, LevenshteinDistance
from repro.storage.buffer import LRUBufferPool
from tests.helpers import sweep_last_query

# Shared strategies -----------------------------------------------------

dims = st.integers(min_value=1, max_value=6)


def point_sets(min_points=3, max_points=60):
    return dims.flatmap(
        lambda d: st.lists(
            st.lists(
                st.floats(min_value=-10, max_value=10, allow_nan=False),
                min_size=d,
                max_size=d,
            ),
            min_size=min_points,
            max_size=max_points,
        )
    )


short_words = st.text(alphabet="abc", min_size=0, max_size=8)


class TestMetricProperties:
    @given(point_sets())
    @settings(max_examples=40, deadline=None)
    def test_euclidean_triangle_inequality(self, points):
        pts = np.asarray(points, dtype=float)
        metric = EuclideanDistance()
        a, b, c = pts[0], pts[len(pts) // 2], pts[-1]
        assert metric.one(a, c) <= metric.one(a, b) + metric.one(b, c) + 1e-9

    @given(short_words, short_words, short_words)
    @settings(max_examples=150, deadline=None)
    def test_levenshtein_is_a_metric(self, a, b, c):
        lev = LevenshteinDistance()
        assert lev.one(a, b) == lev.one(b, a)
        assert (lev.one(a, b) == 0) == (a == b)
        assert lev.one(a, c) <= lev.one(a, b) + lev.one(b, c)

    @given(point_sets(min_points=4))
    @settings(max_examples=40, deadline=None)
    def test_mbr_mindist_is_lower_bound(self, points):
        pts = np.asarray(points, dtype=float)
        box_points, queries = pts[: len(pts) // 2], pts[len(pts) // 2 :]
        if box_points.shape[0] == 0 or queries.shape[0] == 0:
            return
        box = MBR.from_points(box_points)
        metric = EuclideanDistance()
        for q in queries:
            bound = metric.mbr_mindist(box.lo, box.hi, q)
            for p in box_points:
                assert bound <= metric.one(p, q) + 1e-9


class TestAnswerListProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=0,
            max_size=80,
        ),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=100, deadline=None)
    def test_knn_list_equals_sorted_prefix(self, offers, k):
        answers = AnswerList(knn_query(k))
        seen: dict[int, float] = {}
        for index, distance in offers:
            answers.offer(index, distance)
            previous = seen.get(index)
            if previous is None or distance < previous:
                seen[index] = distance
        got = [a.distance for a in answers.materialize()]
        # Dedup-free oracle: the k smallest offered distances.
        expected = sorted(d for _, d in offers)[:k]
        assert got == expected

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=0,
            max_size=50,
        ),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_range_list_keeps_exactly_in_range(self, distances, eps):
        answers = AnswerList(range_query(eps))
        for i, d in enumerate(distances):
            answers.offer(i, d)
        got = {a.index for a in answers.materialize()}
        expected = {i for i, d in enumerate(distances) if d <= eps}
        assert got == expected

    @given(
        st.lists(
            st.floats(min_value=0, max_value=10, allow_nan=False),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_radius_is_monotone_nonincreasing(self, distances, k, eps):
        answers = AnswerList(bounded_knn_query(k, eps))
        last_radius = answers.radius
        for i, d in enumerate(distances):
            answers.offer(i, d)
            assert answers.radius <= last_radius
            last_radius = answers.radius


class TestAvoidanceProperties:
    @given(point_sets(min_points=6, max_points=40), st.floats(0.01, 5))
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    def test_avoidance_never_discards_in_range_objects(self, points, radius):
        pts = np.asarray(points, dtype=float)
        queries, objects = pts[:3], pts[3:]
        metric = EuclideanDistance()
        known = np.array([metric.many(objects, q) for q in queries[:-1]])
        target = queries[-1]
        dqq = np.array([metric.one(target, q) for q in queries[:-1]])
        avoided = sweep_last_query(known, dqq, radius, Counters())
        true = metric.many(objects, target)
        assert np.all(true[avoided] > radius)


class TestQueryEnginePropertyBased:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["scan", "xtree"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_multi_query_matches_brute_force(self, seed, k, access):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        d = int(rng.integers(2, 8))
        vectors = rng.random((n, d))
        database = Database(vectors, access=access, block_size=512)
        m = int(rng.integers(1, 8))
        indices = rng.integers(0, n, size=m)
        queries = [vectors[i] for i in indices]
        results = database.multiple_similarity_query(queries, knn_query(k))
        for query, answers in zip(queries, results):
            dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
            expected = np.sort(dists)[: min(k, n)]
            got = np.sort([a.distance for a in answers])
            assert np.allclose(got, expected, atol=1e-9)

    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_range_query_matches_brute_force(self, seed, eps):
        rng = np.random.default_rng(seed)
        vectors = rng.random((int(rng.integers(20, 150)), 4))
        database = Database(vectors, access="xtree", block_size=512)
        query = vectors[0]
        answers = database.similarity_query(query, range_query(eps))
        dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
        expected = set(np.flatnonzero(dists <= eps).tolist())
        assert {a.index for a in answers} == expected


class TestStorageProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_lru_matches_model(self, accesses, capacity):
        pool = LRUBufferPool(capacity)
        model: list[int] = []  # most recent last
        for page in accesses:
            hit = pool.access(page)
            assert hit == (page in model)
            if page in model:
                model.remove(page)
            model.append(page)
            del model[:-capacity]
        for page in model:
            assert page in pool

    @given(point_sets(min_points=1, max_points=120), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_kd_partition_is_a_partition(self, points, capacity):
        pts = np.asarray(points, dtype=float)
        tiles = kd_partition(pts, capacity)
        seen = sorted(int(i) for tile in tiles for i in tile)
        assert seen == list(range(len(pts)))
        assert all(1 <= len(tile) <= capacity for tile in tiles)
