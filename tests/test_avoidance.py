"""Tests for the triangle-inequality avoidance (Lemmas 1 and 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import AnswerList
from repro.core.avoidance import PairwiseDistanceCache
from repro.core.engine import (
    PendingQuery,
    process_page_batched,
    process_page_reference,
    process_page_vectorized,
)
from repro.core.types import knn_query, range_query
from repro.costmodel import Counters
from repro.data import VectorDataset
from repro.metric import MetricSpace
from repro.prefilter.replay import replay_pruned_page
from repro.storage.page import Page
from tests.helpers import sweep_last_query


class TestLemmaSemantics:
    def test_lemma1_far_object_close_queries(self):
        # dist(O, Q1) = 5, dist(Q2, Q1) = 1, radius = 2:
        # 5 > 1 + 2 -> avoidable (Lemma 1).
        counters = Counters()
        avoided = sweep_last_query([[5.0]], [1.0], 2.0, counters)
        assert avoided[0]
        assert counters.avoidance_tries == 1  # Lemma 1 fired first
        assert counters.avoided_calculations == 1

    def test_lemma2_close_object_far_queries(self):
        # dist(O, Q1) = 1, dist(Q2, Q1) = 5, radius = 2:
        # 5 > 1 + 2 -> avoidable (Lemma 2, second try).
        counters = Counters()
        avoided = sweep_last_query([[1.0]], [5.0], 2.0, counters)
        assert avoided[0]
        assert counters.avoidance_tries == 2

    def test_not_avoidable_middle_distance(self):
        counters = Counters()
        avoided = sweep_last_query([[2.5]], [2.0], 2.0, counters)
        assert not avoided[0]
        assert counters.avoidance_tries == 2

    def test_strictness_preserves_boundary_objects(self):
        # dist(O, Q1) = 3, dist(Q2, Q1) = 1, radius = 2: Lemma 1 with >=
        # would conclude dist >= radius, but an object at exactly the
        # range boundary belongs to the answer (Def. 2 uses <=), so the
        # strict test must NOT avoid it.
        avoided = sweep_last_query([[3.0]], [1.0], 2.0, Counters())
        assert not avoided[0]

    def test_infinite_radius_never_tries(self):
        counters = Counters()
        avoided = sweep_last_query([[5.0, 1.0]], [1.0], math.inf, counters)
        assert not avoided.any()
        assert counters.avoidance_tries == 0

    def test_nan_rows_skipped_without_try(self):
        counters = Counters()
        avoided = sweep_last_query([[np.nan], [5.0]], [1.0, 1.0], 2.0, counters)
        assert avoided[0]
        assert counters.avoidance_tries == 1  # NaN pivot not charged

    def test_stops_at_first_success(self):
        counters = Counters()
        sweep_last_query([[5.0], [5.0], [5.0]], [1.0, 1.0, 1.0], 2.0, counters)
        assert counters.avoidance_tries == 1

    def test_max_pivots_cap(self):
        counters = Counters()
        # Only the third pivot could avoid; cap at 2 -> not avoided.
        known = [[2.0], [2.0], [50.0]]
        dqq = [2.0, 2.0, 1.0]
        avoided = sweep_last_query(known, dqq, 2.0, counters, max_pivots=2)
        assert not avoided[0]
        assert counters.avoidance_tries == 4
        avoided = sweep_last_query(known, dqq, 2.0, Counters(), max_pivots=0)
        assert avoided[0]


class TestAvoidanceSoundness:
    def test_never_avoids_true_answers(self, rng):
        """Lemma application must never discard an object within radius."""
        space = MetricSpace("euclidean")
        for _ in range(50):
            points = rng.random((30, 4))
            queries = rng.random((4, 4))
            target = queries[-1]
            radius = float(rng.random() * 0.6)
            known = np.array(
                [space.distance.many(points, q) for q in queries[:-1]]
            )
            dqq = np.array([space.distance.one(target, q) for q in queries[:-1]])
            avoided = sweep_last_query(known, dqq, radius, Counters())
            true = space.distance.many(points, target)
            # Every avoided object must be strictly outside the radius.
            assert np.all(true[avoided] > radius)


def _random_page(seed, m, n_objects):
    """Clustered objects (with duplicates) and a mixed query batch.

    Queries sit on page objects, near the cluster or far from it: a far
    range query next to a near pivot has its whole row avoided by
    Lemma 2, a fresh k-NN query keeps an infinite radius, a hinted one
    carries a finite radius it did not earn on this page.
    """
    rng = np.random.default_rng(seed)
    pool = rng.normal(0.0, 0.3, size=(max(1, n_objects // 2), 3))
    vectors = pool[rng.integers(0, len(pool), size=n_objects)]
    specs = []
    for _ in range(m):
        kind = int(rng.integers(0, 4))
        obj = rng.normal(0.0, 0.3, size=3)
        if kind == 0 and n_objects:
            obj = vectors[int(rng.integers(0, n_objects))].copy()
        elif kind == 1:
            obj = obj + 8.0
        hint = math.inf
        if rng.random() < 0.5:
            qtype = range_query(float(rng.random() * 0.5))
        else:
            qtype = knn_query(int(rng.integers(1, 4)))
            if rng.random() < 0.5:
                hint = float(rng.random())
        specs.append((obj, qtype, hint))
    return vectors, specs


def _run_page(process, vectors, specs, **options):
    """Answers and full counter dict of one engine call on one page."""
    space = MetricSpace("euclidean")
    # Slots in reverse batch order: positions and slots must not be mixed up.
    slots = list(range(len(specs)))[::-1]
    batch = [
        PendingQuery(
            key=slot, obj=obj, qtype=qtype, answers=AnswerList(qtype),
            slot=slot, radius_hint=hint,
        )
        for slot, (obj, qtype, hint) in zip(slots, specs)
    ]
    matrix = np.zeros((len(specs), len(specs)))
    for a in batch:
        for b in batch:
            matrix[a.slot, b.slot] = space.uncounted(a.obj, b.obj)
    page = Page(page_id=3, indices=np.arange(len(vectors)))
    process(
        page, batch, VectorDataset(vectors.reshape(-1, 3)), space, matrix,
        space.counters, **options,
    )
    assert all(page.page_id in query.processed_pages for query in batch)
    answers = [
        [(a.index, a.distance) for a in query.answers.materialize()]
        for query in batch
    ]
    return answers, space.counters.as_dict()


class TestSweepMatchesReferenceEngine:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.sampled_from([1, 2, 33, 64]),
        n_objects=st.sampled_from([0, 1, 5, 24]),
        max_pivots=st.sampled_from([0, 1, 32]),
        lemmas=st.sampled_from([(True, True), (True, False), (False, True)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_answers_and_counters_identical(
        self, seed, m, n_objects, max_pivots, lemmas
    ):
        """The pivot-major sweep is the query-major Fig. 4 loop.

        Every engine built on :func:`avoid_vectorized` must leave the
        answers and the *full* counter dict of the object-at-a-time
        reference engine; on a page where nothing was accepted the
        pre-filter's replay must charge the same without offering.
        """
        vectors, specs = _random_page(seed, m, n_objects)
        options = dict(
            max_pivots=max_pivots, use_lemma1=lemmas[0], use_lemma2=lemmas[1]
        )
        expected = _run_page(process_page_reference, vectors, specs, **options)
        for process in (process_page_vectorized, process_page_batched):
            answers, counters = _run_page(process, vectors, specs, **options)
            assert counters == expected[1], process.__name__
            assert {type(value) for value in counters.values()} == {int}
            # The fused kernel rounds differently from the difference form.
            for got, want in zip(answers, expected[0]):
                assert [i for i, _ in got] == [i for i, _ in want]
                assert np.allclose(
                    [d for _, d in got], [d for _, d in want], atol=1e-6
                )
        if not any(expected[0]):
            answers, counters = _run_page(
                replay_pruned_page, vectors, specs, **options
            )
            assert counters == expected[1]
            assert not any(answers)


class TestPairwiseDistanceCache:
    def test_pair_computed_once(self):
        space = MetricSpace("euclidean")
        cache = PairwiseDistanceCache(space)
        a, b = np.array([0.0, 0.0]), np.array([1.0, 0.0])
        assert cache.get("a", a, "b", b) == pytest.approx(1.0)
        assert cache.get("b", b, "a", a) == pytest.approx(1.0)  # symmetric key
        assert space.counters.query_matrix_distance_calculations == 1

    def test_matrix_counts_all_pairs(self):
        space = MetricSpace("euclidean")
        cache = PairwiseDistanceCache(space)
        objs = [np.array([float(i), 0.0]) for i in range(4)]
        matrix = cache.matrix(list("abcd"), objs)
        assert space.counters.query_matrix_distance_calculations == 6
        assert matrix[0, 3] == pytest.approx(3.0)
        assert np.allclose(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0)

    def test_drop_forgets_pairs(self):
        space = MetricSpace("euclidean")
        cache = PairwiseDistanceCache(space)
        objs = [np.array([float(i)]) for i in range(3)]
        cache.matrix(list("abc"), objs)
        cache.drop("a")
        assert len(cache) == 1  # only (b, c) remains
        cache.get("a", objs[0], "b", objs[1])
        assert space.counters.query_matrix_distance_calculations == 4
