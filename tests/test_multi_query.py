"""Tests for the multiple similarity query (Def. 4, Fig. 4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, bounded_knn_query, knn_query, range_query
from repro.core.multi_query import MultiQueryProcessor

from tests.helpers import brute_force_answers, slice_loop_process


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(51)
    centers = rng.random((5, 6))
    return np.clip(
        centers[rng.integers(0, 5, 700)] + rng.standard_normal((700, 6)) * 0.05,
        0,
        1,
    )


def make_db(vectors, access, engine="auto", **kwargs):
    return Database(vectors, access=access, block_size=2048, engine=engine, **kwargs)


QUERY_TYPES = [knn_query(5), range_query(0.25), bounded_knn_query(4, 0.3)]


class TestCorrectnessMatrix:
    """Every access method x engine x query type must match brute force."""

    @pytest.mark.parametrize("access", ["scan", "xtree", "mtree", "vafile"])
    @pytest.mark.parametrize("engine", ["vectorized", "reference"])
    @pytest.mark.parametrize("qtype", QUERY_TYPES, ids=lambda t: t.kind)
    def test_multi_matches_brute_force(self, vectors, access, engine, qtype):
        db = make_db(vectors, access, engine=engine)
        query_indices = [3, 77, 200, 431, 698]
        queries = [vectors[i] for i in query_indices]
        results = db.multiple_similarity_query(queries, qtype)
        for query, answers in zip(queries, results):
            expected = brute_force_answers(vectors, query, qtype)
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            ), f"{access}/{engine}/{qtype.kind}"

    @pytest.mark.parametrize("access", ["scan", "xtree"])
    def test_mixed_query_types_in_one_batch(self, vectors, access):
        db = make_db(vectors, access)
        queries = [vectors[0], vectors[1], vectors[2]]
        qtypes = [knn_query(3), range_query(0.2), bounded_knn_query(2, 0.5)]
        results = db.multiple_similarity_query(queries, qtypes)
        for query, qtype, answers in zip(queries, qtypes, results):
            expected = brute_force_answers(vectors, query, qtype)
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            )


class TestEngineEquivalence:
    """Design decision 1: both engines agree on answers AND counters."""

    @pytest.mark.parametrize("access", ["scan", "xtree"])
    @pytest.mark.parametrize("qtype", QUERY_TYPES, ids=lambda t: t.kind)
    def test_identical_counters(self, vectors, access, qtype):
        query_indices = list(range(0, 120, 10))
        runs = {}
        for engine in ("vectorized", "reference"):
            db = make_db(vectors, access, engine=engine)
            queries = [vectors[i] for i in query_indices]
            with db.measure() as handle:
                results = db.multiple_similarity_query(queries, qtype)
            runs[engine] = (handle.counters.as_dict(), results)
        counters_v, results_v = runs["vectorized"]
        counters_r, results_r = runs["reference"]
        assert counters_v == counters_r
        for a, b in zip(results_v, results_r):
            assert [x.index for x in a] == [x.index for x in b]


class TestDefinition4Semantics:
    def test_first_query_complete_after_one_call(self, vectors):
        db = make_db(vectors, "xtree")
        proc = db.processor()
        qtype = knn_query(5)
        queries = [vectors[i] for i in (0, 50, 100)]
        answers = proc.process(queries, [qtype] * 3)
        expected = brute_force_answers(vectors, queries[0], qtype)
        assert sorted(a.distance for a in answers) == pytest.approx(
            [d for _, d in expected]
        )

    def test_partial_answers_are_subsets(self, vectors):
        db = make_db(vectors, "xtree")
        proc = db.processor()
        qtype = range_query(0.3)
        queries = [vectors[i] for i in (0, 50, 100)]
        proc.process(queries, [qtype] * 3)
        for pending in proc.pending_queries[1:]:
            expected = {
                i for i, _ in brute_force_answers(vectors, pending.obj, qtype)
            }
            got = {a.index for a in pending.answers.materialize()}
            assert got <= expected  # A_i subseteq full answers

    def test_incremental_calls_complete_everything(self, vectors):
        db = make_db(vectors, "xtree")
        proc = db.processor()
        qtype = knn_query(4)
        queries = [vectors[i] for i in (0, 50, 100, 150)]
        results = []
        for i in range(len(queries)):
            results.append(proc.process(queries[i:], [qtype] * (len(queries) - i)))
        for query, answers in zip(queries, results):
            expected = brute_force_answers(vectors, query, qtype)
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            )

    def test_buffered_query_not_reprocessed(self, vectors):
        # After a scan batch completes every query, re-asking one must
        # cost no further page reads or distance calculations.
        db = make_db(vectors, "scan", buffer_fraction=0.0)
        proc = db.processor()
        qtype = knn_query(5)
        queries = [vectors[i] for i in (0, 10, 20)]
        proc.process(queries, [qtype] * 3)
        with db.measure() as handle:
            proc.process(queries[1:], [qtype] * 2)
        assert handle.counters.page_reads == 0
        assert handle.counters.distance_calculations == 0

    def test_pages_never_reread_for_same_query(self, vectors):
        db = make_db(vectors, "scan", buffer_fraction=0.0)
        m = 10
        queries = [vectors[i] for i in range(m)]
        with db.measure() as handle:
            db.multiple_similarity_query(queries, knn_query(5))
        # Sec. 5.1 for the scan: I/O of the block equals one scan.
        assert handle.counters.page_reads == len(db.access_method.data_pages())

    def test_io_sharing_beats_single_queries_on_index(self, vectors):
        db = make_db(vectors, "xtree", buffer_fraction=0.0)
        query_indices = list(range(0, 300, 10))
        queries = [vectors[i] for i in query_indices]
        with db.measure() as single:
            for q in queries:
                db.similarity_query(q, knn_query(5))
        db.cold()
        with db.measure() as multi:
            db.multiple_similarity_query(queries, knn_query(5))
        assert multi.counters.page_reads <= single.counters.page_reads


class TestProcessorApi:
    def test_rejects_empty_batch(self, vectors):
        db = make_db(vectors, "scan")
        with pytest.raises(ValueError):
            db.processor().process([], [])

    def test_rejects_mismatched_types(self, vectors):
        db = make_db(vectors, "scan")
        with pytest.raises(ValueError):
            db.processor().process([vectors[0]], [knn_query(3), knn_query(3)])

    def test_rejects_mismatched_keys(self, vectors):
        db = make_db(vectors, "scan")
        with pytest.raises(ValueError):
            db.processor().process([vectors[0]], [knn_query(3)], keys=[1, 2])

    def test_same_key_different_type_rejected(self, vectors):
        db = make_db(vectors, "scan")
        proc = db.processor()
        proc.admit(vectors[0], knn_query(3), key="q")
        with pytest.raises(ValueError):
            proc.admit(vectors[0], knn_query(4), key="q")

    def test_retire_frees_slot_for_reuse(self, vectors):
        db = make_db(vectors, "scan")
        proc = db.processor()
        first = proc.admit(vectors[0], knn_query(3), key="a")
        slot = first.slot
        proc.retire("a")
        second = proc.admit(vectors[1], knn_query(3), key="b")
        assert second.slot == slot

    def test_clear_empties_buffer(self, vectors):
        db = make_db(vectors, "scan")
        proc = db.processor()
        proc.admit(vectors[0], knn_query(3))
        proc.clear()
        assert proc.pending_queries == []

    def test_duplicate_queries_share_pending(self, vectors):
        db = make_db(vectors, "scan")
        proc = db.processor()
        results = proc.query_all(
            [vectors[0], vectors[0]], [knn_query(3), knn_query(3)]
        )
        assert [a.index for a in results[0]] == [a.index for a in results[1]]

    def test_duplicate_queries_no_duplicate_answers(self, vectors):
        # Regression: a query object appearing twice in one batch must
        # not have pages processed twice for its shared pending, which
        # used to duplicate entries in the k-NN answer list.
        db = make_db(vectors, "scan")
        from tests.helpers import brute_force_answers

        batch = [vectors[5], vectors[9], vectors[5]]
        results = db.multiple_similarity_query(batch, knn_query(4))
        for query, answers in zip(batch, results):
            expected = brute_force_answers(vectors, query, knn_query(4))
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            )
            assert len({a.index for a in answers}) == len(answers)

    def test_matrix_initialisation_cost(self, vectors):
        # Admitting m queries charges exactly m * (m-1) / 2 pair distances.
        db = make_db(vectors, "scan")
        m = 8
        with db.measure() as handle:
            db.multiple_similarity_query(
                [vectors[i] for i in range(m)], knn_query(3)
            )
        assert handle.counters.query_matrix_distance_calculations == m * (m - 1) // 2

    def test_vectorized_engine_requires_vector_data(self):
        from repro.data import GenericDataset

        db = Database(GenericDataset(["aa", "ab"]), metric="levenshtein", access="mtree")
        with pytest.raises(ValueError):
            MultiQueryProcessor(db, engine="vectorized")

    def test_avoidance_disabled_no_tries(self, vectors):
        db = make_db(vectors, "scan")
        queries = [vectors[i] for i in range(10)]
        with db.measure() as handle:
            db.multiple_similarity_query(queries, knn_query(5), use_avoidance=False)
        assert handle.counters.avoidance_tries == 0
        assert handle.counters.avoided_calculations == 0

    def test_avoidance_reduces_distance_calculations(self, vectors):
        db = make_db(vectors, "scan")
        queries = [vectors[i] for i in range(30)]
        with db.measure() as on:
            db.multiple_similarity_query(queries, knn_query(5))
        with db.measure() as off:
            db.multiple_similarity_query(queries, knn_query(5), use_avoidance=False)
        assert (
            on.counters.distance_calculations < off.counters.distance_calculations
        )


#: Keys of the query pool the window property draws from.
POOL = 40


def pool_query(vectors, key):
    """Object, type and dataset index of pool query ``key``: a k-NN, range
    and bounded k-NN mix over database members (so seeding is sound)."""
    index = (key * 17) % len(vectors)
    qtype = (
        knn_query(key % 5 + 1),
        range_query(0.1 + 0.05 * (key % 4)),
        bounded_knn_query(3, 0.3),
    )[key % 3]
    return vectors[index], qtype, index


def pool_batch(vectors, keys):
    queries = [pool_query(vectors, key) for key in keys]
    return (
        [q[0] for q in queries],
        [q[1] for q in queries],
        list(keys),
        [q[2] for q in queries],
    )


class TestQueryWindow:
    """The session's query window against the slice-based loop that hands
    the whole window to every call (``tests/helpers.py``)."""

    @settings(max_examples=100, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                # keys appended by one ``advance`` (duplicates included)
                st.lists(st.integers(0, POOL - 1), max_size=12),
                st.lists(st.integers(0, POOL - 1), max_size=2),
                # a key to retire
                st.integers(0, POOL - 1),
                # a one-shot ``ask`` over these keys, replacing the window
                st.tuples(st.lists(st.integers(0, POOL - 1), min_size=1, max_size=6)),
            ),
            min_size=4,
            max_size=40,
        ),
        width=st.sampled_from([1, 8, 32]),
        seed_from_queries=st.booleans(),
        warm_start=st.booleans(),
        matrix_mode=st.sampled_from(["eager", "lazy"]),
        access=st.sampled_from(["xtree", "scan"]),
    )
    def test_advance_matches_slice_loop(
        self, vectors, ops, width, seed_from_queries, warm_start, matrix_mode, access
    ):
        options = dict(
            seed_from_queries=seed_from_queries,
            warm_start=warm_start,
            matrix_mode=matrix_mode,
        )
        subject_db, oracle_db = make_db(vectors, access), make_db(vectors, access)
        session = subject_db.session(**options)
        oracle = MultiQueryProcessor(oracle_db, **options)
        window: list[int] = []
        for op in ops:
            if isinstance(op, int):
                session.retire(op)
                oracle.retire(op)
                if op in window:
                    window.remove(op)
                continue
            if isinstance(op, tuple):
                got = session.ask(*pool_batch(vectors, op[0]))
                window = list(dict.fromkeys(op[0]))
            else:
                # Keys already in the window are handed over again and
                # must fold; new keys join while the window has room.
                passed = [key for key in op if key in window or len(window) < width]
                window.extend(k for k in dict.fromkeys(passed) if k not in window)
                objs, qtypes, keys, indices = pool_batch(vectors, passed)
                if not window:
                    with pytest.raises(ValueError):
                        session.advance(objs, qtypes, keys, indices)
                    continue
                got = session.advance(objs, qtypes, keys, indices)
            want = slice_loop_process(oracle, *pool_batch(vectors, window))
            window.pop(0)
            assert [(a.index, a.distance) for a in got] == [
                (a.index, a.distance) for a in want
            ]
            assert session.processor.window == window
            assert subject_db.counters.as_dict() == oracle_db.counters.as_dict()


class TestSeedingAndWarmStart:
    @pytest.mark.parametrize("access", ["scan", "xtree"])
    def test_answers_unchanged(self, vectors, access):
        query_indices = list(range(0, 200, 10))
        queries = [vectors[i] for i in query_indices]
        db = make_db(vectors, access)
        plain = db.run_in_blocks(queries, knn_query(5), block_size=len(queries))
        db.cold()
        seeded = db.run_in_blocks(
            queries,
            knn_query(5),
            block_size=len(queries),
            db_indices=query_indices,
            warm_start=True,
        )
        for a, b in zip(plain, seeded):
            assert sorted(x.distance for x in a) == pytest.approx(
                sorted(x.distance for x in b)
            )

    def test_seeding_requires_at_least_k_others(self, vectors):
        db = make_db(vectors, "xtree")
        proc = db.processor(seed_from_queries=True)
        # Two queries, k=5: too few seed candidates, hint stays infinite.
        proc.process(
            [vectors[0], vectors[1]],
            [knn_query(5)] * 2,
            db_indices=[0, 1],
        )
        import math

        assert math.isinf(proc.pending_queries[1].radius_hint)

    def test_seeding_sets_finite_hint(self, vectors):
        db = make_db(vectors, "xtree")
        proc = db.processor(seed_from_queries=True)
        indices = list(range(10))
        proc.process(
            [vectors[i] for i in indices],
            [knn_query(3)] * 10,
            db_indices=indices,
        )
        import math

        hints = [p.radius_hint for p in proc.pending_queries]
        assert all(not math.isinf(h) for h in hints)

    def test_warm_start_ignored_for_scan(self, vectors):
        db = make_db(vectors, "scan")
        proc = db.processor(warm_start=True)
        assert not proc.warm_start
