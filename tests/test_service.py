"""Tests for the query-service layer: sessions, streaming, run_in_blocks.

The load-bearing guarantees:

* the session API is the pre-refactor batch path *exactly* -- answers
  and every cost counter byte-identical to driving a bare
  ``MultiQueryProcessor``, per access method;
* ``stream()`` emits the driver's answers incrementally, in final
  order, with early (pre-completion) confirmations on distance-ranked
  access methods -- and the concatenation of the events equals the
  batch answer list;
* the mining drivers sitting on sessions produce results and counters
  identical to the same loops expressed directly on the processor.
"""

import numpy as np
import pytest

from repro import Database, knn_query
from repro.core.multi_query import MultiQueryProcessor
from repro.mining.dbscan import dbscan
from repro.mining.explore import ExplorationCallbacks, explore_neighborhoods_multiple
from repro.mining.trend import detect_trends
from repro.obs import Observer
from repro.service import AnswerEvent, QueryCompleted, QuerySession, run_in_blocks

from tests.helpers import slice_loop_dbscan, slice_loop_process

ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(23)
    centers = rng.random((6, 6))
    return np.clip(
        centers[rng.integers(0, 6, 800)] + rng.standard_normal((800, 6)) * 0.05,
        0,
        1,
    )


def make_db(vectors, access, **kwargs):
    return Database(vectors, access=access, block_size=2048, **kwargs)


def as_tuples(results):
    return [[(a.index, a.distance) for a in r] for r in results]


class TestSessionBatchIdentity:
    """ask/run must be the processor's process/query_all, byte for byte."""

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_ask_matches_process_with_counters(self, vectors, access):
        indices = [3, 41, 200, 555]
        queries = [vectors[i] for i in indices]
        qtypes = [knn_query(5)] * len(queries)

        db_a = make_db(vectors, access)
        session = db_a.session(seed_from_queries=True)
        got = session.ask(queries, qtypes, keys=indices, db_indices=indices)

        db_b = make_db(vectors, access)
        processor = MultiQueryProcessor(db_b, seed_from_queries=True)
        want = processor.process(queries, qtypes, keys=indices, db_indices=indices)

        assert as_tuples([got]) == as_tuples([want])
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_run_matches_query_all_with_counters(self, vectors, access):
        indices = [7, 90, 311, 610, 702]
        queries = [vectors[i] for i in indices]

        db_a = make_db(vectors, access)
        got = db_a.session().run(queries, knn_query(4), db_indices=indices)

        db_b = make_db(vectors, access)
        want = MultiQueryProcessor(db_b).query_all(
            queries, knn_query(4), db_indices=indices
        )

        assert as_tuples(got) == as_tuples(want)
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_run_in_blocks_matches_legacy_block_loop(self, vectors, access):
        indices = list(range(0, 36, 3))
        queries = [vectors[i] for i in indices]
        block = 4

        db_a = make_db(vectors, access)
        got = run_in_blocks(
            db_a, queries, knn_query(5), block, db_indices=indices
        )

        # The pre-refactor loop: one fresh processor per block.
        db_b = make_db(vectors, access)
        want = []
        for start in range(0, len(queries), block):
            processor = MultiQueryProcessor(db_b, seed_from_queries=True)
            want.extend(
                processor.query_all(
                    queries[start : start + block],
                    knn_query(5),
                    db_indices=indices[start : start + block],
                )
            )

        assert as_tuples(got) == as_tuples(want)
        assert db_a.counters.as_dict() == db_b.counters.as_dict()


class TestSessionBuffer:
    """The Def. 4 partial-answer buffer as a public API."""

    def test_submit_partial_answers_retire(self, vectors):
        db = make_db(vectors, "xtree")
        session = db.session()
        keys = [session.submit(vectors[i], knn_query(3), key=i) for i in (0, 5)]
        assert sorted(session.pending) == [0, 5]
        assert session.partial_answers(0) == []
        assert not session.is_complete(0)
        assert session.radius(0) == float("inf")

        answers = session.ask(
            [vectors[0], vectors[5]], knn_query(3), keys=keys
        )
        assert session.is_complete(0)
        assert session.partial_answers(0) == answers
        # The non-driver accumulated partial answers in the buffer.
        assert not session.is_complete(5)
        session.retire(0)
        assert session.pending == [5]
        session.close()
        assert session.pending == []

    def test_duplicate_submit_restores_existing_entry(self, vectors):
        db = make_db(vectors, "scan")
        session = db.session()
        session.submit(vectors[1], knn_query(3), key="q")
        before = db.counters.query_matrix_distance_calculations
        session.submit(vectors[1], knn_query(3), key="q")
        assert session.pending == ["q"]
        assert db.counters.query_matrix_distance_calculations == before

    def test_unknown_key_raises(self, vectors):
        session = make_db(vectors, "scan").session()
        with pytest.raises(KeyError):
            session.partial_answers("nope")
        with pytest.raises(KeyError):
            session.radius("nope")

    def test_bound_radius_tightens_only_downward(self, vectors):
        db = make_db(vectors, "xtree")
        session = db.session()
        session.submit(vectors[2], knn_query(3), key="q")
        session.bound_radius("q", 0.5)
        assert session.radius("q") == 0.5
        session.bound_radius("q", 0.9)
        assert session.radius("q") == 0.5
        # A sound bound never changes answers.
        answers = session.ask([vectors[2]], knn_query(3), keys=["q"])
        reference = make_db(vectors, "xtree").similarity_query(
            vectors[2], knn_query(3)
        )
        assert as_tuples([answers]) == as_tuples([reference])


class TestStreaming:
    """Incremental answer events: order, identity, early confirmation."""

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_stream_events_concatenate_to_batch_answers(self, vectors, access):
        indices = [10, 120, 400, 650]
        queries = [vectors[i] for i in indices]

        db_a = make_db(vectors, access)
        events = list(db_a.session().stream(queries, knn_query(6)))
        answer_events = [e for e in events if isinstance(e, AnswerEvent)]
        completions = [e for e in events if isinstance(e, QueryCompleted)]
        assert len(completions) == 1
        assert [e.rank for e in answer_events] == list(range(len(answer_events)))

        db_b = make_db(vectors, access)
        want = MultiQueryProcessor(db_b).process(queries, knn_query(6))

        streamed = [e.answer for e in answer_events]
        assert streamed == list(completions[0].answers) == want
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    def test_streamed_knn_yields_first_answer_before_completion(self):
        # Deeper traversal: enough pages that the driver's nearest
        # answers are provably final while pages remain.
        rng = np.random.default_rng(5)
        data = rng.random((5000, 8))
        db = Database(data, access="xtree")
        events = list(
            db.session().stream([data[i] for i in range(6)], knn_query(20))
        )
        completion = [e for e in events if isinstance(e, QueryCompleted)][0]
        early = [
            e for e in events if isinstance(e, AnswerEvent) and e.early
        ]
        assert early, "expected answers confirmed before the drive completed"
        for event in early:
            assert event.pages_processed < completion.pages_processed
        # Early events are a prefix of the final answer order.
        assert [e.answer for e in early] == list(
            completion.answers[: len(early)]
        )

    def test_sequential_access_streams_at_completion_only(self, vectors):
        db = make_db(vectors, "scan")
        events = list(db.session().stream([vectors[0]], knn_query(5)))
        assert all(
            not e.early for e in events if isinstance(e, AnswerEvent)
        )

    def test_stream_records_time_to_first_answer(self, vectors):
        observer = Observer(trace=True)
        db = make_db(vectors, "xtree", observer=observer)
        list(db.session().stream([vectors[0], vectors[9]], knn_query(5)))
        snapshot = observer.metrics.snapshot()
        hist = snapshot["histograms"]["service.time_to_first_answer.seconds"]
        assert hist["count"] == 1
        names = {r["name"] for r in observer.tracer.records()}
        assert "session.first_answer" in names
        assert "query.drive" in names

    def test_stream_of_completed_query_replays_buffered_answers(self, vectors):
        db = make_db(vectors, "xtree")
        session = db.session()
        first = session.ask([vectors[3], vectors[8]], knn_query(4), keys=[3, 8])
        before = db.counters.as_dict()
        events = list(session.stream([vectors[3]], knn_query(4), keys=[3]))
        assert [e.answer for e in events if isinstance(e, AnswerEvent)] == first
        assert db.counters.as_dict() == before  # no pages re-read


class TestDriversOnSessions:
    """Mining drivers must equal the same loops on a bare processor."""

    @pytest.mark.parametrize("access", ["scan", "xtree", "vafile"])
    def test_dbscan_matches_processor_loop(self, vectors, access):
        db_a = make_db(vectors, access)
        got = dbscan(db_a, eps=0.2, min_pts=4, batch_size=6)

        db_b = make_db(vectors, access)
        want = slice_loop_dbscan(db_b, eps=0.2, min_pts=4, batch_size=6)

        assert np.array_equal(got.labels, want.labels)
        assert got.n_clusters == want.n_clusters
        assert got.queries_issued == want.queries_issued
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    @pytest.mark.parametrize("batch_size", [1, 8, 32])
    def test_dbscan_matches_slice_loop_at_every_width(self, vectors, batch_size):
        db_a = make_db(vectors, "xtree")
        got = dbscan(db_a, eps=0.15, min_pts=5, batch_size=batch_size)

        db_b = make_db(vectors, "xtree")
        want = slice_loop_dbscan(db_b, eps=0.15, min_pts=5, batch_size=batch_size)

        assert np.array_equal(got.labels, want.labels)
        assert (got.n_clusters, got.queries_issued) == (
            want.n_clusters,
            want.queries_issued,
        )
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    @pytest.mark.parametrize("access", ["scan", "xtree", "mtree"])
    def test_explore_matches_processor_loop(self, vectors, access):
        db_a = make_db(vectors, access)
        visits_a: list[tuple[int, tuple]] = []
        callbacks = ExplorationCallbacks(
            proc_2=lambda i, answers: visits_a.append(
                (i, tuple((a.index, a.distance) for a in answers))
            )
        )
        stats_a = explore_neighborhoods_multiple(
            db_a, [0, 7], knn_query(4), callbacks, batch_size=4, max_iterations=12
        )

        db_b = make_db(vectors, access)
        visits_b: list[tuple[int, tuple]] = []
        stats_b = _legacy_explore(
            db_b, [0, 7], knn_query(4), visits_b, batch_size=4, max_iterations=12
        )

        assert stats_a.objects_visited == stats_b
        assert visits_a == visits_b
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    @pytest.mark.parametrize("access", ["scan", "xtree"])
    def test_trend_matches_processor_loop(self, vectors, access):
        attribute = np.linspace(0.0, 1.0, len(vectors))

        db_a = make_db(vectors, access)
        got = detect_trends(db_a, 17, attribute, n_paths=3, path_length=4, seed=2)

        db_b = make_db(vectors, access)
        want = _legacy_trend(db_b, 17, attribute, n_paths=3, path_length=4, seed=2)

        assert [p.objects for p in got.paths] == [p.objects for p in want.paths]
        assert [p.slope for p in got.paths] == [p.slope for p in want.paths]
        assert db_a.counters.as_dict() == db_b.counters.as_dict()

    def test_explore_accepts_injected_session(self, vectors):
        db = make_db(vectors, "xtree")
        session = db.session(seed_from_queries=True)
        stats = explore_neighborhoods_multiple(
            db, [0], knn_query(3), batch_size=4, max_iterations=5, session=session
        )
        assert stats.queries_issued == 5


class TestSessionObservability:
    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_traced_session_identical_to_untraced(self, vectors, access):
        indices = [2, 55, 300, 480]
        queries = [vectors[i] for i in indices]

        plain = make_db(vectors, access)
        got_plain = plain.session().run(queries, knn_query(5))

        observer = Observer(trace=True)
        traced = make_db(vectors, access, observer=observer)
        got_traced = traced.session().run(queries, knn_query(5))

        assert as_tuples(got_plain) == as_tuples(got_traced)
        assert plain.counters.as_dict() == traced.counters.as_dict()
        names = {r["name"] for r in observer.tracer.records()}
        assert "query.drive" in names
        assert "query.admit" in names


# ----------------------------------------------------------------------
# Legacy replicas: the pre-refactor loops on a bare MultiQueryProcessor
# (DBSCAN's lives in tests/helpers.py as ``slice_loop_dbscan``)
# ----------------------------------------------------------------------


def _legacy_explore(database, start_objects, sim_type, visits, batch_size, max_iterations):
    control = dict.fromkeys(int(i) for i in start_objects)
    ever_enqueued = set(control)
    visited = []
    processor = MultiQueryProcessor(database, seed_from_queries=True)
    while control and len(visited) < max_iterations:
        batch = list(control)[:batch_size]
        first = batch[0]
        answers = slice_loop_process(
            processor,
            [database.dataset[i] for i in batch],
            sim_type,
            batch,
            db_indices=batch,
        )
        visited.append(first)
        visits.append((first, tuple((a.index, a.distance) for a in answers)))
        fresh = [a.index for a in answers if a.index not in ever_enqueued]
        del control[first]
        processor.retire(first)
        for index in fresh:
            control[index] = None
            ever_enqueued.add(index)
    return visited


def _legacy_trend(database, start, attribute, n_paths, path_length, seed):
    from repro.mining.trend import TrendPath, TrendResult, _regress

    attribute = np.asarray(attribute, dtype=float)
    rng = np.random.default_rng(seed)
    processor = MultiQueryProcessor(database, seed_from_queries=False)
    result = TrendResult(start=int(start))
    start_obj = database.dataset[start]
    qtype = knn_query(8)
    for _ in range(n_paths):
        current = int(start)
        visited = {current}
        objects = [current]
        distances = [0.0]
        deltas = [0.0]
        for _ in range(path_length):
            answers = processor.process(
                [database.dataset[current]], [qtype], keys=[("trend", current)]
            )
            candidates = [a.index for a in answers if a.index not in visited]
            if not candidates:
                break
            nxt = int(candidates[int(rng.integers(0, len(candidates)))])
            visited.add(nxt)
            objects.append(nxt)
            distances.append(
                database.space.uncounted(start_obj, database.dataset[nxt])
            )
            deltas.append(float(attribute[nxt] - attribute[start]))
            current = nxt
        slope, r_squared = _regress(np.asarray(distances), np.asarray(deltas))
        result.paths.append(
            TrendPath(objects, distances, deltas, slope, r_squared)
        )
    return result
