"""Tests for the fault-injection and recovery subsystem.

The load-bearing invariant (docs/robustness.md, chaos CI): every fault
a plan injects that the stack can recover from -- page-read retries,
crashed or straggling servers re-dispatched to survivors -- must leave
the merged answers AND the paper's deterministic cost counters
byte-identical to the fault-free run.  Unrecoverable faults degrade
gracefully: partial answers plus an explicit completeness bound.
"""

from dataclasses import asdict

import numpy as np
import pytest

from repro import Database, knn_query
from repro.faults import (
    KIND_LATENCY,
    KIND_PAGE_READ_ERROR,
    KIND_SERVER_CRASH,
    FaultInjector,
    FaultPlan,
    PageReadError,
    RetryPolicy,
    ServerCrash,
    SiteSpec,
)
from repro.parallel import ParallelDatabase
from repro.service import DegradedAnswerEvent

# 800 x 6 float64 at 2 KiB blocks spreads the dataset over ~19 data
# pages, enough read operations for probability/at_ops specs to fire.
BLOCK_SIZE = 2048
ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(17)
    centers = rng.random((5, 6))
    return np.clip(
        centers[rng.integers(0, 5, 800)] + rng.standard_normal((800, 6)) * 0.04,
        0,
        1,
    )


@pytest.fixture(scope="module")
def queries(vectors):
    # Lists of vectors, not a 2-D array: query batches are sequences.
    return [vectors[i] for i in (3, 101, 256, 430, 599, 777)]


def crash_plan(site="server:0", at_ops=(2,), max_faults=1, retries=3):
    return FaultPlan(
        seed=5,
        sites=(
            SiteSpec(
                pattern=site,
                kinds=(KIND_SERVER_CRASH,),
                at_ops=tuple(at_ops),
                max_faults=max_faults,
            ),
        ),
        retry=RetryPolicy(max_retries=retries),
    )


# ----------------------------------------------------------------------
# Plans, specs and policies
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_round_trips_through_dict(self):
        plan = FaultPlan(
            seed=9,
            sites=(
                SiteSpec(pattern="server:*", probability=0.25, latency_ticks=3),
                SiteSpec(
                    pattern="server:1",
                    kinds=(KIND_SERVER_CRASH,),
                    at_ops=(4, 9),
                    max_faults=2,
                ),
            ),
            retry=RetryPolicy(max_retries=5, deadline_ticks=12),
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_round_trips_through_file(self, tmp_path):
        plan = FaultPlan(
            seed=3, sites=(SiteSpec(pattern="server:0", probability=0.5),)
        )
        path = tmp_path / "plan.json"
        plan.save(path)
        assert FaultPlan.from_file(path) == plan

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            SiteSpec(pattern="server:*", kinds=("meteor_strike",))

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SiteSpec(pattern="server:*", probability=1.5)

    def test_draw_sequence_is_deterministic(self):
        plan = FaultPlan(
            seed=21,
            sites=(SiteSpec(pattern="server:*", probability=0.4),),
        )
        first = [plan_context_draws(plan, "server:0", 50)]
        second = [plan_context_draws(plan, "server:0", 50)]
        assert first == second

    def test_sites_draw_independent_streams(self):
        plan = FaultPlan(
            seed=21,
            sites=(SiteSpec(pattern="server:*", probability=0.4),),
        )
        a = plan_context_draws(plan, "server:0", 80)
        b = plan_context_draws(plan, "server:1", 80)
        assert a != b  # distinct per-site RNG streams

    def test_at_ops_fire_exactly_there(self):
        plan = FaultPlan(
            seed=0,
            sites=(SiteSpec(pattern="s", at_ops=(0, 3), max_faults=None),),
        )
        decisions = plan_context_draws(plan, "s", 6)
        fired = [i for i, d in enumerate(decisions) if d is not None]
        assert fired == [0, 3]

    def test_max_faults_caps_the_budget(self):
        plan = FaultPlan(
            seed=0,
            sites=(SiteSpec(pattern="s", probability=1.0, max_faults=2),),
        )
        decisions = plan_context_draws(plan, "s", 10)
        assert sum(d is not None for d in decisions) == 2


def plan_context_draws(plan, site, n):
    context = FaultInjector(plan).context(site)
    return [context.draw() for _ in range(n)]


class TestRetryPolicy:
    def test_allows_bounded_attempts(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(1) and policy.allows(2)
        assert not policy.allows(3)

    def test_backoff_is_exponential_in_ticks(self):
        policy = RetryPolicy(backoff_ticks=1, backoff_factor=2.0)
        assert [policy.backoff(a) for a in (1, 2, 3, 4)] == [1, 2, 4, 8]

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            RetryPolicy.from_dict({"max_retries": 1, "bogus": 2})


# ----------------------------------------------------------------------
# Recoverable faults: answers and counters byte-identical
# ----------------------------------------------------------------------


class TestRecoverableReads:
    def test_retried_page_errors_change_nothing(self, vectors, queries):
        plan = FaultPlan(
            seed=2,
            sites=(SiteSpec(pattern="server:*", probability=0.2),),
            retry=RetryPolicy(max_retries=5),
        )
        clean = Database(vectors, access="scan", block_size=BLOCK_SIZE)
        clean_answers = clean.session().ask(queries, knn_query(5))

        faulty = Database(
            vectors, access="scan", block_size=BLOCK_SIZE, fault_plan=plan
        )
        answers = faulty.session().ask(queries, knn_query(5))

        assert answers == clean_answers
        assert asdict(faulty.counters) == asdict(clean.counters)
        summary = faulty.fault_injector.summary()
        assert summary["injected"].get(KIND_PAGE_READ_ERROR, 0) > 0
        assert summary["retries"] > 0

    def test_exhausted_retries_raise_page_read_error(self, vectors, queries):
        plan = FaultPlan(
            seed=2,
            sites=(SiteSpec(pattern="server:*", probability=1.0),),
            retry=RetryPolicy(max_retries=2),
        )
        database = Database(
            vectors, access="scan", block_size=BLOCK_SIZE, fault_plan=plan
        )
        with pytest.raises(PageReadError) as excinfo:
            database.session().ask(queries, knn_query(5))
        assert excinfo.value.attempts == 3  # initial try + 2 retries

    def test_identical_fault_runs_are_identical(self, vectors, queries):
        plan = FaultPlan(
            seed=8,
            sites=(SiteSpec(pattern="server:*", probability=0.3),),
            retry=RetryPolicy(max_retries=6),
        )
        runs = []
        for _ in range(2):
            database = Database(
                vectors, access="scan", block_size=BLOCK_SIZE, fault_plan=plan
            )
            answers = database.session().ask(queries, knn_query(5))
            runs.append((answers, database.fault_injector.summary()))
        assert runs[0] == runs[1]


class TestZeroOverhead:
    def test_empty_plan_is_free(self, vectors, queries):
        clean = Database(vectors, access="xtree", block_size=BLOCK_SIZE)
        clean_answers = clean.session().ask(queries, knn_query(5))

        gated = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=FaultPlan(seed=0, sites=()),
        )
        answers = gated.session().ask(queries, knn_query(5))

        assert answers == clean_answers
        assert asdict(gated.counters) == asdict(clean.counters)
        summary = gated.fault_injector.summary()
        assert summary["injected_total"] == 0
        assert summary["retries"] == 0
        assert summary["ticks"] == 0

    def test_no_plan_means_no_gate(self, vectors):
        database = Database(vectors, access="scan", block_size=BLOCK_SIZE)
        assert database.fault_injector is None
        assert database.disk.faults is None


# ----------------------------------------------------------------------
# Parallel recovery: crashes and stragglers re-dispatched exactly
# ----------------------------------------------------------------------


class TestParallelRecovery:
    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_crash_recovery_is_exact(self, vectors, queries, access):
        plan = crash_plan(site="server:1", at_ops=(3, 7), max_faults=2)
        clean = ParallelDatabase(
            vectors, n_servers=3, access=access, block_size=BLOCK_SIZE
        )
        clean_run = clean.multiple_similarity_query(queries, knn_query(5))

        faulty = ParallelDatabase(
            vectors,
            n_servers=3,
            access=access,
            block_size=BLOCK_SIZE,
            fault_plan=plan,
        )
        run = faulty.multiple_similarity_query(queries, knn_query(5))

        assert run.answers == clean_run.answers
        for mine, theirs in zip(run.per_server, clean_run.per_server):
            assert asdict(mine.counters) == asdict(theirs.counters)
        summary = faulty.fault_injector.summary()
        assert summary["injected"].get(KIND_SERVER_CRASH, 0) >= 1
        assert summary["redispatches"] >= 1

    def test_straggler_timeout_is_redispatched_exactly(self, vectors, queries):
        plan = FaultPlan(
            seed=4,
            sites=(
                SiteSpec(
                    pattern="server:2",
                    kinds=(KIND_LATENCY,),
                    probability=0.5,
                    latency_ticks=4,
                    max_faults=6,
                ),
            ),
            retry=RetryPolicy(max_retries=4, deadline_ticks=6),
        )
        clean = ParallelDatabase(
            vectors, n_servers=3, access="xtree", block_size=BLOCK_SIZE
        )
        clean_run = clean.multiple_similarity_query(queries, knn_query(5))

        faulty = ParallelDatabase(
            vectors,
            n_servers=3,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=plan,
        )
        run = faulty.multiple_similarity_query(queries, knn_query(5))

        assert run.answers == clean_run.answers
        for mine, theirs in zip(run.per_server, clean_run.per_server):
            assert asdict(mine.counters) == asdict(theirs.counters)
        summary = faulty.fault_injector.summary()
        assert summary["redispatches"] >= 1
        assert summary["ticks"] > 0

    def test_process_backend_matches_model(self, vectors, queries):
        plan = crash_plan(site="server:1", at_ops=(3, 7), max_faults=2)
        model = ParallelDatabase(
            vectors,
            n_servers=3,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=plan,
        )
        model_run = model.multiple_similarity_query(queries, knn_query(5))
        model_summary = model.fault_injector.summary()

        proc = ParallelDatabase(
            vectors,
            n_servers=3,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=plan,
        )
        try:
            proc_run = proc.multiple_similarity_query(
                queries, knn_query(5), backend="process"
            )
        finally:
            proc.close()

        assert proc_run.answers == model_run.answers
        for mine, theirs in zip(proc_run.per_server, model_run.per_server):
            assert asdict(mine.counters) == asdict(theirs.counters)
        proc_summary = proc.fault_injector.summary()
        assert proc_summary["injected"] == model_summary["injected"]
        assert proc_summary["redispatches"] == model_summary["redispatches"]

    def test_unrecoverable_crash_propagates(self, vectors, queries):
        plan = crash_plan(
            site="server:*",
            at_ops=tuple(range(20)),
            max_faults=None,
            retries=2,
        )
        database = ParallelDatabase(
            vectors,
            n_servers=3,
            access="scan",
            block_size=BLOCK_SIZE,
            fault_plan=plan,
        )
        with pytest.raises(ServerCrash):
            database.multiple_similarity_query(queries, knn_query(5))


# ----------------------------------------------------------------------
# Graceful degradation: partial answers with a completeness bound
# ----------------------------------------------------------------------


class TestDegradedStreaming:
    def test_stream_degrades_instead_of_raising(self, vectors, queries):
        database = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=crash_plan(at_ops=(2,)),
        )
        session = database.session()
        events = list(session.stream(queries, knn_query(5)))
        degraded = [e for e in events if isinstance(e, DegradedAnswerEvent)]
        assert len(degraded) == len(queries)
        for event in degraded:
            assert 0.0 <= event.completeness < 1.0
            assert event.pages_processed < event.total_pages
            assert "ServerCrash" in event.reason

    def test_degraded_events_carry_buffer_contents(self, vectors, queries):
        database = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=crash_plan(at_ops=(2,)),
        )
        events = list(database.session().stream(queries, knn_query(5)))
        degraded = [e for e in events if isinstance(e, DegradedAnswerEvent)]
        assert degraded and any(e.answers for e in degraded)

    def test_ask_still_raises(self, vectors, queries):
        database = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=crash_plan(at_ops=(2,)),
        )
        with pytest.raises(ServerCrash):
            database.session().ask(queries, knn_query(5))


class TestSchedulerDegradation:
    def test_tickets_complete_with_completeness_bounds(self, vectors, queries):
        database = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            fault_plan=crash_plan(at_ops=(2,)),
        )
        scheduler = database.serve(max_block=3)
        tickets = [
            scheduler.submit(obj, knn_query(5), client_id=i)
            for i, obj in enumerate(queries)
        ]
        scheduler.drain()
        assert all(ticket.done for ticket in tickets)
        degraded = [ticket for ticket in tickets if ticket.degraded]
        assert degraded
        for ticket in degraded:
            assert ticket.completeness is not None
            assert 0.0 <= ticket.completeness < 1.0
        assert scheduler.degraded_sessions >= 1

    def test_faults_bump_degraded_sessions_gauge(self, vectors, queries):
        from repro.obs import Observer

        observer = Observer(trace=False)
        database = Database(
            vectors,
            access="xtree",
            block_size=BLOCK_SIZE,
            observer=observer,
            fault_plan=crash_plan(at_ops=(2,)),
        )
        scheduler = database.serve(max_block=3)
        for i, obj in enumerate(queries):
            scheduler.submit(obj, knn_query(5), client_id=i)
        scheduler.drain()
        snapshot = observer.metrics.snapshot()
        assert snapshot["gauges"]["service.degraded_sessions"] >= 1
        assert snapshot["counters"]["fault.injected"] >= 1
