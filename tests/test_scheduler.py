"""Tests for the work-conserving query scheduler.

Pins the scheduling semantics: deterministic logical-tick decisions,
FIFO fairness (the block driver is always the oldest ticket, a lone
ticket runs alone on the next poll), answer identity with the plain
block path, and traced==untraced identity across every access method.
"""

import numpy as np
import pytest

from repro import Database, knn_query, range_query
from repro.core.planner import CostFit
from repro.obs import Observer
from repro.service import (
    ORDER_AFFINITY,
    ORDER_FIFO,
    QueryScheduler,
    knee_block_size,
    recommend_access,
)

ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(31)
    centers = rng.random((5, 6))
    return np.clip(
        centers[rng.integers(0, 5, 600)] + rng.standard_normal((600, 6)) * 0.05,
        0,
        1,
    )


def make_db(vectors, access="xtree", **kwargs):
    return Database(vectors, access=access, block_size=2048, **kwargs)


def round_robin_trace(vectors, n_clients=4, per_client=4, k=5):
    trace = []
    position = 0
    for _ in range(per_client):
        for client in range(n_clients):
            trace.append((client, vectors[position * 7 % len(vectors)], knn_query(k)))
            position += 1
    return trace


def as_tuples(answers):
    return [(a.index, a.distance) for a in answers]


class TestKneePoint:
    def test_knee_is_smallest_block_within_tolerance(self):
        fit = CostFit(access="xtree", shared_seconds=1.0, marginal_seconds=0.1)
        # per_query(m) = 1/m + 0.1; asymptote at m=32 is ~0.13125.
        knee = knee_block_size(fit, max_block=32, tolerance=0.1)
        asymptote = fit.per_query(32)
        assert fit.per_query(knee) <= asymptote * 1.1
        assert knee > 1
        assert fit.per_query(knee - 1) > asymptote * 1.1

    def test_no_shared_cost_means_no_batching(self):
        fit = CostFit(access="scan", shared_seconds=0.0, marginal_seconds=0.2)
        assert knee_block_size(fit, max_block=32) == 1

    def test_knee_rejects_bad_max_block(self):
        fit = CostFit(access="scan", shared_seconds=1.0, marginal_seconds=0.1)
        with pytest.raises(ValueError):
            knee_block_size(fit, max_block=0)

    def test_recommend_access_picks_cheapest_at_block_size(self):
        fits = [
            CostFit(access="scan", shared_seconds=0.0, marginal_seconds=0.5),
            CostFit(access="xtree", shared_seconds=2.0, marginal_seconds=0.05),
        ]
        # At m=1 the scan is cheaper; at m=32 the tree amortises.
        assert recommend_access(fits, 1) == "scan"
        assert recommend_access(fits, 32) == "xtree"
        with pytest.raises(ValueError):
            recommend_access([], 4)


class TestFlushTriggers:
    def test_submit_only_enqueues_and_poll_runs_the_oldest_up_to_the_cap(
        self, vectors
    ):
        scheduler = make_db(vectors).serve(max_block=3)
        tickets = [
            scheduler.submit(vectors[i * 5], knn_query(3), client_id=i)
            for i in range(5)
        ]
        assert not any(t.done for t in tickets)
        assert scheduler.queue_depth == 5
        scheduler.poll()
        assert [t.done for t in tickets] == [True] * 3 + [False] * 2
        assert {t.batch_size for t in tickets[:3]} == {3}
        scheduler.poll()
        assert all(t.done for t in tickets) and tickets[3].batch_size == 2
        assert scheduler.queue_depth == 0

    def test_lone_ticket_runs_alone_on_the_next_poll(self, vectors):
        """Never wait in order to batch: m = 1 when nothing else waits."""
        scheduler = make_db(vectors).serve()
        ticket = scheduler.submit(vectors[0], knn_query(3))
        scheduler.poll()
        assert ticket.done and ticket.batch_size == 1
        assert ticket.completed_tick - ticket.submitted_tick == 1
        assert ticket.completed_at >= ticket.submitted_at
        scheduler.poll()  # an empty queue only advances the clock
        assert scheduler.tick == 3

    def test_queue_pressure_flushes_before_admitting(self, vectors):
        scheduler = make_db(vectors).serve(max_block=4, max_queue=4)
        tickets = [
            scheduler.submit(vectors[i], knn_query(3)) for i in range(5)
        ]
        assert all(t.done for t in tickets[:4])
        assert not tickets[4].done
        assert scheduler.queue_depth == 1

    def test_drain_completes_everything(self, vectors):
        scheduler = make_db(vectors).serve()
        tickets = [
            scheduler.submit(vectors[i], knn_query(3)) for i in range(5)
        ]
        scheduler.drain()
        assert all(t.done for t in tickets)
        assert scheduler.queue_depth == 0

    def test_rejects_bad_parameters(self, vectors):
        db = make_db(vectors)
        with pytest.raises(ValueError):
            db.serve(order="random")
        with pytest.raises(ValueError):
            db.serve(max_block=0)


class TestDeterminism:
    @pytest.mark.parametrize("order", [ORDER_FIFO, ORDER_AFFINITY])
    def test_same_trace_same_schedule_and_answers(self, vectors, order):
        trace = round_robin_trace(vectors)

        def run():
            db = make_db(vectors)
            scheduler = db.serve(max_block=4, order=order)
            tickets = scheduler.serve(trace)
            return (
                [as_tuples(t.answers) for t in tickets],
                [(t.submitted_tick, t.completed_tick, t.batch_size) for t in tickets],
                db.counters.as_dict(),
            )

        assert run() == run()


class TestAnswerIdentity:
    @pytest.mark.parametrize("order", [ORDER_FIFO, ORDER_AFFINITY])
    def test_scheduler_answers_match_direct_queries(self, vectors, order):
        """Batching and block order never change any client's answers."""
        trace = round_robin_trace(vectors)
        db = make_db(vectors)
        tickets = db.serve(max_block=4, order=order).serve(trace)
        reference_db = make_db(vectors)
        for ticket, (_, obj, qtype) in zip(tickets, trace):
            want = reference_db.similarity_query(obj, qtype)
            assert as_tuples(ticket.answers) == as_tuples(want)

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_traced_identical_to_untraced(self, vectors, access):
        trace = round_robin_trace(vectors, n_clients=3, per_client=3)

        plain_db = make_db(vectors, access)
        plain = plain_db.serve(max_block=4).serve(trace)

        observer = Observer(trace=True)
        traced_db = make_db(vectors, access, observer=observer)
        traced = traced_db.serve(max_block=4).serve(trace)

        assert [as_tuples(t.answers) for t in plain] == [
            as_tuples(t.answers) for t in traced
        ]
        assert plain_db.counters.as_dict() == traced_db.counters.as_dict()
        names = {r["name"] for r in observer.tracer.records()}
        assert {"service.submit", "service.flush", "query.drive"} <= names


class TestFairness:
    def test_fifo_driver_is_always_the_oldest(self, vectors):
        """Under both orders batch[0] stays the oldest waiting ticket."""
        for order in (ORDER_FIFO, ORDER_AFFINITY):
            observer = Observer(trace=True)
            db = make_db(vectors, observer=observer)
            scheduler = db.serve(max_block=4, order=order)
            tickets = scheduler.serve(round_robin_trace(vectors))
            # Tickets complete in submission order (block = FIFO prefix).
            completed = [t.completed_tick for t in tickets]
            assert completed == sorted(completed)
            # The burst drains as consecutive FIFO slices of the cap.
            assert [t.batch_size for t in tickets] == [4] * len(tickets)

    def test_affinity_keeps_driver_and_permutes_rest(self, vectors):
        scheduler = make_db(vectors).serve(order=ORDER_AFFINITY)
        tickets = [
            scheduler.submit(vectors[i * 50], knn_query(3), client_id=i)
            for i in range(6)
        ]
        batch = scheduler._order_batch(list(tickets))
        assert batch[0] is tickets[0]
        assert sorted(t.client_id for t in batch) == list(range(6))
        scheduler.drain()


class TestReplan:
    def test_replan_installs_knee_target_and_recommendation(self, vectors):
        observer = Observer(trace=True)
        db = make_db(vectors, "xtree", observer=observer)
        scheduler = db.serve(max_block=32)
        fits = [
            CostFit(access="xtree", shared_seconds=1.0, marginal_seconds=0.1),
            CostFit(access="scan", shared_seconds=0.0, marginal_seconds=5.0),
        ]
        scheduler.replan(fits)
        assert scheduler.max_block == knee_block_size(fits[0], 32)
        assert scheduler.recommended_access == "xtree"
        names = {r["name"] for r in observer.tracer.records()}
        assert "service.replan" in names

    def test_replan_without_own_access_uses_cheapest_fit(self, vectors):
        scheduler = make_db(vectors, "scan").serve(max_block=16)
        fits = [
            CostFit(access="xtree", shared_seconds=0.8, marginal_seconds=0.05),
            CostFit(access="mtree", shared_seconds=2.0, marginal_seconds=0.2),
        ]
        scheduler.replan(fits)
        assert scheduler.recommended_access == "xtree"

    def test_fits_at_construction(self, vectors):
        fits = [CostFit(access="xtree", shared_seconds=1.0, marginal_seconds=0.1)]
        scheduler = QueryScheduler(make_db(vectors, "xtree"), fits=fits)
        assert scheduler.max_block == knee_block_size(fits[0], 8)


class TestServiceMetrics:
    def test_serving_records_queue_and_latency_metrics(self, vectors):
        observer = Observer(trace=False)
        db = make_db(vectors, observer=observer)
        db.serve(max_block=4).serve(round_robin_trace(vectors))
        snapshot = observer.metrics.snapshot()
        hists = snapshot["histograms"]
        assert hists["service.batch_occupancy"]["count"] >= 4
        assert hists["service.batch_occupancy"]["max"] <= 32
        assert hists["service.client_latency.seconds"]["count"] == 16
        assert hists["service.wait.ticks"]["count"] == 16
        assert hists["service.time_to_first_answer.seconds"]["count"] >= 4
        assert snapshot["gauges"]["service.queue_depth"] == 0.0


def mixed_trace(vectors, n_clients=4, per_client=4):
    """Heterogeneous round-robin trace: kNN and diverse-radius range."""
    kinds = [knn_query(5), range_query(0.3), knn_query(3), range_query(0.5)]
    trace = []
    position = 0
    for _ in range(per_client):
        for client in range(n_clients):
            trace.append(
                (
                    client,
                    vectors[position * 7 % len(vectors)],
                    kinds[position % len(kinds)],
                )
            )
            position += 1
    return trace


class TestReplanHysteresis:
    """No block-cap oscillation after an anomaly halving."""

    FITS = [CostFit(access="xtree", shared_seconds=1.0, marginal_seconds=0.1)]
    FIRING = [{"rule": "latency_collapse", "replan": True}]

    def _scheduler(self, vectors):
        scheduler = make_db(vectors, "xtree").serve(max_block=32)
        scheduler.replan(self.FITS)
        return scheduler, scheduler.max_block

    def test_anomaly_halves_and_refit_does_not_reraise(self, vectors):
        scheduler, knee = self._scheduler(vectors)
        scheduler.replan(anomalies=self.FIRING)
        halved = scheduler.max_block
        assert halved == max(1, knee // 2)
        # A refit alone must NOT re-raise the target: no post-back-off
        # block has been audited yet (this was the oscillation bug).
        scheduler.replan(self.FITS)
        assert scheduler.max_block == halved

    def test_unrecovered_drift_keeps_backed_off_target(self, vectors):
        scheduler, _ = self._scheduler(vectors)
        scheduler.replan(anomalies=self.FIRING)
        halved = scheduler.max_block
        scheduler.audit.blocks_audited += 1  # a post-back-off block...
        scheduler.audit.drift_seconds = 5.0  # ...but drift still high
        scheduler.replan(self.FITS)
        assert scheduler.max_block == halved

    def test_recovered_drift_releases_the_backoff(self, vectors):
        scheduler, knee = self._scheduler(vectors)
        scheduler.replan(anomalies=self.FIRING)
        scheduler.audit.blocks_audited += 1
        scheduler.audit.drift_seconds = 1.0  # below DEFAULT_DRIFT_RECOVERY
        scheduler.replan(self.FITS)
        assert scheduler.max_block == knee

    def test_repeated_anomaly_and_refit_never_oscillates(self, vectors):
        scheduler, _ = self._scheduler(vectors)
        scheduler.replan(anomalies=self.FIRING)
        floor = scheduler.max_block
        scheduler.audit.drift_seconds = 5.0
        for _ in range(4):
            scheduler.replan(self.FITS)
            assert scheduler.max_block == floor
            scheduler.replan(anomalies=self.FIRING)
            floor = scheduler.max_block
        assert floor == 1  # monotone decay, never a re-raise in between


class TestHeterogeneousBatches:
    """Satellite 3: mixed query kinds through every partitioning mode."""

    def reference_answers(self, vectors, trace):
        db = make_db(vectors)
        return [
            as_tuples(db.similarity_query(obj, qtype))
            for (_, obj, qtype) in trace
        ]

    @pytest.mark.parametrize("order", [ORDER_FIFO, ORDER_AFFINITY])
    def test_v1_orders_answer_identity_and_fairness(self, vectors, order):
        trace = mixed_trace(vectors)
        reference = self.reference_answers(vectors, trace)
        scheduler = make_db(vectors).serve(max_block=4, order=order)
        tickets = scheduler.serve(trace)
        assert [as_tuples(t.answers) for t in tickets] == reference
        completions = {}
        for t in tickets:
            completions[t.client_id] = completions.get(t.client_id, 0) + 1
        assert set(completions.values()) == {4}

    def test_v2_partitioning_answer_identity_and_fairness(self, vectors):
        trace = mixed_trace(vectors)
        reference = self.reference_answers(vectors, trace)
        scheduler = make_db(vectors).serve(
            max_block=16, optimizer="v2"
        )
        tickets = scheduler.serve(trace)
        assert [as_tuples(t.answers) for t in tickets] == reference
        completions = {}
        for t in tickets:
            completions[t.client_id] = completions.get(t.client_id, 0) + 1
        assert set(completions.values()) == {4}

    def test_v2_with_planner_answer_identity(self, vectors):
        from repro.core.planner import QueryPlanner

        trace = mixed_trace(vectors)
        reference = self.reference_answers(vectors, trace)
        planner = QueryPlanner(
            vectors, candidates=("scan", "xtree"), probe_queries=4
        )
        scheduler = make_db(vectors).serve(
            max_block=16, optimizer="v2", planner=planner
        )
        tickets = scheduler.serve(trace)
        assert [as_tuples(t.answers) for t in tickets] == reference


class TestOptimizerV2Identity:
    """v2 forced to one partition is byte-identical to v1."""

    @pytest.mark.parametrize("access", ACCESS_METHODS)
    def test_single_partition_matches_v1_counters(self, vectors, access):
        trace = mixed_trace(vectors)
        results = {}
        for optimizer, share_bound in (("v1", None), ("v2", np.inf)):
            db = make_db(vectors, access)
            scheduler = db.serve(
                max_block=4,
                optimizer=optimizer,
                share_bound=share_bound,
            )
            tickets = scheduler.serve(trace)
            results[optimizer] = (
                [as_tuples(t.answers) for t in tickets],
                db.counters.as_dict(),
            )
        assert results["v1"][0] == results["v2"][0]
        assert results["v1"][1] == results["v2"][1]

    def test_v2_rejects_unknown_optimizer(self, vectors):
        with pytest.raises(ValueError):
            make_db(vectors).serve(optimizer="v3")

    def test_v2_emits_partition_metrics_and_plan_events(self, vectors):
        observer = Observer(trace=True)
        db = make_db(vectors, observer=observer)
        scheduler = db.serve(max_block=16, optimizer="v2")
        scheduler.serve(mixed_trace(vectors))
        snapshot = observer.metrics.snapshot()
        assert snapshot["histograms"]["planner.partition.count"]["count"] >= 1
        assert snapshot["histograms"]["planner.partition.size"]["count"] >= 1
        assert "planner.partition.sharing_factor" in snapshot["gauges"]
        plans = [
            r for r in observer.tracer.records() if r["name"] == "planner.plan"
        ]
        assert plans
        for record in plans:
            attrs = record["attrs"]
            assert attrs["queries"]
            assert attrs["size"] == len(attrs["queries"].split("|"))
