"""Tests for causal provenance, the plan audit and the SLO engine."""

import json
import math

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.planner import CostFit, QueryPlanner
from repro.core.types import knn_query
from repro.obs import (
    CALIBRATION_DRIFT_GAUGE,
    PREDICTION_ERROR_DISTANCES,
    PREDICTION_ERROR_IO,
    PREDICTION_ERROR_SECONDS,
    Observer,
    PlanAudit,
    QueryCard,
    SLOObjective,
    ancestry,
    build_cards,
    evaluate_slos,
    load_slo_spec,
    render_card,
    render_slo,
)
from repro.obs.provenance import index_spans
from repro.parallel.executor import ParallelDatabase

ALL_ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]
ALL_ENGINES = ["reference", "vectorized", "batched"]


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(11).random((600, 8))


def _answers_as_tuples(results):
    return [[(a.index, a.distance) for a in result] for result in results]


def _run_blocks(database, vectors, n_queries=12, block=4):
    # Each block warms its k-NN queries on the tree indexes; with
    # 4 KB pages the warm page alone completes no query, so drives are
    # left to attribute provenance to.
    queries = [vectors[i] for i in range(n_queries)]
    return database.run_in_blocks(
        queries,
        knn_query(5),
        block_size=block,
        db_indices=list(range(n_queries)),
    )


class TestProvenanceEquivalence:
    """Provenance-grade tracing never changes answers or counters."""

    @pytest.mark.parametrize("access", ALL_ACCESS_METHODS)
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_traced_run_identical_across_methods_and_engines(
        self, vectors, access, engine
    ):
        plain = Database(vectors, access=access, engine=engine, block_size=4096)
        expected = _answers_as_tuples(_run_blocks(plain, vectors))
        observer = Observer(trace=True)
        traced = Database(
            vectors, access=access, engine=engine, block_size=4096, observer=observer
        )
        observed = _answers_as_tuples(_run_blocks(traced, vectors))
        assert observed == expected
        assert traced.counters.as_dict() == plain.counters.as_dict()
        # The trace actually carries per-query provenance, not just
        # spans.  Not every query drives -- a query fully answered while
        # piggybacking on another driver's pages never takes the wheel
        # -- but every query admits, and someone must have driven.
        cards = build_cards(observer.tracer.records())
        assert len(cards) == 12
        assert all(card.admissions >= 1 for card in cards.values())
        assert any(card.drives >= 1 for card in cards.values())


class TestProcessBackendCausalTree:
    """Worker-process spans stitch into one tree under the block span."""

    def _traced_parallel_run(self, vectors, backend):
        observer = Observer(trace=True, trace_capacity=65_536)
        with ParallelDatabase(
            vectors, n_servers=2, access="scan", observer=observer
        ) as cluster:
            queries = [vectors[i] for i in range(6)]
            run = cluster.multiple_similarity_query(
                queries, knn_query(3), db_indices=list(range(6)), backend=backend
            )
        return observer.tracer.records(), run

    def test_worker_page_spans_reach_the_block_span(self, vectors):
        records, _ = self._traced_parallel_run(vectors, "process")
        worker_pages = [
            r
            for r in records
            if r.get("name") == "page.process" and r.get("server_id") is not None
        ]
        assert worker_pages, "no worker page.process spans absorbed"
        block_spans = {
            r["span_id"]
            for r in records
            if r.get("name") == "parallel.block" and r.get("kind") == "span"
        }
        assert block_spans
        driven = 0
        for page in worker_pages:
            chain = ancestry(records, page["span_id"])
            names = [r["name"] for r in chain]
            # Every worker page walks up through its worker phase span
            # to the coordinator's parallel.block span: the
            # cross-process parent link holds for the whole tree.
            assert {"worker.phase1", "worker.phase2"} & set(names)
            assert any(r["span_id"] in block_spans for r in chain), names
            if "query.drive" in names:
                driven += 1
        # Most pages are processed while some query drives (warm-up
        # pages sit directly under the phase span).
        assert driven > 0

    def test_one_card_per_query_with_both_servers(self, vectors):
        records, _ = self._traced_parallel_run(vectors, "process")
        cards = build_cards(records)
        assert len(cards) == 6
        for card in cards.values():
            # Each declustered half admits the query; it drives only
            # where piggybacking on earlier drivers left it incomplete.
            assert card.admissions == 2
            assert set(card.servers) <= {0, 1}
            assert all(v.server_id in (0, 1) for v in card.pages)
        # Across the workload both servers did attributed drive work --
        # on scan access a single drive per server sweeps every page and
        # completes the whole batch, so two drives is the exact total.
        assert {s for c in cards.values() for s in c.servers} == {0, 1}
        assert sum(c.drives for c in cards.values()) >= 2

    def test_model_backend_produces_equivalent_cards(self, vectors):
        # The model backend runs the identical per-server computation
        # in-process, so its cards agree with the process backend's on
        # everything deterministic (labels, admissions, drives, pages).
        model_records, _ = self._traced_parallel_run(vectors, "model")
        process_records, _ = self._traced_parallel_run(vectors, "process")
        model_cards = build_cards(model_records)
        process_cards = build_cards(process_records)
        assert list(model_cards) == list(process_cards)
        for label, model_card in model_cards.items():
            process_card = process_cards[label]
            assert model_card.admissions == process_card.admissions
            assert model_card.drives == process_card.drives
            assert len(model_card.pages) == len(process_card.pages)

    def test_trace_ids_are_uniform_and_worker_ids_disjoint(self, vectors):
        records, _ = self._traced_parallel_run(vectors, "process")
        trace_ids = {r.get("trace_id") for r in records}
        assert len(trace_ids) == 1 and None not in trace_ids
        by_id, _ = index_spans(records)
        worker_ids = {
            sid for sid, r in by_id.items() if r.get("server_id") is not None
        }
        parent_ids = {
            sid for sid, r in by_id.items() if r.get("server_id") is None
        }
        assert worker_ids and parent_ids
        assert not worker_ids & parent_ids
        assert min(worker_ids) >= 1_000_000_000


class TestQueryCards:
    def test_build_cards_folds_admissions_pages_and_avoidance(self):
        from repro.obs import Tracer

        tracer = Tracer()
        tracer.event("query.admit", query="q-1", kind="knn", slot=0)
        with tracer.span("query.drive", query="q-1"):
            with tracer.span("page.process", page_id=7, engine="batched", batch=3):
                tracer.event("avoidance.try", tries=5, avoided=3, computed=2)
            tracer.event("prefilter.prune", page_id=9, batch=3)
        tracer.event(
            "session.first_answer", query="q-1", seconds=0.25, pages=1, early=True
        )
        cards = build_cards(tracer.records())
        assert list(cards) == ["q-1"]
        card = cards["q-1"]
        assert card.admissions == 1
        assert card.drives == 1
        assert [v.page_id for v in card.pages] == [7]
        assert [p.page_id for p in card.pruned] == [9]
        assert card.pruned[0].mode == "exact"
        assert card.avoidance_tries == 5
        assert card.avoided_calculations == 3
        assert card.computed_calculations == 2
        assert card.avoidance_rate == pytest.approx(0.6)
        assert card.first_answer == {"seconds": 0.25, "pages": 1, "early": True}

    def test_unattributed_records_build_no_cards(self):
        from repro.obs import Tracer

        tracer = Tracer()
        with tracer.span("block.flush", size=4):
            tracer.event("page.read", page_id=1)
        assert build_cards(tracer.records()) == {}

    def test_render_and_summary_round_trip(self):
        card = QueryCard(query="('serve', 0)", kind="knn")
        text = render_card(card)
        assert "('serve', 0)" in text
        assert "avoidance" in text
        payload = json.dumps(card.summary())
        assert json.loads(payload)["query"] == "('serve', 0)"


class TestPlanAudit:
    def _fit(self):
        return CostFit(
            access="scan",
            shared_seconds=1.0,
            marginal_seconds=0.1,
            shared_io_pages=40.0,
            marginal_io_pages=1.0,
            shared_distances=600.0,
            marginal_distances=10.0,
        )

    def test_audit_emits_prediction_error_histograms(self, vectors):
        observer = Observer(trace=False)
        planner = QueryPlanner(vectors, candidates=("scan",), probe_queries=4)
        plan = planner.plan(8, knn_query(5), max_block_size=4)
        database = planner.database_for(plan)
        database.attach_observer(observer)
        scheduler = database.serve(max_block=4)
        scheduler.replan(plan.fits)
        assert scheduler.audit is not None
        for i in range(8):
            scheduler.submit(vectors[i], knn_query(5))
        scheduler.drain()
        assert scheduler.audit.blocks_audited > 0
        histograms = observer.metrics.snapshot()["histograms"]
        for name in (
            PREDICTION_ERROR_SECONDS,
            PREDICTION_ERROR_IO,
            PREDICTION_ERROR_DISTANCES,
        ):
            assert histograms[name]["count"] > 0, name
        gauges = observer.metrics.snapshot()["gauges"]
        assert CALIBRATION_DRIFT_GAUGE in gauges
        assert gauges[CALIBRATION_DRIFT_GAUGE] > 0.0

    def test_component_fits_probe_nonzero(self, vectors):
        planner = QueryPlanner(vectors, candidates=("scan",), probe_queries=4)
        plan = planner.plan(8, knn_query(5))
        fit = plan.fits[0]
        assert fit.pages_per_query(1) > 0.0
        assert fit.distances_per_query(1) > 0.0
        # Amortisation shape: per-query components fall with block size.
        assert fit.pages_per_query(8) <= fit.pages_per_query(1)

    def test_end_block_tracks_ratio_against_counters(self):
        from repro.costmodel import Counters

        class _Model:
            def total_seconds(self, delta):
                return delta.page_reads * 0.01

        audit = PlanAudit(self._fit(), _Model())
        counters = Counters()
        audit.begin_block(counters)
        counters.sequential_page_reads += 20
        counters.distance_calculations += 300
        audit.end_block(counters, block_size=2)
        assert audit.blocks_audited == 1
        # observed 10 pages/query vs predicted 40/2 + 1 = 21.
        assert audit.drift_io == pytest.approx(10 / 21)
        assert audit.samples == [(2, 0.1)]

    def test_calibrated_refit_moves_the_knee(self):
        audit = PlanAudit(self._fit(), cost_model=None)
        # Observed curve 2.0/m + 0.05: twice the shared cost, half the
        # marginal -- a pure rescale could not fit both points.
        for m, y in [(1, 2.05), (4, 0.55), (1, 2.05), (4, 0.55)]:
            audit.samples.append((m, y))
        refit = audit.calibrated()
        assert refit.shared_seconds == pytest.approx(2.0)
        assert refit.marginal_seconds == pytest.approx(0.05)

    def test_calibrated_scales_when_underdetermined(self):
        audit = PlanAudit(self._fit(), cost_model=None)
        audit.drift_seconds = 2.0
        audit.samples.append((4, 0.7))  # one block size only: no refit
        scaled = audit.calibrated()
        assert scaled.shared_seconds == pytest.approx(2.0)
        assert scaled.marginal_seconds == pytest.approx(0.2)

    def test_degraded_blocks_do_not_feed_the_audit(self, vectors):
        # A crash-heavy plan degrades sessions; those blocks are excluded
        # so fault noise cannot skew calibration.
        from repro.faults import FaultPlan

        observer = Observer(trace=False)
        database = Database(vectors, access="scan", observer=observer)
        database.inject_faults(
            FaultPlan.from_dict(
                {
                    "seed": 5,
                    "sites": {
                        "server.*": {
                            "kinds": ["server_crash"],
                            "probability": 1.0,
                        }
                    },
                }
            )
        )
        scheduler = database.serve(max_block=2)
        scheduler.replan([self._fit()])
        for i in range(4):
            scheduler.submit(vectors[i], knn_query(3))
        scheduler.drain()
        if scheduler.degraded_sessions:
            assert scheduler.audit.blocks_audited < scheduler.blocks_flushed

    def test_summary_is_json_ready(self):
        audit = PlanAudit(self._fit(), cost_model=None)
        payload = json.dumps(audit.summary())
        assert json.loads(payload)["blocks_audited"] == 0


class TestSLOEngine:
    def _snapshot(self, good, bad, completed=0, degraded_hist=None):
        buckets = {}
        if good:
            buckets["0.01"] = good
        if bad:
            buckets["10"] = bad
        histograms = {
            "service.client_latency.seconds": {
                "count": good + bad,
                "sum": 1.0,
                "buckets": buckets,
            }
        }
        counters = {"service.tickets.completed": completed}
        if degraded_hist is not None:
            histograms["service.completeness"] = degraded_hist
        return {"counters": counters, "histograms": histograms}

    def test_latency_objective_conservative_buckets(self):
        objective = SLOObjective(
            name="lat",
            kind="latency",
            metric="service.client_latency.seconds",
            threshold=1.0,
            target=0.9,
        )
        ok = evaluate_slos([objective], self._snapshot(95, 5))[0]
        assert ok.compliance == pytest.approx(0.95)
        assert ok.burn_rate == pytest.approx(0.5)
        assert ok.status == "ok" and ok.ok
        breach = evaluate_slos([objective], self._snapshot(80, 20))[0]
        assert breach.status == "breach" and not breach.ok
        assert breach.burn_rate == pytest.approx(2.0)

    def test_no_data_is_not_a_breach(self):
        objective = SLOObjective(
            name="lat", kind="latency", metric="missing", threshold=1.0, target=0.9
        )
        result = evaluate_slos([objective], {"histograms": {}})[0]
        assert result.compliance is None
        assert result.status == "no-data" and result.ok

    def test_completeness_objective_burns_by_shortfall(self):
        objective = SLOObjective(
            name="complete", kind="completeness", threshold=0.95, target=0.8
        )
        snapshot = self._snapshot(
            0,
            0,
            completed=18,
            degraded_hist={"count": 2, "sum": 1.0, "buckets": {"0.5": 2}},
        )
        result = evaluate_slos([objective], snapshot)[0]
        assert result.compliance == pytest.approx(0.9)
        assert result.mean_completeness == pytest.approx(0.95)
        assert result.status == "ok"
        # Same traffic but a stricter mean threshold breaches.
        strict = SLOObjective(
            name="strict", kind="completeness", threshold=0.99, target=0.8
        )
        assert evaluate_slos([strict], snapshot)[0].status == "breach"

    def test_spec_validation_rejects_bad_input(self):
        with pytest.raises(ValueError):
            SLOObjective(name="x", kind="latency", metric="m", threshold=1, target=1.5)
        with pytest.raises(ValueError):
            SLOObjective(name="x", kind="nope", metric="m", threshold=1, target=0.9)
        with pytest.raises(ValueError):
            load_slo_spec({"objectives": []})
        with pytest.raises(ValueError):
            load_slo_spec(
                {"objectives": [{"kind": "latency", "metric": "m",
                                 "threshold": 1, "target": 0.9, "oops": 1}]}
            )

    def test_load_json_specs_and_reject_yaml(self, tmp_path):
        json_path = tmp_path / "slo.json"
        json_path.write_text(
            json.dumps(
                {
                    "objectives": [
                        {
                            "name": "lat",
                            "kind": "latency",
                            "metric": "service.client_latency.seconds",
                            "threshold": 2.5,
                            "target": 0.95,
                        },
                        {
                            "name": "complete",
                            "kind": "completeness",
                            "threshold": 0.99,
                            "target": 0.9,
                        },
                    ]
                }
            )
        )
        objectives = load_slo_spec(str(json_path))
        assert [o.name for o in objectives] == ["lat", "complete"]
        assert objectives[0].threshold == 2.5
        yaml_path = tmp_path / "slo.yml"
        yaml_path.write_text("objectives:\n  - name: lat\n")
        with pytest.raises(ValueError):
            load_slo_spec(str(yaml_path))

    def test_repo_ci_spec_loads(self):
        objectives = load_slo_spec("ci/slo.json")
        assert len(objectives) == 3
        kinds = {o.kind for o in objectives}
        assert kinds == {"latency", "completeness"}

    def test_render_slo_reports_breach_count(self):
        objective = SLOObjective(
            name="lat",
            kind="latency",
            metric="service.client_latency.seconds",
            threshold=1.0,
            target=0.9,
        )
        text = render_slo(evaluate_slos([objective], self._snapshot(80, 20)))
        assert "breach" in text and "1 breached" in text


class TestExplainCLI:
    def test_explain_renders_a_complete_card_on_process_backend(self, capsys):
        from repro.cli import main

        code = main(
            ["explain", "0", "--objects", "600", "--queries", "3",
             "--backend", "process"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query " in out
        # Worker-process provenance made it into the rendered card.
        assert "servers " in out and "[server " in out
        assert "avoidance" in out

    def test_explain_json_and_range_errors(self, capsys):
        from repro.cli import main

        code = main(
            ["explain", "99", "--objects", "600", "--queries", "3",
             "--backend", "model"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err


class TestEmptyHistogramRendering:
    def test_report_renders_nan_quantiles_as_dash(self):
        from repro.obs import summarize_metrics

        snapshot = {
            "collected": {},
            "counters": {},
            "gauges": {},
            "histograms": {
                "phase.empty.seconds": {
                    "count": 0,
                    "sum": 0.0,
                    "min": 0.0,
                    "max": 0.0,
                    "mean": 0.0,
                    "p50": math.nan,
                    "p95": math.nan,
                    "p99": math.nan,
                    "buckets": {},
                }
            },
        }
        text = summarize_metrics(snapshot)
        assert "-" in text
        assert "nan" not in text.lower()

    def test_prediction_error_not_formatted_as_latency(self):
        from repro.obs import summarize_metrics

        snapshot = {
            "collected": {},
            "counters": {},
            "gauges": {},
            "histograms": {
                PREDICTION_ERROR_SECONDS: {
                    "count": 3,
                    "sum": 3.6,
                    "min": 1.0,
                    "max": 1.4,
                    "mean": 1.2,
                    "p50": 1.2,
                    "p95": 1.4,
                    "p99": 1.4,
                    "buckets": {"1.78": 3},
                }
            },
        }
        text = summarize_metrics(snapshot)
        # Ratios render as plain numbers, never as "ms"/"us" latencies.
        assert "ms" not in text and "us" not in text
