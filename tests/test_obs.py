"""Tests for the structured observability layer (repro.obs)."""

import json
import math

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.engine import engine_names, get_engine
from repro.core.types import knn_query, range_query
from repro.costmodel import Counters
from repro.obs import (
    CountersAdapter,
    MetricsRegistry,
    Observer,
    Tracer,
    attach_counters,
    read_jsonl,
    render_report,
    summarize_metrics,
    summarize_trace,
)
from repro.parallel.executor import ParallelDatabase, ParallelRun
from repro.storage.buffer import LRUBufferPool


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(7).random((900, 8))


def _answers_as_tuples(results):
    return [[(a.index, a.distance) for a in result] for result in results]


def _run_blocks(database, vectors, n_queries=18, block=6):
    queries = [vectors[i] for i in range(n_queries)]
    return database.run_in_blocks(
        queries, knn_query(5), block_size=block, db_indices=list(range(n_queries))
    )


class TestTracer:
    def test_span_nesting_records_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("block.flush", block=0):
            with tracer.span("query.drive"):
                with tracer.span("page.process", page_id=3):
                    tracer.event("avoidance.try", tries=4)
        records = tracer.records()
        # Spans are recorded at exit: innermost first, event before all.
        by_name = {r["name"]: r for r in records}
        event = by_name["avoidance.try"]
        page = by_name["page.process"]
        drive = by_name["query.drive"]
        block = by_name["block.flush"]
        assert event["parent_id"] == page["span_id"]
        assert page["parent_id"] == drive["span_id"]
        assert drive["parent_id"] == block["span_id"]
        assert block["parent_id"] is None
        assert (block["depth"], drive["depth"], page["depth"]) == (0, 1, 2)
        assert all(r["dur_s"] >= 0 for r in records if r["kind"] == "span")

    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.event("e", i=i)
        assert len(tracer) == 4
        assert tracer.n_emitted == 10
        assert tracer.n_dropped == 6
        kept = [r["attrs"]["i"] for r in tracer.records()]
        assert kept == [6, 7, 8, 9]

    def test_disabled_is_noop(self):
        tracer = Tracer(enabled=False)
        tracer.event("query.admit", slot=1)
        with tracer.span("page.process") as span:
            pass
        assert len(tracer) == 0
        assert tracer.n_emitted == 0
        # The disabled fast path hands out one shared null span.
        assert tracer.span("a") is tracer.span("b")

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("block.flush", size=3):
            tracer.event("query.admit", slot=0, kind="range")
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(str(path)) == 2
        parsed = read_jsonl(str(path))
        assert parsed == json.loads(
            "[" + ",".join(json.dumps(r) for r in tracer.records()) + "]"
        )
        assert {r["name"] for r in parsed} == {"block.flush", "query.admit"}

    def test_gzip_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("block.flush", size=3):
            tracer.event("query.admit", slot=0, kind="range")
        path = tmp_path / "trace.jsonl.gz"
        assert tracer.export_jsonl(str(path)) == 2
        # Actually gzip-compressed on disk (magic bytes), transparently
        # parsed back by read_jsonl.
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        assert read_jsonl(str(path)) == tracer.records()

    def test_absorb_preserves_worker_stamps(self):
        parent = Tracer(trace_id="t-1")
        with parent.span("parallel.block") as block:
            pass
        worker = Tracer(
            trace_id="t-1",
            server_id=3,
            id_base=10_000,
            root_parent_id=block.span_id,
        )
        with worker.span("worker.phase1"):
            worker.event("prefilter.prune", page_id=5)
        assert parent.absorb(worker.records()) == 2
        records = parent.records()
        assert all(r["trace_id"] == "t-1" for r in records)
        absorbed = [r for r in records if r.get("server_id") == 3]
        assert len(absorbed) == 2
        # Worker ids come from the disjoint id_base range, and the
        # worker's root spans adopted the parent block as parent.
        phase = next(r for r in absorbed if r["name"] == "worker.phase1")
        assert phase["span_id"] > 10_000
        assert phase["parent_id"] == block.span_id

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestMetricsRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counter_gauge_histogram_snapshot(self):
        registry = MetricsRegistry()
        registry.inc("events.query.admit", 3)
        registry.set_gauge("parallel.skew", 1.25)
        for value in (1e-5, 2e-5, 4e-3, 0.5):
            registry.observe("phase.page.process.seconds", value)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["events.query.admit"] == 3
        assert snapshot["gauges"]["parallel.skew"] == 1.25
        hist = snapshot["histograms"]["phase.page.process.seconds"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(0.50403)
        assert hist["min"] == pytest.approx(1e-5)
        assert hist["max"] == pytest.approx(0.5)
        assert hist["p50"] <= hist["p95"] <= hist["max"]
        assert sum(hist["buckets"].values()) == 4

    def test_histogram_quantiles_monotone(self):
        registry = MetricsRegistry()
        h = registry.histogram("h")
        for value in np.linspace(1e-6, 1.0, 200):
            h.observe(float(value))
        assert h.quantile(0.1) <= h.quantile(0.5) <= h.quantile(0.99) <= h.max
        assert h.mean == pytest.approx(h.sum / h.count)

    def test_quantile_interpolates_within_the_covering_bucket(self):
        # Regression pin: quantiles interpolate linearly between bucket
        # bounds (clamped to observed min/max) instead of reporting the
        # bucket's upper bound.
        h = MetricsRegistry().histogram("h")
        h.observe(0.25)
        assert h.quantile(0.5) == 0.25  # exactly the observation
        uniform = MetricsRegistry().histogram("u")
        for value in np.linspace(0.0, 1.0, 1001):
            uniform.observe(float(value))
        # On dense uniform data the interpolated estimate tracks the
        # true quantile far inside any single bucket's width.
        for q in (0.1, 0.25, 0.5, 0.9):
            assert uniform.quantile(q) == pytest.approx(q, abs=0.05)
        # Monotone in q, and the extremes clamp to observed min/max.
        assert uniform.quantile(0.0) >= uniform.min
        assert uniform.quantile(1.0) <= uniform.max

    def test_empty_histogram_quantiles_are_nan(self):
        # An empty histogram has no quantiles: NaN, deterministically,
        # so "no observations" is distinguishable from "observed zero".
        h = MetricsRegistry().histogram("h")
        assert math.isnan(h.quantile(0.5))
        snapshot = h.snapshot()
        assert snapshot["count"] == 0
        assert math.isnan(snapshot["p50"])
        assert math.isnan(snapshot["p95"])
        assert math.isnan(snapshot["p99"])
        h.observe(0.25)
        assert h.quantile(0.5) == pytest.approx(0.25)

    def test_collectors_merged_at_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector(lambda: {"x": 1.0})
        registry.register_collector(lambda: {"y": 2.0})
        assert registry.snapshot()["collected"] == {"x": 1.0, "y": 2.0}

    def test_counters_adapter_publishes_all_fields(self):
        counters = Counters(
            random_page_reads=10,
            sequential_page_reads=5,
            distance_calculations=90,
            avoided_calculations=10,
            queries_completed=30,
        )
        registry = MetricsRegistry()
        attach_counters(registry, counters)
        collected = registry.snapshot()["collected"]
        for name in counters.as_dict():
            assert collected[f"cost.{name}"] == getattr(counters, name)
        assert collected["cost.page_reads"] == 15
        assert collected["derived.sharing_factor"] == pytest.approx(2.0)
        assert collected["derived.avoidance_hit_rate"] == pytest.approx(0.1)

    def test_adapter_reads_live_values(self):
        counters = Counters()
        adapter = CountersAdapter(counters)
        assert adapter.collect()["cost.distance_calculations"] == 0
        counters.distance_calculations += 7
        assert adapter.collect()["cost.distance_calculations"] == 7

    def test_write_json(self, tmp_path):
        registry = MetricsRegistry()
        registry.observe("h", math.inf)  # inf must serialise, not crash
        path = tmp_path / "metrics.json"
        registry.write_json(str(path))
        assert json.load(open(path))["histograms"]["h"]["count"] == 1


class TestDerivedCounterProperties:
    def test_sharing_factor(self):
        counters = Counters()
        assert counters.sharing_factor == 0.0
        counters.random_page_reads = 4
        counters.queries_completed = 12
        assert counters.sharing_factor == pytest.approx(3.0)

    def test_avoidance_hit_rate(self):
        counters = Counters()
        assert counters.avoidance_hit_rate == 0.0
        counters.distance_calculations = 75
        counters.avoided_calculations = 25
        assert counters.avoidance_hit_rate == pytest.approx(0.25)


class TestBufferHitRate:
    def test_hit_rate_counts_lookups(self):
        pool = LRUBufferPool(4)
        assert pool.hit_rate == 0.0
        assert pool.access(1) is False
        assert pool.access(1) is True
        assert pool.access(2) is False
        assert pool.lookups == 3
        assert pool.hits == 1
        assert pool.hit_rate == pytest.approx(1 / 3)

    def test_zero_capacity_pool_still_counts(self):
        pool = LRUBufferPool(0)
        pool.access(1)
        pool.access(1)
        assert pool.lookups == 2
        assert pool.hits == 0
        assert pool.hit_rate == 0.0


class TestEngineRegistry:
    def test_engine_names_match_registry(self):
        names = engine_names()
        assert names == ["reference", "vectorized", "batched"]
        for name in names:
            assert callable(get_engine(name))

    def test_get_engine_without_observer_is_raw(self):
        from repro.core.engine import process_page_batched

        assert get_engine("batched") is process_page_batched

    def test_get_engine_with_observer_wraps(self):
        observer = Observer(trace=False)
        wrapped = get_engine("batched", observer)
        from repro.core.engine import process_page_batched

        assert wrapped is not process_page_batched


class TestObservedRunsAreEquivalent:
    @pytest.mark.parametrize("engine", ["reference", "vectorized", "batched"])
    def test_traced_run_identical_answers_and_counters(self, vectors, engine):
        plain = Database(vectors, access="xtree", engine=engine)
        expected = _answers_as_tuples(_run_blocks(plain, vectors))

        observer = Observer()
        traced = Database(vectors, access="xtree", engine=engine, observer=observer)
        got = _answers_as_tuples(_run_blocks(traced, vectors))

        assert got == expected
        assert traced.counters.as_dict() == plain.counters.as_dict()
        # ... and the run was actually observed.
        snapshot = observer.snapshot()
        assert snapshot["counters"]["pages.processed"] > 0
        assert snapshot["counters"]["events.query.admit"] == 18
        assert len(observer.tracer) > 0

    def test_disabled_tracing_is_noop_with_no_counter_drift(self, vectors):
        plain = Database(vectors, access="xtree")
        _run_blocks(plain, vectors)

        observer = Observer(trace=False)
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)

        # Zero trace entries, zero drift in the paper's cost counters.
        assert len(observer.tracer) == 0
        assert observer.tracer.n_emitted == 0
        assert database.counters.as_dict() == plain.counters.as_dict()
        # Metrics (phase histograms) are still gathered.
        assert observer.metrics.histogram("phase.page.process.seconds").count > 0

    def test_range_queries_observed(self, vectors):
        observer = Observer()
        database = Database(vectors, access="scan", observer=observer)
        processor = database.processor()
        answers = processor.process([vectors[0]], [range_query(0.4)])
        assert answers
        names = {r["name"] for r in observer.tracer.records()}
        assert "query.admit" in names
        assert "page.process" in names

    def test_trace_has_expected_span_structure(self, vectors):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        records = observer.tracer.records()
        spans = {r["name"] for r in records if r["kind"] == "span"}
        assert {"block.flush", "query.drive", "page.process"} <= spans
        # Every page.process span nests under a parent span.
        pages = [
            r for r in records if r["kind"] == "span" and r["name"] == "page.process"
        ]
        assert pages and all(r["parent_id"] is not None for r in pages)

    def test_metrics_snapshot_has_required_derived_metrics(self, vectors):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        snapshot = observer.snapshot()
        collected = snapshot["collected"]
        assert collected["derived.sharing_factor"] == pytest.approx(
            database.counters.sharing_factor
        )
        assert collected["derived.avoidance_hit_rate"] == pytest.approx(
            database.counters.avoidance_hit_rate
        )
        assert collected["derived.buffer_hit_rate"] == pytest.approx(
            database.disk.buffer.hit_rate
        )
        assert "phase.page.process.seconds" in snapshot["histograms"]


class TestParallelObservability:
    def test_worker_run_events_and_skew(self, vectors):
        observer = Observer()
        cluster = ParallelDatabase(
            vectors, n_servers=3, access="scan", observer=observer
        )
        queries = [vectors[i] for i in range(6)]
        run = cluster.multiple_similarity_query(
            queries, knn_query(4), db_indices=list(range(6))
        )
        assert run.skew >= 1.0
        events = [
            r for r in observer.tracer.records() if r["name"] == "worker.run"
        ]
        assert len(events) == 3
        assert {e["attrs"]["server"] for e in events} == {0, 1, 2}
        snapshot = observer.snapshot()
        assert snapshot["gauges"]["parallel.skew"] == pytest.approx(run.skew)
        assert snapshot["histograms"]["server.modelled_seconds"]["count"] == 3

    def test_skew_properties(self):
        assert ParallelRun(answers=[], per_server=[]).skew == 1.0
        with pytest.raises(ValueError):
            ParallelRun(answers=[], per_server=[]).wall_skew


class TestReportRendering:
    def test_render_report_from_real_run(self, vectors, tmp_path):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        metrics_path = tmp_path / "m.json"
        trace_path = tmp_path / "t.jsonl"
        observer.write_metrics(str(metrics_path))
        observer.write_trace(str(trace_path))
        text = render_report(
            json.load(open(metrics_path)), read_jsonl(str(trace_path))
        )
        assert "sharing factor" in text
        assert "phase latencies" in text
        assert "page.process" in text
        assert "slowest" in text

    def test_summaries_handle_empty_input(self):
        assert "run summary" in summarize_metrics({})
        assert "trace (0 entries)" in summarize_trace([])

    def test_phase_table_reports_tail_quantiles(self, vectors):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        text = render_report(observer.snapshot(), None)
        assert "p99" in text and "p95" in text and "p50" in text


ALL_ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]


@pytest.fixture(scope="module")
def clustered():
    # Tight clusters so every tree access method actually prunes
    # subtrees (uniform data defeats the M-tree's covering radii).
    from repro.workloads import make_gaussian_mixture

    return make_gaussian_mixture(
        n=900, dimension=8, n_clusters=12, cluster_std=0.03, seed=3
    ).vectors


class TestIndexTraversalTelemetry:
    @pytest.mark.parametrize("access", ALL_ACCESS_METHODS)
    def test_knn_identity_and_traversal_events(self, clustered, access):
        vectors = clustered
        plain = Database(vectors, access=access)
        expected = _answers_as_tuples(_run_blocks(plain, vectors))

        observer = Observer()
        traced = Database(vectors, access=access, observer=observer)
        got = _answers_as_tuples(_run_blocks(traced, vectors))

        assert got == expected
        assert traced.counters.as_dict() == plain.counters.as_dict()

        snapshot = observer.snapshot()
        assert snapshot["counters"]["events.index.node_visit"] > 0
        visits = [
            r for r in observer.tracer.records() if r["name"] == "index.node_visit"
        ]
        assert visits
        assert all(r["attrs"]["access"] == access for r in visits)
        assert all(r["attrs"]["level"] >= 0 for r in visits)
        assert all(r["attrs"]["entries"] > 0 for r in visits)
        if access == "scan":
            # A scan reads everything: no subtree is ever pruned.
            assert snapshot["gauges"]["index.prune_effectiveness"] == 0.0
        else:
            assert snapshot["counters"]["events.index.prune"] > 0
            assert snapshot["counters"]["index.subtrees_pruned"] > 0
            # Gauge holds the LAST stream's effectiveness (per-query).
            assert 0.0 <= snapshot["gauges"]["index.prune_effectiveness"] <= 1.0
            prunes = [
                r for r in observer.tracer.records() if r["name"] == "index.prune"
            ]
            assert prunes and all(r["attrs"]["count"] > 0 for r in prunes)

    def test_vafile_filter_step_reports_candidate_set(self, vectors):
        observer = Observer()
        database = Database(vectors, access="vafile", observer=observer)
        _run_blocks(database, vectors)
        filters = [
            r for r in observer.tracer.records() if r["name"] == "index.filter"
        ]
        assert filters
        assert all(f["attrs"]["objects"] == len(vectors) for f in filters)
        assert all(f["attrs"]["pages"] > 0 for f in filters)
        # At the final radius at least k objects pass the filter.
        assert observer.snapshot()["gauges"]["index.vafile.candidates"] >= 5

    @pytest.mark.parametrize("access", ALL_ACCESS_METHODS)
    def test_no_observer_means_no_telemetry_object(self, vectors, access):
        database = Database(vectors, access=access)
        assert database.access_method.observer is None
        assert database.access_method.traversal_telemetry() is None


class TestMiningSpans:
    def test_dbscan_identity_and_nested_spans(self, vectors):
        from repro.mining.dbscan import dbscan

        data = vectors[:300]
        plain = Database(data, access="xtree")
        expected = dbscan(plain, eps=0.45, min_pts=4, batch_size=4)

        observer = Observer()
        traced = Database(data, access="xtree", observer=observer)
        got = dbscan(traced, eps=0.45, min_pts=4, batch_size=4)

        assert np.array_equal(got.labels, expected.labels)
        assert got.n_clusters == expected.n_clusters
        assert got.queries_issued == expected.queries_issued
        assert traced.counters.as_dict() == plain.counters.as_dict()

        spans = [
            r for r in observer.tracer.records() if r["kind"] == "span"
        ]
        by_id = {r["span_id"]: r for r in spans}
        assert sum(1 for r in spans if r["name"] == "mine.dbscan") == 1
        iterations = [r for r in spans if r["name"] == "mine.iteration"]
        assert iterations
        assert all(r["attrs"]["driver"] == "dbscan" for r in iterations)

        def ancestor_names(record):
            names = set()
            while record["parent_id"] is not None:
                record = by_id.get(record["parent_id"])
                if record is None:  # parent evicted from the ring buffer
                    break
                names.add(record["name"])
            return names

        # End-to-end nesting: mining loop -> multi-query -> page engine.
        drives = [r for r in spans if r["name"] == "query.drive"]
        pages = [r for r in spans if r["name"] == "page.process"]
        assert drives and pages
        assert any("mine.iteration" in ancestor_names(r) for r in drives)
        assert any(
            {"mine.iteration", "mine.dbscan"} <= ancestor_names(r) for r in pages
        )

    def test_all_drivers_emit_iteration_spans(self, vectors):
        from repro.mining.classify import knn_classify
        from repro.mining.explore import explore_neighborhoods
        from repro.mining.proximity import proximity_analysis
        from repro.mining.trend import detect_trends

        data = np.asarray(vectors[:200])
        labels = np.arange(len(data)) % 3
        runs = {
            "mine.explore": lambda db: explore_neighborhoods(
                db, [0, 1], knn_query(4), max_iterations=3
            ),
            "mine.proximity": lambda db: proximity_analysis(db, [0, 1, 2]),
            "mine.classify": lambda db: knn_classify(
                db, [0, 1, 2, 3], k=3, labels=labels
            ),
            "mine.trend": lambda db: detect_trends(
                db, 0, np.linspace(0.0, 1.0, len(data)), n_paths=2, path_length=2
            ),
        }
        for phase_name, run in runs.items():
            observer = Observer()
            database = Database(data, access="xtree", observer=observer)
            run(database)
            spans = {
                r["name"]
                for r in observer.tracer.records()
                if r["kind"] == "span"
            }
            assert phase_name in spans, phase_name
            assert "mine.iteration" in spans, phase_name
            histogram = observer.metrics.histogram("phase.mine.iteration.seconds")
            assert histogram.count > 0

    def test_mining_without_observer_unchanged(self, vectors):
        from repro.mining.dbscan import dbscan

        data = vectors[:200]
        database = Database(data, access="xtree")
        result = dbscan(database, eps=0.45, min_pts=4, batch_size=3)
        assert result.n_clusters >= 0  # runs through the nullcontext path


class TestDeterministicOutput:
    def test_write_metrics_is_byte_stable(self, vectors, tmp_path):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        observer.write_metrics(str(first))
        observer.write_metrics(str(second))
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert list(payload) == sorted(payload)
        assert list(payload["counters"]) == sorted(payload["counters"])

    def test_stable_floats_rounds_to_nine_significant_digits(self):
        from repro.obs import stable_floats

        assert stable_floats(0.1 + 0.2) == 0.3
        assert stable_floats({"a": [1.23456789012345, 2]}) == {
            "a": [1.23456789, 2]
        }
        assert stable_floats(float("inf")) == float("inf")
        assert stable_floats(True) is True


class TestPrometheusExport:
    def test_renders_all_metric_kinds(self, vectors):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        text = observer.metrics.to_prometheus()
        assert "# TYPE repro_events_index_node_visit counter" in text
        assert "# TYPE repro_index_prune_effectiveness gauge" in text
        assert "# TYPE repro_phase_page_process_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_phase_page_process_seconds_sum" in text
        assert "repro_phase_page_process_seconds_count" in text
        # Collected values (derived.* from the Counters adapter) export too.
        assert "repro_derived_sharing_factor" in text
        assert text.endswith("\n")

    def test_type_lines_dedupe_when_names_collide(self):
        # "a.b" and "a:b"... no -- colons are legal.  "a.b" and "a b"
        # both mangle to repro_a_b; the page must carry one TYPE line.
        registry = MetricsRegistry()
        registry.inc("events.query admit")
        registry.inc("events.query.admit")
        text = registry.to_prometheus()
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE")
        ]
        assert len(type_lines) == len(set(type_lines))
        assert (
            text.count("# TYPE repro_events_query_admit counter") == 1
        )

    def test_illegal_chars_mangled_and_leading_digit_guarded(self):
        registry = MetricsRegistry()
        registry.inc("99th.weird-metric")
        text = registry.to_prometheus(prefix="")
        assert "_99th_weird_metric 1" in text

    def test_timeline_window_exports_rate_gauges(self):
        from repro.obs import TimelineCollector

        registry = MetricsRegistry()
        timeline = TimelineCollector(registry, window_ticks=2)
        registry.inc("events.service.submit", 6)
        timeline.record_block(
            {"random_page_reads": 4, "queries_completed": 8}
        )
        timeline.advance()
        timeline.advance()
        text = registry.to_prometheus(timeline=timeline)
        assert "# TYPE repro_events_service_submit_rate gauge" in text
        assert "repro_events_service_submit_rate 3" in text  # 6 over 2 ticks
        assert "# TYPE repro_timeline_pages_per_tick gauge" in text
        assert "repro_timeline_pages_per_tick 2" in text
        assert "repro_timeline_sharing_factor 2" in text
        # Without a closed window, no rate series appear.
        empty = TimelineCollector(MetricsRegistry(), window_ticks=4)
        assert "_rate" not in registry.to_prometheus(timeline=empty)

    def test_write_prometheus_file(self, vectors, tmp_path):
        observer = Observer()
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        path = tmp_path / "metrics.prom"
        observer.write_prometheus(str(path))
        content = path.read_text()
        lines = [l for l in content.splitlines() if l and not l.startswith("#")]
        assert lines
        for line in lines:
            name, value = line.rsplit(" ", 1)
            float(value)  # every sample line ends in a parseable number


class TestTracerRobustness:
    def test_ring_buffer_overflow_keeps_newest_under_load(self, vectors):
        observer = Observer(trace_capacity=32)
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        tracer = observer.tracer
        assert len(tracer) == 32
        assert tracer.n_dropped == tracer.n_emitted - 32
        assert tracer.n_dropped > 0
        snapshot = observer.snapshot()
        assert snapshot["trace"]["dropped"] == tracer.n_dropped
        assert snapshot["trace"]["capacity"] == 32

    def test_process_backend_trace_jsonl_round_trip(self, vectors, tmp_path):
        observer = Observer(trace_capacity=4096)
        cluster = ParallelDatabase(
            vectors, n_servers=2, access="scan", observer=observer
        )
        queries = [vectors[i] for i in range(4)]
        run = cluster.multiple_similarity_query(
            queries, knn_query(3), db_indices=list(range(4)), backend="process"
        )
        assert run.wall_seconds is not None
        path = tmp_path / "trace.jsonl"
        n = observer.write_trace(str(path))
        parsed = read_jsonl(str(path))
        assert len(parsed) == n == len(observer.tracer)
        assert parsed == observer.tracer.records()
        worker_events = [r for r in parsed if r["name"] == "worker.run"]
        assert len(worker_events) == 2
        assert all(
            e["attrs"]["backend"] == "process" for e in worker_events
        )
