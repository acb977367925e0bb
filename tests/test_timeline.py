"""Tests for windowed timeline telemetry, anomaly rules, the profiler
and the live dashboard."""

import gzip
import json

import numpy as np
import pytest

from repro.core.database import Database
from repro.core.types import knn_query
from repro.obs import (
    AnomalyEngine,
    AnomalyRule,
    Observer,
    TimelineCollector,
    deterministic_series,
    folded_lines,
    load_anomaly_engine,
    load_anomaly_spec,
    profile_trace,
    read_timeline,
    render_dashboard,
    render_profile,
    render_timeline,
    sparkline,
    write_folded,
)
from repro.obs.anomaly import series_value
from repro.obs.metrics import MetricsRegistry
from repro.parallel.executor import ParallelDatabase

ALL_ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]
ALL_ENGINES = ["reference", "vectorized", "batched"]


@pytest.fixture(scope="module")
def vectors():
    return np.random.default_rng(11).random((600, 8))


def _answers_as_tuples(results):
    return [[(a.index, a.distance) for a in result] for result in results]


def _run_blocks(database, vectors, n_queries=12, block=4):
    queries = [vectors[i] for i in range(n_queries)]
    return database.run_in_blocks(
        queries,
        knn_query(5),
        block_size=block,
        db_indices=list(range(n_queries)),
    )


def _timeline_run(vectors, tmp_path, name, access="xtree", window_ticks=1):
    observer = Observer(trace=True)
    timeline = observer.attach_timeline(
        TimelineCollector(observer.metrics, window_ticks=window_ticks)
    )
    database = Database(vectors, access=access, observer=observer)
    run = _run_blocks(database, vectors)
    timeline.flush()
    path = tmp_path / name
    timeline.export_jsonl(str(path))
    return path, run, timeline


def _parallel_timeline_run(vectors, tmp_path, backend):
    observer = Observer(trace=True, trace_capacity=65_536)
    timeline = observer.attach_timeline(
        TimelineCollector(observer.metrics, window_ticks=1)
    )
    with ParallelDatabase(
        vectors, n_servers=2, access="scan", observer=observer
    ) as cluster:
        queries = [vectors[i] for i in range(6)]
        run = cluster.multiple_similarity_query(
            queries, knn_query(3), db_indices=list(range(6)), backend=backend
        )
    timeline.flush()
    path = tmp_path / f"timeline-{backend}.jsonl"
    timeline.export_jsonl(str(path))
    return path, run, timeline


class TestTimelineDeterminism:
    """Same seed + plan => byte-identical timeline JSONL."""

    def test_repeated_runs_export_identical_bytes(self, vectors, tmp_path):
        first, _, _ = _timeline_run(vectors, tmp_path, "a.jsonl")
        second, _, _ = _timeline_run(vectors, tmp_path, "b.jsonl")
        a, b = first.read_bytes(), second.read_bytes()
        assert a and a == b

    def test_model_and_process_backends_export_identical_bytes(
        self, vectors, tmp_path
    ):
        # The acceptance bar: the process backend ships per-block
        # counter deltas from its workers over the picklable path while
        # the model backend snapshots in-process, and both must land on
        # the same bytes.
        model_path, model_run, _ = _parallel_timeline_run(
            vectors, tmp_path, "model"
        )
        process_path, process_run, _ = _parallel_timeline_run(
            vectors, tmp_path, "process"
        )
        assert _answers_as_tuples(model_run.answers) == _answers_as_tuples(
            process_run.answers
        )
        model_bytes = model_path.read_bytes()
        assert model_bytes and model_bytes == process_path.read_bytes()

    def test_parallel_windows_carry_per_server_cost_and_skew(
        self, vectors, tmp_path
    ):
        path, _, timeline = _parallel_timeline_run(vectors, tmp_path, "model")
        windows = read_timeline(str(path))
        assert windows
        served = [w for w in windows if "servers" in w]
        assert served, "no window carries per-server cost deltas"
        for window in served:
            assert set(window["servers"]) <= {"0", "1"}
            if "server_skew" in window["rates"]:
                assert window["rates"]["server_skew"] >= 1.0

    def test_gzip_export_is_deterministic_and_round_trips(
        self, vectors, tmp_path
    ):
        plain, _, timeline = _timeline_run(vectors, tmp_path, "t.jsonl")
        gz_path = tmp_path / "t.jsonl.gz"
        timeline.export_jsonl(str(gz_path))
        again = tmp_path / "t2.jsonl.gz"
        timeline.export_jsonl(str(again))
        assert gz_path.read_bytes() == again.read_bytes()
        assert gzip.decompress(gz_path.read_bytes()) == plain.read_bytes()
        assert read_timeline(str(gz_path)) == read_timeline(str(plain))

    def test_exported_records_have_sorted_keys(self, vectors, tmp_path):
        path, _, _ = _timeline_run(vectors, tmp_path, "sorted.jsonl")
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert list(record) == sorted(record)


class TestTimelineEquivalence:
    """A timeline-collecting observer never changes answers or counters."""

    @pytest.mark.parametrize("access", ALL_ACCESS_METHODS)
    @pytest.mark.parametrize("engine", ALL_ENGINES)
    def test_identical_across_methods_and_engines(
        self, vectors, access, engine
    ):
        plain = Database(vectors, access=access, engine=engine)
        expected = _answers_as_tuples(_run_blocks(plain, vectors))
        observer = Observer(trace=True)
        timeline = observer.attach_timeline(
            TimelineCollector(observer.metrics, window_ticks=2)
        )
        traced = Database(vectors, access=access, engine=engine, observer=observer)
        observed = _answers_as_tuples(_run_blocks(traced, vectors))
        assert observed == expected
        assert traced.counters.as_dict() == plain.counters.as_dict()
        timeline.flush()
        assert len(timeline) > 0


class TestTimelineWindows:
    def _collector(self, window_ticks=2, capacity=256, engine=None):
        registry = MetricsRegistry()
        return registry, TimelineCollector(
            registry,
            window_ticks=window_ticks,
            capacity=capacity,
            anomaly_engine=engine,
        )

    def test_windows_close_on_tick_boundaries(self):
        registry, timeline = self._collector(window_ticks=2)
        registry.inc("events.service.submit", 3)
        timeline.advance()
        assert len(timeline) == 0  # still inside the first window
        registry.inc("events.service.submit", 2)
        timeline.advance()
        assert len(timeline) == 1
        window = timeline.windows[0]
        assert window["ticks"] == 2
        assert window["counters"]["events.service.submit"] == 5
        # The next window sees only what happened after the boundary.
        registry.inc("events.service.submit", 1)
        timeline.advance()
        timeline.advance()
        assert timeline.windows[1]["counters"] == {
            "events.service.submit": 1
        }

    def test_flush_closes_a_partial_window_once(self):
        registry, timeline = self._collector(window_ticks=10)
        registry.inc("events.service.submit")
        timeline.advance()
        timeline.flush()
        assert len(timeline) == 1
        assert timeline.windows[0]["ticks"] == 1
        timeline.flush()  # nothing new: no empty second window
        assert len(timeline) == 1

    def test_record_block_folds_cost_and_rates(self):
        registry, timeline = self._collector(window_ticks=2)
        timeline.record_block(
            {
                "random_page_reads": 3,
                "sequential_page_reads": 1,
                "queries_completed": 8,
                "distance_calculations": 60,
                "avoided_calculations": 40,
                "avoidance_tries": 100,
                "buffer_hits": 4,
            }
        )
        timeline.advance()
        timeline.advance()
        window = timeline.windows[0]
        assert window["cost"]["queries_completed"] == 8
        rates = window["rates"]
        assert rates["pages_per_tick"] == pytest.approx(2.0)
        assert rates["queries_per_tick"] == pytest.approx(4.0)
        assert rates["sharing_factor"] == pytest.approx(2.0)
        assert rates["avoidance_hit_rate"] == pytest.approx(0.4)
        assert rates["prune_effectiveness"] == pytest.approx(0.4)
        assert rates["buffer_hit_rate"] == pytest.approx(0.5)

    def test_per_server_deltas_feed_the_skew_rate(self):
        registry, timeline = self._collector(window_ticks=1)
        timeline.record_block({"random_page_reads": 9}, server_id=0)
        timeline.record_block({"random_page_reads": 3}, server_id=1)
        timeline.advance()
        window = timeline.windows[0]
        assert window["servers"] == {
            "0": {"random_page_reads": 9},
            "1": {"random_page_reads": 3},
        }
        assert window["rates"]["server_skew"] == pytest.approx(1.5)

    def test_histogram_deltas_become_observations(self):
        registry, timeline = self._collector(window_ticks=1)
        registry.observe("service.batch_occupancy", 4.0)
        registry.observe("service.batch_occupancy", 2.0)
        timeline.advance()
        registry.observe("service.batch_occupancy", 1.0)
        timeline.advance()
        first, second = timeline.windows
        assert first["observations"]["service.batch_occupancy"] == {
            "count": 2,
            "sum": 6.0,
        }
        assert second["observations"]["service.batch_occupancy"] == {
            "count": 1,
            "sum": 1.0,
        }

    def test_ring_capacity_drops_oldest_and_counts(self):
        registry, timeline = self._collector(window_ticks=1, capacity=3)
        for i in range(5):
            registry.inc("events.service.submit", i + 1)
            timeline.advance()
        assert len(timeline) == 3
        assert timeline.n_closed == 5
        assert timeline.n_dropped == 2
        assert [w["window"] for w in timeline.windows] == [2, 3, 4]

    def test_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            TimelineCollector(registry, window_ticks=0)
        with pytest.raises(ValueError):
            TimelineCollector(registry, capacity=0)

    def test_deterministic_series_filter(self):
        assert deterministic_series("events.service.submit")
        assert deterministic_series("cost.distance_calculations")
        assert deterministic_series("fault.injected")
        assert deterministic_series("service.tickets.degraded")
        # Wall-clock and worker-side series stay out of the export.
        assert not deterministic_series("phase.page.process.seconds")
        assert not deterministic_series("service.wall_seconds")
        assert not deterministic_series("events.page.read")
        assert not deterministic_series("index.node_visits")
        assert not deterministic_series("prefilter.pruned")
        assert not deterministic_series("planner.calibration_drift")

    def test_filtered_window_strips_nondeterministic_series(self):
        registry, timeline = self._collector(window_ticks=1)
        registry.inc("events.service.submit")
        registry.inc("events.page.read")
        registry.observe("phase.page.process.seconds", 0.5)
        timeline.advance()
        raw = timeline.windows[0]
        assert "events.page.read" in raw["counters"]
        filtered = timeline.filtered_window(raw)
        assert "events.page.read" not in filtered["counters"]
        assert "events.service.submit" in filtered["counters"]
        assert filtered["observations"] == {}

    def test_render_timeline_tabulates_and_sparklines(self, vectors, tmp_path):
        path, _, _ = _timeline_run(vectors, tmp_path, "render.jsonl")
        text = render_timeline(read_timeline(str(path)))
        assert "timeline" in text
        assert "pages/tick" in text
        assert "anomaly firings" in text
        assert render_timeline([]).endswith("(no windows)")


class TestAnomalyRules:
    def _window(self, **overrides):
        window = {
            "window": 3,
            "tick_end": 12,
            "ticks": 4,
            "counters": {"service.tickets.degraded": 2},
            "gauges": {"service.degraded_sessions": 1.0},
            "cost": {"distance_calculations": 9000},
            "rates": {"pages_per_tick": 5.0},
            "observations": {
                "service.batch_occupancy": {"count": 4, "sum": 10.0}
            },
        }
        window.update(overrides)
        return window

    def test_series_value_sections_and_accessors(self):
        window = self._window()
        assert series_value(window, "counters.service.tickets.degraded") == 2
        assert series_value(window, "rates.pages_per_tick") == 5.0
        assert series_value(window, "cost.distance_calculations") == 9000
        assert series_value(
            window, "observations.service.batch_occupancy.count"
        ) == 4
        assert series_value(
            window, "observations.service.batch_occupancy.sum"
        ) == 10.0
        assert series_value(
            window, "observations.service.batch_occupancy"
        ) == pytest.approx(2.5)
        assert series_value(window, "counters.missing") is None
        assert series_value(window, "observations.missing.count") is None

    def test_threshold_rule_fires_and_skips_no_data(self):
        rule = AnomalyRule(
            name="degraded",
            kind="threshold",
            series="counters.service.tickets.degraded",
            op=">",
            value=0,
            replan=True,
        )
        engine = AnomalyEngine([rule])
        firings = engine.evaluate(self._window())
        assert len(firings) == 1
        assert firings[0]["rule"] == "degraded"
        assert firings[0]["value"] == 2
        assert firings[0]["replan"] is True
        # Absent series skips; zero value compares false.
        assert engine.evaluate(self._window(counters={})) == []
        assert (
            engine.evaluate(
                self._window(counters={"service.tickets.degraded": 0})
            )
            == []
        )

    def test_threshold_firing_increments_metrics_and_emits_event(self):
        observer = Observer(trace=True)
        rule = AnomalyRule(
            name="degraded",
            kind="threshold",
            series="counters.service.tickets.degraded",
        )
        AnomalyEngine([rule]).evaluate(self._window(), observer)
        counters = observer.metrics.snapshot()["counters"]
        assert counters["anomaly.fired"] == 1
        assert counters["anomaly.fired.degraded"] == 1
        events = [
            r
            for r in observer.tracer.records()
            if r.get("name") == "anomaly.fired"
        ]
        assert events and events[0]["attrs"]["rule"] == "degraded"

    def test_ewma_rule_warms_up_then_fires_on_drift(self):
        rule = AnomalyRule(
            name="drift",
            kind="ewma",
            series="rates.pages_per_tick",
            alpha=0.5,
            tolerance=0.5,
            warmup=2,
        )
        engine = AnomalyEngine([rule])

        def window(rate):
            return self._window(rates={"pages_per_tick": rate})

        # Warmup windows feed the average but never fire, even though
        # the second value is far from the first.
        assert engine.evaluate(window(10.0)) == []
        assert engine.evaluate(window(100.0)) == []
        # Past warmup, a value within tolerance of the EWMA stays quiet.
        assert engine.evaluate(window(55.0)) == []
        # A large jump versus the smoothed average fires.
        fired = engine.evaluate(window(200.0))
        assert len(fired) == 1
        assert fired[0]["kind"] == "ewma"
        assert fired[0]["value"] == 200.0

    def test_ratio_rule_compares_to_baseline_store_entry(self):
        baselines = {
            "quick/xtree/knn": {
                "seconds": 0.5,
                "counters": {"distance_calculations": 1000},
            }
        }
        rule = AnomalyRule(
            name="blowup",
            kind="ratio_to_baseline",
            series="cost.distance_calculations",
            baseline="quick/xtree/knn",
            baseline_field="counters.distance_calculations",
            max_ratio=4.0,
        )
        engine = AnomalyEngine([rule], baselines=baselines)
        fired = engine.evaluate(self._window())  # 9000 / 1000 = 9x
        assert len(fired) == 1
        assert fired[0]["ratio"] == pytest.approx(9.0)
        quiet = self._window(cost={"distance_calculations": 3000})
        assert engine.evaluate(quiet) == []
        # Scale rescales the reference before comparing.
        scaled = AnomalyEngine(
            [
                AnomalyRule(
                    name="b",
                    kind="ratio_to_baseline",
                    series="cost.distance_calculations",
                    baseline="quick/xtree/knn",
                    baseline_field="counters.distance_calculations",
                    max_ratio=4.0,
                    scale=10.0,
                )
            ],
            baselines=baselines,
        )
        assert scaled.evaluate(self._window()) == []
        # Unknown baseline entry: skip, never fire.
        empty = AnomalyEngine([rule], baselines={})
        assert empty.evaluate(self._window()) == []

    def test_rule_validation_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="nope", series="rates.x")
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="threshold", series="nosection")
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="threshold", series="bogus.x")
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="threshold", series="rates.x", op="!=")
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="ewma", series="rates.x", alpha=0.0)
        with pytest.raises(ValueError):
            AnomalyRule(name="x", kind="ratio_to_baseline", series="rates.x")
        with pytest.raises(ValueError):
            AnomalyEngine([])
        rule = AnomalyRule(name="dup", kind="threshold", series="rates.x")
        with pytest.raises(ValueError):
            AnomalyEngine([rule, rule])

    def test_op_aliases_resolve(self):
        rule = AnomalyRule(
            name="x", kind="threshold", series="rates.x", op="ge"
        )
        assert rule.op == ">="

    def test_spec_loading_json_yaml_and_unknown_keys(self, tmp_path):
        spec = {
            "baseline_store": "benchmarks/baselines.json",
            "rules": [
                {
                    "name": "degraded",
                    "kind": "threshold",
                    "series": "counters.service.tickets.degraded",
                    "value": 0,
                    "replan": True,
                }
            ],
        }
        rules, store = load_anomaly_spec(spec)
        assert rules[0].replan is True
        assert store == "benchmarks/baselines.json"
        json_path = tmp_path / "anomaly.json"
        json_path.write_text(json.dumps(spec))
        rules, _ = load_anomaly_spec(str(json_path))
        assert rules[0].name == "degraded"
        yaml_path = tmp_path / "anomaly.yml"
        yaml_path.write_text(
            "rules:\n"
            "  - name: storm\n"
            "    kind: threshold\n"
            "    series: counters.fault.injected\n"
            "    op: '>='\n"
            "    value: 8\n"
        )
        rules, store = load_anomaly_spec(str(yaml_path))
        assert store is None
        assert rules[0].op == ">=" and rules[0].value == 8.0
        with pytest.raises(ValueError):
            load_anomaly_spec({"rules": []})
        with pytest.raises(ValueError):
            load_anomaly_spec(
                {
                    "rules": [
                        {
                            "name": "x",
                            "kind": "threshold",
                            "series": "rates.x",
                            "oops": 1,
                        }
                    ]
                }
            )

    def test_repo_ci_spec_loads_with_baselines(self):
        engine = load_anomaly_engine("ci/anomaly.yml")
        names = [rule.name for rule in engine.rules]
        assert "degraded-tickets" in names
        assert any(rule.replan for rule in engine.rules)
        # The spec's baseline store resolved to real entries.
        assert "quick/xtree/knn" in engine.baselines


class TestAnomalyReplanLoop:
    """Firings flow collector -> scheduler.replan -> smaller blocks."""

    def _engine(self):
        return AnomalyEngine(
            [
                AnomalyRule(
                    name="degraded",
                    kind="threshold",
                    series="counters.service.tickets.degraded",
                    replan=True,
                )
            ]
        )

    def test_collector_queues_firings_for_drain(self):
        observer = Observer(trace=False)
        timeline = observer.attach_timeline(
            TimelineCollector(
                observer.metrics, window_ticks=1, anomaly_engine=self._engine()
            )
        )
        observer.metrics.inc("service.tickets.degraded")
        timeline.advance()
        assert timeline.windows[0]["anomalies"][0]["rule"] == "degraded"
        firings = timeline.drain_anomalies()
        assert len(firings) == 1 and firings[0]["replan"] is True
        assert timeline.drain_anomalies() == []  # drained exactly once
        assert list(timeline.anomaly_log)  # dashboard feed keeps a copy

    def test_scheduler_replan_halves_the_cap_once_per_batch(
        self, vectors
    ):
        database = Database(vectors, access="scan")
        scheduler = database.serve(max_block=8)
        firing = {"rule": "degraded", "replan": True}
        scheduler.replan(anomalies=[firing, firing])
        assert scheduler.max_block == 4  # one halving per drain batch
        assert scheduler.anomaly_replans == 1
        scheduler.replan(anomalies=[{"rule": "quiet", "replan": False}])
        assert scheduler.max_block == 4
        assert scheduler.anomaly_replans == 1
        for _ in range(5):
            scheduler.replan(anomalies=[firing])
        assert scheduler.max_block == 1  # floors at one, never zero

    def test_crash_faults_fire_the_rule_and_shrink_blocks(self, vectors):
        from repro.faults import FaultPlan

        observer = Observer(trace=False)
        timeline = observer.attach_timeline(
            TimelineCollector(
                observer.metrics, window_ticks=1, anomaly_engine=self._engine()
            )
        )
        database = Database(vectors, access="scan", observer=observer)
        database.inject_faults(
            FaultPlan.from_dict(
                {
                    "seed": 5,
                    "sites": {
                        "server:*": {
                            "kinds": ["server_crash"],
                            "probability": 1.0,
                        }
                    },
                }
            )
        )
        scheduler = database.serve(max_block=4)
        for i in range(8):
            scheduler.submit(vectors[i], knn_query(3))
        scheduler.drain()
        counters = observer.metrics.snapshot()["counters"]
        assert counters.get("anomaly.fired.degraded", 0) >= 1
        assert scheduler.anomaly_replans >= 1
        assert scheduler.max_block < 4
        assert counters.get("service.replan.anomaly", 0) >= 1

    def test_replan_without_fits_or_anomalies_raises(self, vectors):
        database = Database(vectors, access="scan")
        scheduler = database.serve()
        with pytest.raises(ValueError):
            scheduler.replan()


class TestProfiler:
    def _trace(self):
        return [
            {"kind": "span", "span_id": 1, "parent_id": None,
             "name": "block.flush", "dur_s": 1.0},
            {"kind": "span", "span_id": 2, "parent_id": 1,
             "name": "query.drive", "dur_s": 0.6},
            {"kind": "span", "span_id": 3, "parent_id": 2,
             "name": "page.process", "dur_s": 0.25},
            {"kind": "span", "span_id": 4, "parent_id": 2,
             "name": "page.process", "dur_s": 0.25},
            {"kind": "event", "name": "query.admit"},
        ]

    def test_inclusive_and_self_time_aggregation(self):
        result = profile_trace(self._trace())
        stats = {s.name: s for s in result.phases}
        assert result.n_spans == 4
        assert stats["block.flush"].inclusive_s == pytest.approx(1.0)
        assert stats["block.flush"].self_s == pytest.approx(0.4)
        assert stats["query.drive"].self_s == pytest.approx(0.1)
        assert stats["page.process"].self_s == pytest.approx(0.5)
        assert stats["page.process"].count == 2
        # Heaviest self time sorts first.
        assert result.phases[0].name == "page.process"
        assert result.total_s == pytest.approx(1.0)

    def test_folded_stacks_join_root_to_leaf(self):
        result = profile_trace(self._trace())
        assert result.folded["block.flush;query.drive;page.process"] == (
            pytest.approx(0.5)
        )
        lines = folded_lines(result)
        assert "block.flush;query.drive;page.process 500000" in lines
        assert lines == sorted(lines)

    def test_negative_self_time_clamps_to_zero(self):
        records = [
            {"kind": "span", "span_id": 1, "parent_id": None,
             "name": "outer", "dur_s": 0.1},
            {"kind": "span", "span_id": 2, "parent_id": 1,
             "name": "inner", "dur_s": 0.2},  # clock jitter
        ]
        result = profile_trace(records)
        stats = {s.name: s for s in result.phases}
        assert stats["outer"].self_s == 0.0
        assert "outer" not in result.folded  # zero-weight stack dropped

    def test_orphan_parents_are_roots(self):
        records = [
            {"kind": "span", "span_id": 9, "parent_id": 404,
             "name": "worker.phase1", "dur_s": 0.3},
        ]
        result = profile_trace(records)
        assert result.folded == {"worker.phase1": pytest.approx(0.3)}

    def test_write_folded_and_render(self, tmp_path):
        result = profile_trace(self._trace())
        path = tmp_path / "profile.folded"
        assert write_folded(result, str(path)) == len(result.folded)
        for line in path.read_text().splitlines():
            stack, weight = line.rsplit(" ", 1)
            assert stack and int(weight) > 0
        text = render_profile(result, top=2)
        assert "phase profile" in text
        assert "page.process" in text
        assert "... 1 more phases" in text
        assert "no spans" in render_profile(profile_trace([]))

    def test_profile_of_a_real_traced_run(self, vectors):
        observer = Observer(trace=True, trace_capacity=65_536)
        database = Database(vectors, access="xtree", observer=observer)
        _run_blocks(database, vectors)
        result = profile_trace(observer.tracer.records())
        names = {s.name for s in result.phases}
        assert "page.process" in names
        assert result.total_s > 0.0
        # Self time never exceeds inclusive time.
        for stat in result.phases:
            assert stat.self_s <= stat.inclusive_s + 1e-9


class TestDashboard:
    def test_sparkline_shapes_and_padding(self):
        assert sparkline([], width=4) == "    "
        assert len(sparkline([1.0, 2.0, 3.0], width=8)) == 8
        ramp = sparkline([0.0, 1.0, 2.0, 3.0], width=4)
        assert ramp[0] == "▁" and ramp[-1] == "█"
        flat = sparkline([5.0, 5.0], width=2)
        assert len(set(flat)) == 1  # flat series renders mid-height
        assert sparkline([1.0, float("nan")], width=2)[1] == " "
        assert sparkline([1.0], width=0) == ""

    def test_render_dashboard_live_scheduler(self, vectors):
        observer = Observer(trace=False)
        timeline = observer.attach_timeline(
            TimelineCollector(observer.metrics, window_ticks=1)
        )
        database = Database(vectors, access="scan", observer=observer)
        scheduler = database.serve(max_block=2)
        for i in range(6):
            scheduler.submit(vectors[i], knn_query(3))
        scheduler.drain()
        frame = render_dashboard(scheduler, timeline)
        assert "repro top" in frame
        assert "tickets:" in frame and "6 completed" in frame
        assert "pages/tick" in frame
        assert "anomaly feed: (quiet)" in frame

    def test_render_dashboard_without_windows(self, vectors):
        database = Database(vectors, access="scan", observer=Observer())
        scheduler = database.serve()
        frame = render_dashboard(scheduler, None)
        assert "(no closed windows yet)" in frame


class TestTimelineCLI:
    def _serve(self, tmp_path, *extra):
        from repro.cli import main

        timeline = tmp_path / "timeline.jsonl.gz"
        argv = [
            "serve", "--objects", "400", "--clients", "2",
            "--queries-per-client", "4", "--timeline", str(timeline),
            *extra,
        ]
        assert main(argv) == 0
        return timeline

    def test_serve_timeline_deterministic_and_reportable(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        first = self._serve(tmp_path)
        blob = first.read_bytes()
        second = self._serve(tmp_path)  # same path: overwritten in place
        assert blob == second.read_bytes()
        capsys.readouterr()
        assert main(["report", "--timeline", str(second)]) == 0
        out = capsys.readouterr().out
        assert "timeline" in out and "pages/tick" in out

    def test_report_accepts_positional_gz_trace(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl.gz"
        assert main(
            ["demo", "--objects", "400", "--queries", "6",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["report", str(trace)]) == 0
        assert "trace" in capsys.readouterr().out

    def test_profile_command_writes_speedscope_folded(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        assert main(
            ["demo", "--objects", "400", "--queries", "6",
             "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["profile", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "phase profile" in out
        folded = tmp_path / "trace.folded"
        assert folded.exists()
        lines = folded.read_text().splitlines()
        assert lines
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            int(weight)  # speedscope's folded format: "stack <int>"
            assert all(frame for frame in stack.split(";"))

    def test_top_renders_frames_without_a_tty(self, capsys):
        from repro.cli import main

        assert main(
            ["top", "--objects", "400", "--clients", "2",
             "--queries-per-client", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "tickets:" in out

    def test_serve_with_anomaly_spec_reports_firings(self, tmp_path, capsys):
        timeline = self._serve(
            tmp_path, "--faults", "ci/chaos-mixed.json",
            "--anomaly", "ci/anomaly.yml",
        )
        out = capsys.readouterr().out
        assert "anomaly rules" in out
        windows = read_timeline(str(timeline))
        assert windows
