"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import asyncio
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import env  # noqa: E402

env.prepare()

import compare  # noqa: E402
import loadgen  # noqa: E402
import oracle  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
QUICK = workloads.Sizes(shrink=20)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    """A tracer clock the test advances by hand."""
    state = SimpleNamespace(now=0.0)
    monkeypatch.setattr(tracing, "_now", lambda: state.now)
    return state


def test_self_time_of_nested_and_sibling_spans(clock):
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    clock.now = 1.0
    first = tracer.begin("child")
    clock.now = 4.0
    tracer.end(first)
    clock.now = 5.0
    second = tracer.begin("child")
    clock.now = 5.5
    inner = tracer.begin("grandchild")
    clock.now = 6.5
    tracer.end(inner)
    clock.now = 7.0
    tracer.end(second)
    clock.now = 10.0
    tracer.end(outer)

    self_s = tracer.self_times()
    assert self_s == {"outer": 5.0, "child": 4.0, "grandchild": 1.0}
    assert sum(self_s.values()) == 10.0  # self times add up to the root span
    assert tracer.calls() == {"outer": 1, "child": 2, "grandchild": 1}
    assert tracer.parents == [-1, 0, 0, 2]


def test_self_time_of_a_window_ignores_parents_outside_it(clock):
    tracer = tracing.Tracer()
    for start in (0.0, 10.0):
        clock.now = start
        root = tracer.begin("root")
        clock.now = start + 1.0
        leaf = tracer.begin("leaf")
        clock.now = start + 3.0
        tracer.end(leaf)
        clock.now = start + 4.0
        tracer.end(root)
    assert tracer.self_times(2, 4) == {"root": 2.0, "leaf": 2.0}


def test_generator_is_traced_per_resumption(clock):
    tracer = tracing.Tracer()

    def work():
        clock.now += 1.0

    def pages():
        for _ in range(3):
            clock.now += 2.0
            yield
        clock.now += 0.5

    traced_work = tracing.traced(tracer, work, "leaf")
    for _ in tracing.traced(tracer, pages, "drive")():
        traced_work()  # runs while the generator is suspended
    self_s = tracer.self_times()
    assert self_s["drive"] == pytest.approx(6.5)
    assert self_s["leaf"] == pytest.approx(3.0)
    assert all(parent == -1 for parent in tracer.parents)


def test_coroutine_span_excludes_time_suspended():
    tracer = tracing.Tracer()

    async def handler():
        await asyncio.sleep(0.05)
        return 7

    assert asyncio.run(tracing.traced(tracer, handler, "net.server")()) == 7
    assert tracer.calls()["net.server"] >= 2  # one span per resumption
    assert tracer.self_times()["net.server"] < 0.02


def test_tag_is_inherited_from_the_request(clock):
    tracer = tracing.Tracer()
    tracer.tag = 41
    root = tracer.begin("root")
    leaf = tracer.begin("leaf")
    named = tracer.begin("named", tag="block-7")
    for span in (named, leaf, root):
        tracer.end(span)
    assert tracer.tags == [41, 41, "block-7"]


# ----------------------------------------------------------------------
# Percentiles and spreads
# ----------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supported_share(0.99, 1000) == 0.99
    assert stats.supported_share(0.99, 999) < 0.99
    assert stats.supported_share(0.90, 100) == 0.90
    assert stats.supported_share(0.90, 99) < 0.90
    assert stats.supported_share(0.99, 12) == 0.5  # too few even for a median with ten each side
    values = list(range(1, 1001))
    found = stats.percentile(values, 0.99)
    assert (found.value, found.share, found.samples) == (990.0, 0.99, 1000)
    assert sum(1 for value in values if value > found.value) >= stats.MIN_SAMPLES_BEYOND
    lowered = stats.percentile(values[:200], 0.99)
    assert lowered.share == pytest.approx(0.95) and lowered.value == 190.0


def test_spread_matches_statistics_quantiles():
    found = stats.spread([10, 11, 12, 13, 14, 15, 16, 17, 18, 19])
    assert (found.q1, found.median, found.q3) == (11.75, 14.5, 17.25)
    assert found.relative == pytest.approx(5.5 / 14.5)


# ----------------------------------------------------------------------
# Open-loop timing
# ----------------------------------------------------------------------


class _StallingClient:
    """Replies 1 ms after each send; one send blocks the generator 200 ms."""

    def __init__(self, stall_at: int) -> None:
        self.stall_at = stall_at
        self.sends = 0

    async def submit(self, vector, qtype):
        if self.sends == self.stall_at:
            time.sleep(0.2)  # the generator itself is stuck (e.g. a full socket)
        self.sends += 1
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def reply():
            future.set_result(
                SimpleNamespace(
                    shed=False, answers=[], batch_size=1, completed_at=time.perf_counter()
                )
            )

        loop.call_later(0.001, reply)
        return future


def test_latency_runs_from_due_time_so_a_stall_is_inherited():
    offsets = [0.01 * (i + 1) for i in range(50)]
    client = _StallingClient(stall_at=10)
    phase = asyncio.run(
        loadgen.paced_phase([client], [(None, None)] * 50, offsets)
    )
    latencies = phase.latencies
    assert all(latency is not None for latency in latencies)
    # Requests due during the stall were sent late; timed from their
    # send they would read ~1 ms, timed from their due time they carry
    # what was left of the stall.
    assert latencies[10] >= 0.19
    assert 0.12 <= latencies[15] <= 0.18
    assert latencies[5] < 0.05 and latencies[45] < 0.05
    # ... and the generator says how late it ran.
    assert max(phase.lateness) >= 0.19
    late = stats.percentile(phase.lateness, 0.99)  # 50 samples support the 80th percentile
    assert late.share == pytest.approx(0.8) and late.value >= 0.05
    assert max(phase.lateness[:10]) < 0.02
    assert phase.offered_qps == pytest.approx(100.0, rel=0.1)


def test_failed_requests_are_counted_not_raised():
    async def scenario():
        loop = asyncio.get_running_loop()
        futures = [loop.create_future() for _ in range(4)]
        futures[0].set_result(SimpleNamespace(shed=True))
        futures[1].set_exception(RuntimeError("bad-query"))
        futures[2].set_result(
            SimpleNamespace(shed=False, answers=[(1, 0.0)], batch_size=8, completed_at=2.0)
        )
        return loadgen._collect(futures, [1.0] * 4)

    phase = asyncio.run(scenario())
    assert (phase.sheds, phase.errors, phase.timeouts) == (1, 1, 1)
    assert phase.latencies == [None, None, 1.0, None]
    assert phase.batch_sizes == [8]


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------


def _points(n=400, d=6, seed=5):
    return np.random.default_rng(seed).random((n, d))


def _true_knn(vectors, query, k):
    dist = oracle.distances(vectors, query)
    order = np.argsort(dist, kind="stable")[:k]
    return [(int(i), float(dist[i])) for i in order]


def test_oracle_accepts_right_and_catches_planted_wrong_knn():
    vectors = _points()
    query = vectors[3]
    answers = _true_knn(vectors, query, 10)
    assert oracle.check_knn(vectors, query, 10, answers)
    dist = oracle.distances(vectors, query)
    far = int(np.argmax(dist))
    planted = answers[:-1] + [(far, float(dist[far]))]
    assert not oracle.check_knn(vectors, query, 10, planted)
    assert not oracle.check_knn(vectors, query, 10, answers[:-1])
    wrong_distance = [(i, d + 1e-6) for i, d in answers]
    assert not oracle.check_knn(vectors, query, 10, wrong_distance)


def test_oracle_accepts_either_object_of_a_tie_at_the_kth_distance():
    vectors = _points()
    vectors[7] = vectors[9]  # two objects at the same distance from any query
    query = vectors[9] + 1e-3
    dist = oracle.distances(vectors, query)
    k = int(np.sum(dist < dist[9])) + 1  # the tie sits exactly at rank k
    base = [a for a in _true_knn(vectors, query, k + 1) if a[0] not in (7, 9)]
    for tied in (7, 9):
        answers = sorted(base + [(tied, float(dist[tied]))], key=lambda a: a[1])
        assert oracle.check_knn(vectors, query, k, answers)


def test_oracle_catches_planted_wrong_range_answer():
    vectors = _points()
    query, eps = vectors[0], 0.45
    dist = oracle.distances(vectors, query)
    answers = [(int(i), float(dist[i])) for i in np.flatnonzero(dist <= eps)]
    assert len(answers) > 3
    assert oracle.check_range(vectors, query, eps, answers)
    assert not oracle.check_range(vectors, query, eps, answers[1:])
    outsider = int(np.argmax(dist))
    assert not oracle.check_range(
        vectors, query, eps, answers + [(outsider, float(dist[outsider]))]
    )
    # An object within the tolerance of eps may be in or out.
    edge = max(answers, key=lambda a: a[1])
    assert oracle.check_range(vectors, query, edge[1] - 5e-10, answers)


def _clustered(seed=3):
    rng = np.random.default_rng(seed)
    blobs = [center + 0.02 * rng.standard_normal((60, 2)) for center in ((0, 0), (1, 0), (0, 1))]
    noise = rng.random((12, 2)) * 0.3 + 0.4
    return np.vstack(blobs + [noise])


def _reference_dbscan(vectors, eps, min_pts):
    n = len(vectors)
    near = [np.flatnonzero(oracle.distances(vectors, vectors[i]) <= eps) for i in range(n)]
    labels = np.full(n, oracle.NOISE)
    cluster = 0
    for start in range(n):
        if labels[start] != oracle.NOISE or len(near[start]) < min_pts:
            continue
        labels[start] = cluster
        frontier = [start]
        while frontier:
            point = frontier.pop()
            if len(near[point]) < min_pts:
                continue
            for other in near[point]:
                if labels[other] == oracle.NOISE:
                    labels[other] = cluster
                    frontier.append(int(other))
        cluster += 1
    return labels


def test_oracle_checks_dbscan_core_set_and_partition():
    vectors = _clustered()
    eps, min_pts = 0.05, 5
    labels = _reference_dbscan(vectors, eps, min_pts)
    assert set(labels[:180]) == {0, 1, 2}
    assert oracle.check_dbscan(vectors, eps, min_pts, labels) == 0

    renamed = np.where(labels >= 0, 2 - labels, labels)  # cluster ids are arbitrary
    assert oracle.check_dbscan(vectors, eps, min_pts, renamed) == 0

    core_as_noise = labels.copy()
    core_as_noise[5] = oracle.NOISE
    assert oracle.check_dbscan(vectors, eps, min_pts, core_as_noise) >= 1

    merged = np.where(labels == 1, 0, labels)  # two clusters passed off as one
    assert oracle.check_dbscan(vectors, eps, min_pts, merged) >= 60

    noise_as_member = labels.copy()
    lonely = int(np.flatnonzero(labels == oracle.NOISE)[0])
    noise_as_member[lonely] = 0
    assert oracle.check_dbscan(vectors, eps, min_pts, noise_as_member) >= 1


def test_neighbour_pairs_equal_exhaustive_search():
    vectors = _points(300, 4)
    sources, targets, dists = oracle.neighbour_pairs(vectors, 0.3, chunk=64)
    found = set(zip(sources.tolist(), targets.tolist()))
    expected = {
        (i, int(j))
        for i in range(len(vectors))
        for j in np.flatnonzero(oracle.distances(vectors, vectors[i]) <= 0.3)
    }
    assert found == expected and len(found) == len(dists)


# ----------------------------------------------------------------------
# Inputs, names, compare
# ----------------------------------------------------------------------


def test_every_workload_is_pinned_and_drift_aborts():
    assert set(workloads.PINNED_INPUTS) == set(workloads.NAMES)
    canonical = workloads.Sizes()
    sums = dict(workloads.PINNED_INPUTS["batch_scan_knn"])
    assert workloads.verify_pins("batch_scan_knn", sums, workloads.DEFAULT_SEED, canonical)
    assert not workloads.verify_pins("batch_scan_knn", sums, workloads.DEFAULT_SEED + 1, canonical)
    assert not workloads.verify_pins("batch_scan_knn", sums, workloads.DEFAULT_SEED, QUICK)
    sums["dataset"] = "0" * 64
    with pytest.raises(workloads.InputDrift, match="dataset"):
        workloads.verify_pins("batch_scan_knn", sums, workloads.DEFAULT_SEED, canonical)


def test_same_seed_same_inputs():
    first = workloads.wire_inputs(QUICK, 9)[0].checksums()
    assert first == workloads.wire_inputs(QUICK, 9)[0].checksums()
    assert first != workloads.wire_inputs(QUICK, 10)[0].checksums()
    assert set(first) == {"dataset", "queries", "arrivals.low", "arrivals.high"}


def test_benchmark_json_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    assert SPEC["paths"] == ["benchmarks/e2e"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert "setup_s" in bounds and all(0 < bound <= 0.25 for bound in bounds.values())


def test_quick_suite_prints_every_declared_metric():
    """The whole suite at 1/20 size, traced: names, units, bypass checks."""
    started = time.perf_counter()
    out = HERE / "out" / "selftest.json"
    out.parent.mkdir(exist_ok=True)
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--traced", "--out", str(out)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 60
    assert "VIOLATED" not in done.stdout and "INVALID" not in done.stdout
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    out.unlink()
    assert [run["workload"] for run in runs] == list(workloads.NAMES)
    for run in runs:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 100
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in SPEC[section]}
            measured = {name: m["unit"] for name, m in run[section].items()}
            assert measured == declared
        assert all(run["checks"].values()), run["checks"]
        assert all(m["value"] > 0 for m in run["end_to_end"].values())
        assert run["env"]["thread_pins"]["OMP_NUM_THREADS"] == "1"
        assert set(run["inputs"]) >= {"dataset", "queries"}
    layers = {run["workload"]: run["per_layer"] for run in runs}
    assert layers["single_xtree_knn"]["core.avoidance.tries"]["value"] == 0
    assert layers["batch_scan_knn"]["core.avoidance.tries"]["value"] > 0
    assert layers["batch_scan_knn"]["index.mindist_evaluations"]["value"] == 0
    assert layers["dbscan_xtree_range"]["mining.iterations"]["value"] > 0
    assert layers["wire_open_mixed"]["net.frames_in"]["value"] > 0
    assert layers["wire_open_mixed"]["service.blocks_flushed"]["value"] > 0


def test_contract_line_of_a_single_untraced_run():
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", "single_xtree_knn", "--seed", "4", "--seconds", "1", "--trace", "0",
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark has nothing to measure."""
    shutil.copy(env.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "batch_scan_knn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == "" and "no program to measure" in done.stderr


def _runs(workload, metric, values, seeds=None):
    seeds = seeds or range(len(values))
    return [
        {
            "workload": workload,
            "seed": seed,
            "end_to_end": {metric: {"value": value, "unit": "x"}},
            "per_layer": {},
        }
        for seed, value in zip(seeds, values)
    ]


def test_compare_verdicts_follow_the_bound():
    assert compare.verdict([100, 101, 102], [100, 102, 103], "lower", 0.1) == "unchanged"
    assert compare.verdict([100, 101, 102], [120, 121, 122], "lower", 0.1) == "worse"
    assert compare.verdict([100, 101, 102], [120, 121, 122], "higher", 0.1) == "better"
    assert compare.verdict([100, 101, 102], [80, 81, 82], "lower", 0.1) == "better"
    # Spread wider than the bound: a 10 % difference could hide in it ...
    assert compare.verdict([80, 100, 120, 140], [90, 100, 130, 150], "lower", 0.1) == "unresolved"
    # ... unless every run of one side beats every run of the other.
    assert compare.verdict([80, 100, 120, 140], [40, 50, 60, 70], "lower", 0.1) == "better"
    assert compare.verdict([80, 100, 120, 140], [150, 160, 190, 220], "lower", 0.1) == "worse"


def test_compare_reports_ratio_with_base_and_flags_inexact_counts():
    base = _runs("batch_scan_knn", "modelled_ms_per_query", [44.0, 45.0], seeds=[1, 2])
    same = _runs("batch_scan_knn", "modelled_ms_per_query", [44.0, 45.0], seeds=[1, 2])
    lines, problems = compare.compare(base, same, SPEC)
    assert problems == 0 and "bit-identical at 2 shared seeds" in lines[1]
    assert "base" in lines[-1] and "1.0000" in lines[1]
    drifted = _runs("batch_scan_knn", "modelled_ms_per_query", [44.0, 45.0000001], seeds=[1, 2])
    lines, problems = compare.compare(base, drifted, SPEC)
    assert problems == 1 and "NOT bit-identical at seeds [2]" in lines[1]
