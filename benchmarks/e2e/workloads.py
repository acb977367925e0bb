"""The four workloads of the end-to-end benchmark.

Each workload hands the program data, a metric, an access method, query
types, a block size and an arrival schedule -- nothing else.  Engine,
avoidance, optimizer, ordering, poll interval and queue bounds stay the
program's own decisions, so a change of default shows up as a metric
moving, not as a benchmark edit.

A *request* is one call a user makes: one query for
``single_xtree_knn`` and ``wire_open_mixed``, one block of
``BLOCK_SIZE`` queries for ``batch_scan_knn``, one clustering for
``dbscan_xtree_range``.  Latency metrics are per request, throughput is
per query.  Closed-loop workloads (one caller, next request after the
previous reply) never queue, so their ``lowrate_latency_*`` are read off
the same samples as ``latency_*``; only the wire workload has a separate
low-rate phase.

Work is a fixed function of ``--seconds`` (sized so the timed region
lasts about that long on the reference box) rather than a deadline, so
that every count the program keeps repeats exactly from run to run.
"""

from __future__ import annotations

import asyncio
import hashlib
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import env
import loadgen
import oracle
import stats
import tracing

#: Seconds of timed work the sizes below are calibrated for
#: (``run_seconds`` in BENCHMARK.json): the longest workload's timed
#: region lasts about this long on the reference box.
RUN_SECONDS = 20

#: Seed whose inputs are checksum-pinned in ``PINNED_INPUTS``.
DEFAULT_SEED = 1

#: Every run draws its dataset with this seed; ``--seed`` draws the
#: query sample, the arrival offsets and (DBSCAN) the storage order.
#: Cluster geometry decides how selective the X-tree is: with the
#: dataset redrawn per seed, modelled cost per query moved by 17 % and
#: throughput by 9 % between seeds (quartile spread over ten seeds on
#: single_xtree_knn) -- input variance that would drown any bound.
DATASET_SEED = 0

K = 10
BLOCK_SIZE = 64
DBSCAN_EPS = 0.08
DBSCAN_MIN_PTS = 8
DBSCAN_BATCH = 32
WIRE_RANGES = (0.08, 0.09, 0.10)
WIRE_CONNECTIONS = 2
LOW_QPS = 40.0
HIGH_QPS = 250.0

#: Databases built per run for ``setup_s`` (the median is reported).
SETUP_BUILDS = 5
SERVER_SPAWNS = 3

#: Queries per workload checked against the brute-force oracle.
ORACLE_SAMPLE = 128

#: Latency limit per request behind ``slo_ok_share``.
SLO_MS = {
    "batch_scan_knn": 3000.0,
    "single_xtree_knn": 25.0,
    "wire_open_mixed": 100.0,
}
#: DBSCAN is one request; its limit grows with the range queries it issues.
DBSCAN_SLO_MS_PER_QUERY = 2.0

#: A paced phase whose sends ran later than this (p99) did not offer the
#: schedule it claims; the run is reported invalid.
MAX_LATE_P99_MS = 10.0

_now = time.perf_counter


@dataclass(frozen=True)
class Sizes:
    """How much work a run does: ``--seconds`` scales counts, ``--quick``
    divides counts and dataset sizes by twenty."""

    seconds: float = RUN_SECONDS
    shrink: int = 1

    @property
    def scale(self) -> float:
        return self.seconds / RUN_SECONDS

    @property
    def canonical(self) -> bool:
        return self.seconds == RUN_SECONDS and self.shrink == 1

    def objects(self, n: int) -> int:
        return max(400, n // self.shrink)

    def count(self, n: int, floor: int = 1) -> int:
        return max(floor, round(n * self.scale / self.shrink))


@dataclass
class Inputs:
    """Everything generated from the seed before the program runs."""

    data: Any
    queries: np.ndarray
    arrivals: dict[str, np.ndarray] = field(default_factory=dict)

    def checksums(self) -> dict[str, str]:
        def digest(array: np.ndarray) -> str:
            return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()

        sums = {
            "dataset": digest(self.data.vectors),
            "queries": digest(self.queries.astype(np.int64)),
        }
        for phase, offsets in self.arrivals.items():
            sums[f"arrivals.{phase}"] = digest(offsets)
        return sums


#: sha256 of every input at ``DEFAULT_SEED`` and ``RUN_SECONDS``.  A run
#: at those settings aborts when the generators in ``repro.workloads``
#: produce anything else: numbers measured on different inputs must not
#: be compared.
PINNED_INPUTS: dict[str, dict[str, str]] = {
    "batch_scan_knn": {
        "dataset": "07bb647987a579d0eb699940fb5b01e9d861ed059d148f7d98f226b7128d0b74",
        "queries": "f5ba9d0b0259d05781b870b93c2868a091d23a9031db3ba271c17f79b2e2b732",
    },
    "single_xtree_knn": {
        "dataset": "41d33c2cf98e7b8687cd2a6a50289bd6f5ccf3664b2ef7bf6812e0a56cbd60c3",
        "queries": "f676270333bda569276c7d8e064f402c637ce5609b93989004c344f886f78c23",
    },
    "dbscan_xtree_range": {
        "dataset": "a620ef408335d1fdb238980a59d91b70ad512a32f8cf89cbda1266c638835807",
        "queries": "b49ed4334fe4a57fe3fdec8fe84b7b708cdd3022f6a6e8a3d1ce5e7476c4304e",
    },
    "wire_open_mixed": {
        "dataset": "cfd68ea7efb1c22decbe387cc28333728d122cd9dc7bce734dc0c7bffd697d95",
        "queries": "d69012b422d3a75052b6db426a0ebbfd83aa7479c2c2dc19b4c9604c89d18cdd",
        "arrivals.low": "398152941455c9f00359d9e47b98aa83411955516c64d6b08bef751450b065e2",
        "arrivals.high": "a211d2a70b39a0d9d6dbb064b0ad2cba680afc193ce4bf4140fedeed1603b486",
    },
}


class InputDrift(RuntimeError):
    """The seeded generators no longer reproduce the pinned inputs."""


def verify_pins(name: str, sums: dict[str, str], seed: int, sizes: Sizes) -> bool:
    """Compare ``sums`` with the pins; ``False`` when these inputs are unpinned."""
    if seed != DEFAULT_SEED or not sizes.canonical:
        return False
    pinned = PINNED_INPUTS[name]
    if sums != pinned:
        changed = sorted(k for k in pinned.keys() | sums.keys() if pinned.get(k) != sums.get(k))
        raise InputDrift(
            f"{name}: inputs at seed {seed} differ from PINNED_INPUTS in "
            f"{', '.join(changed)}; the generators in repro.workloads have "
            f"drifted, so results would not be comparable with earlier runs"
        )
    return True


def _sample_queries(data: Any, count: int, seed: int) -> np.ndarray:
    from repro.workloads import sample_database_queries

    return np.asarray(sample_database_queries(data, count, seed=seed), dtype=np.int64)


def wire_dataset(objects: int) -> Any:
    """The wire workload's data; the server process builds the same."""
    from repro.workloads import make_gaussian_mixture

    return make_gaussian_mixture(
        n=objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=DATASET_SEED
    )


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------


@dataclass
class Timed:
    """One timed pass of a workload through the program."""

    wall: float
    queries: int
    #: Seconds per request (see the module docstring for "request").
    latencies: list[float]
    outputs: Any
    counters: dict[str, int]
    io_seconds: float
    cpu_seconds: float
    buffer_lookups: int
    buffer_hits: int
    extra: dict[str, float] = field(default_factory=dict)


@dataclass
class Outcome:
    """What one run of one workload produced."""

    attempted: int
    failed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    samples: dict[str, Any] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    inputs: dict[str, str] = field(default_factory=dict)
    inputs_pinned: bool = False
    valid: bool = True
    notes: list[str] = field(default_factory=list)


def trace_path(name: str, seed: int, suffix: str = "") -> str:
    """Where a traced run writes its spans (ignored by git)."""
    out = env.HERE / "out"
    out.mkdir(exist_ok=True)
    return str(out / f"trace-{name}-seed{seed}{suffix}.jsonl")


def latency_metrics(
    loaded: list[float], lowrate: list[float], samples: dict[str, Any]
) -> dict[str, float]:
    """The four latency metrics, each at the share its sample supports."""
    metrics = {}
    for name, values, share in (
        ("latency_p50_ms", loaded, 0.50),
        ("latency_p99_ms", loaded, 0.99),
        ("lowrate_latency_p50_ms", lowrate, 0.50),
        ("lowrate_latency_p90_ms", lowrate, 0.90),
    ):
        found = stats.percentile(values, share)
        metrics[name] = found.value * 1e3
        samples[name] = {"samples": found.samples, "share": found.share}
    return metrics


def layer_ledger(
    timed: Timed,
    self_s: dict[str, float],
    calls: dict[str, int],
    counts: dict[str, float],
) -> dict[str, float]:
    """Per-layer metrics every workload reports (idle layers read 0)."""
    counters = timed.counters
    counts = defaultdict(float, counts)
    queries = max(1, timed.queries)
    ledger = {f"{span}.self_s": self_s.get(span, 0.0) for span in tracing.LAYER_SPANS}
    tries = counters["avoidance_tries"]
    avoided = counters["avoided_calculations"]
    computed = counts["metric.kernel.distances"]
    pages = counts["core.engine.pages_processed"]
    results = counts["net.results"]
    ledger.update(
        {
            "core.avoidance.tries": tries,
            "core.avoidance.avoided": avoided,
            "core.avoidance.hit_rate": avoided / tries if tries else 0.0,
            "metric.kernel.calls": calls.get("metric.kernel", 0),
            "metric.distance_calculations": counters["distance_calculations"],
            "metric.ns_per_distance": (
                self_s.get("metric.kernel", 0.0) / computed * 1e9 if computed else 0.0
            ),
            "core.engine.pages_processed": pages,
            "core.engine.queries_per_page": (
                counts["core.engine.queries_served"] / pages if pages else 0.0
            ),
            "core.multi_query.matrix_distance_calculations": counters[
                "query_matrix_distance_calculations"
            ],
            "index.next_page.calls": counts["index.next_page.calls"],
            "index.pages_per_query": counts["index.pages_delivered"] / queries,
            "index.mindist_evaluations": counters["mindist_evaluations"],
            "storage.page_reads.random": counters["random_page_reads"],
            "storage.page_reads.sequential": counters["sequential_page_reads"],
            "storage.buffer.lookups": timed.buffer_lookups,
            "storage.buffer.hit_rate": (
                timed.buffer_hits / timed.buffer_lookups if timed.buffer_lookups else 0.0
            ),
            "costmodel.io_ms_per_query": timed.io_seconds / queries * 1e3,
            "costmodel.cpu_ms_per_query": timed.cpu_seconds / queries * 1e3,
            "core.planner.plan_batch.calls": calls.get("core.planner.plan_batch", 0),
            "net.frames_in": counts["net.frames_in"],
            "net.frames_out": counts["net.frames_out"],
            "net.bytes_in": counts["net.bytes_in"],
            "net.bytes_out": counts["net.bytes_out"],
            "net.bytes_per_result": (
                counts["net.bytes_out"] / results if results else 0.0
            ),
        }
    )
    for name in (
        "mining.iterations",
        "service.queue_wait_p50_ms",
        "service.queue_wait_p99_ms",
        "service.block_size_mean",
        "service.blocks_flushed",
        "service.degraded",
        "net.sheds",
        "net.errors",
        "loadgen.late_p99_ms",
        "loadgen.client_decode_s",
        "loadgen.offered_qps.low",
        "loadgen.offered_qps.high",
        "obs.enabled_overhead_share",
    ):
        ledger[name] = timed.extra.get(name, 0.0)
    return ledger


def bypass_checks(name: str, ledger: dict[str, float]) -> dict[str, bool]:
    """Layers a workload must leave idle (the "no change" predictions)."""
    checks = {
        "planner idle under defaults": ledger["core.planner.plan_batch.calls"] == 0,
        "trace covers >= 0.9 of the timed wall": ledger["trace.coverage_share"] >= 0.9,
    }
    if name == "single_xtree_knn":
        checks["no avoidance tries at block size 1"] = ledger["core.avoidance.tries"] == 0
    if name != "wire_open_mixed":
        idle = [
            key
            for key in ledger
            if key.startswith(("net.", "service.scheduler", "service.queue", "service.block"))
        ]
        checks["net and scheduler idle in process"] = all(ledger[key] == 0 for key in idle)
    return checks


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------


class InProcessWorkload:
    """A closed-loop workload run inside the benchmark's own process."""

    name: str
    access: str

    def inputs(self, sizes: Sizes, seed: int) -> Inputs:
        raise NotImplementedError

    def build(self, inputs: Inputs) -> Any:
        from repro import Database

        return Database(inputs.data, access=self.access)

    def first_answer(self, database: Any, inputs: Inputs) -> None:
        """One query of the workload's kind: lazy set-up ends here."""
        from repro import knn_query

        database.similarity_query(inputs.data[int(inputs.queries[0])], knn_query(K))

    def warm(self, database: Any, inputs: Inputs) -> None:
        """Untimed requests that fill caches before the timed region."""

    def drive(
        self, database: Any, inputs: Inputs, tracer: tracing.Tracer | None
    ) -> tuple[list[float], Any, int]:
        """Run every request; returns (latencies, outputs, queries)."""
        raise NotImplementedError

    def slo_ms(self, inputs: Inputs) -> float:
        return SLO_MS[self.name]

    def verify(self, inputs: Inputs, outputs: Any, seed: int) -> tuple[int, int]:
        """(mismatches, queries checked) against the brute-force oracle."""
        raise NotImplementedError

    def layer_extras(self, inputs: Inputs, traced: "Timed") -> dict[str, float]:
        """Per-layer metrics only this workload can measure."""
        return {}


def _timed(
    workload: InProcessWorkload,
    database: Any,
    inputs: Inputs,
    tracer: tracing.Tracer | None,
) -> Timed:
    buffer = database.disk.buffer
    lookups, hits = buffer.lookups, buffer.hits
    with database.measure() as run:
        started = _now()
        latencies, outputs, queries = workload.drive(database, inputs, tracer)
        wall = _now() - started
    return Timed(
        wall=wall,
        queries=queries,
        latencies=latencies,
        outputs=outputs,
        counters=run.counters.as_dict(),
        io_seconds=run.io_seconds,
        cpu_seconds=run.cpu_seconds,
        buffer_lookups=buffer.lookups - lookups,
        buffer_hits=buffer.hits - hits,
    )


def _verify_knn(inputs: Inputs, answers: list[Any], seed: int) -> tuple[int, int]:
    """Every answer list has K entries; a seeded sample meets the oracle."""
    from repro import knn_query

    vectors = inputs.data.vectors
    malformed = {i for i, found in enumerate(answers) if len(found) != K}
    rng = np.random.default_rng(seed + 3)
    sample = rng.choice(len(answers), size=min(ORACLE_SAMPLE, len(answers)), replace=False)
    wrong = {
        int(i)
        for i in sample
        if not oracle.check_answers(
            vectors, vectors[inputs.queries[i]], knn_query(K), answers[i]
        )
    }
    return len(malformed | wrong), len(sample)


class BatchScanKnn(InProcessWorkload):
    name = "batch_scan_knn"
    access = "scan"

    def inputs(self, sizes: Sizes, seed: int) -> Inputs:
        from repro.workloads import make_astronomy

        data = make_astronomy(n=sizes.objects(50_000), seed=DATASET_SEED)
        blocks = sizes.count(12, floor=2)
        return Inputs(data, _sample_queries(data, blocks * BLOCK_SIZE, seed + 1))

    def warm(self, database: Any, inputs: Inputs) -> None:
        from repro import knn_query

        indices = [int(i) for i in inputs.queries[:8]]
        database.run_in_blocks(
            [inputs.data[i] for i in indices], knn_query(K), BLOCK_SIZE, db_indices=indices
        )

    def drive(self, database, inputs, tracer):
        from repro import knn_query

        qtype = knn_query(K)
        blocks = []
        for start in range(0, len(inputs.queries), BLOCK_SIZE):
            indices = [int(i) for i in inputs.queries[start : start + BLOCK_SIZE]]
            blocks.append(([inputs.data[i] for i in indices], indices))
        latencies, answers = [], []
        for number, (objects, indices) in enumerate(blocks):
            if tracer is not None:
                tracer.tag = number
            started = _now()
            found = database.run_in_blocks(objects, qtype, BLOCK_SIZE, db_indices=indices)
            latencies.append(_now() - started)
            answers.extend(found)
        return latencies, answers, len(inputs.queries)

    def verify(self, inputs, outputs, seed):
        return _verify_knn(inputs, outputs, seed)


class SingleXtreeKnn(InProcessWorkload):
    name = "single_xtree_knn"
    access = "xtree"

    def inputs(self, sizes: Sizes, seed: int) -> Inputs:
        from repro.workloads import make_astronomy

        data = make_astronomy(n=sizes.objects(100_000), seed=DATASET_SEED)
        return Inputs(data, _sample_queries(data, sizes.count(6000, floor=100), seed + 1))

    def warm(self, database: Any, inputs: Inputs) -> None:
        from repro import knn_query

        for index in inputs.queries[-100:]:
            database.similarity_query(inputs.data[int(index)], knn_query(K))

    def drive(self, database, inputs, tracer):
        from repro import knn_query

        qtype = knn_query(K)
        objects = [inputs.data[int(i)] for i in inputs.queries]
        latencies, answers = [], []
        for number, obj in enumerate(objects):
            if tracer is not None:
                tracer.tag = number
            started = _now()
            found = database.similarity_query(obj, qtype)
            latencies.append(_now() - started)
            answers.append(found)
        return latencies, answers, len(objects)

    def verify(self, inputs, outputs, seed):
        return _verify_knn(inputs, outputs, seed)

    def layer_extras(self, inputs, traced):
        return {"obs.enabled_overhead_share": _observer_overhead(self, inputs)}


class DbscanXtreeRange(InProcessWorkload):
    name = "dbscan_xtree_range"
    access = "xtree"

    def inputs(self, sizes: Sizes, seed: int) -> Inputs:
        from repro.workloads import make_gaussian_mixture

        from repro.data import VectorDataset

        # DBSCAN's cost grows faster than its input, so --seconds
        # scales the object count sub-linearly.
        objects = sizes.objects(int(20_000 * sizes.scale**0.6))
        drawn = make_gaussian_mixture(
            n=objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=DATASET_SEED
        )
        # Every object is queried once, in storage order, so the seed
        # shuffles that order: same points, another visiting sequence.
        order = np.random.default_rng(seed + 1).permutation(objects)
        return Inputs(VectorDataset(drawn.vectors[order]), np.arange(objects, dtype=np.int64))

    def first_answer(self, database: Any, inputs: Inputs) -> None:
        from repro import range_query

        database.similarity_query(inputs.data[0], range_query(DBSCAN_EPS))

    def drive(self, database, inputs, tracer):
        import repro.mining as mining

        started = _now()
        result = mining.dbscan(
            database, eps=DBSCAN_EPS, min_pts=DBSCAN_MIN_PTS, batch_size=DBSCAN_BATCH
        )
        return [_now() - started], result, result.queries_issued

    def slo_ms(self, inputs: Inputs) -> float:
        return DBSCAN_SLO_MS_PER_QUERY * len(inputs.queries)

    def verify(self, inputs, outputs, seed):
        wrong = oracle.check_dbscan(
            inputs.data.vectors, DBSCAN_EPS, DBSCAN_MIN_PTS, outputs.labels
        )
        return wrong, len(inputs.queries)

    def layer_extras(self, inputs, traced):
        return {"mining.iterations": traced.outputs.queries_issued}


def measure_setup(
    workload: InProcessWorkload, inputs: Inputs
) -> tuple[float, Any]:
    """Median seconds from data in memory to the first answer.

    Building the database and answering one query of the workload's
    kind: work moved out of the timed region into the constructor or
    into lazy first-use set-up both land here.
    """
    samples = []
    database = None
    for _ in range(SETUP_BUILDS):
        started = _now()
        database = workload.build(inputs)
        workload.first_answer(database, inputs)
        samples.append(_now() - started)
    return statistics.median(samples), database


def _observer_overhead(workload: InProcessWorkload, inputs: Inputs) -> float:
    """Wall-clock share an attached ``Observer`` adds to a 500-query slice."""
    from repro import Database, knn_query
    from repro.obs import Observer

    objects = [inputs.data[int(i)] for i in inputs.queries[:500]]
    walls = []
    for observer in (None, Observer()):
        database = Database(inputs.data, access=workload.access, observer=observer)
        workload.warm(database, inputs)
        started = _now()
        for obj in objects:
            database.similarity_query(obj, knn_query(K))
        walls.append(_now() - started)
    return walls[1] / walls[0] - 1.0


def run_in_process(
    workload: InProcessWorkload, sizes: Sizes, seed: int, trace: bool
) -> Outcome:
    inputs = workload.inputs(sizes, seed)
    sums = inputs.checksums()
    pinned = verify_pins(workload.name, sums, seed, sizes)

    setup_s, database = measure_setup(workload, inputs)
    workload.warm(database, inputs)
    timed = _timed(workload, database, inputs, None)
    peak_rss = env.peak_rss_mb()

    mismatches, checked = workload.verify(inputs, timed.outputs, seed)
    requests = len(timed.latencies)
    limit = workload.slo_ms(inputs) / 1e3
    in_time = sum(1 for latency in timed.latencies if latency <= limit)
    outcome = Outcome(
        attempted=timed.queries,
        failed=mismatches,
        inputs=sums,
        inputs_pinned=pinned,
    )
    outcome.samples["oracle_checked"] = checked
    outcome.samples["requests"] = requests
    outcome.end_to_end = {
        "setup_s": setup_s,
        "queries_per_s": timed.queries / timed.wall,
        **latency_metrics(timed.latencies, timed.latencies, outcome.samples),
        # A wrong answer is not a timely one; mismatches are found on a
        # sample, so the share is lowered by the sampled failure rate.
        "slo_ok_share": in_time / requests * (1.0 - mismatches / max(1, checked)),
        "modelled_ms_per_query": (timed.io_seconds + timed.cpu_seconds)
        / timed.queries
        * 1e3,
        "peak_rss_mb": peak_rss,
    }
    if not trace:
        return outcome

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced_database = workload.build(inputs)
        workload.first_answer(traced_database, inputs)
        workload.warm(traced_database, inputs)
        tracer.reset()
        traced = _timed(workload, traced_database, inputs, tracer)
    finally:
        patches.remove()
    if traced.counters != timed.counters:
        outcome.valid = False
        outcome.notes.append("traced and untraced runs counted different work")
    traced.extra.update(workload.layer_extras(inputs, traced))
    self_s = tracer.self_times()
    ledger = layer_ledger(traced, self_s, tracer.calls(), dict(tracer.counts))
    ledger["trace.overhead_share"] = traced.wall / timed.wall - 1.0
    ledger["trace.coverage_share"] = sum(self_s.values()) / traced.wall
    ledger["failed_share"] = outcome.failed / outcome.attempted
    outcome.per_layer = ledger
    outcome.checks = bypass_checks(workload.name, ledger)
    outcome.samples["spans"] = tracer.write_jsonl(trace_path(workload.name, seed))
    return outcome


# ----------------------------------------------------------------------
# The wire workload
# ----------------------------------------------------------------------


def wire_inputs(sizes: Sizes, seed: int) -> tuple[Inputs, dict[str, int]]:
    data = wire_dataset(sizes.objects(50_000))
    counts = {
        "warm": 64,
        "low": sizes.count(400, floor=30),
        "high": sizes.count(1500, floor=100),
        # Several times the server's in-flight window at any size, so
        # that the burst has a stretch with the window full.
        "burst": sizes.count(2500, floor=400),
    }
    queries = _sample_queries(data, sum(counts.values()), seed + 1)
    rng = np.random.default_rng(seed + 2)
    arrivals = {
        "low": np.cumsum(rng.exponential(1.0 / LOW_QPS, size=counts["low"])),
        "high": np.cumsum(rng.exponential(1.0 / HIGH_QPS, size=counts["high"])),
    }
    return Inputs(data, queries, arrivals), counts


def wire_qtype(position: int) -> Any:
    """Alternate k-NN with range queries of cycling radius."""
    from repro import knn_query, range_query

    if position % 2 == 0:
        return knn_query(K)
    return range_query(WIRE_RANGES[(position // 2) % len(WIRE_RANGES)])


#: Server snapshots of one pass, in the order they are taken;
#: ``burst_sent`` is the moment the burst's last request went out.
WIRE_MARKS = ("start", "low_done", "high_done", "burst_sent", "burst_done")


@dataclass
class WirePass:
    """One pass of the three phases against one server process."""

    phases: dict[str, loadgen.PhaseResult]
    marks: dict[str, dict[str, Any]]
    final: dict[str, Any]


async def _wire_phases(
    server: loadgen.ServerProcess,
    inputs: Inputs,
    counts: dict[str, int],
) -> tuple[dict[str, loadgen.PhaseResult], dict[str, dict[str, Any]]]:
    vectors = inputs.data.vectors
    requests = [
        (vectors[int(index)], wire_qtype(position))
        for position, index in enumerate(inputs.queries)
    ]
    slices, start = {}, 0
    for phase, count in counts.items():
        slices[phase] = requests[start : start + count]
        start += count

    clients = await loadgen.connect(server, WIRE_CONNECTIONS)
    try:
        # Marks are requested at every phase boundary and read back in
        # one go at the end, so no phase waits on the control pipe.
        await loadgen.burst_phase(clients, slices["warm"])
        server.request_mark()
        phases = {}
        for phase in ("low", "high"):
            phases[phase] = await loadgen.paced_phase(
                clients, slices[phase], inputs.arrivals[phase]
            )
            server.request_mark()
        phases["burst"] = await loadgen.burst_phase(clients, slices["burst"], server)
        server.request_mark()
    finally:
        await loadgen.disconnect(clients)
    return phases, dict(zip(WIRE_MARKS, server.marks(), strict=True))


def _wire_pass(
    inputs: Inputs, counts: dict[str, int], trace_out: str | None
) -> tuple[WirePass, list[float]]:
    """Spawn servers (the last one is measured) and run the phases."""
    setups = []
    server = None
    for _ in range(SERVER_SPAWNS if trace_out is None else 1):
        if server is not None:
            server.quit()
        server = loadgen.ServerProcess(len(inputs.data), trace_out)
        setups.append(server.listening_after)
    assert server is not None
    try:
        phases, marks = asyncio.run(_wire_phases(server, inputs, counts))
        final = server.quit()
    finally:
        server.close()
    return WirePass(phases, marks, final), setups


def _wire_failures(
    inputs: Inputs, counts: dict[str, int], phases: dict[str, loadgen.PhaseResult], seed: int
) -> tuple[int, int, set[tuple[str, int]]]:
    """(failed, checked, wrong requests) over the three timed phases."""
    vectors = inputs.data.vectors
    offset = counts["warm"]
    rng = np.random.default_rng(seed + 3)
    failed = 0
    wrong: set[tuple[str, int]] = set()
    checked = 0
    for name, phase in phases.items():
        failed += phase.sheds + phase.errors + phase.timeouts
        delivered = [i for i, found in enumerate(phase.answers) if found is not None]
        size = min(len(delivered), max(1, ORACLE_SAMPLE // len(phases)))
        for position in rng.choice(delivered, size=size, replace=False):
            position = int(position)
            query = vectors[int(inputs.queries[offset + position])]
            qtype = wire_qtype(offset + position)
            checked += 1
            if not oracle.check_answers(vectors, query, qtype, phase.answers[position]):
                wrong.add((name, position))
        offset += len(phase.answers)
    return failed + len(wrong), checked, wrong


def _wire_timed(run: WirePass, queries: int) -> Timed:
    """Server-side counts over the three timed phases."""
    first, last = run.marks["start"], run.marks["burst_done"]
    counters = {
        key: last["counters"][key] - first["counters"][key] for key in last["counters"]
    }
    return Timed(
        wall=last["t"] - first["t"],
        queries=queries,
        latencies=[],
        outputs=None,
        counters=counters,
        io_seconds=last["modelled_io_s"] - first["modelled_io_s"],
        cpu_seconds=last["modelled_cpu_s"] - first["modelled_cpu_s"],
        buffer_lookups=last["buffer_lookups"] - first["buffer_lookups"],
        buffer_hits=last["buffer_hits"] - first["buffer_hits"],
    )


def run_wire(sizes: Sizes, seed: int, trace: bool) -> Outcome:
    name = "wire_open_mixed"
    inputs, counts = wire_inputs(sizes, seed)
    sums = inputs.checksums()
    pinned = verify_pins(name, sums, seed, sizes)

    run, setups = _wire_pass(inputs, counts, None)
    phases = run.phases
    failed, checked, wrong = _wire_failures(inputs, counts, phases, seed)
    attempted = sum(len(phase.answers) for phase in phases.values())
    timed = _wire_timed(run, attempted)

    paced = [(phase, phases[phase]) for phase in ("low", "high")]
    limit = SLO_MS[name] / 1e3
    in_time = sum(
        1
        for phase_name, phase in paced
        for position, latency in enumerate(phase.latencies)
        if latency is not None and latency <= limit and (phase_name, position) not in wrong
    )
    burst = phases["burst"]
    if burst.steady_completed:
        burst_qps = burst.steady_completed / burst.steady_seconds
    else:
        burst_qps = sum(1 for a in burst.answers if a is not None) / burst.wall_seconds
    late_p99_ms = max(
        stats.percentile(phase.lateness, 0.99).value * 1e3 for _, phase in paced
    )

    outcome = Outcome(attempted=attempted, failed=failed, inputs=sums, inputs_pinned=pinned)
    outcome.samples["oracle_checked"] = checked
    outcome.samples["loadgen.late_p99_ms"] = late_p99_ms
    if late_p99_ms > MAX_LATE_P99_MS:
        outcome.valid = False
        outcome.notes.append(
            f"generator ran {late_p99_ms:.1f} ms late at p99 (limit {MAX_LATE_P99_MS} ms): "
            f"the offered schedule was not the stated one"
        )
    outcome.end_to_end = {
        "setup_s": statistics.median(setups),
        "queries_per_s": burst_qps,
        **latency_metrics(
            [x for x in phases["high"].latencies if x is not None],
            [x for x in phases["low"].latencies if x is not None],
            outcome.samples,
        ),
        "slo_ok_share": in_time / sum(len(phase.latencies) for _, phase in paced),
        "modelled_ms_per_query": (timed.io_seconds + timed.cpu_seconds) / attempted * 1e3,
        "peak_rss_mb": run.final["peak_rss_mb"],
    }
    if trace:
        _wire_layers(outcome, inputs, counts, seed, burst)
    return outcome


def _wire_layers(
    outcome: Outcome,
    inputs: Inputs,
    counts: dict[str, int],
    seed: int,
    untraced_burst: loadgen.PhaseResult,
) -> None:
    """The traced pass: same inputs against a server with the wrappers
    installed; the generator's own frame decoding is timed here too."""
    from repro.net.protocol import FrameDecoder

    name = "wire_open_mixed"
    client_tracer = tracing.Tracer()
    client_patches = tracing.Installation(client_tracer)
    client_patches.wrap(FrameDecoder, "feed", "loadgen.client_decode")
    try:
        run, _ = _wire_pass(inputs, counts, trace_path(name, seed, "-server"))
    finally:
        client_patches.remove()
    timed = _wire_timed(run, outcome.attempted)
    windows = run.final["windows"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    queue_waits: list[float] = []
    for window in windows:
        for key, value in window["self_s"].items():
            self_s[key] = self_s.get(key, 0.0) + value
        for key, value in window["calls"].items():
            calls[key] = calls.get(key, 0) + value
        queue_waits.extend(window["queue_waits"])
    first, last = run.marks["start"], run.marks["burst_done"]
    server_counts = {
        key: value - first["counts"].get(key, 0.0) for key, value in last["counts"].items()
    }
    stats_delta = {
        key: last["stats"][key] - first["stats"][key]
        for key in ("results", "degraded_results", "sheds", "errors")
    }
    server_counts["net.results"] = stats_delta["results"]

    phases = run.phases
    batch_sizes = [size for phase in phases.values() for size in phase.batch_sizes]
    # Every result carries its block's size, so blocks = sum of 1/size.
    blocks = sum(1.0 / size for size in batch_sizes)
    timed.extra.update(
        {
            "service.queue_wait_p50_ms": stats.percentile(queue_waits, 0.5).value * 1e3,
            "service.queue_wait_p99_ms": stats.percentile(queue_waits, 0.99).value * 1e3,
            "service.blocks_flushed": blocks,
            "service.block_size_mean": len(batch_sizes) / blocks if blocks else 0.0,
            "service.degraded": stats_delta["degraded_results"],
            "net.sheds": stats_delta["sheds"],
            "net.errors": stats_delta["errors"],
            "loadgen.late_p99_ms": max(
                stats.percentile(phases[p].lateness, 0.99).value * 1e3
                for p in ("low", "high")
            ),
            "loadgen.client_decode_s": sum(client_tracer.self_times().values()),
            "loadgen.offered_qps.low": phases["low"].offered_qps,
            "loadgen.offered_qps.high": phases["high"].offered_qps,
        }
    )
    ledger = layer_ledger(timed, self_s, calls, server_counts)
    # Overhead and coverage are read over the stretch of the burst
    # phase in which the window was full: there the server's loop is
    # never idle, so wall-clock is all work.
    burst = phases["burst"]
    ledger["trace.overhead_share"] = (
        (untraced_burst.steady_completed / untraced_burst.steady_seconds)
        / (burst.steady_completed / burst.steady_seconds)
        - 1.0
        if untraced_burst.steady_completed and burst.steady_completed
        else 0.0
    )
    burst_window = windows[WIRE_MARKS.index("burst_sent") - 1]
    burst_wall = run.marks["burst_sent"]["t"] - run.marks["high_done"]["t"]
    ledger["trace.coverage_share"] = sum(burst_window["self_s"].values()) / burst_wall
    ledger["failed_share"] = outcome.failed / outcome.attempted
    outcome.per_layer = ledger
    outcome.checks = bypass_checks(name, ledger)
    outcome.samples["spans"] = run.final["spans_written"]
    outcome.samples["service.queue_wait"] = len(queue_waits)


IN_PROCESS: dict[str, Callable[[], InProcessWorkload]] = {
    "batch_scan_knn": BatchScanKnn,
    "single_xtree_knn": SingleXtreeKnn,
    "dbscan_xtree_range": DbscanXtreeRange,
}

NAMES = (*IN_PROCESS, "wire_open_mixed")


def run(name: str, sizes: Sizes, seed: int, trace: bool) -> Outcome:
    """Run one workload in this process (and, for wire, its server)."""
    if name in IN_PROCESS:
        return run_in_process(IN_PROCESS[name](), sizes, seed, trace)
    if name == "wire_open_mixed":
        return run_wire(sizes, seed, trace)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
