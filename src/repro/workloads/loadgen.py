"""Trace-driven load generator for the query service.

The multi-user scenario of Sec. 5 only exists once many clients arrive
*concurrently*; this module makes that arrival process a first-class,
replayable artifact:

* :func:`record_trace` draws a seeded **open-loop** arrival process --
  exponential inter-arrival times at a configured rate over the demo
  workload's query mix (pure k-NN or the heterogeneous ``--mix``) --
  and :func:`save_trace`/:func:`load_trace` persist it as JSONL.
  Traces are compact (dataset indices, not vectors), so recording
  10^5-10^6 arrivals is cheap; replay resolves the vectors from the
  seeded dataset named in the trace header.
* :func:`replay_in_process` pushes the trace straight through a
  :class:`~repro.service.QueryScheduler` -- the reference run the wire
  path must match byte for byte.
* :func:`replay_over_wire` drives a :class:`~repro.net.QueryServer`
  through real sockets with open-loop pacing: each arrival is submitted
  at its trace offset regardless of outstanding work, so overload shows
  up as latency and shedding, exactly like production traffic.

Both replays produce a :class:`LoadReport` (p50/p99 latency, TTFA,
throughput, shed/degraded counts) whose :meth:`LoadReport.snapshot`
re-uses the SLO engine's metric names, so ``ci/slo.yml`` evaluates the
*client-observed* service level with zero new machinery.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.core.answers import Answer
from repro.core.types import QueryType, knn_query, range_query

#: Trace file schema marker (header line of the JSONL file).
TRACE_SCHEMA = "repro-load/1"


@dataclass(frozen=True)
class TraceRecord:
    """One arrival: when, who, and what to ask."""

    #: Seconds since trace start at which the query arrives (open loop).
    offset: float
    #: Logical client the arrival belongs to.
    client: int
    #: Dataset index the query vector is resolved from.
    db_index: int
    qtype: QueryType


@dataclass
class LoadTrace:
    """A recorded arrival trace plus the workload it was drawn over."""

    meta: dict[str, Any]
    records: list[TraceRecord]

    def __len__(self) -> int:
        return len(self.records)

    @property
    def duration(self) -> float:
        """Offset of the last arrival (seconds)."""
        return self.records[-1].offset if self.records else 0.0


def _mixed_qtype(position: int, k: int) -> QueryType:
    """The serve demo's heterogeneous mix: alternating k-NN and range."""
    if position % 2:
        return knn_query(k)
    return range_query(0.12 * (1 + (position // 2) % 3))


def record_trace(
    n_queries: int,
    rate: float,
    n_clients: int = 8,
    objects: int = 15_000,
    k: int = 10,
    mix: bool = False,
    seed: int = 1,
) -> LoadTrace:
    """Draw a seeded open-loop trace over the demo workload.

    Arrivals form a Poisson process at ``rate`` queries/second
    (exponential inter-arrival times), assigned round-robin to
    ``n_clients`` logical clients; query objects are random database
    objects (the Sec. 6 independent-query workload) with the query mix
    of the serve demo.  Everything is a pure function of the arguments,
    so a recorded trace replays identically forever.
    """
    if n_queries < 1:
        raise ValueError("need at least one query")
    if rate <= 0:
        raise ValueError("arrival rate must be positive")
    from repro.workloads.generators import make_gaussian_mixture
    from repro.workloads.queries import sample_database_queries

    dataset = make_gaussian_mixture(
        n=objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
    )
    indices = sample_database_queries(dataset, n_queries, seed=seed)
    rng = np.random.default_rng(seed + 0x10AD)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n_queries))
    records = [
        TraceRecord(
            offset=float(offsets[position]),
            client=position % n_clients,
            db_index=int(indices[position]),
            qtype=_mixed_qtype(position, k) if mix else knn_query(k),
        )
        for position in range(n_queries)
    ]
    meta = {
        "objects": objects,
        "dimension": 12,
        "n_clients": n_clients,
        "rate": rate,
        "k": k,
        "mix": mix,
        "seed": seed,
    }
    return LoadTrace(meta=meta, records=records)


def save_trace(trace: LoadTrace, path: str) -> int:
    """Write a trace as JSONL (header line + one line per arrival)."""
    from repro.net.protocol import qtype_to_wire

    with open(path, "w", encoding="utf-8") as handle:
        header = {"schema": TRACE_SCHEMA, **trace.meta}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in trace.records:
            handle.write(
                json.dumps(
                    {
                        "offset": record.offset,
                        "client": record.client,
                        "db_index": record.db_index,
                        "qtype": qtype_to_wire(record.qtype),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
    return len(trace.records)


def load_trace(path: str) -> LoadTrace:
    """Read a trace written by :func:`save_trace`."""
    from repro.net.protocol import qtype_from_wire

    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise ValueError(f"{path!r} is empty")
        header = json.loads(header_line)
        if header.get("schema") != TRACE_SCHEMA:
            raise ValueError(
                f"{path!r} is not a {TRACE_SCHEMA} trace "
                f"(schema {header.get('schema')!r})"
            )
        header.pop("schema")
        records = []
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            records.append(
                TraceRecord(
                    offset=float(raw["offset"]),
                    client=int(raw["client"]),
                    db_index=int(raw["db_index"]),
                    qtype=qtype_from_wire(raw["qtype"]),
                )
            )
    return LoadTrace(meta=header, records=records)


def trace_dataset(trace: LoadTrace) -> Any:
    """Rebuild the seeded dataset a trace was recorded over."""
    from repro.workloads.generators import make_gaussian_mixture

    return make_gaussian_mixture(
        n=int(trace.meta.get("objects", 15_000)),
        dimension=int(trace.meta.get("dimension", 12)),
        n_clusters=30,
        cluster_std=0.03,
        seed=0,
    )


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------


def _quantile(values: Sequence[float], q: float) -> float:
    if not values:
        return float("nan")
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


@dataclass
class LoadReport:
    """Client-observed service level of one replay."""

    mode: str
    n_queries: int
    completed: int
    shed: int
    degraded: int
    wall_seconds: float
    offered_rate: float
    latencies: list[float] = field(default_factory=list, repr=False)
    ttfas: list[float] = field(default_factory=list, repr=False)
    completenesses: list[float] = field(default_factory=list, repr=False)
    #: Per-record flags, aligned with the trace: degraded deliveries are
    #: excluded from byte-identity verification (their partial answers
    #: are bounded by completeness, not equality).
    degraded_mask: list[bool] = field(default_factory=list, repr=False)

    @property
    def throughput(self) -> float:
        """Completed queries per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready summary (CI artifacts, ``BENCH_net.json``)."""
        return {
            "mode": self.mode,
            "n_queries": self.n_queries,
            "completed": self.completed,
            "shed": self.shed,
            "degraded": self.degraded,
            "wall_seconds": self.wall_seconds,
            "offered_rate": self.offered_rate,
            "queries_per_second": self.throughput,
            "latency_p50_ms": _quantile(self.latencies, 0.50) * 1e3,
            "latency_p99_ms": _quantile(self.latencies, 0.99) * 1e3,
            "latency_mean_ms": (
                float(np.mean(self.latencies)) * 1e3 if self.latencies else float("nan")
            ),
            "ttfa_p50_ms": _quantile(self.ttfas, 0.50) * 1e3,
            "ttfa_p99_ms": _quantile(self.ttfas, 0.99) * 1e3,
        }

    def snapshot(self) -> dict[str, Any]:
        """A metrics snapshot of the client-observed signals.

        Re-uses the service metric names (client latency, TTFA,
        ticket completeness), so an SLO spec written for ``repro serve
        --slo`` evaluates unchanged against load-generator results.
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.service.scheduler import COMPLETENESS_BOUNDS

        registry = MetricsRegistry()
        for latency in self.latencies:
            registry.observe("service.client_latency.seconds", latency)
        for ttfa in self.ttfas:
            registry.observe("service.time_to_first_answer.seconds", ttfa)
        registry.inc("service.tickets.completed", self.completed - self.degraded)
        if self.degraded:
            registry.inc("service.tickets.degraded", self.degraded)
        completeness = registry.histogram(
            "service.completeness", COMPLETENESS_BOUNDS
        )
        for value in self.completenesses:
            completeness.observe(value)
        registry.inc("loadgen.shed", self.shed)
        registry.set_gauge("loadgen.offered_rate", self.offered_rate)
        registry.set_gauge("loadgen.throughput", self.throughput)
        return registry.snapshot()

    def render(self) -> str:
        """Human-readable report block."""
        stats = self.as_dict()
        lines = [
            f"loadgen [{self.mode}]: {self.completed}/{self.n_queries} "
            f"completed, {self.shed} shed, {self.degraded} degraded "
            f"in {self.wall_seconds:.3f}s wall "
            f"({self.throughput:,.0f} q/s, offered {self.offered_rate:,.0f} q/s)",
            f"  latency: p50 {stats['latency_p50_ms']:.3f} ms  "
            f"p99 {stats['latency_p99_ms']:.3f} ms  "
            f"mean {stats['latency_mean_ms']:.3f} ms",
        ]
        if self.ttfas:
            lines.append(
                f"  ttfa:    p50 {stats['ttfa_p50_ms']:.3f} ms  "
                f"p99 {stats['ttfa_p99_ms']:.3f} ms"
            )
        if self.completenesses:
            lines.append(
                f"  degraded completeness: mean "
                f"{float(np.mean(self.completenesses)):.3f}  "
                f"min {min(self.completenesses):.3f}"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Replay: in process
# ----------------------------------------------------------------------


def replay_in_process(
    trace: LoadTrace,
    database: Any = None,
    access: str = "xtree",
    engine: str = "auto",
    max_block: int = 8,
    order: str = "fifo",
) -> tuple[list[list[Answer] | None], LoadReport]:
    """Replay a trace through an in-process scheduler (the reference).

    Submits every arrival in trace order as one burst and drains, so
    answers are comparable record for record with a wire replay
    (answers do not depend on block grouping).  Returns per-record
    answer lists and the report; a ticket's latency runs from its
    submit to the moment its block filled it, with no network time.
    """
    from repro.core.database import Database

    if database is None:
        database = Database(trace_dataset(trace), access=access, engine=engine)
    dataset = database.dataset
    scheduler = database.serve(max_block=max_block, order=order)
    started = time.perf_counter()
    tickets = [
        scheduler.submit(
            dataset[record.db_index], record.qtype, client_id=record.client
        )
        for record in trace.records
    ]
    scheduler.drain()
    wall = time.perf_counter() - started
    answers: list[list[Answer] | None] = []
    report = LoadReport(
        mode="in-process",
        n_queries=len(trace.records),
        completed=0,
        shed=0,
        degraded=0,
        wall_seconds=wall,
        offered_rate=float(trace.meta.get("rate", 0.0)),
    )
    for ticket in tickets:
        answers.append(list(ticket.answers) if ticket.answers is not None else None)
        report.degraded_mask.append(bool(ticket.degraded))
        if not ticket.done:
            continue
        report.completed += 1
        report.latencies.append(ticket.completed_at - ticket.submitted_at)
        if ticket.degraded:
            report.degraded += 1
            report.completenesses.append(ticket.completeness or 0.0)
    return answers, report


# ----------------------------------------------------------------------
# Replay: over the wire
# ----------------------------------------------------------------------


async def replay_over_wire(
    trace: LoadTrace,
    host: str,
    port: int,
    speed: float = 0.0,
    stream: bool = False,
    max_connections: int = 8,
    connect_timeout: float = 15.0,
    client_name: str = "loadgen",
) -> tuple[list[list[Answer] | None], LoadReport]:
    """Replay a trace against a live server with open-loop pacing.

    ``speed`` scales the recorded arrival clock (2.0 replays twice as
    fast); ``0`` disables pacing entirely and fires arrivals as fast as
    the sockets accept them -- the stress configuration.  Each logical
    client maps onto one of ``max_connections`` connections; submits
    never wait for earlier results (open loop), so queueing delay is
    measured, not masked.

    Returns per-record answers (``None`` for shed arrivals) and the
    client-observed :class:`LoadReport`.
    """
    from repro.net.client import QueryClient

    dataset = trace_dataset(trace)
    n_clients = max(1, int(trace.meta.get("n_clients", 1)))
    n_connections = min(max_connections, n_clients)
    clients = [
        await QueryClient.connect(
            host,
            port,
            client=f"{client_name}-{i}",
            timeout=connect_timeout,
        )
        for i in range(n_connections)
    ]
    try:
        started = time.perf_counter()
        futures = []
        for record in trace.records:
            if speed > 0:
                due = started + record.offset / speed
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
            client = clients[record.client % n_connections]
            futures.append(
                await client.submit(
                    dataset[record.db_index], record.qtype, stream=stream
                )
            )
        # Goodbye makes the server drain whatever is still queued
        # before it answers, so every future below resolves.
        for client in clients:
            await client.bye()
        results = await asyncio.gather(*futures)
        wall = time.perf_counter() - started
    finally:
        for client in clients:
            await client.close()
    answers: list[list[Answer] | None] = []
    report = LoadReport(
        mode="wire",
        n_queries=len(trace.records),
        completed=0,
        shed=0,
        degraded=0,
        wall_seconds=wall,
        offered_rate=(
            float(trace.meta.get("rate", 0.0)) * speed
            if speed > 0
            else float("inf")
        ),
    )
    for result in results:
        report.degraded_mask.append(bool(result.degraded))
        if result.shed:
            report.shed += 1
            answers.append(None)
            continue
        report.completed += 1
        answers.append(result.answers)
        report.latencies.append(result.latency)
        if result.ttfa is not None:
            report.ttfas.append(result.ttfa)
        if result.degraded:
            report.degraded += 1
            report.completenesses.append(
                result.completeness if result.completeness is not None else 0.0
            )
    if not np.isfinite(report.offered_rate):
        report.offered_rate = (
            report.n_queries / wall if wall > 0 else 0.0
        )
    return answers, report


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------


def compare_answers(
    wire: Sequence[list[Answer] | None],
    reference: Sequence[list[Answer] | None],
    skip: Sequence[bool] | None = None,
) -> list[int]:
    """Indices where delivered answers diverge from the reference run.

    ``skip[i]`` marks records excluded from the comparison (degraded
    deliveries under fault injection: their partial answers are bounded
    by completeness, not equality).  Shed records (``None`` answers)
    are skipped on the wire side -- the reference completed them, the
    server refused them, and both behaviours are correct.
    """
    if len(wire) != len(reference):
        raise ValueError(
            f"answer lists cover {len(wire)} vs {len(reference)} records"
        )
    divergent = []
    for position, (got, want) in enumerate(zip(wire, reference)):
        if got is None or want is None:
            continue
        if skip is not None and skip[position]:
            continue
        if got != want:
            divergent.append(position)
    return divergent
