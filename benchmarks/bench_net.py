"""Network front-end benchmark: the wire path vs. the in-process path.

Replays one seeded open-loop trace (:mod:`repro.workloads.loadgen`)
twice over the same database:

* **in-process** -- straight through :class:`QueryScheduler`, the
  reference run;
* **wire** -- over a real socket through :class:`~repro.net.QueryServer`,
  whose work-conserving executor forms blocks from whatever arrived
  while the previous block ran.

Both rows record wall-clock seconds and client-observed latency
percentiles (submit to completion, per ticket); the in-process row also
records the served database's deterministic cost counters.  Every wire
answer is asserted equal to its in-process twin.  The wire row carries
no counters: block grouping on the wire depends on arrival timing, so
its sharing counters do too (its answers do not).

Results are written to ``BENCH_net.json`` at the repository root;
``repro bench --import-bench BENCH_net.json`` folds them into the
baseline store so the CI regression check guards the socket overhead.

Run standalone (``python benchmarks/bench_net.py``) or via pytest
(``pytest benchmarks/bench_net.py``).
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

from repro.core.database import Database
from repro.net import QueryServer
from repro.workloads.loadgen import (
    compare_answers,
    record_trace,
    replay_in_process,
    replay_over_wire,
    trace_dataset,
)

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_net.json"

N_OBJECTS = 4_096
N_QUERIES = 256
N_CLIENTS = 8
RATE = 2_000.0
K = 10
REPEATS = 3

_COUNTER_FIELDS = (
    "page_reads",
    "distance_calculations",
    "avoidance_tries",
    "avoided_calculations",
    "queries_completed",
)


def _trace():
    return record_trace(
        N_QUERIES,
        rate=RATE,
        n_clients=N_CLIENTS,
        objects=N_OBJECTS,
        k=K,
        mix=True,
        seed=7,
    )


def _counters(database) -> dict[str, int]:
    return {
        name: getattr(database.counters, name) for name in _COUNTER_FIELDS
    }


def _run_in_process(trace) -> dict:
    database = Database(trace_dataset(trace), access="xtree", block_size=2048)
    answers, report = replay_in_process(trace, database=database)
    return {
        "answers": answers,
        "report": report,
        "counters": _counters(database),
    }


def _run_wire(trace) -> dict:
    async def run():
        database = Database(
            trace_dataset(trace), access="xtree", block_size=2048
        )
        server = QueryServer(database.serve(order="fifo"))
        await server.start()
        host, port = server.address
        # One connection pipelining every submit: the server must keep
        # its per-client inflight bound without shedding.
        answers, report = await replay_over_wire(
            trace, host, port, speed=0.0, stream=False, max_connections=1
        )
        await server.shutdown()
        return {"answers": answers, "report": report}

    return asyncio.run(run())


def _row(run: dict) -> dict:
    report = run["report"]
    row = {**report.as_dict(), "seconds": report.wall_seconds}
    if "counters" in run:
        row["counters"] = run["counters"]
    return row


def run_bench() -> dict:
    trace = _trace()
    reference = _run_in_process(trace)

    best_inproc = reference
    for _ in range(REPEATS - 1):
        run = _run_in_process(trace)
        if run["report"].wall_seconds < best_inproc["report"].wall_seconds:
            best_inproc = run

    best_wire: dict | None = None
    for _ in range(REPEATS):
        run = _run_wire(trace)
        # Byte-identity holds for every repeat, not just the fastest one.
        assert (
            compare_answers(run["answers"], reference["answers"]) == []
        ), "wire answers diverge from the in-process reference"
        assert run["report"].shed == 0 and run["report"].degraded == 0
        if (
            best_wire is None
            or run["report"].wall_seconds < best_wire["report"].wall_seconds
        ):
            best_wire = run
    assert best_wire is not None

    result = {
        "benchmark": "net",
        "repeats": REPEATS,
        "n_objects": N_OBJECTS,
        "n_queries": N_QUERIES,
        "n_clients": N_CLIENTS,
        "offered_rate": RATE,
        "identical_to_in_process": True,
        "rows": [_row(best_inproc), _row(best_wire)],
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def _render(result: dict) -> str:
    lines = [
        f"{'mode':<12} {'seconds':>9} {'q/s':>9} {'p50 ms':>9} "
        f"{'p99 ms':>9} {'shed':>6} {'degraded':>9}"
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['mode']:<12} {row['seconds']:>9.3f} "
            f"{row['queries_per_second']:>9.1f} "
            f"{row['latency_p50_ms']:>9.3f} {row['latency_p99_ms']:>9.3f} "
            f"{row['shed']:>6} {row['degraded']:>9}"
        )
    lines.append("wire answers byte-identical to in-process: yes")
    return "\n".join(lines)


def test_net_overhead():
    result = run_bench()
    print()
    print(_render(result))
    assert result["identical_to_in_process"]
    for row in result["rows"]:
        assert row["completed"] == N_QUERIES, row
        assert row["shed"] == 0 and row["degraded"] == 0, row


if __name__ == "__main__":
    print(_render(run_bench()))
    sys.exit(0)
