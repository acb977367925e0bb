"""The wire workload's program process.

Builds the server from program defaults only --
``Database(data, access="xtree")``, ``db.serve()``,
``QueryServer(scheduler)`` on port 0 -- and speaks a line protocol with
the benchmark on stdin/stdout:

* on start it prints ``{"event": "listening", "port": ...}``;
* ``mark`` prints a snapshot of the clock, CPU time, the program's
  counters, their modelled cost and ``server.stats()`` -- the benchmark brackets each phase
  with two marks;
* ``quit`` (or end of input) shuts the server down and prints the final
  record: peak RSS and, when traced, the per-layer self times, counts
  and queue waits of every mark-to-mark window.

With ``--trace-out`` the benchmark's wrappers are installed before the
server is built and the spans are written there at shutdown.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from typing import Any

import env

env.prepare()

import tracing  # noqa: E402
import workloads  # noqa: E402


def _emit(record: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


async def serve(args: argparse.Namespace) -> None:
    from repro import Database
    from repro.net import QueryServer

    tracer = tracing.Tracer() if args.trace_out else None
    patches = tracing.install(tracer) if tracer is not None else None

    data = workloads.wire_dataset(args.objects)
    database = Database(data, access="xtree")
    scheduler = database.serve()
    server = QueryServer(scheduler)
    host, port = await server.start()

    marks: list[dict[str, Any]] = []
    done = asyncio.Event()
    loop = asyncio.get_running_loop()

    def snapshot() -> dict[str, Any]:
        buffer = database.disk.buffer
        cost = database.cost_model.breakdown(database.counters)
        return {
            "t": time.perf_counter(),
            "cpu_s": env.cpu_seconds(),
            "counters": database.counters.as_dict(),
            "modelled_io_s": cost.io_seconds,
            "modelled_cpu_s": cost.cpu_seconds,
            "buffer_lookups": buffer.lookups,
            "buffer_hits": buffer.hits,
            "stats": server.stats(),
            "spans": len(tracer) if tracer is not None else 0,
            "counts": dict(tracer.counts) if tracer is not None else {},
            "queue_waits": len(tracer.queue_waits) if tracer is not None else 0,
        }

    control = sys.stdin.fileno()
    pending = bytearray()

    def on_command() -> None:
        # Raw reads: a buffered readline() would swallow a second command
        # that arrived with the first, and the descriptor would never
        # signal it again.
        chunk = os.read(control, 4096)
        pending.extend(chunk)
        *commands, rest = bytes(pending).split(b"\n")
        pending[:] = rest
        for command in commands:
            if command == b"mark":
                mark = snapshot()
                marks.append(mark)
                _emit({"event": "mark", **mark})
            elif command == b"quit":
                chunk = b""
        if not chunk:  # "quit", or the benchmark went away
            loop.remove_reader(control)
            done.set()

    loop.add_reader(control, on_command)
    _emit({"event": "listening", "host": host, "port": port})
    await done.wait()
    await server.shutdown()

    final: dict[str, Any] = {
        "event": "final",
        "peak_rss_mb": env.peak_rss_mb(),
        "stats": server.stats(),
    }
    if tracer is not None and patches is not None:
        patches.remove()
        windows = []
        for earlier, later in zip(marks, marks[1:]):
            first, last = earlier["spans"], later["spans"]
            windows.append(
                {
                    "self_s": tracer.self_times(first, last),
                    "calls": tracer.calls(first, last),
                    "queue_waits": tracer.queue_waits[
                        earlier["queue_waits"] : later["queue_waits"]
                    ],
                }
            )
        final["windows"] = windows
        final["spans_written"] = tracer.write_jsonl(args.trace_out)
    _emit(final)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--objects", type=int, required=True)
    parser.add_argument("--trace-out", default=None)
    asyncio.run(serve(parser.parse_args()))


if __name__ == "__main__":
    main()
