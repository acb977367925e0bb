"""Open-loop load generator and server process control for the wire workload.

One single-threaded asyncio generator drives the server subprocess over
two connections through the program's own client library
(``repro.net.QueryClient``).  Paced phases are **open loop**: request
``i`` is sent at ``start + offset[i]`` whatever the server is doing, and
its latency runs from that *due* time to its terminal frame, so a stall
is charged to every request it delays.  How late the generator itself
ran is reported beside the latencies.

The burst phase is unpaced but keeps within the in-flight window the
server advertises in its ``hello_ok`` frame; beyond it the server sheds,
and a benchmark must not manufacture failures.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import env

#: A request with no terminal frame this long after its due time failed.
TIMEOUT_SECONDS = 30.0

#: The server answers a control command (or comes up) within this long,
#: or the run fails rather than hangs.
ANSWER_SECONDS = 60.0

_now = time.perf_counter


class ServerProcess:
    """The program under test: ``server_main.py`` in its own process."""

    def __init__(self, objects: int, trace_out: str | None = None) -> None:
        command = [
            sys.executable,
            str(env.HERE / "server_main.py"),
            "--objects",
            str(objects),
        ]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        spawned_at = _now()
        self._process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            bufsize=0,
            cwd=env.ROOT,
        )
        self._unread = b""
        listening = self._read("listening")
        #: Seconds from spawn to the server accepting connections:
        #: interpreter start, imports, data, index build, bind.
        self.listening_after = _now() - spawned_at
        self.host: str = listening["host"]
        self.port: int = listening["port"]
        self._marks_pending = 0

    def _read(self, event: str) -> dict[str, Any]:
        """Next line of the server's stdout; never waits past the deadline."""
        assert self._process.stdout is not None
        pipe = self._process.stdout.fileno()
        deadline = _now() + ANSWER_SECONDS
        while b"\n" not in self._unread:
            ready, _, _ = select.select([pipe], [], [], max(0.0, deadline - _now()))
            chunk = os.read(pipe, 65536) if ready else b""
            if not chunk:
                raise RuntimeError(
                    f"server gave no {event!r} record "
                    f"({'exit code ' + str(self._process.poll()) if ready else 'timed out'})"
                )
            self._unread += chunk
        line, _, self._unread = self._unread.partition(b"\n")
        record = json.loads(line)
        if record.get("event") != event:
            raise RuntimeError(f"expected {event!r} from the server, got {record}")
        return record

    def _write(self, command: str) -> None:
        assert self._process.stdin is not None
        self._process.stdin.write(command.encode("ascii") + b"\n")

    def request_mark(self) -> None:
        """Ask for a snapshot now; collect it later with :meth:`marks`."""
        self._write("mark")
        self._marks_pending += 1

    def marks(self) -> list[dict[str, Any]]:
        """Every snapshot requested since the last call, in order."""
        pending, self._marks_pending = self._marks_pending, 0
        return [self._read("mark") for _ in range(pending)]

    def quit(self) -> dict[str, Any]:
        """Shut the server down; returns its final record."""
        try:
            self._write("quit")
            final = self._read("final")
        finally:
            self.close()
        return final

    def close(self) -> None:
        """Make sure the process has ended (kills it when still alive)."""
        process = self._process
        if process.poll() is None:
            try:
                if process.stdin is not None:
                    process.stdin.close()
                process.wait(timeout=10)
            except (subprocess.TimeoutExpired, OSError):
                process.kill()
        process.wait()
        for pipe in (process.stdin, process.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()


@dataclass
class PhaseResult:
    """What the generator saw of one phase, one entry per request."""

    #: Seconds from due time (paced) or send time (burst) to the
    #: terminal frame; ``None`` for a request that failed.
    latencies: list[float | None]
    #: Delivered answers, ``None`` for shed / error / timeout.
    answers: list[Any]
    batch_sizes: list[int] = field(default_factory=list)
    sheds: int = 0
    errors: int = 0
    timeouts: int = 0
    #: Seconds each send ran behind its due time (paced phases).
    lateness: list[float] = field(default_factory=list)
    offered_qps: float = 0.0
    #: Burst: requests completed, and seconds elapsed, while the
    #: generator still had requests left to keep the window full.
    steady_completed: int = 0
    steady_seconds: float = 0.0
    wall_seconds: float = 0.0


def _collect(futures: Sequence[asyncio.Future[Any]], origins: Sequence[float]) -> PhaseResult:
    result = PhaseResult([], [])
    for future, origin in zip(futures, origins):
        if not future.done():
            future.cancel()
            result.timeouts += 1
        elif future.cancelled() or future.exception() is not None:
            result.errors += 1
        elif future.result().shed:
            result.sheds += 1
        else:
            reply = future.result()
            result.latencies.append(reply.completed_at - origin)
            result.answers.append(reply.answers)
            if reply.batch_size:
                result.batch_sizes.append(reply.batch_size)
            continue
        result.latencies.append(None)
        result.answers.append(None)
    return result


async def paced_phase(
    clients: Sequence[Any],
    requests: Sequence[tuple[Any, Any]],
    offsets: Sequence[float],
) -> PhaseResult:
    """Send ``requests[i]`` at ``start + offsets[i]``; wait for every reply."""
    start = _now() + 0.02
    futures: list[asyncio.Future[Any]] = []
    dues: list[float] = []
    sent: list[float] = []
    for position, (vector, qtype) in enumerate(requests):
        due = start + offsets[position]
        delay = due - _now()
        if delay > 0:
            await asyncio.sleep(delay)
        sent.append(_now())
        dues.append(due)
        client = clients[position % len(clients)]
        futures.append(await client.submit(vector, qtype))
    remaining = dues[-1] + TIMEOUT_SECONDS - _now()
    await asyncio.wait(futures, timeout=max(0.0, remaining))
    result = _collect(futures, dues)
    result.wall_seconds = _now() - start
    result.lateness = [at - due for at, due in zip(sent, dues)]
    if len(sent) > 1:
        result.offered_qps = (len(sent) - 1) / (sent[-1] - sent[0])
    return result


async def burst_phase(
    clients: Sequence[Any],
    requests: Sequence[tuple[Any, Any]],
    server: ServerProcess | None = None,
) -> PhaseResult:
    """Send everything as fast as the advertised in-flight window allows.

    When ``server`` is given, a mark is requested at the moment the last
    request has been sent: until then the window was full and the server
    never idle, which is the stretch throughput is measured over.
    """
    windows = [
        asyncio.Semaphore(int(client.hello.get("max_inflight", 1))) for client in clients
    ]
    futures: list[asyncio.Future[Any]] = []
    sent: list[float] = []
    completed = 0

    def release(window: asyncio.Semaphore) -> Any:
        def on_done(_: asyncio.Future[Any]) -> None:
            nonlocal completed
            completed += 1
            window.release()

        return on_done

    start = _now()
    for position, (vector, qtype) in enumerate(requests):
        lane = position % len(clients)
        await windows[lane].acquire()
        sent.append(_now())
        future = await clients[lane].submit(vector, qtype)
        future.add_done_callback(release(windows[lane]))
        futures.append(future)
    steady_completed, steady_seconds = completed, _now() - start
    if server is not None:
        server.request_mark()
    await asyncio.wait(futures, timeout=TIMEOUT_SECONDS)
    result = _collect(futures, sent)
    result.wall_seconds = _now() - start
    result.steady_completed = steady_completed
    result.steady_seconds = steady_seconds
    return result


async def connect(server: ServerProcess, connections: int) -> list[Any]:
    from repro.net import QueryClient

    return [
        await QueryClient.connect(
            server.host, server.port, client=f"e2e-{lane}", timeout=15.0
        )
        for lane in range(connections)
    ]


async def disconnect(clients: Sequence[Any]) -> None:
    for client in clients:
        await client.close()
