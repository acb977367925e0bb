"""Asyncio socket front-end over the :class:`QueryScheduler`.

The server is the thin network face of the service pipeline: it speaks
the length-prefixed JSON protocol of :mod:`repro.net.protocol`, admits
queries into one shared :class:`~repro.service.QueryScheduler`, and
delivers tickets back to their connections the moment a block fills
them.  All protocol and scheduler work runs on one event loop, so the
scheduler keeps its single-threaded semantics and the answers that
cross the wire are byte-identical to the in-process path (answers are
exact under any block grouping).

Admission control happens *before* the scheduler sees a query:

* per-client bound -- a connection may have at most ``max_inflight``
  unanswered submits; beyond that the server sheds;
* global bound -- once the scheduler's admission queue reaches
  ``shed_depth`` waiting tickets, new submits are shed instead of
  forcing synchronous flush work onto the submitting client.

Shedding is always explicit: the client receives a ``shed`` frame
carrying the live queue depth, never a silent drop.  Degraded tickets
(faults that exhausted recovery) are delivered, not dropped: their
Def. 4 partial answers stream to the client together with the
completeness bound.

Execution is work-conserving: submits only enqueue, and one executor
task (the *pump*) polls the scheduler whenever tickets are queued --
one block, then delivery, then a yield to the loop so connection
handlers can admit what arrived meanwhile.  A lone ticket therefore
runs as soon as the server is free (m = 1), and a block holds exactly
the tickets that arrived while the previous block ran.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.net.protocol import (
    DEFAULT_MAX_FRAME,
    ERR_BAD_HANDSHAKE,
    ERR_BAD_QUERY,
    ERR_BAD_TYPE,
    ERR_BAD_VERSION,
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    answers_to_wire,
    encode_frame,
    qtype_from_wire,
    query_from_wire,
)
from repro.service.scheduler import QueryScheduler, Ticket


@dataclass
class _Pending:
    """One unanswered submit of one connection."""

    request_id: int
    ticket: Ticket
    stream: bool
    dropped: bool = False


@dataclass(eq=False)
class _Connection:
    """Per-connection state: handshake, decoder, pending submits."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    decoder: FrameDecoder
    name: str
    hello_done: bool = False
    closed: bool = False
    pending: dict[int, _Pending] = field(default_factory=dict)


class QueryServer:
    """Length-prefixed JSON front-end over one scheduler.

    Parameters
    ----------
    scheduler:
        The :class:`~repro.service.QueryScheduler` to serve.  Its
        database, observer and fault plan are used as configured.
    host, port:
        Listen address; ``port=0`` picks a free port (see
        :attr:`address` after :meth:`start`).
    max_inflight:
        Per-connection bound on unanswered submits before shedding.
    shed_depth:
        Global admission bound: submits arriving while the scheduler
        queue holds this many tickets are shed.  Defaults to the
        scheduler's own ``max_queue`` pressure bound.
    max_frame:
        Frame size cap handed to every connection's decoder.
    """

    def __init__(
        self,
        scheduler: QueryScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 64,
        shed_depth: int | None = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        name: str = "repro",
    ) -> None:
        if max_inflight < 1:
            raise ValueError("per-client inflight bound must be positive")
        self.scheduler = scheduler
        self.observer = scheduler.observer
        self.host = host
        self.port = port
        self.max_inflight = max_inflight
        self.shed_depth = (
            shed_depth if shed_depth is not None else scheduler.max_queue
        )
        self.max_frame = max_frame
        self.name = name
        self.n_sheds = 0
        self.n_errors = 0
        self.n_results = 0
        self.n_degraded_results = 0
        self._connections: set[_Connection] = set()
        self._conn_serial = 0
        self._server: asyncio.base_events.Server | None = None
        self._pump_task: asyncio.Task[None] | None = None
        #: Set by every submit; wakes the executor.
        self._work = asyncio.Event()
        self._closing = asyncio.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """Bound ``(host, port)`` once :meth:`start` has run."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self._pump_task = asyncio.create_task(self._pump())
        return self.address

    async def serve_until_shutdown(self) -> None:
        """Block until :meth:`request_shutdown` fires, then drain."""
        await self._closing.wait()
        await self.shutdown()

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (call from a signal handler)."""
        self._closing.set()

    async def shutdown(self) -> None:
        """Stop accepting, drain the scheduler, deliver, disconnect."""
        self._closing.set()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
            self._pump_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.scheduler.drain()
        await self._deliver_completed()
        for conn in list(self._connections):
            await self._send(conn, {"type": "shutdown"})
            await self._close_connection(conn)

    async def _pump(self) -> None:
        """The executor: run one block at a time while tickets wait.

        Yielding after every block lets the connection handlers admit
        the tickets that arrived while it ran; they form the next block.
        """
        while True:
            await self._work.wait()
            self._work.clear()
            while self.scheduler.queue_depth:
                self.scheduler.poll()
                await self._deliver_completed()
                await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._conn_serial += 1
        conn = _Connection(
            reader=reader,
            writer=writer,
            decoder=FrameDecoder(self.max_frame),
            name=f"conn-{self._conn_serial}",
        )
        self._connections.add(conn)
        self._metric_inc("service.net.connections.opened")
        self._metric_gauge(
            "service.net.connections", float(len(self._connections))
        )
        try:
            while not conn.closed:
                data = await reader.read(65536)
                if not data:
                    break
                self._metric_inc("service.net.bytes.in", len(data))
                try:
                    messages = conn.decoder.feed(data)
                except ProtocolError as exc:
                    await self._send_error(conn, None, exc.code, str(exc))
                    if not exc.recoverable:
                        break
                    continue
                for message in messages:
                    self._metric_inc("service.net.frames.in")
                    await self._handle_message(conn, message)
                    if conn.closed:
                        break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            await self._close_connection(conn)

    async def _close_connection(self, conn: _Connection) -> None:
        if conn not in self._connections:
            return
        self._connections.discard(conn)
        conn.closed = True
        for pending in conn.pending.values():
            pending.dropped = True
        conn.pending.clear()
        self._metric_inc("service.net.connections.closed")
        self._metric_gauge(
            "service.net.connections", float(len(self._connections))
        )
        self._update_inflight_gauge()
        try:
            conn.writer.close()
            await conn.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    async def _handle_message(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        mtype = message.get("type")
        if not conn.hello_done:
            if mtype != "hello":
                await self._send_error(
                    conn,
                    message.get("id"),
                    ERR_BAD_HANDSHAKE,
                    "first frame must be 'hello'",
                )
                conn.closed = True
                return
            await self._handle_hello(conn, message)
            return
        if mtype == "submit":
            await self._handle_submit(conn, message)
        elif mtype == "stats":
            await self._send(conn, {"type": "stats", **self.stats()})
        elif mtype == "retire":
            await self._handle_retire(conn, message)
        elif mtype == "bye":
            self.scheduler.drain()
            await self._deliver_completed()
            await self._send(conn, {"type": "bye_ok"})
            conn.closed = True
        else:
            await self._send_error(
                conn,
                message.get("id"),
                ERR_BAD_TYPE,
                f"unknown message type {mtype!r}",
            )

    async def _handle_hello(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        if message.get("protocol") != PROTOCOL_VERSION:
            await self._send_error(
                conn,
                None,
                ERR_BAD_VERSION,
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client offered {message.get('protocol')!r}",
            )
            conn.closed = True
            return
        client = message.get("client")
        if isinstance(client, str) and client:
            conn.name = client
        conn.hello_done = True
        database = self.scheduler.database
        await self._send(
            conn,
            {
                "type": "hello_ok",
                "protocol": PROTOCOL_VERSION,
                "server": self.name,
                "access": database.access_method.name,
                "max_inflight": self.max_inflight,
            },
        )
        if self.observer is not None:
            self.observer.event("net.connect", client=conn.name)

    async def _handle_submit(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        request_id = message.get("id")
        if not isinstance(request_id, int):
            await self._send_error(
                conn, None, ERR_BAD_QUERY, "submit needs an integer 'id'"
            )
            return
        if request_id in conn.pending:
            await self._send_error(
                conn,
                request_id,
                ERR_BAD_QUERY,
                f"request id {request_id} is already in flight",
            )
            return
        db_index = message.get("db_index")
        n_objects = len(self.scheduler.database)
        # bool is an int subclass: JSON true/false must not become 1/0.
        if db_index is not None and (
            type(db_index) is not int or not 0 <= db_index < n_objects
        ):
            await self._send_error(
                conn,
                request_id,
                ERR_BAD_QUERY,
                f"'db_index' must be an integer in [0, {n_objects}), "
                f"got {db_index!r}",
            )
            return
        try:
            query = query_from_wire(message.get("query"))
            qtype = qtype_from_wire(message.get("qtype"))
        except ValueError as exc:
            await self._send_error(conn, request_id, ERR_BAD_QUERY, str(exc))
            return
        dataset = self.scheduler.database.dataset
        if dataset.is_vector and len(query) != dataset.dimension:
            await self._send_error(
                conn,
                request_id,
                ERR_BAD_QUERY,
                f"query must have {dataset.dimension} components, "
                f"got {len(query)}",
            )
            return
        if len(conn.pending) >= self.max_inflight:
            await self._shed(conn, request_id, "client-inflight")
            return
        if self.scheduler.queue_depth >= self.shed_depth:
            await self._shed(conn, request_id, "queue-full")
            return
        ticket = self.scheduler.submit(
            np.asarray(query, dtype=np.float64),
            qtype,
            client_id=conn.name,
            db_index=db_index,
        )
        conn.pending[request_id] = _Pending(
            request_id, ticket, bool(message.get("stream", False))
        )
        self._work.set()
        self._metric_inc("service.net.submits")
        self._update_inflight_gauge()
        self._metric_gauge(
            "service.net.queue_depth", float(self.scheduler.queue_depth)
        )
        if self.scheduler.queue_depth >= self.scheduler.max_block:
            # A full block waits: let the executor run it before this
            # connection admits more of what one read delivered, so a
            # pipelining client's inflight stays near one block.
            await asyncio.sleep(0)

    async def _handle_retire(
        self, conn: _Connection, message: dict[str, Any]
    ) -> None:
        request_id = message.get("id")
        pending = (
            conn.pending.pop(request_id, None)
            if isinstance(request_id, int)
            else None
        )
        if pending is not None:
            pending.dropped = True
            self._update_inflight_gauge()
        await self._send(
            conn,
            {
                "type": "retired",
                "id": request_id,
                "was_pending": pending is not None,
            },
        )

    async def _shed(
        self, conn: _Connection, request_id: int, reason: str
    ) -> None:
        """Refuse one submit explicitly, carrying the live queue state."""
        self.n_sheds += 1
        self._metric_inc("service.net.sheds")
        if self.observer is not None:
            self.observer.event(
                "net.shed",
                client=conn.name,
                reason=reason,
                queue_depth=self.scheduler.queue_depth,
            )
        await self._send(
            conn,
            {
                "type": "shed",
                "id": request_id,
                "reason": reason,
                "queue_depth": self.scheduler.queue_depth,
                "inflight": len(conn.pending),
            },
        )

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------

    async def _deliver_completed(self) -> None:
        """Send every completed, undelivered ticket to its connection."""
        for conn in list(self._connections):
            if not conn.pending:
                continue
            done = [
                pending
                for pending in conn.pending.values()
                if pending.ticket.done and not pending.dropped
            ]
            for pending in done:
                del conn.pending[pending.request_id]
                await self._deliver_one(conn, pending)
        self._update_inflight_gauge()

    async def _deliver_one(self, conn: _Connection, pending: _Pending) -> None:
        ticket = pending.ticket
        answers = ticket.answers or []
        if pending.stream:
            # The streamed face of Def. 4 over the wire: one frame per
            # answer before the terminal result.  For a degraded ticket
            # these are exactly the partial-answer buffer contents.
            for rank, answer in enumerate(answers):
                await self._send(
                    conn,
                    {
                        "type": "answer",
                        "id": pending.request_id,
                        "rank": rank,
                        "index": int(answer.index),
                        "distance": float(answer.distance),
                        "degraded": ticket.degraded,
                    },
                )
        result: dict[str, Any] = {
            "type": "result",
            "id": pending.request_id,
            "answers": answers_to_wire(answers),
            "degraded": ticket.degraded,
            "batch_size": ticket.batch_size,
        }
        if ticket.degraded:
            result["completeness"] = ticket.completeness
            self.n_degraded_results += 1
            self._metric_inc("service.net.degraded_results")
        self.n_results += 1
        self._metric_inc("service.net.results")
        await self._send(conn, result)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------

    async def _send(self, conn: _Connection, message: dict[str, Any]) -> None:
        if conn.writer.is_closing():
            return
        frame = encode_frame(message)
        conn.writer.write(frame)
        self._metric_inc("service.net.frames.out")
        self._metric_inc("service.net.bytes.out", len(frame))
        try:
            await conn.writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            conn.closed = True

    async def _send_error(
        self, conn: _Connection, request_id: Any, code: str, message: str
    ) -> None:
        self.n_errors += 1
        self._metric_inc("service.net.errors")
        await self._send(
            conn,
            {
                "type": "error",
                "id": request_id if isinstance(request_id, int) else None,
                "code": code,
                "message": message,
            },
        )

    def _metric_inc(self, name: str, n: int = 1) -> None:
        if self.observer is not None:
            self.observer.metrics.inc(name, n)

    def _metric_gauge(self, name: str, value: float) -> None:
        if self.observer is not None:
            self.observer.metrics.set_gauge(name, value)

    def _update_inflight_gauge(self) -> None:
        self._metric_gauge(
            "service.net.inflight",
            float(sum(len(conn.pending) for conn in self._connections)),
        )

    def stats(self) -> dict[str, Any]:
        """Server-side counters for ``stats`` frames and the CLI."""
        scheduler = self.scheduler
        return {
            "queue_depth": scheduler.queue_depth,
            "tick": scheduler.tick,
            "max_block": scheduler.max_block,
            "connections": len(self._connections),
            "inflight": sum(len(conn.pending) for conn in self._connections),
            "sheds": self.n_sheds,
            "errors": self.n_errors,
            "results": self.n_results,
            "degraded_results": self.n_degraded_results,
            "degraded_sessions": scheduler.degraded_sessions,
        }
