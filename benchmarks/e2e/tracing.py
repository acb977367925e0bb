"""Span tracing installed from outside the program.

The benchmark records one span per call into each layer by wrapping the
layers' public entry points; nothing under ``src/`` knows it is traced.
A span is ``(name, start, end, parent, tag)``: ``parent`` is the span
that was open when this one began, ``tag`` is the request or block the
work belongs to (inherited from the parent unless the entry point names
one).  Spans stay in memory until the workload ends.

A layer's *self time* is the duration of its spans minus the duration
of their direct children, so the self times of all layers add up to the
time covered by root spans.

Generators and coroutines are traced one resumption at a time: a span
covers the work between two suspensions, never the time spent
suspended, so the parent stack stays truthful across ``yield`` and
``await``.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

_now = time.perf_counter

#: Optional hooks of a wrapped entry point: ``tag(args, kwargs)`` names
#: the request, ``before``/``after`` record counts at the same boundary.
Hook = Callable[..., Any]


class Tracer:
    """In-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list[Any] = []
        self._stack: list[int] = []
        #: Tag given to root spans that name none (set by the workload
        #: loop before each request).
        self.tag: Any = None
        #: Counts recorded by ``after`` hooks at the span boundaries.
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Ticket key -> ``submitted_at`` of tickets not yet dispatched.
        self.submitted: dict[Any, float] = {}
        self.queue_waits: list[float] = []

    def __len__(self) -> int:
        return len(self.names)

    def begin(self, name: str, tag: Any = None) -> int:
        span = len(self.names)
        parent = self._stack[-1] if self._stack else -1
        if tag is None:
            tag = self.tags[parent] if parent >= 0 else self.tag
        self.names.append(name)
        self.parents.append(parent)
        self.tags.append(tag)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(_now())
        return span

    def end(self, span: int) -> None:
        self.ends[span] = _now()
        popped = self._stack.pop()
        assert popped == span, "spans must close in the order they opened"

    def reset(self) -> None:
        """Forget everything recorded so far (end of warm-up)."""
        assert not self._stack, "cannot reset inside an open span"
        self.__init__()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def self_times(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self seconds per span name over spans ``first <= i < last``."""
        if last is None:
            last = len(self.names)
        totals: defaultdict[str, float] = defaultdict(float)
        for span in range(first, last):
            duration = self.ends[span] - self.starts[span]
            totals[self.names[span]] += duration
            parent = self.parents[span]
            if parent >= first:
                totals[self.names[parent]] -= duration
        return dict(totals)

    def calls(self, first: int = 0, last: int | None = None) -> dict[str, int]:
        """Span count per name over spans ``first <= i < last``."""
        if last is None:
            last = len(self.names)
        totals: defaultdict[str, int] = defaultdict(int)
        for span in range(first, last):
            totals[self.names[span]] += 1
        return dict(totals)

    def write_jsonl(self, path: str) -> int:
        """One JSON object per span, in begin order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, name in enumerate(self.names):
                handle.write(
                    json.dumps(
                        {
                            "span": span,
                            "name": name,
                            "start": self.starts[span],
                            "end": self.ends[span],
                            "parent": self.parents[span],
                            "tag": _jsonable(self.tags[span]),
                        }
                    )
                    + "\n"
                )
        return len(self.names)


def _jsonable(tag: Any) -> Any:
    return tag if isinstance(tag, (int, float, str, type(None))) else str(tag)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------


def _steps(tracer: Tracer, name: str, tag: Any, iterator: Iterator[Any]) -> Iterator[Any]:
    """Trace a generator one resumption at a time."""
    while True:
        span = tracer.begin(name, tag)
        try:
            value = next(iterator)
        except StopIteration:
            return
        finally:
            tracer.end(span)
        yield value


class _TracedAwaitable:
    """Drive a coroutine step by step, one span per resumption."""

    def __init__(self, tracer: Tracer, name: str, coroutine: Any) -> None:
        self._tracer = tracer
        self._name = name
        self._coroutine = coroutine

    def __await__(self) -> Any:
        tracer, name, coroutine = self._tracer, self._name, self._coroutine
        send: Callable[[Any], Any] = coroutine.send
        payload: Any = None
        while True:
            span = tracer.begin(name)
            try:
                awaited = send(payload)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.end(span)
            try:
                payload = yield awaited
                send = coroutine.send
            except BaseException as error:  # noqa: BLE001 - forwarded, not handled
                # Cancellation and errors raised at the suspension point
                # belong to the wrapped coroutine: throw them in.
                payload = error
                send = coroutine.throw


def traced(
    tracer: Tracer,
    function: Callable[..., Any],
    name: str,
    tag: Hook | None = None,
    before: Hook | None = None,
    after: Hook | None = None,
) -> Callable[..., Any]:
    """``function`` with one span per call (per resumption when lazy)."""
    if inspect.iscoroutinefunction(function):

        @functools.wraps(function)
        async def async_wrapper(*args: Any, **kwargs: Any) -> Any:
            return await _TracedAwaitable(tracer, name, function(*args, **kwargs))

        return async_wrapper

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(tracer, args, kwargs)
        label = tag(args, kwargs) if tag is not None else None
        span = tracer.begin(name, label)
        try:
            result = function(*args, **kwargs)
        finally:
            tracer.end(span)
        if after is not None:
            after(tracer, args, kwargs, result)
        if inspect.isgenerator(result):
            return _steps(tracer, name, tracer.tags[span], result)
        return result

    return wrapper


class Installation:
    """The set of patches one traced run applies, undone by :meth:`remove`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str, **hooks: Hook) -> None:
        original = getattr(owner, attribute)
        self.replace(owner, attribute, traced(self.tracer, original, name, **hooks))

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


# -- count hooks ---------------------------------------------------------


def _count_engine(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["core.engine.pages_processed"] += 1
    tracer.counts["core.engine.queries_served"] += len(args[1])


def _count_d(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["metric.kernel.distances"] += 1


def _count_d_many(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["metric.kernel.distances"] += len(args[1])


def _count_cross_many(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["metric.kernel.distances"] += len(args[1]) * len(args[2])


def _count_next_page(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["index.next_page.calls"] += 1
    if result is not None:
        tracer.counts["index.pages_delivered"] += 1


def _count_encode(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["net.frames_out"] += 1
    tracer.counts["net.bytes_out"] += len(result)


def _count_decode(tracer: Tracer, args: Any, kwargs: Any, result: Any) -> None:
    tracer.counts["net.bytes_in"] += len(args[1])
    tracer.counts["net.frames_in"] += len(result)


def _note_submit(tracer: Tracer, args: Any, kwargs: Any, ticket: Any) -> None:
    tracer.submitted[ticket.key] = ticket.submitted_at


def _keys(args: Any, kwargs: Any) -> Any:
    """The ``keys`` argument of ``QuerySession.run/ask/stream``."""
    return args[3] if len(args) > 3 else kwargs.get("keys")


def _note_dispatch(tracer: Tracer, args: Any, kwargs: Any) -> None:
    """Queue wait ends where the block's first session call starts."""
    keys = _keys(args, kwargs)
    if not keys or not tracer.submitted:
        return
    now = _now()
    for key in keys:
        submitted_at = tracer.submitted.pop(key, None)
        if submitted_at is not None:
            tracer.queue_waits.append(now - submitted_at)


def _first_key(args: Any, kwargs: Any) -> Any:
    keys = _keys(args, kwargs)
    return keys[0] if keys else None


def _subclasses(base: type) -> Iterator[type]:
    for child in base.__subclasses__():
        yield child
        yield from _subclasses(child)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer's public entry points; returns the undo handle."""
    import repro.core.engine as engine
    import repro.core.multi_query as multi_query
    import repro.mining as mining
    import repro.net.server as net_server
    import repro.service.session as session
    from repro.core.planner import QueryPlanner
    from repro.data import Dataset
    from repro.index.base import AccessMethod, PageStream
    from repro.metric.space import MetricSpace
    from repro.net.protocol import FrameDecoder
    from repro.service.scheduler import QueryScheduler
    from repro.storage.disk import SimulatedDisk

    patches = Installation(tracer)
    wrap = patches.wrap

    # net: the per-connection and pump coroutines cover every message
    # handler; framing is its own pair of spans.
    wrap(net_server.QueryServer, "_handle_connection", "net.server")
    wrap(net_server.QueryServer, "_pump", "net.server")
    wrap(net_server, "encode_frame", "net.encode", after=_count_encode)
    wrap(FrameDecoder, "feed", "net.decode", after=_count_decode)

    # service
    wrap(QueryScheduler, "submit", "service.scheduler", after=_note_submit)
    wrap(QueryScheduler, "poll", "service.scheduler")
    wrap(QueryScheduler, "drain", "service.scheduler")
    wrap(session.QuerySession, "__init__", "service.session")
    wrap(session.QuerySession, "run", "service.session", tag=_first_key)
    wrap(session.QuerySession, "ask", "service.session", tag=_first_key)
    wrap(session.QuerySession, "stream", "service.session", tag=_first_key, before=_note_dispatch)
    wrap(session.QuerySession, "retire", "service.session")
    wrap(session, "run_in_blocks", "service.session")

    # core
    wrap(QueryPlanner, "plan_batch", "core.planner.plan_batch")
    processor = multi_query.MultiQueryProcessor
    wrap(processor, "__init__", "core.multi_query")
    wrap(processor, "process", "core.multi_query")
    wrap(processor, "query_all", "core.multi_query")
    wrap(processor, "retire", "core.multi_query")
    wrap(processor, "admit", "core.multi_query.admit")
    wrap(processor, "prepare", "core.multi_query.prepare")
    wrap(processor, "drive_pages", "core.multi_query.drive")
    get_engine = multi_query.get_engine

    @functools.wraps(get_engine)
    def traced_get_engine(*args: Any, **kwargs: Any) -> Any:
        process_page = get_engine(*args, **kwargs)
        return traced(tracer, process_page, "core.engine", after=_count_engine)

    patches.replace(multi_query, "get_engine", traced_get_engine)
    wrap(engine, "avoid_vectorized", "core.avoidance")
    wrap(engine, "avoid_reference", "core.avoidance")

    # metric, data
    wrap(MetricSpace, "d", "metric.kernel", after=_count_d)
    wrap(MetricSpace, "d_many", "metric.kernel", after=_count_d_many)
    wrap(MetricSpace, "cross_many", "metric.kernel", after=_count_cross_many)
    for dataset_class in _subclasses(Dataset):
        if "batch" in dataset_class.__dict__:
            wrap(dataset_class, "batch", "data.batch")

    # index: opening a stream, pulling pages from it and bounding a page
    # for the other queries of a block are all traversal work.
    for access_class in _subclasses(AccessMethod):
        if "page_stream" in access_class.__dict__:
            wrap(access_class, "page_stream", "index.traverse")
    for stream_class in (PageStream, *_subclasses(PageStream)):
        if "next_page" in stream_class.__dict__:
            wrap(stream_class, "next_page", "index.traverse", after=_count_next_page)
        if "lower_bounds_for_others" in stream_class.__dict__:
            wrap(stream_class, "lower_bounds_for_others", "index.traverse")

    # storage, mining
    wrap(SimulatedDisk, "read", "storage.disk")
    wrap(mining, "dbscan", "mining")
    return patches


#: Span name of each ``<layer>.self_s`` metric, in ledger order.
LAYER_SPANS = (
    "net.server",
    "net.encode",
    "net.decode",
    "service.scheduler",
    "service.session",
    "core.planner.plan_batch",
    "core.multi_query",
    "core.multi_query.admit",
    "core.multi_query.prepare",
    "core.multi_query.drive",
    "core.engine",
    "core.avoidance",
    "metric.kernel",
    "data.batch",
    "index.traverse",
    "storage.disk",
    "mining",
)
