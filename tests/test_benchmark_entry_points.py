"""The end-to-end benchmark traces the program by wrapping its entry points
by name from outside ``src/`` (``benchmarks/e2e/tracing.py``).  Renaming or
removing one of them, or moving its ``keys`` argument, must fail here
rather than only in a full traced benchmark run."""

import asyncio
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.mining as mining
from repro import Database, knn_query
from repro.core.multi_query import MultiQueryProcessor
from repro.net import QueryClient, QueryServer
from repro.service import session as session_module
from repro.service.scheduler import QueryScheduler
from repro.service.session import QuerySession

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: Entry points the tracer wraps that the program must keep.
WRAPPED = {
    MultiQueryProcessor: (
        "process",
        "query_all",
        "prepare",
        "admit",
        "drive_pages",
        "retire",
    ),
    QuerySession: ("run", "ask", "stream", "retire"),
    QueryScheduler: ("submit", "poll", "drain"),
    QueryServer: ("_handle_connection", "_pump"),
}


async def _ask_over_the_wire(database):
    server = QueryServer(database.serve())
    await server.start()
    client = await QueryClient.connect(*server.address)
    try:
        return await asyncio.wait_for(
            client.ask(database.dataset[0], knn_query(3)), timeout=10
        )
    finally:
        await client.close()
        await server.shutdown()


@pytest.fixture
def tracing():
    sys.path.insert(0, str(E2E))
    try:
        import tracing
    finally:
        sys.path.remove(str(E2E))
    return tracing


def test_install_wraps_entry_points_and_remove_restores_them(tracing):
    originals = {
        (owner, name): getattr(owner, name)
        for owner, names in WRAPPED.items()
        for name in names
    }
    originals[session_module, "run_in_blocks"] = session_module.run_in_blocks
    tracer = tracing.Tracer()
    installation = tracing.install(tracer)
    try:
        for (owner, name), original in originals.items():
            assert getattr(owner, name) is not original, name
        database = Database(np.random.default_rng(0).random((200, 3)), access="xtree")
        database.session().run([database.dataset[i] for i in range(4)], knn_query(3))
        mining.dbscan(database, eps=0.1, min_pts=3, batch_size=4)
        scheduler = database.serve(max_block=2)
        for i in range(3):
            scheduler.submit(database.dataset[i], knn_query(3))
        scheduler.poll()
        scheduler.drain()
        # Each block's first ticket enters through QuerySession.stream
        # with the whole block's keys: every ticket gets a queue wait.
        assert len(tracer.queue_waits) == 3
        assert len(asyncio.run(_ask_over_the_wire(database)).answers) == 3
    finally:
        installation.remove()
    for (owner, name), original in originals.items():
        assert getattr(owner, name) is original, name
    calls = tracer.calls()
    for span in (
        "service.session",
        "service.scheduler",
        "net.server",
        "core.multi_query.admit",
        "mining",
        "core.engine",
    ):
        assert calls.get(span, 0) > 0, span
    assert len(tracer.queue_waits) == 4


@pytest.mark.parametrize(
    "method",
    [
        MultiQueryProcessor.process,
        MultiQueryProcessor.query_all,
        MultiQueryProcessor.prepare,
        QuerySession.run,
        QuerySession.ask,
        QuerySession.stream,
    ],
    ids=lambda method: method.__qualname__,
)
def test_batch_entry_points_take_objs_qtypes_keys_positionally(method):
    # The tracer tags a span with ``args[3]``, the ``keys`` argument.
    parameters = list(inspect.signature(method).parameters)
    assert parameters[:4] == ["self", "query_objs", "qtypes", "keys"]
