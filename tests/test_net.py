"""Tests for the network front-end and the trace-driven load generator.

The load-bearing guarantees:

* the framing layer survives arbitrary read boundaries, rejects
  oversized frames before buffering them, and turns malformed payloads
  into *typed* errors that keep the stream aligned;
* every submit is answered explicitly -- ``result``, ``shed`` (with the
  live queue depth), or ``error`` -- never a silent drop;
* answers that cross the wire are byte-identical to the in-process
  :class:`QueryScheduler` path, for every access method;
* degraded (Def. 4 partial) answers reach the client with their
  completeness bound, streamed like any other answer;
* a recorded load trace replays identically, in process and over a
  socket, and ``repro serve`` exits gracefully on SIGINT with its
  exports flushed.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import Database, knn_query, range_query
from repro.faults import KIND_SERVER_CRASH, FaultPlan, RetryPolicy, SiteSpec
from repro.net import (
    FrameCorrupt,
    FrameDecoder,
    FrameTooLarge,
    QueryClient,
    QueryServer,
    encode_frame,
    qtype_from_wire,
    qtype_to_wire,
)
from repro.net.protocol import HEADER, query_from_wire
from repro.workloads.loadgen import (
    compare_answers,
    load_trace,
    record_trace,
    replay_in_process,
    replay_over_wire,
    save_trace,
    trace_dataset,
)

ACCESS_METHODS = ["scan", "xtree", "rstar", "mtree", "vafile"]


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(11)
    centers = rng.random((5, 6))
    return np.clip(
        centers[rng.integers(0, 5, 600)] + rng.standard_normal((600, 6)) * 0.04,
        0,
        1,
    )


def crash_plan():
    return FaultPlan(
        seed=5,
        sites=(
            SiteSpec(
                pattern="server:0",
                kinds=(KIND_SERVER_CRASH,),
                at_ops=(2,),
                max_faults=1,
            ),
        ),
        retry=RetryPolicy(max_retries=3),
    )


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


class TestFraming:
    def test_round_trip(self):
        message = {"type": "hello", "protocol": 1, "client": "t"}
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame(message)) == [message]

    def test_byte_by_byte_partial_reads(self):
        messages = [{"type": "a", "n": i} for i in range(3)]
        stream = b"".join(encode_frame(m) for m in messages)
        decoder = FrameDecoder()
        out = []
        for i in range(len(stream)):
            out.extend(decoder.feed(stream[i : i + 1]))
        assert out == messages

    def test_many_frames_in_one_read(self):
        messages = [{"type": "a", "n": i} for i in range(5)]
        stream = b"".join(encode_frame(m) for m in messages)
        assert FrameDecoder().feed(stream) == messages

    def test_oversized_frame_rejected_before_buffering(self):
        decoder = FrameDecoder(max_frame=64)
        with pytest.raises(FrameTooLarge):
            decoder.feed(HEADER.pack(65))
        # Only the 4 header bytes ever reached the decoder: the payload
        # was refused up front, not accumulated.
        assert len(decoder._buffer) <= HEADER.size

    def test_malformed_json_is_typed_and_recoverable(self):
        decoder = FrameDecoder()
        bad = b"{not json"
        with pytest.raises(FrameCorrupt) as excinfo:
            decoder.feed(HEADER.pack(len(bad)) + bad)
        assert excinfo.value.code == "bad-json"
        assert excinfo.value.recoverable
        # The stream stays aligned: the next well-formed frame parses.
        assert decoder.feed(encode_frame({"type": "ok"})) == [{"type": "ok"}]

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode()
        with pytest.raises(FrameCorrupt):
            FrameDecoder().feed(HEADER.pack(len(payload)) + payload)

    def test_qtype_round_trips_including_inf(self):
        from repro.core.types import bounded_knn_query

        for qtype in (knn_query(7), range_query(0.25), bounded_knn_query(3, 0.5)):
            wire = qtype_to_wire(qtype)
            json.dumps(wire, allow_nan=False)  # must be standard JSON
            assert qtype_from_wire(wire) == qtype

    def test_query_validation(self):
        assert query_from_wire([1, 2.5]) == [1.0, 2.5]
        for bad in ([], [True, False], ["a"], "nope", None, 3):
            with pytest.raises(ValueError):
                query_from_wire(bad)


# ----------------------------------------------------------------------
# Server integration (one event loop per test; no pytest-asyncio)
# ----------------------------------------------------------------------


def make_server(database, **kwargs):
    scheduler = database.serve(max_block=kwargs.pop("max_block", 8))
    return QueryServer(scheduler, **kwargs)


async def _raw_connect(server):
    """A raw socket speaking frames by hand (for protocol-abuse tests)."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    decoder = FrameDecoder()

    async def read_frames(n=1):
        messages = []
        while len(messages) < n:
            data = await asyncio.wait_for(reader.read(65536), timeout=5)
            assert data, "server closed early"
            messages.extend(decoder.feed(data))
        return messages

    return reader, writer, read_frames


class TestServer:
    def test_answers_byte_identical_per_access_method(self, vectors):
        queries = [vectors[i] for i in (3, 101, 256, 430, 77, 512)]

        for access in ACCESS_METHODS:
            reference = Database(vectors, access=access).session().run(
                queries, knn_query(5)
            )

            async def run(access=access):
                database = Database(vectors, access=access)
                server = make_server(database)
                await server.start()
                host, port = server.address
                clients = [
                    await QueryClient.connect(host, port, client=f"c{i}")
                    for i in range(3)
                ]
                futures = [
                    await clients[i % 3].submit(obj, knn_query(5))
                    for i, obj in enumerate(queries)
                ]
                for client in clients:
                    await client.bye()
                results = await asyncio.gather(*futures)
                await server.shutdown()
                return [r.answers for r in results]

            wire = asyncio.run(run())
            assert wire == [list(r) for r in reference], access

    def test_shed_on_queue_full_carries_depth(self, vectors):
        async def run():
            database = Database(vectors, access="xtree")
            server = make_server(database, shed_depth=2)
            await server.start()
            client = await QueryClient.connect(*server.address)
            # Open loop: the four submits reach the server in one read,
            # before the executor runs, so depth builds until the
            # admission bound sheds.
            futures = [
                await client.submit(vectors[i], knn_query(3))
                for i in range(4)
            ]
            await client.bye()
            results = await asyncio.gather(*futures)
            await server.shutdown()
            return results

        results = asyncio.run(run())
        shed = [r for r in results if r.shed]
        assert shed, "expected queue-full shedding"
        for result in shed:
            assert result.shed_reason == "queue-full"
            assert result.queue_depth >= 2
            assert result.answers == []

    def test_shed_on_client_inflight_bound(self, vectors):
        async def run():
            database = Database(vectors, access="xtree")
            server = make_server(database, max_inflight=1)
            await server.start()
            client = await QueryClient.connect(*server.address)
            first = await client.submit(vectors[0], knn_query(3))
            second = await client.submit(vectors[1], knn_query(3))
            shed = await asyncio.wait_for(second, timeout=5)
            await client.bye()
            kept = await asyncio.wait_for(first, timeout=5)
            await server.shutdown()
            return kept, shed

        kept, shed = asyncio.run(run())
        assert shed.shed and shed.shed_reason == "client-inflight"
        assert not kept.shed and len(kept.answers) == 3

    def test_submit_before_hello_is_rejected(self, vectors):
        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(
                encode_frame(
                    {
                        "type": "submit",
                        "id": 1,
                        "query": [0.1] * 6,
                        "qtype": qtype_to_wire(knn_query(3)),
                    }
                )
            )
            await writer.drain()
            (error,) = await read_frames()
            writer.close()
            await server.shutdown()
            return error

        error = asyncio.run(run())
        assert error["type"] == "error"
        assert error["code"] == "bad-handshake"

    def test_wrong_protocol_version_rejected(self, vectors):
        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 99}))
            await writer.drain()
            (error,) = await read_frames()
            writer.close()
            await server.shutdown()
            return error

        error = asyncio.run(run())
        assert error["type"] == "error"
        assert error["code"] == "bad-version"

    def test_malformed_frame_gets_typed_error_and_connection_survives(
        self, vectors
    ):
        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            (hello_ok,) = await read_frames()
            garbage = b"\xff{definitely not json"
            writer.write(HEADER.pack(len(garbage)) + garbage)
            await writer.drain()
            (error,) = await read_frames()
            # Recoverable: the same connection still serves a query.
            writer.write(
                encode_frame(
                    {
                        "type": "submit",
                        "id": 1,
                        "query": [float(x) for x in vectors[0]],
                        "qtype": qtype_to_wire(knn_query(3)),
                        "stream": False,
                    }
                )
            )
            writer.write(encode_frame({"type": "bye"}))
            await writer.drain()
            rest = await read_frames(2)
            writer.close()
            await server.shutdown()
            return hello_ok, error, rest

        hello_ok, error, rest = asyncio.run(run())
        assert hello_ok["type"] == "hello_ok"
        assert error["type"] == "error" and error["code"] == "bad-json"
        assert {m["type"] for m in rest} == {"result", "bye_ok"}

    def test_oversized_frame_refused(self, vectors):
        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database, max_frame=128)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            await read_frames()
            writer.write(HEADER.pack(4096))
            await writer.drain()
            (error,) = await read_frames()
            writer.close()
            await server.shutdown()
            return error

        error = asyncio.run(run())
        assert error["type"] == "error"
        assert error["code"] == "too-large"

    def test_bad_query_payloads_get_typed_errors(self, vectors):
        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            await read_frames()
            for payload in (
                {"id": 1, "query": [], "qtype": qtype_to_wire(knn_query(3))},
                {"id": 2, "query": "nope", "qtype": qtype_to_wire(knn_query(3))},
                {"id": 3, "query": [0.1] * 6, "qtype": {"kind": 7}},
                {"query": [0.1] * 6, "qtype": qtype_to_wire(knn_query(3))},
            ):
                writer.write(encode_frame({"type": "submit", **payload}))
            await writer.drain()
            errors = await read_frames(4)
            writer.close()
            await server.shutdown()
            return errors

        errors = asyncio.run(run())
        assert [e["type"] for e in errors] == ["error"] * 4
        assert {e["code"] for e in errors} == {"bad-query"}

    def test_db_index_must_be_an_in_range_integer(self, vectors):
        """JSON booleans are not indices, and no index may leave the data."""

        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            await read_frames()
            query = [float(x) for x in vectors[3]]
            bad = (True, False, -1, len(vectors), 2.0, "3")
            for request_id, db_index in enumerate((*bad, 3), start=1):
                writer.write(
                    encode_frame(
                        {
                            "type": "submit",
                            "id": request_id,
                            "query": query,
                            "qtype": qtype_to_wire(knn_query(3)),
                            "db_index": db_index,
                        }
                    )
                )
            writer.write(encode_frame({"type": "bye"}))
            await writer.drain()
            frames = await read_frames(len(bad) + 2)
            writer.close()
            await server.shutdown()
            return frames

        frames = asyncio.run(run())
        errors = {f["id"]: f["code"] for f in frames if f["type"] == "error"}
        assert errors == {request_id: "bad-query" for request_id in range(1, 7)}
        (result,) = [f for f in frames if f["type"] == "result"]
        assert result["id"] == 7 and result["answers"][0] == [3, 0.0]

    def test_query_must_match_the_database_dimension(self, vectors):
        """A wrong-length vector is refused before it reaches a block."""

        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            await read_frames()
            good = [float(x) for x in vectors[3]]
            queries = (good[:-1], good + [0.5], good)
            for request_id, query in enumerate(queries, start=1):
                writer.write(
                    encode_frame(
                        {
                            "type": "submit",
                            "id": request_id,
                            "query": query,
                            "qtype": qtype_to_wire(knn_query(3)),
                        }
                    )
                )
            writer.write(encode_frame({"type": "bye"}))
            await writer.drain()
            frames = await read_frames(len(queries) + 1)
            writer.close()
            await server.shutdown()
            return frames

        frames = asyncio.run(run())
        errors = {f["id"]: f["code"] for f in frames if f["type"] == "error"}
        assert errors == {1: "bad-query", 2: "bad-query"}
        (result,) = [f for f in frames if f["type"] == "result"]
        assert result["id"] == 3 and result["answers"][0] == [3, 0.0]

    def test_one_pipelining_connection_stays_within_its_inflight_bound(
        self, vectors
    ):
        """Submits arriving in one read are admitted a block at a time."""
        n_queries = 48

        async def run():
            database = Database(vectors, access="scan")
            server = make_server(database, max_block=4, max_inflight=8)
            await server.start()
            _, writer, read_frames = await _raw_connect(server)
            writer.write(encode_frame({"type": "hello", "protocol": 1}))
            await writer.drain()
            await read_frames()
            writer.write(
                b"".join(
                    encode_frame(
                        {
                            "type": "submit",
                            "id": request_id,
                            "query": [float(x) for x in vectors[request_id]],
                            "qtype": qtype_to_wire(knn_query(3)),
                        }
                    )
                    for request_id in range(n_queries)
                )
                + encode_frame({"type": "bye"})
            )
            await writer.drain()
            frames = await read_frames(n_queries + 1)
            writer.close()
            await server.shutdown()
            return frames

        frames = asyncio.run(run())
        assert [f["type"] for f in frames[:-1]] == ["result"] * n_queries
        assert frames[-1]["type"] == "bye_ok"

    def test_degraded_answers_stream_with_completeness(self, vectors):
        queries = [vectors[i] for i in (3, 101, 256, 430, 599, 77)]

        async def run():
            database = Database(
                vectors, access="xtree", block_size=2048, fault_plan=crash_plan()
            )
            server = make_server(database, max_block=6)
            await server.start()
            client = await QueryClient.connect(*server.address)
            futures = [
                await client.submit(obj, knn_query(5), stream=True)
                for obj in queries
            ]
            await client.bye()
            results = await asyncio.gather(*futures)
            await server.shutdown()
            return results

        results = asyncio.run(run())
        degraded = [r for r in results if r.degraded]
        assert degraded, "crash plan should degrade at least one ticket"
        for result in degraded:
            assert result.completeness is not None
            assert 0.0 <= result.completeness < 1.0
            # Def. 4 partial answers were streamed frame by frame.
            assert result.streamed == len(result.answers)

    def test_stats_and_retire(self, vectors):
        async def run():
            database = Database(vectors, access="xtree")
            server = make_server(database)
            await server.start()
            client = await QueryClient.connect(*server.address)
            await client.submit(vectors[0], knn_query(3))
            stats = await client.stats()
            await client.retire(1)
            stats_after = await client.stats()
            await client.bye()
            await server.shutdown()
            return stats, stats_after

        stats, stats_after = asyncio.run(run())
        assert stats["type"] == "stats"
        assert stats["inflight"] == 1
        assert stats_after["inflight"] == 0

    def test_net_metrics_reach_the_observer(self, vectors):
        from repro.obs import Observer

        async def run():
            observer = Observer(trace=False)
            database = Database(vectors, access="xtree", observer=observer)
            server = make_server(database)
            await server.start()
            client = await QueryClient.connect(*server.address)
            # Closed loop, no bye: the lone ticket must run on its own.
            result = await asyncio.wait_for(
                client.ask(vectors[0], knn_query(3)), timeout=5
            )
            await client.bye()
            await server.shutdown()
            return result, observer.metrics.snapshot()

        result, snapshot = asyncio.run(run())
        assert result.batch_size == 1
        counters = snapshot["counters"]
        assert counters["service.net.connections.opened"] == 1
        assert counters["service.net.submits"] == 1
        assert counters["service.net.results"] == 1
        assert counters["service.net.frames.in"] >= 3
        assert counters["service.net.bytes.out"] > 0


# ----------------------------------------------------------------------
# Load generator
# ----------------------------------------------------------------------


class TestLoadgen:
    def test_trace_record_is_seeded_and_round_trips(self, tmp_path):
        a = record_trace(40, rate=300.0, n_clients=4, objects=500, mix=True)
        b = record_trace(40, rate=300.0, n_clients=4, objects=500, mix=True)
        assert [r.offset for r in a.records] == [r.offset for r in b.records]
        assert [r.db_index for r in a.records] == [
            r.db_index for r in b.records
        ]
        path = tmp_path / "trace.jsonl"
        save_trace(a, str(path))
        back = load_trace(str(path))
        assert back.meta["rate"] == 300.0
        assert back.records == a.records

    def test_load_trace_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not_a_trace.jsonl"
        path.write_text('{"schema": "something-else"}\n')
        with pytest.raises(ValueError):
            load_trace(str(path))

    def test_arrivals_follow_the_offered_rate(self):
        trace = record_trace(2000, rate=1000.0, objects=500)
        # Mean inter-arrival of a Poisson process at 1000 q/s is 1 ms.
        mean_gap = trace.duration / len(trace)
        assert 0.8e-3 < mean_gap < 1.2e-3

    def test_wire_replay_matches_in_process(self, tmp_path):
        trace = record_trace(
            30, rate=1000.0, n_clients=3, objects=500, k=4, mix=True
        )
        reference, ref_report = replay_in_process(trace, access="xtree")
        assert ref_report.completed == 30

        async def run():
            database = Database(trace_dataset(trace), access="xtree")
            server = QueryServer(database.serve(order="fifo"))
            await server.start()
            host, port = server.address
            answers, report = await replay_over_wire(
                trace, host, port, speed=0.0, stream=True
            )
            await server.shutdown()
            return answers, report

        answers, report = asyncio.run(run())
        assert report.completed == 30 and report.shed == 0
        assert compare_answers(answers, reference) == []
        assert len(report.latencies) == 30
        assert report.ttfas, "streamed replay must record TTFA"

    def test_report_snapshot_feeds_the_slo_engine(self):
        from repro.obs import evaluate_slos
        from repro.obs.slo import SLOObjective

        trace = record_trace(20, rate=500.0, objects=500)
        _, report = replay_in_process(trace, access="scan")
        snapshot = report.snapshot()
        results = evaluate_slos(
            [
                SLOObjective(
                    name="latency",
                    kind="latency",
                    metric="service.client_latency.seconds",
                    threshold=10.0,
                    target=0.5,
                ),
                SLOObjective(
                    name="completeness",
                    kind="completeness",
                    threshold=0.9,
                    target=0.9,
                ),
            ],
            snapshot,
        )
        assert all(result.status == "ok" for result in results)

    def test_compare_answers_skips_degraded_and_shed(self):
        from repro.core.answers import Answer

        wire = [[Answer(1, 0.5)], None, [Answer(9, 9.9)]]
        reference = [[Answer(1, 0.5)], [Answer(2, 0.2)], [Answer(3, 0.3)]]
        assert compare_answers(wire, reference, skip=[False, False, True]) == []
        assert compare_answers(wire, reference) == [2]
        with pytest.raises(ValueError):
            compare_answers(wire[:2], reference)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


def _repro_env():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return env


class TestCLI:
    def test_loadgen_record_then_verify_in_process(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        bench_path = tmp_path / "bench.json"
        record = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--record", str(trace_path),
                "--queries", "40", "--rate", "600", "--objects", "600",
                "--mix",
            ],
            capture_output=True, text=True, env=_repro_env(), timeout=300,
        )
        assert record.returncode == 0, record.stdout + record.stderr
        replay = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--trace", str(trace_path), "--in-process", "--verify",
                "--bench-out", str(bench_path),
            ],
            capture_output=True, text=True, env=_repro_env(), timeout=300,
        )
        assert replay.returncode == 0, replay.stdout + replay.stderr
        assert "byte-identical" in replay.stdout
        payload = json.loads(bench_path.read_text())
        assert payload["benchmark"] == "net"
        assert payload["rows"][0]["completed"] == 40

    def test_serve_sigint_mid_stream_flushes_and_exits_130(self, tmp_path):
        """Regression: SIGINT in the demo loop used to kill the process
        mid-stream with exports unwritten; now it retires open sessions
        and flushes the trace/timeline files before exiting 130."""
        metrics_path = tmp_path / "metrics.json"
        timeline_path = tmp_path / "timeline.jsonl"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--objects", "20000", "--clients", "8",
                "--queries-per-client", "2000",
                "--metrics-out", str(metrics_path),
                "--timeline", str(timeline_path),
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_repro_env(),
        )
        try:
            time.sleep(1.5)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 130, out
        assert "interrupted" in out
        assert metrics_path.exists(), out
        assert timeline_path.exists(), out
        # The flushed snapshot is valid JSON with service metrics in it.
        snapshot = json.loads(metrics_path.read_text())
        assert "counters" in snapshot

    def test_serve_listen_loadgen_round_trip(self, tmp_path):
        """End-to-end over a real socket: serve --listen in a child
        process, loadgen --connect --verify against it, SIGTERM drains
        and exits 0."""
        trace_path = tmp_path / "trace.jsonl"
        record = subprocess.run(
            [
                sys.executable, "-m", "repro", "loadgen",
                "--record", str(trace_path),
                "--queries", "30", "--rate", "800", "--objects", "600",
            ],
            capture_output=True, text=True, env=_repro_env(), timeout=300,
        )
        assert record.returncode == 0, record.stdout + record.stderr
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--listen", "127.0.0.1:0", "--objects", "600",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_repro_env(),
        )
        try:
            port = None
            deadline = time.time() + 120
            assert server.stdout is not None
            while time.time() < deadline:
                line = server.stdout.readline()
                if line.startswith("listening on "):
                    port = int(line.split()[2].rsplit(":", 1)[1])
                    break
            assert port, "server never reported its address"
            replay = subprocess.run(
                [
                    sys.executable, "-m", "repro", "loadgen",
                    "--trace", str(trace_path),
                    "--connect", f"127.0.0.1:{port}",
                    "--stream", "--verify",
                ],
                capture_output=True, text=True, env=_repro_env(), timeout=300,
            )
            assert replay.returncode == 0, replay.stdout + replay.stderr
            assert "byte-identical" in replay.stdout
            server.send_signal(signal.SIGTERM)
            out = server.stdout.read()
            assert server.wait(timeout=60) == 0
            assert "served 30 results" in out
        finally:
            if server.poll() is None:
                server.kill()
