"""Command-line interface.

::

    python -m repro info                 # versions and components
    python -m repro demo                 # 60-second single-vs-multiple demo
    python -m repro serve                # dynamic-batching service demo
    python -m repro serve --listen :0    # same scheduler behind a socket
    python -m repro loadgen [...]        # record/replay open-loop load
    python -m repro calibrate [-d DIM]   # time dist/comparison on this machine
    python -m repro experiments [...]    # full evaluation (run_all)
    python -m repro report METRICS.json  # pretty-print an observability run
    python -m repro explain 3            # causal provenance card of query #3
    python -m repro profile TRACE.jsonl  # phase self-time + flamegraph export
    python -m repro top                  # live dashboard over a serving run
    python -m repro bench --check        # perf-regression check vs. baselines

``demo`` and ``experiments`` accept ``--trace FILE`` (JSONL spans and
events) and ``--metrics-out FILE`` (metrics snapshot: sharing factor,
avoidance hit-rate, phase latency histograms); ``report`` renders such
files (a ``.jsonl``/``.jsonl.gz`` positional is treated as a trace).
``serve`` and ``report`` accept ``--slo SPEC`` (declarative
latency/completeness objectives, evaluated with burn rates) and
``--timeline FILE`` (windowed time-series telemetry); ``serve`` also
takes ``--anomaly SPEC`` (online rules that feed the scheduler's
``replan()``).  See ``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _cmd_info(args: argparse.Namespace) -> int:
    import repro
    from repro.core.database import _ACCESS_METHODS
    from repro.core.engine import engine_names
    from repro.metric.distances import _REGISTRY

    print(f"repro {repro.__version__}")
    print(
        "reproduction of: Braunmüller, Ester, Kriegel, Sander --\n"
        "  'Efficiently Supporting Multiple Similarity Queries for Mining in\n"
        "  Metric Databases' (ICDE 2000)"
    )
    print(f"access methods: {', '.join(sorted(_ACCESS_METHODS))}")
    print(f"distance functions: {', '.join(sorted(_REGISTRY))}")
    print(f"engines: {', '.join(engine_names())}")
    print(
        "page pre-filter: pivot/quantized sketches (--prefilter; exact "
        "by default, --recall-target < 1 opts into bounded recall)"
    )
    return 0


def _make_observer(args: argparse.Namespace):
    """Build an Observer when ``--trace``/``--metrics-out`` was given."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics_out", None)):
        return None
    from repro.obs import Observer

    return Observer(trace=args.trace is not None)


def _flush_observer(observer, args: argparse.Namespace) -> None:
    """Write the trace/metrics files an Observer gathered."""
    if observer is None:
        return
    if args.trace:
        n = observer.write_trace(args.trace)
        print(f"wrote {n} trace entries to {args.trace}")
    if args.metrics_out:
        observer.write_metrics(args.metrics_out)
        print(f"wrote metrics snapshot to {args.metrics_out}")


def _attach_timeline(observer, args: argparse.Namespace, always: bool = False):
    """Attach a TimelineCollector when ``--timeline``/``--anomaly`` ask.

    ``always`` forces one (``repro top`` needs the window ring for its
    sparklines even without an export path).  Returns the collector or
    ``None``.
    """
    wants = (
        always
        or getattr(args, "timeline", None)
        or getattr(args, "anomaly", None)
    )
    if observer is None or not wants:
        return None
    from repro.obs import TimelineCollector, load_anomaly_engine

    engine = None
    if getattr(args, "anomaly", None):
        engine = load_anomaly_engine(args.anomaly)
        print(
            f"anomaly rules: {args.anomaly} "
            f"({len(engine.rules)} rule(s): "
            f"{', '.join(rule.name for rule in engine.rules)})"
        )
    return observer.attach_timeline(
        TimelineCollector(
            observer.metrics,
            window_ticks=getattr(args, "timeline_window", 4),
            anomaly_engine=engine,
        )
    )


def _flush_timeline(timeline, args: argparse.Namespace) -> None:
    """Close the open window and export/summarise the timeline."""
    if timeline is None:
        return
    timeline.flush()
    path = getattr(args, "timeline", None)
    if path:
        n = timeline.export_jsonl(path)
        print(f"wrote {n} timeline windows to {path}")
    if timeline.anomaly_engine is not None:
        print(
            f"anomalies fired: {timeline.anomaly_engine.n_fired} "
            f"across {timeline.n_closed} windows"
        )


def _prefilter_config(args: argparse.Namespace):
    """Build a PrefilterConfig from ``--prefilter``/``--recall-target``."""
    enabled = getattr(args, "prefilter", False)
    recall_target = getattr(args, "recall_target", 1.0)
    if recall_target < 1.0 and not enabled:
        raise SystemExit("--recall-target requires --prefilter")
    if not enabled:
        return None
    from repro.prefilter import PrefilterConfig

    return PrefilterConfig(recall_target=recall_target)


def _print_prefilter_stats(prefilter) -> None:
    """One summary line of the pre-filter tier's page accounting."""
    stats = prefilter.stats
    print(
        f"prefilter [{prefilter.describe()}]: "
        f"pruned {stats.pages_pruned} + skipped {stats.pages_skipped} "
        f"of {stats.pages_delivered} page deliveries "
        f"({stats.prune_effectiveness:.0%} dropped before the engine)"
    )


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import Database, knn_query
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    dataset = make_gaussian_mixture(
        n=args.objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
    )
    observer = _make_observer(args)
    database = Database(
        dataset,
        access=args.access,
        engine=args.engine,
        observer=observer,
        prefilter=_prefilter_config(args),
    )
    print("database:", database.summary())
    indices = sample_database_queries(dataset, args.queries, seed=1)
    queries = [dataset[i] for i in indices]
    with database.measure() as single:
        for query in queries:
            database.similarity_query(query, knn_query(10))
    database.cold()
    with database.measure() as multi:
        answers = database.run_in_blocks(
            queries, knn_query(10), block_size=len(queries), db_indices=indices
        )
    print(
        f"{args.queries} k-NN queries, one at a time: "
        f"{single.total_seconds:8.3f} modelled seconds"
    )
    print(
        f"{args.queries} k-NN queries, one multiple query: "
        f"{multi.total_seconds:8.3f} modelled seconds "
        f"({single.total_seconds / multi.total_seconds:.1f}x)"
    )
    if database.prefilter is not None:
        prefilter = database.prefilter
        _print_prefilter_stats(prefilter)
        if prefilter.approximate:
            from repro.prefilter import MEASURED_RECALL_METRIC, measure_recall

            database.disable_prefilter()
            database.cold()
            exact = database.run_in_blocks(
                queries, knn_query(10), block_size=len(queries), db_indices=indices
            )
            recall = measure_recall(exact, answers)
            print(
                f"measured recall at target "
                f"{prefilter.config.recall_target}: {recall:.4f}"
            )
            if observer is not None:
                observer.metrics.set_gauge(MEASURED_RECALL_METRIC, recall)
    _flush_observer(observer, args)
    return 0


def _trace_qtypes(args: argparse.Namespace, n: int) -> list:
    """Query type per trace position: homogeneous k-NN, or mixed.

    With ``--mix``, the trace alternates k-NN and range queries with
    three cycling radii tuned to the demo mixture's cluster scale -- the
    heterogeneous workload the v2 optimizer partitions by sharing.
    """
    from repro import knn_query, range_query

    if not getattr(args, "mix", False):
        return [knn_query(args.k)] * n
    qtypes = []
    for position in range(n):
        if position % 2:
            qtypes.append(knn_query(args.k))
        else:
            qtypes.append(range_query(0.12 * (1 + (position // 2) % 3)))
    return qtypes


def _install_interrupt(args: argparse.Namespace) -> dict:
    """Make SIGINT ask the serve demo loop for a graceful stop.

    The first Ctrl-C sets a flag that :func:`_drive_trace` checks
    between submits: the loop stops early, open sessions are retired by
    the drain, and trace/timeline exports still flush.  A second Ctrl-C
    falls back to the default KeyboardInterrupt.
    """
    import signal

    flag = {"hit": False}
    previous = signal.getsignal(signal.SIGINT)

    def handler(signum, frame):  # pragma: no cover - signal context
        if flag["hit"]:
            signal.signal(signal.SIGINT, previous)
            raise KeyboardInterrupt
        flag["hit"] = True

    signal.signal(signal.SIGINT, handler)
    args._interrupt = flag
    return flag


def _drive_trace(scheduler, dataset, indices, args: argparse.Namespace) -> list:
    """Submit the deterministic round-robin client trace and drain.

    Each round every simulated client submits one query, then the
    scheduler runs one block -- the executor finishing a block while
    the next round arrives.
    An interrupt flag (see :func:`_install_interrupt`) stops submission
    between queries; the final drain still completes whatever was
    admitted, so no ticket is ever abandoned half-served.
    """
    interrupt = getattr(args, "_interrupt", None)
    qtypes = _trace_qtypes(args, args.clients * args.queries_per_client)
    tickets = []
    position = 0
    for _round in range(args.queries_per_client):
        for client in range(args.clients):
            if interrupt is not None and interrupt["hit"]:
                scheduler.drain()
                return tickets
            tickets.append(
                scheduler.submit(
                    dataset[indices[position]],
                    qtypes[position],
                    client_id=client,
                )
            )
            position += 1
        scheduler.poll()
    scheduler.drain()
    return tickets


def _cmd_serve(args: argparse.Namespace) -> int:
    """Drive N simulated clients through the dynamic-batching scheduler."""
    from repro import Database, knn_query
    from repro.obs import Observer
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    # Graceful-interrupt flag for the demo loop: installed before the
    # (potentially slow) dataset build so a Ctrl-C anywhere in the run
    # stops at the next submit boundary instead of dying mid-stream.
    # --listen mode manages its own signal handlers on the event loop.
    interrupt = (
        _install_interrupt(args) if not args.listen else {"hit": False}
    )
    dataset = make_gaussian_mixture(
        n=args.objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
    )
    observer = _make_observer(args) or Observer(trace=False)
    timeline = _attach_timeline(observer, args)
    database = Database(
        dataset,
        access=args.access,
        engine=args.engine,
        observer=observer,
        prefilter=_prefilter_config(args),
    )
    print("database:", database.summary())
    if args.faults:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.from_file(args.faults)
        database.inject_faults(fault_plan)
        print(
            f"fault plan: {args.faults} (seed {fault_plan.seed}, "
            f"{len(fault_plan.sites)} site spec(s), "
            f"retry budget {fault_plan.retry.max_retries})"
        )
    planner = None
    if args.optimizer == "v2":
        from repro.core.planner import QueryPlanner

        # Probe a cost surface over the served access method and the
        # batched engine so v2 partitions can pick engines per block.
        planner = QueryPlanner(
            dataset,
            candidates=(args.access,),
            engines=(None, "batched"),
            observer=observer,
        )
        print(
            f"optimizer v2: probed {len(planner.databases)} candidate(s), "
            f"{planner.probes_skipped} skipped"
        )
    scheduler = database.serve(
        max_block=args.max_block,
        order=args.order,
        optimizer=args.optimizer,
        planner=planner,
        share_bound=args.share_bound,
    )
    if args.listen:
        return _serve_listen(args, database, scheduler, observer, timeline)
    if args.plan:
        from repro.core.planner import QueryPlanner

        plan_planner = planner if planner is not None else QueryPlanner(
            dataset, candidates=(args.access,)
        )
        plan = plan_planner.plan(
            args.clients * args.queries_per_client,
            knn_query(args.k),
            max_block_size=args.max_block,
        )
        scheduler.replan(plan.fits)
        print(plan.describe())
        print(
            f"scheduler adopted block cap {scheduler.max_block}"
            f" (recommended access: {scheduler.recommended_access})"
        )

    indices = sample_database_queries(
        dataset, args.clients * args.queries_per_client, seed=1
    )
    tickets = _drive_trace(scheduler, dataset, indices, args)
    assert all(ticket.done for ticket in tickets)
    if interrupt["hit"]:
        # Graceful SIGINT: the drain above retired every admitted
        # session; flush the exports the run was asked for and exit
        # with the conventional interrupted status.
        print(
            f"interrupted: retired {len(tickets)} admitted queries "
            f"(all drained), flushing exports"
        )
        _flush_timeline(timeline, args)
        _flush_observer(observer, args)
        return 130

    snapshot = observer.metrics.snapshot()
    histograms = snapshot.get("histograms", {})
    occupancy = histograms.get("service.batch_occupancy")
    ttfa = histograms.get("service.time_to_first_answer.seconds")
    latency = histograms.get("service.client_latency.seconds")
    waits = histograms.get("service.wait.ticks")
    print(
        f"served {len(tickets)} queries from {args.clients} clients "
        f"in {occupancy['count'] if occupancy else 0} blocks"
    )
    if occupancy:
        print(
            f"  batch occupancy: mean {occupancy['mean']:.2f}"
            f"  p95 {occupancy['p95']:.0f}  max {occupancy['max']:.0f}"
            f"  (cap {scheduler.max_block})"
        )
    if ttfa:
        print(
            f"  time to first answer: mean {ttfa['mean'] * 1e3:.3f} ms"
            f"  p95 {ttfa['p95'] * 1e3:.3f} ms"
        )
    if latency:
        print(
            f"  client latency: mean {latency['mean'] * 1e3:.3f} ms"
            f"  p95 {latency['p95'] * 1e3:.3f} ms"
        )
    if waits:
        print(
            f"  queue wait: mean {waits['mean']:.2f} ticks"
            f"  max {waits['max']:.0f} ticks"
        )
    per_client: dict[int, int] = {}
    for ticket in tickets:
        per_client[ticket.client_id] = per_client.get(ticket.client_id, 0) + 1
    print(f"  per-client completions: {sorted(per_client.values())}")
    if args.optimizer == "v2":
        counts = histograms.get("planner.partition.count")
        sizes = histograms.get("planner.partition.size")
        sharing = snapshot.get("gauges", {}).get(
            "planner.partition.sharing_factor"
        )
        if counts and sizes:
            print(
                f"  v2 partitions: mean {counts['mean']:.2f} per flush, "
                f"partition size mean {sizes['mean']:.2f} "
                f"max {sizes['max']:.0f}"
                + (
                    f", predicted sharing {sharing:.2f}x"
                    if sharing is not None
                    else ""
                )
            )
    if database.prefilter is not None:
        _print_prefilter_stats(database.prefilter)
    exit_code = 0
    if args.faults:
        exit_code = _report_serve_faults(
            args, database, scheduler, dataset, indices, tickets
        )
    if scheduler.audit is not None and scheduler.audit.blocks_audited:
        audit = scheduler.audit.summary()
        drift = audit["calibration_drift"]
        print(
            f"plan audit: {audit['blocks_audited']} blocks, "
            f"calibration drift {drift:.3f}"
            + (" (plan too cheap)" if drift > 1.0 else "")
        )
    if timeline is not None:
        _flush_timeline(timeline, args)
        if scheduler.anomaly_replans:
            print(
                f"anomaly replans: {scheduler.anomaly_replans} "
                f"(block cap now {scheduler.max_block})"
            )
    if args.slo:
        exit_code = max(
            exit_code, _evaluate_slo(args.slo, observer.metrics.snapshot(), args)
        )
    _flush_observer(observer, args)
    return exit_code


def _evaluate_slo(spec_path: str, snapshot: dict, args) -> int:
    """Evaluate and render a SLO spec; non-zero exit on any breach."""
    import json

    from repro.obs import evaluate_slos, load_slo_spec, render_slo

    results = evaluate_slos(load_slo_spec(spec_path), snapshot)
    print()
    print(render_slo(results))
    report_path = getattr(args, "slo_report", None)
    if report_path:
        with open(report_path, "w") as handle:
            json.dump(
                [result.summary() for result in results], handle, indent=2
            )
            handle.write("\n")
        print(f"wrote SLO evaluation to {report_path}")
    return 1 if any(result.status == "breach" for result in results) else 0


def _parse_hostport(spec: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """Split ``HOST:PORT`` (or bare ``PORT``) into its parts."""
    if ":" in spec:
        host, _, port_text = spec.rpartition(":")
        host = host or default_host
    else:
        host, port_text = default_host, spec
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"invalid address {spec!r}: port must be an integer")
    return host, port


def _serve_listen(args, database, scheduler, observer, timeline) -> int:
    """``repro serve --listen``: the scheduler behind a real socket.

    Runs the asyncio front-end until SIGINT/SIGTERM, then shuts down
    gracefully -- open sessions drain, every pending ticket is delivered
    (or the client told ``shutdown``), and trace/timeline/SLO exports
    flush before exit.
    """
    import asyncio
    import signal

    from repro.net import QueryServer

    host, port = _parse_hostport(args.listen)

    async def run() -> dict:
        server = QueryServer(
            scheduler,
            host=host,
            port=port,
            max_inflight=args.max_inflight,
            shed_depth=args.shed_depth,
        )
        bound_host, bound_port = await server.start()
        print(
            f"listening on {bound_host}:{bound_port} "
            f"(access {database.access_method.name}, "
            f"block cap {scheduler.max_block})",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.request_shutdown)
        await server.serve_until_shutdown()
        return server.stats()

    stats = asyncio.run(run())
    print(
        f"served {stats['results']} results "
        f"({stats['degraded_results']} degraded, {stats['sheds']} shed, "
        f"{stats['errors']} protocol errors)"
    )
    exit_code = 0
    if args.slo:
        exit_code = _evaluate_slo(args.slo, observer.metrics.snapshot(), args)
    _flush_timeline(timeline, args)
    _flush_observer(observer, args)
    return exit_code


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Record or replay an open-loop query trace (see docs/service.md)."""
    import asyncio
    import json

    from repro.workloads.loadgen import (
        compare_answers,
        load_trace,
        record_trace,
        replay_in_process,
        replay_over_wire,
        save_trace,
    )

    if args.trace and not (args.record or args.connect or args.in_process):
        print(
            "loadgen: --trace needs --connect or --in-process to replay",
            file=sys.stderr,
        )
        return 2
    if args.record:
        trace = record_trace(
            args.queries,
            rate=args.rate,
            n_clients=args.clients,
            objects=args.objects,
            k=args.k,
            mix=args.mix,
            seed=args.seed,
        )
        n = save_trace(trace, args.record)
        print(
            f"recorded {n} arrivals over {trace.duration:.3f}s "
            f"({args.rate:g} q/s offered, {args.clients} clients, "
            f"{'mixed' if args.mix else 'k-NN'}) to {args.record}"
        )
        return 0
    if args.trace:
        trace = load_trace(args.trace)
        print(
            f"trace {args.trace}: {len(trace)} arrivals over "
            f"{trace.duration:.3f}s "
            f"({trace.meta.get('n_clients')} clients, "
            f"{trace.meta.get('objects')} objects)"
        )
    else:
        trace = record_trace(
            args.queries,
            rate=args.rate,
            n_clients=args.clients,
            objects=args.objects,
            k=args.k,
            mix=args.mix,
            seed=args.seed,
        )
    if args.connect:
        host, port = _parse_hostport(args.connect)
        answers, report = asyncio.run(
            replay_over_wire(
                trace,
                host,
                port,
                speed=args.speed,
                stream=args.stream,
                max_connections=args.connections,
            )
        )
    elif args.in_process:
        answers, report = replay_in_process(
            trace, access=args.access, engine=args.engine
        )
    else:
        print(
            "loadgen: need one of --record, --connect or --in-process",
            file=sys.stderr,
        )
        return 2
    print(report.render())
    exit_code = 0
    if args.expect_degraded and report.degraded == 0:
        print(
            "FAIL: --expect-degraded, but no degraded answer reached "
            "the client"
        )
        exit_code = 1
    if args.verify:
        # Fault-free in-process reference on the same trace: answers the
        # service actually delivered (not shed, not degraded) must be
        # byte-identical to it, network or no network.
        reference, _ = replay_in_process(
            trace, access=args.access, engine=args.engine
        )
        divergent = compare_answers(answers, reference, skip=report.degraded_mask)
        compared = sum(
            1
            for position, got in enumerate(answers)
            if got is not None and not report.degraded_mask[position]
        )
        if divergent:
            print(
                f"FAIL: {len(divergent)}/{compared} delivered answers "
                f"diverge from the in-process reference "
                f"(first at trace position {divergent[0]})"
            )
            exit_code = 1
        else:
            print(
                f"verified: {compared} delivered answers byte-identical "
                f"to the in-process reference "
                f"({report.degraded} degraded skipped, "
                f"{report.shed} shed skipped)"
            )
    if args.bench_out:
        payload = {
            "benchmark": "net",
            "n_objects": int(trace.meta.get("objects", 0)),
            "n_queries": len(trace),
            "offered_rate": report.offered_rate,
            "rows": [{**report.as_dict(), "seconds": report.wall_seconds}],
        }
        with open(args.bench_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote benchmark payload to {args.bench_out}")
    if args.metrics_out:
        with open(args.metrics_out, "w") as handle:
            json.dump(report.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote client-observed metrics snapshot to {args.metrics_out}")
    if args.slo:
        exit_code = max(
            exit_code, _evaluate_slo(args.slo, report.snapshot(), args)
        )
    return exit_code


def _report_serve_faults(
    args: argparse.Namespace, database, scheduler, dataset, indices, tickets
) -> int:
    """Print the fault summary and verify recovered answers are exact.

    Every ticket the scheduler did NOT mark degraded must carry an
    answer byte-identical to the same trace served by a fault-free
    database: recovery (retries, survivor re-dispatch) may cost time
    but never changes results.  Returns 1 on any divergence so chaos
    CI fails loudly.
    """
    from repro import Database

    injector = database.fault_injector
    summary = injector.summary()
    degraded = [ticket for ticket in tickets if ticket.degraded]
    print("fault injection summary:")
    print(f"  injected: {summary['injected_total']} {summary['injected']}")
    print(
        f"  retries: {summary['retries']}"
        f"  redispatches: {summary['redispatches']}"
        f"  ticks: {summary['ticks']}"
    )
    print(
        f"  degraded sessions: {scheduler.degraded_sessions}"
        f"  degraded tickets: {len(degraded)}"
    )
    # The reference run mirrors the prefilter configuration: in exact
    # mode it changes nothing, in approximate mode the deterministic
    # skips must match for answers to be comparable.
    clean_database = Database(
        dataset,
        access=args.access,
        engine=args.engine,
        prefilter=_prefilter_config(args),
    )
    clean_scheduler = clean_database.serve(
        max_block=args.max_block,
        order=args.order,
        optimizer=args.optimizer,
        share_bound=args.share_bound,
    )
    clean_tickets = _drive_trace(clean_scheduler, dataset, indices, args)
    mismatches = 0
    for ticket, clean in zip(tickets, clean_tickets):
        if ticket.degraded:
            continue
        if ticket.answers != clean.answers:
            mismatches += 1
    recovered = len(tickets) - len(degraded)
    if mismatches:
        print(
            f"FAIL: {mismatches}/{recovered} recovered tickets diverge "
            f"from the fault-free run"
        )
        return 1
    print(
        f"recovered answers exact: {recovered}/{len(tickets)} tickets "
        f"byte-identical to the fault-free run"
    )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dry-run the v2 optimizer: partitioning + predicted costs, no serve.

    Builds the demo workload, probes the (query type, access method,
    engine) cost surface, forms the :class:`BatchPlan` and prints it --
    the planning half of ``serve --optimizer v2`` without executing a
    single served query.
    """
    from repro.core.planner import QueryPlanner
    from repro.obs import Observer
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    dataset = make_gaussian_mixture(
        n=args.objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
    )
    observer = Observer(trace=True)
    candidates = tuple(args.candidates.split(","))
    engines = tuple(
        None if name in ("auto", "default") else name
        for name in args.engines.split(",")
    )
    planner = QueryPlanner(
        dataset,
        candidates=candidates,
        engines=engines,
        probe_queries=args.probe_queries,
        observer=observer,
    )
    for access, reason in planner.unavailable.items():
        print(f"candidate {access!r} unavailable: {reason}")
    indices = sample_database_queries(dataset, args.queries, seed=1)
    qtypes = _trace_qtypes(args, args.queries)
    objs = [dataset[i] for i in indices]
    plan = planner.plan_batch(
        objs,
        qtypes,
        max_block=args.max_block,
        share_bound=args.share_bound,
    )
    print(plan.describe())
    if planner.probes_skipped:
        print(
            f"probe cells skipped: {planner.probes_skipped} "
            f"(see planner.probe.skipped events)"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json

    from repro.obs import read_jsonl, render_report

    metrics_path = args.metrics
    if metrics_path and metrics_path.endswith((".jsonl", ".jsonl.gz")):
        # A JSONL positional is a trace, not a metrics snapshot --
        # `repro report trace.jsonl.gz` works the same as `--trace`.
        if args.trace:
            print(
                f"report: both {metrics_path!r} and --trace look like "
                f"traces; pass the metrics JSON as the positional",
                file=sys.stderr,
            )
            return 2
        args.trace, metrics_path = metrics_path, None
    if not metrics_path and not args.trace and not args.timeline:
        print(
            "report: need a metrics file, --trace FILE and/or --timeline FILE",
            file=sys.stderr,
        )
        return 2
    metrics = None
    if metrics_path:
        with open(metrics_path) as handle:
            metrics = json.load(handle)
    trace_records = read_jsonl(args.trace) if args.trace else None
    if metrics is not None or trace_records is not None:
        print(render_report(metrics, trace_records))
    if args.timeline:
        from repro.obs import read_timeline, render_timeline

        if metrics is not None or trace_records is not None:
            print()
        print(render_timeline(read_timeline(args.timeline)))
    if args.slo:
        if metrics is None:
            print("report: --slo needs a metrics file", file=sys.stderr)
            return 2
        return _evaluate_slo(args.slo, metrics, args)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Aggregate a recorded trace into per-phase self time + flamegraph.

    Reads a trace written by ``--trace`` (``.jsonl`` or ``.jsonl.gz``),
    prints the per-phase inclusive/self-time table and writes the
    folded-stack file (load it in speedscope or feed it to
    flamegraph.pl / inferno).
    """
    from repro.obs import profile_trace, read_jsonl, render_profile, write_folded

    result = profile_trace(read_jsonl(args.trace))
    print(render_profile(result, top=args.top))
    out = args.out
    if out is None:
        base = args.trace
        for suffix in (".jsonl.gz", ".jsonl"):
            if base.endswith(suffix):
                base = base[: -len(suffix)]
                break
        out = base + ".folded"
    n = write_folded(result, out)
    print(f"wrote {n} folded stacks to {out}")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live dashboard over a serving episode (curses-free).

    Drives the same deterministic round-robin client trace as ``repro
    serve`` but repaints a dashboard frame after every scheduler round:
    queue depth, occupancy, TTFA quantiles, per-window rate sparklines
    and the anomaly feed.  On a TTY frames repaint in place (ANSI
    clear); otherwise they print sequentially, so piped output stays
    readable.
    """
    import time as _time

    from repro import Database, knn_query
    from repro.obs import Observer, render_dashboard
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    dataset = make_gaussian_mixture(
        n=args.objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
    )
    observer = Observer(trace=False)
    timeline = _attach_timeline(observer, args, always=True)
    database = Database(
        dataset, access=args.access, engine=args.engine, observer=observer
    )
    if args.faults:
        from repro.faults import FaultPlan

        database.inject_faults(FaultPlan.from_file(args.faults))
    scheduler = database.serve(max_block=args.max_block)
    indices = sample_database_queries(
        dataset, args.clients * args.queries_per_client, seed=1
    )
    is_tty = sys.stdout.isatty()

    def repaint() -> None:
        frame = render_dashboard(scheduler, timeline)
        if is_tty:
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
        else:
            print(frame)
            print()
        if args.delay > 0:
            _time.sleep(args.delay)

    position = 0
    for _round in range(args.queries_per_client):
        for client in range(args.clients):
            scheduler.submit(
                dataset[indices[position]], knn_query(args.k), client_id=client
            )
            position += 1
        scheduler.poll()
        repaint()
    scheduler.drain()
    timeline.flush()
    repaint()
    if args.timeline:
        n = timeline.export_jsonl(args.timeline)
        print(f"wrote {n} timeline windows to {args.timeline}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Run a small traced workload and render one query's causal card.

    The default configuration exercises the full distributed path: the
    *process* backend of a two-server :class:`ParallelDatabase`, so the
    rendered card stitches worker-process spans (page evaluations,
    prunes, avoidance outcomes, each tagged with its server) back under
    the coordinator's block span via the propagated trace context.
    """
    import json

    from repro import knn_query
    from repro.obs import Observer, build_cards, read_jsonl, render_card
    from repro.parallel import ParallelDatabase
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    if args.from_trace:
        # Explain a recorded run (e.g. ``repro serve --optimizer v2
        # --trace FILE``): cards then carry the planner.plan partition
        # each query was dispatched under.
        records = read_jsonl(args.from_trace)
    else:
        dataset = make_gaussian_mixture(
            n=args.objects, dimension=12, n_clusters=30, cluster_std=0.03, seed=0
        )
        observer = Observer(trace=True)
        with ParallelDatabase(
            dataset,
            n_servers=args.servers,
            access=args.access,
            observer=observer,
        ) as database:
            indices = sample_database_queries(dataset, args.queries, seed=1)
            queries = [dataset[i] for i in indices]
            database.multiple_similarity_query(
                queries,
                knn_query(args.k),
                db_indices=indices,
                backend=args.backend,
            )
        if args.trace:
            n = observer.write_trace(args.trace)
            print(f"wrote {n} trace entries to {args.trace}", file=sys.stderr)
        records = observer.tracer.records()
    cards = build_cards(records)
    if not cards:
        print("explain: the trace contains no queries", file=sys.stderr)
        return 2
    labels = list(cards)
    if not 0 <= args.query_index < len(labels):
        print(
            f"explain: query index {args.query_index} out of range "
            f"(trace holds {len(labels)} queries: 0..{len(labels) - 1})",
            file=sys.stderr,
        )
        return 2
    card = cards[labels[args.query_index]]
    if args.json:
        print(json.dumps(card.summary(), indent=2))
    else:
        print(render_card(card))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.costmodel import measure_platform

    timings = measure_platform(args.dimension)
    print(f"platform timings at d={args.dimension} (vectorised, per element):")
    print(f"  distance calculation: {timings.distance_seconds * 1e6:8.4f} us")
    print(f"  comparison:           {timings.comparison_seconds * 1e6:8.4f} us")
    print(f"  ratio:                {timings.ratio:8.0f}x")
    print(
        "(paper, 300 MHz Pentium II / C++: 4.3 us at 20-d, 12.7 us at 64-d, "
        "0.082 us per comparison)"
    )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.obs import regression

    current: dict[str, dict] = {}
    if args.suite == "quick":
        current.update(
            regression.run_quick_suite(
                n_objects=args.objects, n_queries=args.queries
            )
        )
    for path in args.import_bench:
        current.update(regression.entries_from_bench_file(path))
    if not current:
        print("bench: nothing to run (--suite none and no --import-bench)",
              file=sys.stderr)
        return 2

    if args.update or not os.path.exists(args.baseline):
        regression.save_store(args.baseline, current)
        print(f"wrote {len(current)} baseline entries to {args.baseline}")
        return 0

    baseline = regression.load_store(args.baseline)
    report = regression.compare(
        current,
        baseline,
        seconds_threshold=args.threshold,
        counter_threshold=args.counter_threshold,
    )
    print(regression.render_comparison(report))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        print(f"wrote comparison report to {args.report}")
    if args.check and not report.ok:
        return 1
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.run_all import run_all

    config = ExperimentConfig.small() if args.small else ExperimentConfig.default()
    return run_all(config, args.out, metrics_out=args.metrics_out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("info", help="versions and components").set_defaults(
        func=_cmd_info
    )

    demo = subparsers.add_parser("demo", help="single vs. multiple queries demo")
    demo.add_argument("--objects", type=int, default=15_000)
    demo.add_argument("--queries", type=int, default=60)
    demo.add_argument(
        "--access",
        default="xtree",
        choices=["scan", "xtree", "mtree", "rstar", "vafile"],
    )
    from repro.core.engine import engine_names

    demo.add_argument(
        "--engine",
        default="auto",
        choices=["auto", *engine_names()],
        help="page-processing engine (batched = fused cross-distance kernel)",
    )
    demo.add_argument(
        "--prefilter",
        action="store_true",
        help="enable the sketch-based page pre-filter tier (exact: "
        "answers and cost counters stay byte-identical)",
    )
    demo.add_argument(
        "--recall-target",
        type=float,
        default=1.0,
        metavar="R",
        help="opt into the approximate fast mode (0 < R < 1): pages are "
        "skipped before they are read and the measured recall is "
        "reported; requires --prefilter",
    )
    demo.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write spans/events of the run as JSON Lines",
    )
    demo.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the metrics snapshot (sharing factor, avoidance "
        "hit-rate, phase latency histograms) as JSON",
    )
    demo.set_defaults(func=_cmd_demo)

    calibrate = subparsers.add_parser(
        "calibrate", help="measure per-operation timings on this machine"
    )
    calibrate.add_argument("-d", "--dimension", type=int, default=20)
    calibrate.set_defaults(func=_cmd_calibrate)

    experiments = subparsers.add_parser(
        "experiments", help="run the full Sec. 6 evaluation"
    )
    experiments.add_argument("--small", action="store_true")
    experiments.add_argument("--out", default=None)
    experiments.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write a per-sweep metrics sidecar (sharing factor, "
        "avoidance hit-rate per figure sweep point) as JSON",
    )
    experiments.set_defaults(func=_cmd_experiments)

    serve = subparsers.add_parser(
        "serve",
        help="dynamic-batching query-service demo with simulated clients",
    )
    serve.add_argument("--objects", type=int, default=15_000)
    serve.add_argument("--clients", type=int, default=8)
    serve.add_argument("--queries-per-client", type=int, default=6)
    serve.add_argument("-k", type=int, default=10, help="neighbours per query")
    serve.add_argument(
        "--access",
        default="xtree",
        choices=["scan", "xtree", "mtree", "rstar", "vafile"],
    )
    serve.add_argument(
        "--engine",
        default="auto",
        choices=["auto", *engine_names()],
    )
    serve.add_argument(
        "--max-block",
        type=int,
        default=8,
        help="cap on the tickets one block takes (the planner's knee "
        "lowers it, anomaly back-off halves it)",
    )
    serve.add_argument(
        "--order",
        default="fifo",
        choices=["fifo", "affinity"],
        help="block ordering behind the FIFO driver",
    )
    serve.add_argument(
        "--plan",
        action="store_true",
        help="probe a planner cost fit first and adopt its knee-point "
        "block cap",
    )
    serve.add_argument(
        "--optimizer",
        default="v1",
        choices=["v1", "v2"],
        help="v1: one knee-point block cap; v2: partition each block "
        "by predicted sharing and dispatch each partition under its own "
        "plan (per-partition engine and access method)",
    )
    serve.add_argument(
        "--share-bound",
        type=float,
        default=None,
        metavar="D",
        help="v2 partition cut distance (default: derived per batch; "
        "'inf' forces one partition, the v1-identical case)",
    )
    serve.add_argument(
        "--mix",
        action="store_true",
        help="serve a heterogeneous trace (alternating k-NN and range "
        "queries with cycling radii) instead of pure k-NN",
    )
    serve.add_argument(
        "--prefilter",
        action="store_true",
        help="enable the sketch-based page pre-filter tier for all "
        "served blocks (exact unless --recall-target < 1)",
    )
    serve.add_argument(
        "--recall-target",
        type=float,
        default=1.0,
        metavar="R",
        help="approximate fast mode (0 < R < 1); requires --prefilter",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject faults from a JSON plan (see docs/robustness.md); "
        "recovered answers are verified against a fault-free run and "
        "a non-zero exit reports any divergence",
    )
    serve.add_argument("--trace", default=None, metavar="FILE")
    serve.add_argument("--metrics-out", default=None, metavar="FILE")
    serve.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="write windowed time-series telemetry as JSONL ('.gz' for "
        "gzip); deterministic for a seeded workload",
    )
    serve.add_argument(
        "--timeline-window",
        type=int,
        default=4,
        metavar="N",
        help="logical ticks per timeline window (default 4)",
    )
    serve.add_argument(
        "--anomaly",
        default=None,
        metavar="SPEC",
        help="evaluate anomaly rules from a JSON spec file against every "
        "timeline window; replan-flagged firings halve the scheduler's "
        "block cap",
    )
    serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="evaluate service-level objectives from a JSON spec file "
        "(see docs/observability.md); exits non-zero on any breached "
        "objective",
    )
    serve.add_argument(
        "--slo-report",
        default=None,
        metavar="FILE",
        help="write the SLO evaluation results as JSON (CI artifact)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="serve the scheduler over a socket (length-prefixed JSON "
        "protocol, see docs/service.md) instead of the simulated demo "
        "trace; port 0 picks a free port; SIGINT/SIGTERM drain and "
        "shut down gracefully",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        metavar="N",
        help="per-connection bound on unanswered submits before the "
        "server sheds (--listen mode)",
    )
    serve.add_argument(
        "--shed-depth",
        type=int,
        default=None,
        metavar="N",
        help="global admission bound: shed new submits once the "
        "scheduler queue holds this many tickets (--listen mode; "
        "default: the scheduler's own max-queue pressure bound)",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = subparsers.add_parser(
        "loadgen",
        help="record or replay an open-loop query trace against the "
        "service (in-process or over a socket)",
    )
    loadgen.add_argument(
        "--record",
        default=None,
        metavar="FILE",
        help="record a seeded open-loop arrival trace to FILE (JSONL) "
        "and exit",
    )
    loadgen.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="replay this recorded trace instead of generating one",
    )
    loadgen.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="replay over the wire against a 'repro serve --listen' "
        "server",
    )
    loadgen.add_argument(
        "--in-process",
        action="store_true",
        help="replay through an in-process scheduler (the reference "
        "path; builds the trace's dataset locally)",
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=500.0,
        help="offered arrival rate in queries/second when generating "
        "a trace (seeded Poisson arrivals)",
    )
    loadgen.add_argument(
        "--queries", type=int, default=200, help="arrivals to generate"
    )
    loadgen.add_argument("--clients", type=int, default=8)
    loadgen.add_argument("--objects", type=int, default=15_000)
    loadgen.add_argument("-k", type=int, default=10)
    loadgen.add_argument(
        "--mix",
        action="store_true",
        help="heterogeneous trace (alternating k-NN and range queries) "
        "instead of pure k-NN",
    )
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help="replay clock multiplier over the recorded offsets "
        "(1.0 = real time, 2.0 = twice as fast; 0 = no pacing, "
        "submit as fast as the sockets accept)",
    )
    loadgen.add_argument(
        "--stream",
        action="store_true",
        help="request per-answer streaming frames (enables TTFA "
        "reporting; degraded partial answers stream the same way)",
    )
    loadgen.add_argument(
        "--connections",
        type=int,
        default=8,
        metavar="N",
        help="socket connections to spread the trace's clients over",
    )
    loadgen.add_argument(
        "--access",
        default="xtree",
        choices=["scan", "xtree", "mtree", "rstar", "vafile"],
        help="access method of the in-process replay / verify reference",
    )
    loadgen.add_argument(
        "--engine",
        default="auto",
        choices=["auto", *engine_names()],
    )
    loadgen.add_argument(
        "--verify",
        action="store_true",
        help="also replay in process on a fault-free database and "
        "require every delivered non-degraded answer to be "
        "byte-identical; non-zero exit on divergence",
    )
    loadgen.add_argument(
        "--expect-degraded",
        action="store_true",
        help="fail unless at least one degraded (Def. 4 partial) "
        "answer reached the client (chaos CI assertion)",
    )
    loadgen.add_argument(
        "--bench-out",
        default=None,
        metavar="FILE",
        help="write the replay as a BENCH_net.json payload for "
        "'repro bench --import-bench'",
    )
    loadgen.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the client-observed metrics snapshot as JSON",
    )
    loadgen.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="evaluate service-level objectives against the "
        "client-observed snapshot; non-zero exit on any breach",
    )
    loadgen.add_argument(
        "--slo-report",
        default=None,
        metavar="FILE",
        help="write the SLO evaluation results as JSON (CI artifact)",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    plan = subparsers.add_parser(
        "plan",
        help="dry-run the v2 optimizer: print batch partitioning and "
        "predicted costs without serving",
    )
    plan.add_argument("--objects", type=int, default=15_000)
    plan.add_argument(
        "--queries", type=int, default=32, help="batch size to plan for"
    )
    plan.add_argument("-k", type=int, default=10, help="neighbours per k-NN query")
    plan.add_argument(
        "--candidates",
        default="scan,xtree",
        metavar="A,B,...",
        help="comma-separated candidate access methods",
    )
    plan.add_argument(
        "--engines",
        default="auto,batched",
        metavar="E,F,...",
        help="comma-separated candidate engines ('auto' = the database "
        "default)",
    )
    plan.add_argument("--max-block", type=int, default=32)
    plan.add_argument(
        "--share-bound",
        type=float,
        default=None,
        metavar="D",
        help="partition cut distance (default: derived from the batch)",
    )
    plan.add_argument("--probe-queries", type=int, default=8)
    plan.add_argument(
        "--mix",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="plan a mixed k-NN + range batch (default) or pure k-NN "
        "(--no-mix)",
    )
    plan.set_defaults(func=_cmd_plan)

    report = subparsers.add_parser(
        "report", help="pretty-print a metrics snapshot and/or trace"
    )
    report.add_argument(
        "metrics", nargs="?", default=None, help="metrics JSON (from --metrics-out)"
    )
    report.add_argument(
        "--trace", default=None, metavar="FILE", help="trace JSONL (from --trace)"
    )
    report.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="also render a windowed timeline JSONL file "
        "(from serve --timeline; '.gz' accepted)",
    )
    report.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="also evaluate service-level objectives against the "
        "metrics snapshot; exits non-zero on any breach",
    )
    report.add_argument(
        "--slo-report",
        default=None,
        metavar="FILE",
        help="write the SLO evaluation results as JSON",
    )
    report.set_defaults(func=_cmd_report)

    explain = subparsers.add_parser(
        "explain",
        help="run a small traced workload and print one query's causal "
        "provenance card",
    )
    explain.add_argument(
        "query_index",
        type=int,
        help="which query to explain, in admission order (0-based)",
    )
    explain.add_argument("--objects", type=int, default=4000)
    explain.add_argument("--queries", type=int, default=8)
    explain.add_argument("-k", type=int, default=10, help="neighbours per query")
    explain.add_argument(
        "--servers", type=int, default=2, help="simulated servers"
    )
    explain.add_argument(
        "--backend",
        default="process",
        choices=["process", "model"],
        help="parallel backend; 'process' demonstrates cross-process "
        "trace stitching (the default)",
    )
    explain.add_argument(
        "--access",
        default="xtree",
        choices=["scan", "xtree", "mtree", "rstar", "vafile"],
    )
    explain.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also write the merged trace as JSON Lines ('.gz' for gzip)",
    )
    explain.add_argument(
        "--from-trace",
        default=None,
        metavar="FILE",
        help="explain a recorded trace (e.g. from 'repro serve --trace') "
        "instead of running a workload; serve traces carry the "
        "optimizer-v2 plan per query",
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="print the card as JSON instead of the rendered text",
    )
    explain.set_defaults(func=_cmd_explain)

    profile = subparsers.add_parser(
        "profile",
        help="per-phase self-time profile + folded-stack (flamegraph) "
        "export from a recorded trace",
    )
    profile.add_argument(
        "trace", help="trace JSONL from --trace ('.jsonl' or '.jsonl.gz')"
    )
    profile.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="folded-stack output path (default: trace path with a "
        "'.folded' suffix); open in speedscope or flamegraph.pl",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="phases to show in the table (default 20)",
    )
    profile.set_defaults(func=_cmd_profile)

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a serving episode "
        "(queue depth, TTFA, rate sparklines, anomaly feed)",
    )
    top.add_argument("--objects", type=int, default=15_000)
    top.add_argument("--clients", type=int, default=8)
    top.add_argument("--queries-per-client", type=int, default=6)
    top.add_argument("-k", type=int, default=10, help="neighbours per query")
    top.add_argument(
        "--access",
        default="xtree",
        choices=["scan", "xtree", "mtree", "rstar", "vafile"],
    )
    top.add_argument(
        "--engine",
        default="auto",
        choices=["auto", *engine_names()],
    )
    top.add_argument("--max-block", type=int, default=8)
    top.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="inject faults from a JSON plan while watching the dashboard",
    )
    top.add_argument(
        "--anomaly",
        default=None,
        metavar="SPEC",
        help="evaluate anomaly rules per window; firings land in the feed",
    )
    top.add_argument(
        "--timeline",
        default=None,
        metavar="FILE",
        help="also export the timeline windows as JSONL on exit",
    )
    top.add_argument(
        "--timeline-window",
        type=int,
        default=2,
        metavar="N",
        help="logical ticks per timeline window (default 2 for a "
        "lively display)",
    )
    top.add_argument(
        "--delay",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="pause between frames (watchable pacing on a TTY)",
    )
    top.set_defaults(func=_cmd_top)

    bench = subparsers.add_parser(
        "bench", help="run benchmark suites and compare against baselines"
    )
    bench.add_argument(
        "--suite",
        default="quick",
        choices=["quick", "none"],
        help="benchmark suite to run ('none' with --import-bench only "
        "converts existing BENCH_*.json results)",
    )
    bench.add_argument(
        "--baseline",
        default="benchmarks/baselines.json",
        metavar="FILE",
        help="baseline store to compare against (created if absent)",
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any benchmark regresses",
    )
    bench.add_argument(
        "--update",
        action="store_true",
        help="overwrite the baseline store with this run's results",
    )
    bench.add_argument(
        "--threshold",
        type=float,
        default=0.5,
        help="relative wall-clock slowdown tolerated (0.5 = 50%%)",
    )
    bench.add_argument(
        "--counter-threshold",
        type=float,
        default=0.0,
        help="relative increase tolerated for deterministic cost counters",
    )
    bench.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the structured comparison report as JSON",
    )
    bench.add_argument(
        "--import-bench",
        action="append",
        default=[],
        metavar="FILE",
        help="also fold a BENCH_*.json result file into this run "
        "(repeatable)",
    )
    bench.add_argument("--objects", type=int, default=2000)
    bench.add_argument("--queries", type=int, default=24)
    bench.set_defaults(func=_cmd_bench)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
