"""Simulated shared-nothing execution of multiple similarity queries.

Each server owns one partition of the data with its own disk, buffer and
access method, and processes the *same* multiple similarity query on its
local data.  Per-query answers are merged (k best of the union for k-NN,
union for range queries).  Modelled elapsed time is the maximum over the
servers' modelled costs -- the paper's communication overhead "is very
small" (Sec. 5.3) and is neglected, like the merge itself.

Global correctness of per-server pruning: every optimisation a server
applies (query-distance matrix seeding, avoidance, page pruning) only
suppresses local answers that are provably farther than the query's
current k-th candidate; such objects can never enter the merged global
top-k, so merging the per-server answer lists yields exactly the global
answer set.

Following the parallel similarity-search design the paper builds on
([1], Berchtold et al., SIGMOD 1997), servers coordinate through cheap
candidate bounds: with ``share_home_bounds`` every query object's *home*
server (the one storing it) first processes the query's best local page,
and the resulting k-candidate distance -- a sound upper bound on the
global k-th-NN distance, since local candidates are global candidates --
is broadcast to all servers as their initial query distance.  The
broadcast itself is communication and, like the answer merge, is
neglected in the cost model.

Two execution backends share this logic:

* ``"model"`` (default) -- every server runs sequentially in-process;
  elapsed time is *modelled* as the slowest server's counter-derived
  cost.  Deterministic, dependency-free, used by the Figure 11/12
  harness.
* ``"process"`` -- true multi-core execution: one
  :class:`~concurrent.futures.ProcessPoolExecutor` worker per simulated
  server (pinned, so per-server state such as the LRU buffer persists
  across blocks), with the dataset vectors shipped once via
  ``multiprocessing.shared_memory`` instead of being pickled per task.
  Answers and counters are identical to the model backend; in addition
  each server reports its *measured* wall-clock seconds, so the modelled
  super-linear speed-up of Sec. 5.3 can be compared against real elapsed
  time on multi-core hardware.

Fault tolerance (``fault_plan``): a seeded
:class:`~repro.faults.FaultPlan` arms each server's disk with a fault
gate (site ``"server:<id>"``).  Page-read errors are retried in place by
the gate itself; a :class:`~repro.faults.ServerCrash` or straggler
:class:`~repro.faults.ServerTimeout` aborts the server's in-flight block
phase, which is then *re-dispatched*: the failed partition's state is
rolled back (counters, buffer, disk head) and the block phase replayed
deterministically -- modelling a survivor server taking over the
partition's replica, with the triangle-inequality bounds re-derived by
the replay itself.  Because injection happens before any counter is
charged and replay restarts from the rollback point, recovered runs
produce answers *and* per-partition cost counters byte-identical to the
fault-free run, on both backends.  Recovery is bounded by the plan's
:class:`~repro.faults.RetryPolicy`; an exhausted budget surfaces the
typed :class:`~repro.faults.FaultError` to the caller (the service layer
degrades instead, see :mod:`repro.service.session`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.answers import Answer
from repro.core.database import Database, MeasuredRun
from repro.core.types import QueryType
from repro.costmodel import Counters
from repro.data import Dataset, GenericDataset, VectorDataset, as_dataset
from repro.faults import FaultError, FaultInjector, RetryPolicy
from repro.metric.distances import DistanceFunction
from repro.obs.observer import Observer, maybe_phase
from repro.obs.tracing import Tracer
from repro.parallel.decluster import DECLUSTER_STRATEGIES
from repro.service.session import QuerySession
from repro.storage.page import DEFAULT_BLOCK_SIZE


@dataclass
class _Server:
    """One shared-nothing server: a partition plus its own database."""

    server_id: int
    global_indices: np.ndarray
    database: Database

    def to_global(self, answers: list[Answer]) -> list[Answer]:
        """Translate local answer indices to global dataset indices."""
        return [
            Answer(int(self.global_indices[a.index]), a.distance) for a in answers
        ]


def _block_key(db_indices: Sequence[int] | None, position: int) -> Any:
    """Buffer key of the query at ``position`` (stable per block)."""
    if db_indices is not None:
        return ("parallel", int(db_indices[position]))
    return ("parallel-pos", position)


@dataclass
class _Block:
    """One parallel multiple-query block."""

    objs: list[Any]
    qtypes: list[QueryType]
    db_indices: list[int] | None
    seed_radius: list[float] | None

    def key(self, position: int) -> Any:
        """Buffer key of the query at ``position`` (stable per block)."""
        return _block_key(self.db_indices, position)


@dataclass
class ParallelRun:
    """Result of one parallel multiple similarity query."""

    answers: list[list[Answer]]
    per_server: list[MeasuredRun]
    #: Measured per-server wall-clock seconds (``backend="process"``
    #: only; ``None`` for the modelled backend).
    wall_seconds: list[float] | None = field(default=None)

    @property
    def elapsed_io_seconds(self) -> float:
        """Modelled elapsed I/O time (slowest server)."""
        return max(run.io_seconds for run in self.per_server)

    @property
    def elapsed_cpu_seconds(self) -> float:
        """Modelled elapsed CPU time (slowest server)."""
        return max(run.cpu_seconds for run in self.per_server)

    @property
    def elapsed_seconds(self) -> float:
        """Modelled elapsed total time (slowest server, I/O + CPU)."""
        return max(run.total_seconds for run in self.per_server)

    @property
    def aggregate_seconds(self) -> float:
        """Total work across all servers (for efficiency analyses)."""
        return sum(run.total_seconds for run in self.per_server)

    @property
    def elapsed_wall_seconds(self) -> float:
        """Measured elapsed wall-clock time (slowest server).

        Only available for ``backend="process"`` runs.
        """
        if self.wall_seconds is None:
            raise ValueError(
                "wall-clock times are only measured with backend='process'"
            )
        return max(self.wall_seconds)

    @property
    def skew(self) -> float:
        """Per-server load imbalance: slowest / mean modelled seconds.

        1.0 means perfectly balanced servers; the parallel speed-up of
        Sec. 5.3 degrades by exactly this factor, since elapsed time is
        the slowest server while work is the sum.  Returns 1.0 when no
        server did measurable work.
        """
        return _skew([run.total_seconds for run in self.per_server])

    @property
    def wall_skew(self) -> float:
        """Measured wall-clock skew (``backend="process"`` only)."""
        if self.wall_seconds is None:
            raise ValueError(
                "wall-clock times are only measured with backend='process'"
            )
        return _skew(self.wall_seconds)


def _skew(values: Sequence[float]) -> float:
    """max/mean of per-server times; 1.0 for empty or all-zero input."""
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    if mean <= 0.0:
        return 1.0
    return max(values) / mean


def _slice_dataset(dataset: Dataset, indices: np.ndarray) -> Dataset:
    labels = dataset.labels[indices] if dataset.labels is not None else None
    if isinstance(dataset, VectorDataset):
        return VectorDataset(dataset.vectors[indices], labels=labels)
    return GenericDataset(dataset.batch(indices), labels=labels)


# ----------------------------------------------------------------------
# Shared per-server block logic (both backends)
# ----------------------------------------------------------------------


def _admit_block(
    database: Database, payload: dict[str, Any], keys: list[Any]
) -> tuple[QuerySession, dict[int, float]]:
    """Phase 1 of one server's block: admit, seed, warm home queries.

    Opens a fresh session over ``database``, submits every query of the
    block, applies matrix seeding and explicit radius seeds, then warms
    the queries *homed* at this server (``payload["home_positions"]``)
    on their best local page.  Returns the session and the home
    candidate bounds to broadcast (position -> radius) -- each bound is
    sound for the merged result because home candidates are global
    candidates, so their k-th distance bounds the global k-th-NN
    distance.
    """
    session = database.session(
        use_avoidance=payload["use_avoidance"],
        seed_from_queries=payload["db_indices"] is not None,
    )
    for position, (obj, qtype) in enumerate(
        zip(payload["objs"], payload["qtypes"])
    ):
        session.submit(
            obj,
            qtype,
            key=keys[position],
            db_index=(
                payload["db_indices"][position]
                if payload["db_indices"] is not None
                else None
            ),
        )
    if payload["db_indices"] is not None:
        session.seed_radius_hints(keys)
    if payload["seed_radius"] is not None:
        for key, radius in zip(keys, payload["seed_radius"]):
            session.bound_radius(key, float(radius))
    bounds: dict[int, float] = {}
    for position in payload["home_positions"]:
        if not payload["qtypes"][position].adapts_radius:
            continue
        session.warm_up([keys[position]])
        radius = session.radius(keys[position])
        if radius < float("inf"):
            bounds[position] = radius
    return session, bounds


def _recover_block(
    database: Database,
    injector: FaultInjector,
    server_id: int,
    n_servers: int,
    counters_snapshot: Counters,
    disk_state: dict[str, Any],
    fn: Callable[[], Any],
    retry_fn: Callable[[], Any] | None = None,
) -> Any:
    """Run one server's block phase under crash/straggler recovery.

    On a :class:`~repro.faults.FaultError` the server's mutable state is
    rolled back to the phase-entry snapshot (counters, buffer pool, disk
    head) and the phase replayed via ``retry_fn`` (default: ``fn``) --
    the re-dispatch of the failed partition to the survivor
    ``(server_id + 1) % n_servers``, which processes the partition's
    replica deterministically.  The replay starts from the same state
    the fault-free run would have had, so its answers and counters are
    byte-identical; the fault schedule itself is *not* rewound (the
    plan's RNG streams advance past the fault), exactly as a survivor
    would see fresh I/O outcomes.  Bounded by the injector's
    :class:`~repro.faults.RetryPolicy`; an exhausted budget re-raises
    the last fault.
    """
    injector.begin_block()
    attempt = 0
    while True:
        try:
            if attempt == 0:
                return fn()
            return (retry_fn or fn)()
        except FaultError as fault:
            attempt += 1
            if not injector.policy.allows(attempt):
                raise
            survivor = (server_id + 1) % max(1, n_servers)
            injector.record_redispatch(
                server_id, survivor, type(fault).__name__
            )
            database.counters.restore(counters_snapshot)
            database.disk.restore_state(disk_state)
            injector.begin_block()


# ----------------------------------------------------------------------
# Process-backend worker side
# ----------------------------------------------------------------------
#
# Each simulated server is pinned to its own single-worker
# ProcessPoolExecutor, so consecutive tasks for one server run in the
# same OS process and can reuse per-server state cached here: the
# partition's database (index build happens once) and, between the two
# phases of one block, the admitted query session.

#: Per-process cache: ``(shm_name, server_id) -> {"database", "block"}``.
_WORKER_STATE: dict[tuple[str, int], dict[str, Any]] = {}


def _worker_server(setup: dict[str, Any]) -> dict[str, Any]:
    """Return (building on first use) this process's server state."""
    key = (setup["shm_name"], setup["server_id"])
    state = _WORKER_STATE.get(key)
    if state is None:
        shm = shared_memory.SharedMemory(name=setup["shm_name"])
        try:
            vectors = np.ndarray(
                setup["shape"], dtype=setup["dtype"], buffer=shm.buf
            )
            partition = np.array(vectors[setup["global_indices"]])
        finally:
            shm.close()
        database = Database(
            partition,
            metric=setup["metric"],
            access=setup["access"],
            block_size=setup["block_size"],
            buffer_fraction=setup["buffer_fraction"],
            engine=setup["engine"],
            index_options=setup["index_options"],
        )
        if setup.get("fault_plan") is not None:
            # The worker re-derives the same per-(spec, site) RNG
            # streams from the plan's seed, so the process backend
            # injects exactly the faults the model backend would.
            policy = (
                RetryPolicy.from_dict(setup["retry"])
                if setup.get("retry") is not None
                else None
            )
            database.inject_faults(
                setup["fault_plan"],
                site=f"server:{setup['server_id']}",
                policy=policy,
            )
        state = {"database": database, "block": None}
        _WORKER_STATE[key] = state
    return state


def _block_keys(db_indices: list[int] | None, n: int) -> list[Any]:
    return [_block_key(db_indices, position) for position in range(n)]


#: Span-id stride separating worker tracers: worker ``s`` allocates ids
#: from ``(s + 1) * _WORKER_ID_BASE``, so merged records never collide
#: with each other or with the parent tracer's ids.
_WORKER_ID_BASE = 1_000_000_000


def _worker_block_observer(
    state: dict[str, Any], setup: dict[str, Any], trace: dict[str, Any] | None
) -> Observer | None:
    """This worker's observer, bound to one block's trace context.

    Built lazily on the first traced block (and cached with the server
    state, so the instrumented database persists across blocks); with no
    trace context the worker stays completely uninstrumented.  The
    tracer carries the caller's ``trace_id``, this server's id and a
    disjoint span-id range, and adopts the caller's ``parent_span_id``
    as the parent of its top-level spans -- the cross-process causal
    link the provenance builder follows.
    """
    if trace is None:
        return None
    observer = state.get("observer")
    if observer is None:
        server_id = setup["server_id"]
        tracer = Tracer(
            enabled=True,
            server_id=server_id,
            id_base=(server_id + 1) * _WORKER_ID_BASE,
        )
        observer = Observer(tracer=tracer)
        state["observer"] = observer
        state["database"].attach_observer(observer)
    observer.tracer.trace_id = trace.get("trace_id")
    observer.tracer.root_parent_id = trace.get("parent_span_id")
    return observer


def _worker_phase1(
    setup: dict[str, Any], payload: dict[str, Any]
) -> dict[int, float]:
    """Admit a block and warm up the queries homed at this server.

    Returns the home candidate bounds to broadcast (position -> radius);
    the admitted session is cached for :func:`_worker_phase2`.  With a
    fault plan armed, a crash or straggler timeout during admission or
    warm-up is recovered worker-side by rolling back and replaying the
    phase (see :func:`_recover_block`).
    """
    state = _worker_server(setup)
    database = state["database"]
    observer = _worker_block_observer(state, setup, payload.get("trace"))
    injector = database.fault_injector
    start = time.perf_counter()
    snapshot = database.counters.copy()
    keys = _block_keys(payload["db_indices"], len(payload["objs"]))
    with maybe_phase(observer, "worker.phase1", server=setup["server_id"]):
        if injector is None:
            disk_state = None
            stats_before = None
            session, bounds = _admit_block(database, payload, keys)
        else:
            disk_state = database.disk.snapshot_state()
            stats_before = injector.stats()
            session, bounds = _recover_block(
                database,
                injector,
                setup["server_id"],
                setup["n_servers"],
                snapshot,
                disk_state,
                lambda: _admit_block(database, payload, keys),
            )
    state["block"] = {
        "session": session,
        "payload": payload,
        "keys": keys,
        "snapshot": snapshot,
        "disk_state": disk_state,
        "stats_before": stats_before,
        "observer": observer,
        "wall": time.perf_counter() - start,
    }
    return bounds


def _worker_phase2(
    setup: dict[str, Any], foreign_bounds: dict[int, float]
) -> tuple[
    list[list[tuple[int, float]]],
    dict[str, int],
    float,
    dict[str, int] | None,
    list[dict[str, Any]] | None,
]:
    """Apply broadcast bounds, run the block, return global answers.

    Returns ``(answers, counters, wall_seconds, fault_stats, trace)``
    where ``answers`` maps each query position to ``(global_index,
    distance)`` pairs, ``counters`` / ``wall_seconds`` cover both phases
    of this block, ``fault_stats`` is the worker injector's per-block
    stats delta (``None`` without a fault plan) for the parent to
    absorb, and ``trace`` is this worker's drained span/event records
    (``None`` without a trace context) for the parent tracer to absorb
    into the shared causal tree.

    With a fault plan armed, a crash mid-run is recovered by rolling the
    partition back to the *block entry* state and replaying phase 1 plus
    the run -- the survivor re-derives the admission, the home bounds
    (deterministically identical) and the answers from scratch.
    """
    state = _WORKER_STATE[(setup["shm_name"], setup["server_id"])]
    block = state["block"]
    database = state["database"]
    observer = block["observer"]
    injector = database.fault_injector
    payload = block["payload"]
    keys = block["keys"]
    start = time.perf_counter()

    def run(session: QuerySession) -> list[list[Answer]]:
        for position, bound in foreign_bounds.items():
            session.bound_radius(keys[position], float(bound))
        return session.run(
            payload["objs"],
            payload["qtypes"],
            keys=keys,
            db_indices=payload["db_indices"],
        )

    with maybe_phase(observer, "worker.phase2", server=setup["server_id"]):
        if injector is None:
            results = run(block["session"])
            fault_stats: dict[str, int] | None = None
        else:

            def replay() -> list[list[Answer]]:
                session, _ = _admit_block(database, payload, keys)
                return run(session)

            results = _recover_block(
                database,
                injector,
                setup["server_id"],
                setup["n_servers"],
                block["snapshot"],
                block["disk_state"],
                lambda: run(block["session"]),
                replay,
            )
            fault_stats = FaultInjector.stats_delta(
                injector.stats(), block["stats_before"]
            )
    wall = block["wall"] + (time.perf_counter() - start)
    counters = database.counters.diff(block["snapshot"]).as_dict()
    global_indices = setup["global_indices"]
    answers = [
        [(int(global_indices[a.index]), a.distance) for a in result]
        for result in results
    ]
    trace_records: list[dict[str, Any]] | None = None
    if observer is not None:
        trace_records = observer.tracer.records()
        observer.tracer.clear()
    state["block"] = None
    return answers, counters, wall, fault_stats, trace_records


class ParallelDatabase:
    """A metric database declustered over ``n_servers`` servers.

    Parameters mirror :class:`~repro.core.database.Database`; the extra
    ``decluster`` parameter picks the partitioning strategy
    (``"round_robin"``, ``"random"``, ``"hash"``, ``"range"``).

    ``fault_plan`` (optional :class:`~repro.faults.FaultPlan` or its
    dict form) arms every server's disk with a fault gate at site
    ``"server:<id>"`` and enables crash/straggler re-dispatch recovery
    on both backends; ``retry_policy`` overrides the plan's embedded
    :class:`~repro.faults.RetryPolicy`.  See the module docstring.
    """

    def __init__(
        self,
        data: Dataset | np.ndarray | Sequence[Any],
        n_servers: int,
        metric: str | DistanceFunction = "euclidean",
        access: str = "scan",
        decluster: str = "round_robin",
        block_size: int = DEFAULT_BLOCK_SIZE,
        buffer_fraction: float = 0.1,
        engine: str = "auto",
        index_options: dict[str, Any] | None = None,
        observer: Any = None,
        fault_plan: Any = None,
        retry_policy: RetryPolicy | None = None,
    ):
        self.dataset = as_dataset(data)
        #: Optional :class:`~repro.obs.Observer`: per-server ``worker.run``
        #: events, modelled/wall latency histograms and the skew gauge.
        self.observer = observer
        try:
            strategy = DECLUSTER_STRATEGIES[decluster]
        except KeyError:
            known = ", ".join(sorted(DECLUSTER_STRATEGIES))
            raise ValueError(
                f"unknown decluster strategy {decluster!r}; known: {known}"
            )
        partitions = strategy(len(self.dataset), n_servers)
        self.n_servers = n_servers
        self._worker_config = {
            "metric": metric,
            "access": access,
            "block_size": block_size,
            "buffer_fraction": buffer_fraction,
            "engine": engine,
            "index_options": dict(index_options) if index_options else None,
        }
        self._shm: shared_memory.SharedMemory | None = None
        self._pools: list[ProcessPoolExecutor] | None = None
        self._setups: list[dict[str, Any]] | None = None
        self.servers = [
            _Server(
                server_id=s,
                global_indices=np.asarray(part, dtype=np.intp),
                database=Database(
                    _slice_dataset(self.dataset, np.asarray(part, dtype=np.intp)),
                    metric=metric,
                    access=access,
                    block_size=block_size,
                    buffer_fraction=buffer_fraction,
                    engine=engine,
                    index_options=dict(index_options) if index_options else None,
                ),
            )
            for s, part in enumerate(partitions)
        ]
        self._home_server: dict[int, int] = {}
        self._local_index: dict[int, int] = {}
        for server in self.servers:
            for local, global_index in enumerate(server.global_indices):
                self._home_server[int(global_index)] = server.server_id
                self._local_index[int(global_index)] = local
        if observer is not None:
            for server in self.servers:
                # Attach directly rather than via ``attach_observer``:
                # per-server cost/buffer collectors would collide in the
                # shared registry, but the session/engine/access-method
                # instrumentation (spans, events) nests under the shared
                # tracer so every server's page work lands in one tree.
                server.database.observer = observer
                server.database.access_method.observer = observer
        self.fault_injector: FaultInjector | None = None
        if fault_plan is not None:
            self.fault_injector = FaultInjector(
                fault_plan, policy=retry_policy, observer=observer
            )
            for server in self.servers:
                server.database.fault_injector = self.fault_injector
                server.database.disk.faults = self.fault_injector.gate(
                    f"server:{server.server_id}"
                )

    def cold(self) -> None:
        """Clear every server's buffer."""
        for server in self.servers:
            server.database.cold()

    # ------------------------------------------------------------------
    # Process backend lifecycle
    # ------------------------------------------------------------------

    def _ensure_process_backend(self) -> None:
        """Lazily create the shared-memory segment and worker pools."""
        if self._pools is not None:
            return
        if not self.dataset.is_vector:
            raise ValueError("backend='process' requires a vector dataset")
        vectors = np.ascontiguousarray(self.dataset.vectors, dtype=float)
        shm = shared_memory.SharedMemory(create=True, size=vectors.nbytes)
        np.ndarray(vectors.shape, dtype=vectors.dtype, buffer=shm.buf)[:] = vectors
        self._shm = shm
        injector = self.fault_injector
        self._setups = [
            {
                "shm_name": shm.name,
                "server_id": server.server_id,
                "n_servers": self.n_servers,
                "shape": vectors.shape,
                "dtype": str(vectors.dtype),
                "global_indices": server.global_indices,
                "fault_plan": (
                    injector.plan.to_dict() if injector is not None else None
                ),
                "retry": (
                    injector.policy.to_dict() if injector is not None else None
                ),
                **self._worker_config,
            }
            for server in self.servers
        ]
        # One single-worker pool per server pins each simulated server
        # to one OS process, so its index and LRU buffer persist there.
        self._pools = [
            ProcessPoolExecutor(max_workers=1) for _ in self.servers
        ]

    def close(self) -> None:
        """Shut down worker processes and release the shared memory."""
        if self._pools is not None:
            for pool in self._pools:
                pool.shutdown(wait=False, cancel_futures=True)
            self._pools = None
            self._setups = None
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None

    def __enter__(self) -> "ParallelDatabase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - best effort
        try:
            self.close()
        except Exception:
            pass

    def multiple_similarity_query(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        block_size: int | None = None,
        use_avoidance: bool = True,
        seed_radius: Sequence[float] | None = None,
        db_indices: Sequence[int] | None = None,
        share_home_bounds: bool = True,
        backend: str = "model",
    ) -> ParallelRun:
        """Process a batch of queries on all servers and merge.

        ``block_size`` bounds the per-server multiple-query block (the
        paper uses ``m * s`` for the whole batch, i.e. one block);
        ``seed_radius`` optionally supplies a per-query upper bound on
        the final query distance, and ``db_indices`` (global dataset
        indices) enables radius seeding from the query distance matrix
        plus, with ``share_home_bounds``, the home-server candidate-bound
        broadcast.  Both only suppress local answers provably outside the
        global top-k, so the merged answers are unaffected.

        ``backend`` selects sequential in-process execution with
        modelled elapsed time (``"model"``, the default) or true
        multi-core execution on one worker process per server
        (``"process"``), which additionally measures per-server
        wall-clock seconds (:attr:`ParallelRun.wall_seconds`).  Answers
        and counters are identical across backends.
        """
        if isinstance(qtypes, QueryType):
            qtypes = [qtypes] * len(query_objs)
        qtypes = list(qtypes)
        if len(qtypes) != len(query_objs):
            raise ValueError("need one query type per query object")
        if db_indices is not None and len(db_indices) != len(query_objs):
            raise ValueError("need one dataset index per query object")
        if backend not in ("model", "process"):
            raise ValueError(f"unknown backend {backend!r}")
        effective_block = block_size if block_size is not None else len(query_objs)
        if effective_block < 1:
            raise ValueError("block size must be positive")
        if backend == "process":
            self._ensure_process_backend()
            totals = [Counters() for _ in self.servers]
            walls = [0.0 for _ in self.servers]
        else:
            snapshots = [server.database.counters.copy() for server in self.servers]
        timeline = self.observer.timeline if self.observer is not None else None

        per_server_answers: list[list[list[Answer]]] = [[] for _ in self.servers]
        for start in range(0, len(query_objs), effective_block):
            stop = start + effective_block
            block = _Block(
                objs=list(query_objs[start:stop]),
                qtypes=qtypes[start:stop],
                db_indices=(
                    list(db_indices[start:stop]) if db_indices is not None else None
                ),
                seed_radius=(
                    list(seed_radius[start:stop])
                    if seed_radius is not None
                    else None
                ),
            )
            with maybe_phase(
                self.observer,
                "parallel.block",
                backend=backend,
                size=len(block.objs),
                offset=start,
            ) as block_phase:
                if backend == "process":
                    outcome = self._run_block_process(
                        block,
                        use_avoidance,
                        share_home_bounds,
                        self._trace_context(block_phase),
                    )
                    for s, (
                        answers,
                        counter_dict,
                        wall,
                        fault_stats,
                        trace_records,
                    ) in enumerate(outcome):
                        per_server_answers[s].extend(
                            [Answer(index, distance) for index, distance in result]
                            for result in answers
                        )
                        totals[s].add(Counters(**counter_dict))
                        walls[s] += wall
                        if fault_stats and self.fault_injector is not None:
                            self.fault_injector.absorb(fault_stats)
                        if trace_records and self.observer is not None:
                            self.observer.tracer.absorb(trace_records)
                        if timeline is not None:
                            # The worker's per-block counter delta is
                            # already the picklable dict the timeline
                            # wants -- the same path the fault stats
                            # take home.
                            timeline.record_block(counter_dict, server_id=s)
                else:
                    if timeline is not None:
                        block_snapshots = [
                            server.database.counters.copy()
                            for server in self.servers
                        ]
                    block_results = self._run_block(
                        block, use_avoidance, share_home_bounds
                    )
                    for s, local in enumerate(block_results):
                        per_server_answers[s].extend(
                            self.servers[s].to_global(result) for result in local
                        )
                        if timeline is not None:
                            timeline.record_block(
                                self.servers[s]
                                .database.counters.diff(block_snapshots[s])
                                .as_dict(),
                                server_id=s,
                            )
            if timeline is not None:
                # No scheduler clock here either: one tick per block,
                # matching ``run_in_blocks``.
                timeline.advance()

        if backend == "process":
            per_server_runs = [
                MeasuredRun(totals[s], server.database.cost_model)
                for s, server in enumerate(self.servers)
            ]
            wall_seconds: list[float] | None = walls
        else:
            per_server_runs = [
                MeasuredRun(
                    server.database.counters.diff(snapshot),
                    server.database.cost_model,
                )
                for server, snapshot in zip(self.servers, snapshots)
            ]
            wall_seconds = None
        merged = [
            self._merge(
                qtypes[q],
                [per_server_answers[s][q] for s in range(self.n_servers)],
            )
            for q in range(len(query_objs))
        ]
        run = ParallelRun(
            answers=merged, per_server=per_server_runs, wall_seconds=wall_seconds
        )
        if self.observer is not None:
            self._observe_run(run, backend)
        return run

    def _observe_run(self, run: ParallelRun, backend: str) -> None:
        """Report one parallel query to the attached observer.

        Emits one ``worker.run`` event per server (modelled seconds,
        counters headline, measured wall seconds on the process
        backend), feeds the per-server latency histograms, and sets the
        skew gauges -- the per-server imbalance the Sec. 5.3 speed-up
        divides by.
        """
        observer = self.observer
        for s, server_run in enumerate(run.per_server):
            attrs: dict[str, Any] = {
                "server": s,
                "backend": backend,
                "modelled_seconds": server_run.total_seconds,
                "page_reads": server_run.counters.page_reads,
                "distance_calculations": server_run.counters.distance_calculations,
                "queries_completed": server_run.counters.queries_completed,
            }
            observer.metrics.observe(
                "server.modelled_seconds", server_run.total_seconds
            )
            if run.wall_seconds is not None:
                attrs["wall_seconds"] = run.wall_seconds[s]
                observer.metrics.observe("server.wall_seconds", run.wall_seconds[s])
            observer.event("worker.run", **attrs)
        observer.metrics.set_gauge("parallel.skew", run.skew)
        if run.wall_seconds is not None:
            observer.metrics.set_gauge("parallel.wall_skew", run.wall_skew)

    def _trace_context(self, block_phase: Any) -> dict[str, Any] | None:
        """Trace context shipped to workers for one block, or ``None``.

        Only produced when the attached observer is actively tracing:
        carries the parent's ``trace_id`` and the ``parallel.block``
        span id, which worker tracers adopt as the parent of their
        top-level spans (see :func:`_worker_block_observer`).
        """
        observer = self.observer
        if observer is None or not observer.tracer.enabled:
            return None
        return {
            "trace_id": observer.tracer.trace_id,
            "parent_span_id": getattr(block_phase, "span_id", None),
        }

    def _run_block_process(
        self,
        block: _Block,
        use_avoidance: bool,
        share_home_bounds: bool,
        trace_context: dict[str, Any] | None = None,
    ) -> list[
        tuple[
            list[list[tuple[int, float]]],
            dict[str, int],
            float,
            dict[str, int] | None,
            list[dict[str, Any]] | None,
        ]
    ]:
        """One block on the process backend (true multi-core execution).

        Phase 1 admits the block on every server concurrently and warms
        the queries homed at each server; the gathered candidate bounds
        are then broadcast and phase 2 runs the block to completion on
        all servers concurrently.  The ``result()`` barrier between the
        phases is the (cost-neglected) broadcast synchronisation point.
        """
        assert self._pools is not None and self._setups is not None
        home_positions = self._home_positions(block, share_home_bounds)
        payload = {
            "objs": block.objs,
            "qtypes": block.qtypes,
            "db_indices": block.db_indices,
            "seed_radius": block.seed_radius,
            "use_avoidance": use_avoidance,
            "trace": trace_context,
        }
        phase1 = [
            pool.submit(
                _worker_phase1,
                setup,
                {**payload, "home_positions": home_positions[s]},
            )
            for s, (pool, setup) in enumerate(zip(self._pools, self._setups))
        ]
        bounds: dict[int, float] = {}
        for future in phase1:
            bounds.update(future.result())
        phase2: list[Any] = []
        for s, (pool, setup) in enumerate(zip(self._pools, self._setups)):
            foreign = {
                position: bound
                for position, bound in bounds.items()
                if position not in home_positions[s]
            }
            phase2.append(pool.submit(_worker_phase2, setup, foreign))
        return [future.result() for future in phase2]

    def _home_positions(
        self, block: _Block, share_home_bounds: bool
    ) -> list[list[int]]:
        """Block positions homed at each server (bound-broadcast phase 1)."""
        home_positions: list[list[int]] = [[] for _ in self.servers]
        if share_home_bounds and block.db_indices is not None:
            for position, global_index in enumerate(block.db_indices):
                home = self._home_server.get(int(global_index))
                if home is not None:
                    home_positions[home].append(position)
        return home_positions

    def _run_block(
        self,
        block: _Block,
        use_avoidance: bool,
        share_home_bounds: bool,
    ) -> list[list[list[Answer]]]:
        """One parallel multiple similarity query over all servers.

        The same two phases as the process backend, run sequentially:
        phase 1 admits the block on every server and warms the queries
        homed there (the coordinated parallel k-NN after [1] -- home
        candidates are global candidates, so their k-th distance bounds
        the global k-th-NN distance); the gathered bounds are broadcast
        and phase 2 runs each server's block to completion.  With a
        fault plan armed, each server phase runs under
        :func:`_recover_block`: a crash or straggler timeout rolls the
        partition back and replays the phase as the survivor's
        re-dispatch.
        """
        keys = [block.key(p) for p in range(len(block.objs))]
        home_positions = self._home_positions(block, share_home_bounds)
        injector = self.fault_injector
        payloads = [
            {
                "objs": block.objs,
                "qtypes": block.qtypes,
                "db_indices": block.db_indices,
                "seed_radius": block.seed_radius,
                "use_avoidance": use_avoidance,
                "home_positions": home_positions[s],
            }
            for s in range(self.n_servers)
        ]
        snapshots: list[tuple[Counters, dict[str, Any]] | None] = [
            None
        ] * self.n_servers
        if injector is not None:
            snapshots = [
                (
                    server.database.counters.copy(),
                    server.database.disk.snapshot_state(),
                )
                for server in self.servers
            ]

        sessions: list[QuerySession] = [None] * self.n_servers  # type: ignore[list-item]
        bounds: dict[int, float] = {}

        def phase1(s: int) -> dict[int, float]:
            session, server_bounds = _admit_block(
                self.servers[s].database, payloads[s], keys
            )
            sessions[s] = session
            return server_bounds

        for s in range(self.n_servers):
            if injector is None:
                server_bounds = phase1(s)
            else:
                snapshot = snapshots[s]
                assert snapshot is not None
                server_bounds = _recover_block(
                    self.servers[s].database,
                    injector,
                    s,
                    self.n_servers,
                    snapshot[0],
                    snapshot[1],
                    lambda s=s: phase1(s),
                )
            bounds.update(server_bounds)

        def phase2(s: int) -> list[list[Answer]]:
            session = sessions[s]
            for position, bound in bounds.items():
                if position in payloads[s]["home_positions"]:
                    continue
                session.bound_radius(keys[position], bound)
            return session.run(
                block.objs,
                block.qtypes,
                keys=keys,
                db_indices=block.db_indices,
            )

        results: list[list[list[Answer]]] = []
        for s in range(self.n_servers):
            if injector is None:
                results.append(phase2(s))
            else:
                snapshot = snapshots[s]
                assert snapshot is not None

                def replay(s: int = s) -> list[list[Answer]]:
                    phase1(s)
                    return phase2(s)

                results.append(
                    _recover_block(
                        self.servers[s].database,
                        injector,
                        s,
                        self.n_servers,
                        snapshot[0],
                        snapshot[1],
                        lambda s=s: phase2(s),
                        replay,
                    )
                )
        return results

    @staticmethod
    def _merge(qtype: QueryType, per_server: list[list[Answer]]) -> list[Answer]:
        union = [answer for answers in per_server for answer in answers]
        union.sort(key=lambda a: (a.distance, a.index))
        if qtype.adapts_radius:
            return union[: qtype.k]
        return union

    def summary(self) -> dict[str, Any]:
        """Structural summary of the cluster."""
        return {
            "servers": self.n_servers,
            "objects": len(self.dataset),
            "per_server": [len(s.database) for s in self.servers],
            "access": self.servers[0].database.access_method.name,
        }
