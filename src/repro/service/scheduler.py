"""Work-conserving batching of similarity queries from concurrent clients.

Sec. 3.3 of the paper argues that once the multiple similarity query
exists as a DBMS operator, "a query optimizer can automatically use"
it -- queries arriving independently should be *formed into blocks* by
the system, not by every caller hand-rolling ``run_in_blocks``.
:class:`QueryScheduler` is that optimizer stage.  It batches because it
is busy and never waits in order to batch:

* clients :meth:`~QueryScheduler.submit` single queries and receive a
  :class:`Ticket`; submitting only enqueues (beyond ``max_queue``
  waiting tickets it first runs blocks to make room);
* every :meth:`~QueryScheduler.poll` runs one block now through a
  :class:`~repro.service.session.QuerySession`: the oldest queued
  tickets, up to the *block cap*.  An executor that polls whenever the
  queue is non-empty therefore runs a lone ticket alone (m = 1), and a
  block holds exactly the tickets that arrived while the previous one
  ran -- more of them the busier the server;
* the cap comes from the :class:`~repro.core.planner.QueryPlanner` cost
  fits when available: ``cost(m) = shared/m + marginal`` flattens
  quickly, so the scheduler picks the knee point -- the smallest m
  within ``tolerance`` of the asymptotic per-query cost -- rather than
  batching without bound; anomaly firings halve it;
* the *driver* of each block is always the oldest ticket (FIFO -- no
  client starves); with ``order="affinity"`` the remaining queries are
  arranged in a greedy nearest-neighbour chain starting from the
  driver, keeping the query-distance matrix entries small so the
  Lemma 1/2 avoidance bounds stay tight.  Ordering uses *uncounted*
  distances: it is planning work, not query work, and answers are
  independent of block order.

Time is a **logical tick clock** advanced on every submit/poll, so
scheduling decisions are a pure function of the call sequence --
deterministic and testable, with wall-clock latency reported only
through the observer metrics (``service.client_latency.seconds``,
``service.time_to_first_answer.seconds``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Mapping, Sequence

from repro.core.answers import Answer
from repro.core.planner import (
    DEFAULT_KNEE_TOLERANCE as _DEFAULT_KNEE_TOLERANCE,
)
from repro.core.planner import knee_block_size
from repro.core.types import QueryType
from repro.faults.errors import FaultError
from repro.obs.audit import PlanAudit
from repro.service.session import (
    DegradedAnswerEvent,
    QueryCompleted,
    QuerySession,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.planner import CostFit, PartitionPlan

ORDER_FIFO = "fifo"
ORDER_AFFINITY = "affinity"

#: Optimizer modes: v1 is the paper's single knee-point batcher (one
#: block cap, one engine, one access method); v2 partitions each
#: block by predicted sharing and dispatches every partition under its
#: own :class:`~repro.core.planner.BatchPlan` entry.
OPTIMIZER_V1 = "v1"
OPTIMIZER_V2 = "v2"

#: Relative slack used for the knee-point block cap (re-exported from
#: :mod:`repro.core.planner`, where the knee computation lives).
DEFAULT_KNEE_TOLERANCE = _DEFAULT_KNEE_TOLERANCE

#: Hysteresis threshold for anomaly back-off release: after an anomaly
#: halved the block cap, a knee-point refit may only *raise* it
#: again once the ``planner.calibration_drift`` EWMA has been observed
#: (on at least one post-back-off audited block) below this ratio.
DEFAULT_DRIFT_RECOVERY = 1.5

#: Bucket bounds of the ``service.completeness`` histogram (a fraction
#: in [0, 1], not a latency; the SLO engine reads its buckets).
COMPLETENESS_BOUNDS: tuple[float, ...] = tuple(k / 20 for k in range(21))


def recommend_access(fits: Sequence["CostFit"], block_size: int) -> str:
    """Cheapest access method among ``fits`` at a given block size."""
    if not fits:
        raise ValueError("need at least one cost fit")
    best = min(fits, key=lambda fit: fit.per_query(block_size))
    return best.access


@dataclass
class Ticket:
    """One client query's handle through the scheduler.

    ``answers`` is ``None`` until the scheduler runs a block containing
    the ticket; afterwards it holds the complete answer list
    (byte-identical to a direct batch query).
    """

    client_id: Hashable
    obj: Any
    qtype: QueryType
    key: Hashable
    db_index: int | None
    submitted_tick: int
    submitted_at: float = field(repr=False, default=0.0)
    answers: list[Answer] | None = None
    completed_tick: int | None = None
    #: ``time.perf_counter()`` when the answers were filled in.
    completed_at: float = field(repr=False, default=0.0)
    batch_size: int | None = None
    #: ``True`` when recovery was exhausted and ``answers`` holds the
    #: Def. 4 partial-answer buffer contents instead of the exact list.
    degraded: bool = False
    #: Completeness bound of a degraded answer set (``None`` when exact).
    completeness: float | None = None

    @property
    def done(self) -> bool:
        """Whether the ticket's block has run."""
        return self.answers is not None


class QueryScheduler:
    """Admission queue + work-conserving batcher over one database.

    Parameters
    ----------
    database:
        The :class:`~repro.core.database.Database` to serve.
    max_block:
        Cap on the size of one block (the memory bound of Sec. 5:
        answer buffer and O(m^2) query-distance matrix).  Cost fits
        move it to their knee point, never above this value; anomaly
        back-off halves it.
    max_queue:
        Queue-pressure bound: submits beyond this depth run blocks
        immediately before admitting.
    order:
        ``"fifo"`` or ``"affinity"`` (greedy nearest-neighbour chain
        after the FIFO driver; see module docstring).
    fits:
        Optional :class:`~repro.core.planner.CostFit` sequence from a
        probe run; installs the knee-point block cap and the access
        recommendation (see :meth:`replan`).
    optimizer:
        ``"v1"`` (one knee-point block cap, one engine and access
        method for every block) or ``"v2"`` (each block is partitioned
        by predicted sharing and every partition dispatched under its
        own plan -- access method, engine and block size are
        per-partition decisions).  For any fixed partition assignment
        the executed work is identical to v1: a v2 block that forms a
        single default partition is answer- and counter-byte-identical
        to the v1 run of the same block.
    planner:
        Optional :class:`~repro.core.planner.QueryPlanner`; with
        ``optimizer="v2"`` its probed cost surface prices each partition
        (:meth:`~repro.core.planner.QueryPlanner.plan_batch`).  Without
        one, v2 still partitions by sharing but keeps the scheduler's
        default access method and engine.
    share_bound:
        Distance bound cutting the v2 affinity chain into partitions
        (``None`` derives it per batch from the batch's own distance
        scale; ``math.inf`` forces one partition -- the v1-identical
        degenerate case).
    drift_recovery:
        Hysteresis threshold for anomaly back-off release (see
        :data:`DEFAULT_DRIFT_RECOVERY`).
    session_options:
        Extra keyword arguments for the underlying
        :class:`~repro.service.session.QuerySession` (engine,
        use_avoidance, max_pivots, matrix_mode, warm_start).
    """

    def __init__(
        self,
        database: Any,
        max_block: int = 8,
        max_queue: int = 256,
        order: str = ORDER_FIFO,
        fits: Sequence["CostFit"] | None = None,
        knee_tolerance: float = DEFAULT_KNEE_TOLERANCE,
        optimizer: str = OPTIMIZER_V1,
        planner: Any = None,
        share_bound: float | None = None,
        drift_recovery: float = DEFAULT_DRIFT_RECOVERY,
        **session_options: Any,
    ):
        if order not in (ORDER_FIFO, ORDER_AFFINITY):
            raise ValueError(f"unknown scheduling order {order!r}")
        if optimizer not in (OPTIMIZER_V1, OPTIMIZER_V2):
            raise ValueError(f"unknown optimizer {optimizer!r}")
        if max_block < 1:
            raise ValueError("max block size must be positive")
        self.database = database
        self.session = QuerySession(database, **session_options)
        self.observer = self.session.observer
        #: The live block cap: what one :meth:`poll` takes at most.
        self.max_block = max_block
        #: The constructed cap, the upper end of the knee-point search.
        self._block_bound = max_block
        self.max_queue = max_queue
        self.order = order
        self.knee_tolerance = knee_tolerance
        self.optimizer = optimizer
        self.planner = planner
        self.share_bound = share_bound
        self.drift_recovery = drift_recovery
        self.tick = 0
        self.recommended_access: str | None = None
        self._queue: list[Ticket] = []
        self._serial = 0
        self._n_flushed_blocks = 0
        self._n_degraded_sessions = 0
        #: Cost fits adopted by the last :meth:`replan(fits=...)` call;
        #: anomaly-triggered replans reuse them.
        self._fits: list["CostFit"] | None = None
        #: Block-cap halvings triggered by anomaly firings.
        self.anomaly_replans = 0
        #: Hysteresis state: ``True`` between an anomaly halving and the
        #: first audited evidence that calibration drift recovered.
        self._anomaly_backoff = False
        self._backoff_blocks = 0
        #: Plan-vs-actual audit, armed by :meth:`replan` when cost fits
        #: are supplied (see :mod:`repro.obs.audit`).
        self.audit: PlanAudit | None = None
        #: Per-plan sessions keyed by (engine, access) overrides; the
        #: default plan reuses :attr:`session`.
        self._session_options = dict(session_options)
        self._sessions: dict[tuple[str | None, str | None], QuerySession] = {}
        if self.observer is not None:
            # Publish the gauge up front so a fault-free serving episode
            # still reports "0 degraded sessions" rather than nothing.
            self.observer.metrics.set_gauge("service.degraded_sessions", 0.0)
        if fits:
            self.replan(fits)

    # ------------------------------------------------------------------
    # Planner feedback
    # ------------------------------------------------------------------

    def replan(
        self,
        fits: Sequence["CostFit"] | None = None,
        anomalies: Sequence[Mapping[str, Any]] = (),
    ) -> None:
        """Adopt planner cost fits and/or react to anomaly firings.

        With ``fits``, adopts them (knee-point block cap + access
        recommendation) and remembers them; called bare, re-plans from
        the remembered fits (raising when none were ever supplied).
        ``anomalies`` -- firing records drained from the timeline's
        :class:`~repro.obs.anomaly.AnomalyEngine` after each block -- may
        arrive with or without fits: any firing whose rule is marked
        ``replan: true`` halves the block cap (floor 1), the live
        counterpart of the knee-point logic for conditions the cost
        model cannot see (degraded tickets, throughput collapse).

        The scheduler keeps serving through its current database either
        way -- :attr:`recommended_access` is advisory, surfaced so a
        caller holding a :class:`~repro.core.planner.QueryPlanner` can
        re-home the scheduler when the recommendation diverges.
        """
        if fits is None and not anomalies:
            fits = self._fits
            if fits is None:
                raise ValueError("need at least one cost fit")
        if fits is not None:
            fits = list(fits)
            if not fits:
                raise ValueError("need at least one cost fit")
            self._fits = list(fits)
            self._replan_fits(fits)
        if anomalies:
            self._replan_anomalies(anomalies)

    def _own_fit(self, fits: Sequence["CostFit"]) -> "CostFit":
        """The fit of the served access method (else the cheapest),
        calibrated by the plan audit once it has observed blocks."""
        current = self.database.access_method.name
        own = [fit for fit in fits if fit.access == current]
        fit = own[0] if own else min(
            fits, key=lambda f: f.per_query(self._block_bound)
        )
        if self.audit is not None and self.audit.blocks_audited:
            # Consume the audit's calibration feedback: the refit (or
            # drift-scaled) curve reflects what observed blocks actually
            # cost, so the knee lands where the *measured* amortisation
            # flattens, not where the stale probe said it would.
            fit = self.audit.calibrated(fit)
        return fit

    def _replan_fits(self, fits: list["CostFit"]) -> None:
        fit = self._own_fit(fits)
        cap = knee_block_size(fit, self._block_bound, self.knee_tolerance)
        if self._anomaly_backoff and cap > self.max_block:
            # Hysteresis against halving/refit oscillation: an anomaly
            # halved the cap, so a refit may only raise it again once at
            # least one *post-back-off* block has been audited and the
            # calibration-drift EWMA sits below the recovery threshold.
            # Until then the refit keeps the backed-off cap.
            audit = self.audit
            recovered = (
                audit is not None
                and audit.blocks_audited > self._backoff_blocks
                and audit.drift_seconds is not None
                and audit.drift_seconds < self.drift_recovery
            )
            if recovered:
                self._anomaly_backoff = False
            else:
                cap = self.max_block
        self.max_block = cap
        self.recommended_access = recommend_access(fits, self.max_block)
        cost_model = getattr(self.database, "cost_model", None)
        if self.audit is None and cost_model is not None:
            self.audit = PlanAudit(fit, cost_model, self.observer)
        elif self.audit is not None:
            self.audit.fit = fit
        if self.observer is not None:
            self.observer.event(
                "service.replan",
                max_block=self.max_block,
                recommended_access=self.recommended_access,
                calibration_drift=(
                    self.audit.drift_seconds if self.audit is not None else None
                ),
            )

    def _replan_anomalies(
        self, anomalies: Sequence[Mapping[str, Any]]
    ) -> None:
        """Back off the block cap when a replan-flagged rule fired.

        One halving per replan call no matter how many rules fired
        together, so a noisy window cannot collapse the cap to 1 in a
        single step.
        """
        triggers = [f["rule"] for f in anomalies if f.get("replan")]
        if not triggers:
            return
        self.anomaly_replans += 1
        self.max_block = max(1, self.max_block // 2)
        self._anomaly_backoff = True
        self._backoff_blocks = (
            self.audit.blocks_audited if self.audit is not None else 0
        )
        if self.observer is not None:
            self.observer.metrics.inc("service.replan.anomaly")
            self.observer.event(
                "service.replan.anomaly",
                rules=",".join(triggers),
                max_block=self.max_block,
            )

    # ------------------------------------------------------------------
    # Admission and execution
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Number of tickets waiting for a block."""
        return len(self._queue)

    def submit(
        self,
        obj: Any,
        qtype: QueryType,
        client_id: Hashable = 0,
        db_index: int | None = None,
    ) -> Ticket:
        """Enqueue one client query.

        Advances the logical clock by one tick and appends the ticket to
        the queue; only when ``max_queue`` tickets already wait does it
        first run blocks to make room.  The returned ticket is filled in
        place when a :meth:`poll` runs its block.
        """
        self._advance_clock()
        while len(self._queue) >= self.max_queue:
            self._flush_block()
        self._serial += 1
        ticket = Ticket(
            client_id=client_id,
            obj=obj,
            qtype=qtype,
            key=("serve", self._serial),
            db_index=db_index,
            submitted_tick=self.tick,
            submitted_at=time.perf_counter(),
        )
        self._queue.append(ticket)
        if self.observer is not None:
            self.observer.event(
                "service.submit",
                client=str(client_id),
                tick=self.tick,
                key=str(ticket.key),
            )
            self.observer.metrics.set_gauge(
                "service.queue_depth", float(len(self._queue))
            )
        return ticket

    def poll(self) -> None:
        """Advance the clock one tick and run one block now.

        The block is the oldest queued tickets, up to :attr:`max_block`
        of them; an empty queue only advances the clock.
        """
        self._advance_clock()
        self._flush_block()

    def drain(self) -> None:
        """Poll until the queue is empty (end of the serving episode)."""
        while self._queue:
            self.poll()

    def _advance_clock(self) -> None:
        self.tick += 1
        if (
            self.observer is not None
            and self.observer.timeline is not None
        ):
            self.observer.timeline.advance(self.tick)

    def serve(
        self, requests: Sequence[tuple[Hashable, Any, QueryType]]
    ) -> list[Ticket]:
        """Submit a request trace and drain: one ticket per request.

        ``requests`` is a sequence of ``(client_id, obj, qtype)``
        triples in arrival order.  Answers land on the tickets.
        """
        tickets = [
            self.submit(obj, qtype, client_id=client_id)
            for client_id, obj, qtype in requests
        ]
        self.drain()
        return tickets

    # ------------------------------------------------------------------
    # Running a block
    # ------------------------------------------------------------------

    def _order_batch(self, batch: list[Ticket]) -> list[Ticket]:
        """Arrange a block behind its FIFO driver.

        The driver (``batch[0]``, the oldest ticket) is fixed -- that is
        the fairness guarantee.  With affinity ordering, the rest form a
        greedy nearest-neighbour chain: each next query is the one
        closest to the previous, computed with uncounted distances
        (planning work; answers do not depend on block order).
        """
        if self.order != ORDER_AFFINITY or len(batch) <= 2:
            return batch
        uncounted = self.database.space.uncounted
        remaining = batch[1:]
        chain = [batch[0]]
        while remaining:
            last = chain[-1]
            nearest = min(
                range(len(remaining)),
                key=lambda i: uncounted(last.obj, remaining[i].obj),
            )
            chain.append(remaining.pop(nearest))
        return chain

    def _plan_partitions(
        self, raw: list[Ticket]
    ) -> list[tuple[list[Ticket], "PartitionPlan"]]:
        """Form the v2 batch plan for one block.

        With a planner attached, the partitions are priced on its
        probed cost surface (per-partition access method and engine);
        without one, the batch is still partitioned by sharing but every
        partition keeps the scheduler's defaults, priced by the
        remembered replan fits when available.  Partition membership is
        decided here; *ordering within* a partition stays
        :meth:`_order_batch`'s job, so a single-partition v2 flush
        executes exactly the v1 work.
        """
        from repro.core.multi_query import query_label
        from repro.core.planner import (
            BatchPlan,
            PartitionPlan,
            partition_by_sharing,
        )

        objs = [t.obj for t in raw]
        qtypes = [t.qtype for t in raw]
        if self.planner is not None:
            plan = self.planner.plan_batch(
                objs,
                qtypes,
                max_block=self.max_block,
                share_bound=self.share_bound,
            )
        else:
            groups = partition_by_sharing(
                objs,
                self.database.space,
                share_bound=self.share_bound,
                max_partition=self.max_block,
            )
            fit = self._own_fit(self._fits) if self._fits else None
            parts = []
            total = 0.0
            for members in groups:
                m = len(members)
                predicted = fit.per_query(m) if fit is not None else 0.0
                sharing = fit.sharing_factor(m) if fit is not None else 1.0
                part = PartitionPlan(
                    members=tuple(members),
                    access=None,
                    engine=None,
                    block_size=m,
                    prefilter=getattr(self.database, "prefilter", None)
                    is not None,
                    predicted_seconds_per_query=predicted,
                    sharing_factor=sharing,
                )
                parts.append(part)
                total += part.predicted_seconds
            plan = BatchPlan(partitions=tuple(parts), predicted_seconds=total)
        observer = self.observer
        if observer is not None:
            observer.metrics.observe(
                "planner.partition.count", float(len(plan.partitions))
            )
            mean_sharing = sum(
                p.sharing_factor * p.size for p in plan.partitions
            ) / max(1, plan.n_queries)
            observer.metrics.set_gauge(
                "planner.partition.sharing_factor", mean_sharing
            )
        default_access = self.database.access_method.name
        default_engine = self.session.processor.engine_name
        result: list[tuple[list[Ticket], "PartitionPlan"]] = []
        for index, part in enumerate(plan.partitions):
            tickets = self._order_batch([raw[i] for i in part.members])
            if observer is not None:
                observer.metrics.observe(
                    "planner.partition.size", float(len(tickets))
                )
                observer.event(
                    "planner.plan",
                    block=self._n_flushed_blocks - 1,
                    partition=index,
                    size=len(tickets),
                    access=part.access or default_access,
                    engine=part.engine or default_engine,
                    block_size=part.block_size,
                    predicted_ms_per_query=(
                        part.predicted_seconds_per_query * 1000.0
                    ),
                    sharing=round(part.sharing_factor, 3),
                    queries="|".join(
                        query_label(t.key) for t in tickets
                    ),
                )
            result.append((tickets, part))
        return result

    def _session_for(self, plan: "PartitionPlan | None") -> QuerySession:
        """The session matching a partition plan's engine and access.

        The default plan (no overrides, or overrides equal to the
        scheduler's own defaults) reuses the shared :attr:`session`;
        other (engine, access) pairs get one lazily created session
        each, cached for the scheduler's lifetime.  Sessions retire all
        their keys at the end of every partition, so reuse is
        counter-equivalent to fresh sessions.
        """
        if plan is None:
            return self.session
        engine = plan.engine
        if engine == self.session.processor.engine_name:
            engine = None
        access = plan.access
        if access == self.database.access_method.name:
            access = None
        if engine is None and access is None:
            return self.session
        key = (engine, access)
        session = self._sessions.get(key)
        if session is None:
            options = dict(self._session_options)
            if engine is not None:
                options["engine"] = engine
            session = QuerySession(self.database, access=access, **options)
            self._sessions[key] = session
        return session

    def _flush_block(self) -> None:
        """Run one block of waiting tickets through its session(s).

        Exactly the repeated-call pattern of ``query_all`` -- the first
        call streamed over the whole block (recording
        time-to-first-answer), then one drained ``advance`` of the
        session's query window per remaining ticket -- so the answers
        match ``run_in_blocks`` on the same grouping,
        answer for answer and counter for counter.

        Under ``optimizer="v1"`` the whole batch is one partition on the
        shared session.  Under ``"v2"`` the batch is first partitioned
        by predicted sharing (:meth:`_plan_partitions`); each partition
        runs -- in order of its oldest member, so the FIFO fairness
        guarantee survives the re-grouping -- on a session matching its
        plan's engine and access method, with its own audit window.

        When an unrecoverable fault aborts a partition, its remaining
        tickets are completed *degraded*: partial answers from the
        Def. 4 buffer, a completeness bound, and the
        ``service.degraded_sessions`` gauge bumped -- clients always get
        their tickets back.
        """
        if not self._queue:
            return
        injector = getattr(self.database, "fault_injector", None)
        if injector is not None:
            injector.begin_block()
        raw = self._queue[: self.max_block]
        del self._queue[: len(raw)]
        observer = self.observer
        self._n_flushed_blocks += 1
        if observer is not None:
            observer.event(
                "service.flush",
                block=self._n_flushed_blocks - 1,
                size=len(raw),
                tick=self.tick,
                waited=self.tick - raw[0].submitted_tick,
            )
            observer.metrics.observe(
                "service.batch_occupancy", float(len(raw))
            )
            observer.metrics.set_gauge(
                "service.queue_depth", float(len(self._queue))
            )
        timeline = observer.timeline if observer is not None else None
        if timeline is not None:
            timeline_base = self.database.counters.copy()
        if self.optimizer == OPTIMIZER_V2:
            partitions = self._plan_partitions(raw)
        else:
            partitions = [(self._order_batch(raw), None)]
        for batch, plan in partitions:
            session = self._session_for(plan)
            audit = self.audit
            if audit is not None:
                audit.begin_block(self.database.counters)
            degraded_events, degraded_reason = self._execute_batch(
                batch, session
            )
            if degraded_reason is not None:
                self._degrade_batch(
                    batch, degraded_events, degraded_reason, session
                )
            elif audit is not None:
                # Degraded partitions are excluded: their counter delta
                # covers only the work done before the fault, which
                # would read as a spurious "plan too expensive" signal.
                audit.end_block(self.database.counters, len(batch))
            for ticket in batch:
                session.retire(ticket.key)
        if timeline is not None:
            # Degraded blocks are included here, unlike the audit: the
            # timeline records what the block actually cost, and a
            # collapsed window is exactly the signal the anomaly rules
            # watch for.
            timeline.record_block(
                self.database.counters.diff(timeline_base).as_dict()
            )
            firings = timeline.drain_anomalies()
            if firings:
                self.replan(anomalies=firings)

    def _execute_batch(
        self, batch: list[Ticket], session: QuerySession
    ) -> tuple[dict[Hashable, DegradedAnswerEvent], str | None]:
        """Run one ordered partition through ``session``, filling tickets.

        Returns the degraded-answer events and fault reason (``None``
        when every ticket completed exactly).
        """
        observer = self.observer
        objs = [t.obj for t in batch]
        qtypes = [t.qtype for t in batch]
        keys = [t.key for t in batch]
        db_indices = [t.db_index for t in batch]
        degraded_events: dict[Hashable, DegradedAnswerEvent] = {}
        degraded_reason: str | None = None
        for position, ticket in enumerate(batch):
            if position == 0:
                answers: list[Answer] = []
                for event in session.stream(objs, qtypes, keys, db_indices):
                    if isinstance(event, QueryCompleted):
                        answers = list(event.answers)
                    elif isinstance(event, DegradedAnswerEvent):
                        degraded_events[event.key] = event
                        degraded_reason = event.reason
                if degraded_reason is not None:
                    break
            else:
                try:
                    answers = session.advance()
                except FaultError as fault:
                    degraded_reason = f"{type(fault).__name__}: {fault}"
                    break
            ticket.answers = answers
            ticket.completed_tick = self.tick
            ticket.completed_at = time.perf_counter()
            ticket.batch_size = len(batch)
            if observer is not None:
                observer.metrics.inc("service.tickets.completed")
                observer.metrics.observe(
                    "service.client_latency.seconds",
                    ticket.completed_at - ticket.submitted_at,
                )
                observer.metrics.observe(
                    "service.wait.ticks",
                    float(self.tick - ticket.submitted_tick),
                )
        return degraded_events, degraded_reason

    def _degrade_batch(
        self,
        batch: list[Ticket],
        events: dict[Hashable, DegradedAnswerEvent],
        reason: str,
        session: QuerySession | None = None,
    ) -> None:
        """Complete the unfinished tickets of a faulted block, degraded."""
        if session is None:
            session = self.session
        observer = self.observer
        injector = getattr(self.database, "fault_injector", None)
        self._n_degraded_sessions += 1
        n_degraded_tickets = 0
        for ticket in batch:
            if ticket.done and not ticket.degraded:
                continue  # completed before the fault; answers are exact
            event = events.get(ticket.key)
            if event is None:
                event = session._degraded_event(ticket.key, 0, reason)
            ticket.answers = list(event.answers)
            ticket.degraded = True
            ticket.completeness = event.completeness
            ticket.completed_tick = self.tick
            ticket.completed_at = time.perf_counter()
            ticket.batch_size = len(batch)
            n_degraded_tickets += 1
            if injector is not None:
                # Degraded tickets burn the completeness error budget
                # (see the SLO engine); record the shortfall with the
                # fault accounting it stems from.
                injector.record_degraded(event.completeness)
            if observer is not None:
                observer.metrics.inc("service.tickets.degraded")
                observer.metrics.histogram(
                    "service.completeness", COMPLETENESS_BOUNDS
                ).observe(event.completeness)
        if observer is not None:
            observer.event(
                "service.degraded_block",
                block=self._n_flushed_blocks - 1,
                tickets=n_degraded_tickets,
                reason=reason,
            )
            observer.metrics.set_gauge(
                "service.degraded_sessions", float(self._n_degraded_sessions)
            )

    @property
    def degraded_sessions(self) -> int:
        """Blocks that completed in degraded mode so far."""
        return self._n_degraded_sessions

    @property
    def prefilter_stats(self) -> dict[str, float] | None:
        """Pre-filter accounting of the shared session, if one is active.

        Pass ``prefilter=...`` through the scheduler's session options
        (or enable it database-wide) to activate the tier; the snapshot
        covers every block the scheduler has flushed so far.
        """
        return self.session.prefilter_stats
