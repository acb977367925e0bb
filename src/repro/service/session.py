"""Streaming query sessions: the Def. 4 answer buffer as a public API.

Definition 4 of the paper gives the multiple similarity query
*incremental* semantics: one call must complete only the first query
(the "driver"); every other query accumulates partial answers in a
buffer that later calls restore from.  :class:`QuerySession` turns that
buffer into a first-class handle instead of an internal of
:class:`~repro.core.multi_query.MultiQueryProcessor`:

* :meth:`QuerySession.submit` admits a query into the buffer,
  :meth:`QuerySession.partial_answers` reads its accumulated partial
  answers, :meth:`QuerySession.retire` recycles its slot;
* :meth:`QuerySession.stream` is the generator face of one multiple
  similarity query: it completes the driver while *yielding its answers
  incrementally* -- an :class:`AnswerEvent` the moment index traversal
  proves an answer final, then one :class:`QueryCompleted`.  Page
  streams deliver candidate pages in non-decreasing order of a lower
  bound on the driver distance (the contract of
  :class:`~repro.index.base.PageStream`), so any current answer
  strictly below the next page's bound can never be displaced or
  preceded: the emitted prefix is stable and the concatenation of all
  events is byte-identical to the batch answer list;
* :meth:`QuerySession.ask` / :meth:`QuerySession.run` are the drained
  (batch) forms, equivalent to ``MultiQueryProcessor.process`` /
  ``query_all`` answer for answer and counter for counter;
* :meth:`QuerySession.advance` continues the last call on the batch the
  session keeps as its query window: the repeated call of Fig. 3 and
  Sec. 5.1, paying only for the new queries and the completed head.

Every execution path of the repository -- the five mining drivers,
:func:`run_in_blocks`, the shared-nothing parallel executor and the
:class:`~repro.service.scheduler.QueryScheduler` -- sits on this one
API.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Hashable, Iterator, Sequence

from repro.core.answers import Answer
from repro.core.multi_query import (
    MultiQueryProcessor,
    default_query_key,
    query_label,
)
from repro.core.types import QueryType
from repro.faults.errors import FaultError
from repro.obs.observer import maybe_phase

#: Metric name of the time-to-first-answer histogram (seconds from the
#: start of a streamed drive to its first confirmed answer).
TTFA_METRIC = "service.time_to_first_answer.seconds"


@dataclass(frozen=True)
class AnswerEvent:
    """One confirmed answer of the driving query, streamed incrementally.

    Attributes
    ----------
    key:
        Buffer key of the driving query.
    answer:
        The confirmed answer; events arrive in final answer-list order.
    rank:
        Position of the answer in the final answer list (0-based).
    pages_processed:
        Driver pages processed when the answer was confirmed.
    early:
        ``True`` when the answer was confirmed *before* the driver's
        page stream was exhausted (only possible on distance-ranked
        streams, i.e. non-sequential access methods).
    """

    key: Hashable
    answer: Answer
    rank: int
    pages_processed: int
    early: bool


@dataclass(frozen=True)
class QueryCompleted:
    """Terminal event of one streamed drive: the complete answer list."""

    key: Hashable
    answers: tuple[Answer, ...]
    pages_processed: int


@dataclass(frozen=True)
class DegradedAnswerEvent:
    """Best-effort answer of one query after recovery was exhausted.

    When an unrecoverable fault aborts a streamed drive, the session
    degrades instead of raising: one event per buffered query of the
    batch, carrying the Def. 4 partial-answer buffer contents and a
    completeness bound.  The partial answers are exactly what repeated
    calls would have restored from the buffer -- a sound *prefix
    candidate set*, not a guess.

    Attributes
    ----------
    key:
        Buffer key of the query.
    answers:
        The buffered (partial) answers at the moment of degradation.
    confirmed:
        How many leading answers were already proven final before the
        fault (the streamed prefix of the driving query; 0 for the
        other queries of the batch).
    pages_processed:
        Data pages this query had actually processed (pages dropped
        unread by the approximate pre-filter are *not* counted -- they
        were never evaluated).
    total_pages:
        Data pages of the query's candidate set: all data pages of the
        access method, minus any the approximate pre-filter removed for
        this query.  Without a pre-filter (or in its exact mode, whose
        replayed pages count as processed -- they are provably
        answer-free) this is simply the total page count.
    completeness:
        ``pages_processed / total_pages`` -- the fraction of the
        *post-filter candidate set* provably reflected in ``answers``
        (1.0 when the query had already completed).
    reason:
        Human-readable description of the unrecovered fault.
    """

    key: Hashable
    answers: tuple[Answer, ...]
    confirmed: int
    pages_processed: int
    total_pages: int
    completeness: float
    reason: str


class QuerySession:
    """Streaming multiple-similarity-query handle over one database.

    Parameters mirror :meth:`repro.core.database.Database.processor`;
    the session owns a private :class:`MultiQueryProcessor` (one answer
    buffer, one query-distance matrix) whose lifetime is the session's.

    >>> # session = database.session()
    >>> # for event in session.stream(objs, knn_query(10)):
    >>> #     ...  # AnswerEvents arrive before the block completes
    """

    def __init__(
        self,
        database: Any,
        engine: str | None = None,
        use_avoidance: bool = True,
        max_pivots: int | None = None,
        seed_from_queries: bool = False,
        matrix_mode: str = "eager",
        observer: Any = None,
        prefilter: Any = None,
        access: str | None = None,
    ):
        kwargs = {} if max_pivots is None else {"max_pivots": max_pivots}
        self.database = database
        self.processor = MultiQueryProcessor(
            database,
            engine=engine,
            use_avoidance=use_avoidance,
            seed_from_queries=seed_from_queries,
            matrix_mode=matrix_mode,
            observer=observer,
            prefilter=prefilter,
            access=access,
            **kwargs,
        )
        self.observer = self.processor.observer

    @property
    def prefilter_stats(self) -> dict[str, float] | None:
        """Snapshot of the page pre-filter accounting, if one is active.

        The stats object is shared across every processor of the same
        :class:`~repro.prefilter.PagePrefilter`; the snapshot is taken
        at call time.
        """
        prefilter = self.processor.prefilter
        if prefilter is None:
            return None
        return prefilter.stats.snapshot()

    # ------------------------------------------------------------------
    # The Def. 4 partial-answer buffer, first class
    # ------------------------------------------------------------------

    @property
    def pending(self) -> list[Hashable]:
        """Keys of the currently buffered queries, complete or not."""
        return [p.key for p in self.processor.pending_queries]

    def submit(
        self,
        obj: Any,
        qtype: QueryType,
        key: Hashable | None = None,
        db_index: int | None = None,
    ) -> Hashable:
        """Admit one query into the session buffer; returns its key.

        Submitting a key that is already buffered restores the existing
        entry (and its partial answers) instead of registering a new
        query, exactly as Def. 4 prescribes for repeated calls.
        """
        if key is None:
            key = default_query_key(obj, qtype)
        self.processor.admit(obj, qtype, key=key, db_index=db_index)
        return key

    def partial_answers(self, key: Hashable) -> list[Answer]:
        """Current buffered (partial or complete) answers of one query."""
        pending = self._lookup(key)
        return pending.answers.materialize()

    def is_complete(self, key: Hashable) -> bool:
        """Whether the buffered query has its complete answer set."""
        return self._lookup(key).complete

    def radius(self, key: Hashable) -> float:
        """Current query distance of a buffered query."""
        return self._lookup(key).radius

    def bound_radius(self, key: Hashable, bound: float) -> None:
        """Install an upper bound on a query's final query distance.

        Sound only when ``bound`` provably dominates the true k-NN
        distance (e.g. a candidate distance from another server's
        partition); it tightens page relevance and avoidance but never
        changes answers.
        """
        pending = self._lookup(key)
        if bound < pending.radius_hint:
            pending.radius_hint = float(bound)

    def seed_radius_hints(self, keys: Sequence[Hashable] | None = None) -> None:
        """Seed k-NN radius bounds from the query-distance matrix."""
        pendings = (
            self.processor.pending_queries
            if keys is None
            else [self._lookup(key) for key in keys]
        )
        self.processor.seed_radius_hints(pendings)

    def warm_up(self, keys: Sequence[Hashable] | None = None) -> None:
        """Process each query's best page to tighten its radius."""
        pendings = (
            self.processor.pending_queries
            if keys is None
            else [self._lookup(key) for key in keys]
        )
        self.processor.warm_up(pendings)

    def retire(self, key: Hashable) -> None:
        """Drop one buffered query and recycle its matrix slot."""
        self.processor.retire(key)

    def close(self) -> None:
        """Drop the whole buffer (end the session)."""
        self.processor.clear()

    def _lookup(self, key: Hashable) -> Any:
        pending = self.processor.lookup(key)
        if pending is None:
            raise KeyError(f"no query buffered under key {key!r}")
        return pending

    # ------------------------------------------------------------------
    # Execution: streamed and drained forms of Fig. 4
    # ------------------------------------------------------------------

    def stream(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> Iterator[AnswerEvent | QueryCompleted]:
        """One multiple similarity query, streamed (Def. 4).

        Admits the batch, completes the first query and yields its
        answers incrementally; the other queries accumulate partial
        answers in the session buffer.  The event sequence ends with one
        :class:`QueryCompleted` whose ``answers`` equal the batch path's
        return value exactly.

        Unlike :meth:`ask`, an unrecoverable injected fault does not
        raise here: the stream degrades, ending with one
        :class:`DegradedAnswerEvent` per buffered query instead of
        :class:`QueryCompleted`.
        """
        try:
            driver, others = self.processor.prepare(
                query_objs, qtypes, keys, db_indices
            )
        except FaultError as fault:
            # Only the warm-up reads pages, so the whole batch is in the
            # window when a fault strikes.
            return self._degraded_events(self.processor.window, 0, fault)
        return self._stream_drive(driver, others)

    def _stream_drive(
        self, driver: Any, others: Sequence[Any]
    ) -> Iterator[AnswerEvent | QueryCompleted]:
        processor = self.processor
        observer = self.observer
        # Sequential access methods stream pages in physical order, not
        # distance order, so no answer is provably final before the
        # stream ends; confirmation then degrades to one flush at
        # completion.
        ranked = not processor.access.sequential_data_access
        emitted = 0
        pages = 0
        started = time.perf_counter()
        key = driver.key
        if not driver.complete:
            try:
                with maybe_phase(
                    observer,
                    "query.drive",
                    slot=driver.slot,
                    others=len(others),
                    query=query_label(key),
                ):
                    for lower_bound in processor.drive_pages(driver, others):
                        # The page about to be processed -- and every
                        # later one -- holds only objects at distance >=
                        # its lower bound, so current answers strictly
                        # below it are final and already in final list
                        # order.
                        if ranked and len(driver.answers):
                            current = driver.answers.materialize()
                            while emitted < len(current):
                                answer = current[emitted]
                                if not answer.distance < lower_bound:
                                    break
                                if emitted == 0 and observer is not None:
                                    self._first_answer(
                                        observer, started, pages, key, early=True
                                    )
                                yield AnswerEvent(
                                    key, answer, emitted, pages, True
                                )
                                emitted += 1
                        pages += 1
            except FaultError as fault:
                yield from self._degraded_events(
                    [key, *(other.key for other in others)], emitted, fault
                )
                return
        final = driver.answers.materialize()
        if emitted == 0 and final and observer is not None:
            self._first_answer(observer, started, pages, key, early=False)
        for rank in range(emitted, len(final)):
            yield AnswerEvent(key, final[rank], rank, pages, False)
        yield QueryCompleted(key, tuple(final), pages)

    @staticmethod
    def _first_answer(
        observer: Any, started: float, pages: int, key: Hashable, early: bool
    ) -> None:
        seconds = time.perf_counter() - started
        observer.metrics.observe(TTFA_METRIC, seconds)
        observer.event(
            "session.first_answer",
            pages=pages,
            early=early,
            seconds=seconds,
            query=query_label(key),
        )

    def _degraded_events(
        self, keys: Sequence[Hashable], confirmed_driver: int, fault: FaultError
    ) -> Iterator[DegradedAnswerEvent]:
        """One :class:`DegradedAnswerEvent` per batch query, driver first."""
        observer = self.observer
        reason = f"{type(fault).__name__}: {fault}"
        if observer is not None:
            observer.event(
                "session.degraded",
                fault=type(fault).__name__,
                site=fault.site,
                queries=len(keys),
            )
        for position, key in enumerate(keys):
            confirmed = confirmed_driver if position == 0 else 0
            yield self._degraded_event(key, confirmed, reason)

    def _degraded_event(
        self, key: Hashable, confirmed: int, reason: str
    ) -> DegradedAnswerEvent:
        total = self.processor.n_data_pages
        pending = self.processor.lookup(key)
        if pending is None:
            return DegradedAnswerEvent(key, (), 0, 0, total, 0.0, reason)
        # The completeness bound is over the post-filter candidate set:
        # pages the approximate pre-filter dropped unread were never
        # evaluated (they neither support the answers nor remain owed),
        # so they leave both the numerator and the denominator.
        pages = len(pending.processed_pages) - pending.approx_pruned
        total -= pending.approx_pruned
        if pending.complete:
            completeness = 1.0
        elif total > 0:
            completeness = min(1.0, pages / total)
        else:
            completeness = 0.0
        return DegradedAnswerEvent(
            key,
            tuple(pending.answers.materialize()),
            confirmed,
            pages,
            total,
            completeness,
            reason,
        )

    def ask(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[Answer]:
        """One multiple similarity query, drained: the driver's answers.

        The batch form of :meth:`stream` -- ``MultiQueryProcessor.process``
        exactly, answer for answer and counter for counter.  It skips the
        per-page confirmation bookkeeping entirely, so callers that only
        want the final list pay nothing for the streaming capability.
        """
        return self.processor.process(query_objs, qtypes, keys, db_indices)

    def advance(
        self,
        query_objs: Sequence[Any] = (),
        qtypes: Sequence[QueryType] | QueryType = (),
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[Answer]:
        """After :meth:`ask` or :meth:`stream` over ``[Q_1..Q_m]``,
        ``advance(new)`` equals ``ask([Q_2..Q_m, *new])`` answer for answer
        and counter for counter, but admits only ``new``."""
        return self.processor.advance(query_objs, qtypes, keys, db_indices)

    def run(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        retire: bool = True,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[list[Answer]]:
        """Answer every query of a batch completely (Sec. 5.1).

        The repeated-call pattern over the session buffer: one
        :meth:`advance` per query, each restoring the partial answers the
        previous calls accumulated.  ``MultiQueryProcessor.query_all``
        exactly.
        """
        return self.processor.query_all(
            query_objs, qtypes, keys, retire=retire, db_indices=db_indices
        )


def run_in_blocks(
    database: Any,
    query_objs: Sequence[Any],
    qtypes: Sequence[QueryType] | QueryType,
    block_size: int,
    engine: str | None = None,
    use_avoidance: bool = True,
    max_pivots: int | None = None,
    db_indices: Sequence[int | None] | None = None,
) -> list[list[Answer]]:
    """Process ``M`` queries in consecutive blocks of ``block_size``.

    The canonical block runner (Sec. 5 evaluation setup): each block is
    one fresh :class:`QuerySession` drained to completion, so memory
    stays bounded by the block while the disk's LRU buffer persists
    across blocks like a DBMS buffer would.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    qtypes_list = MultiQueryProcessor._broadcast_types(qtypes, len(query_objs))
    if len(qtypes_list) != len(query_objs):
        raise ValueError("need one query type per query object")
    observer = getattr(database, "observer", None)
    injector = getattr(database, "fault_injector", None)
    timeline = observer.timeline if observer is not None else None
    results: list[list[Answer]] = []
    for block_index, start in enumerate(range(0, len(query_objs), block_size)):
        if injector is not None:
            injector.begin_block()
        if timeline is not None:
            timeline_base = database.counters.copy()
        session = QuerySession(
            database,
            engine=engine,
            use_avoidance=use_avoidance,
            max_pivots=max_pivots,
            seed_from_queries=db_indices is not None,
        )
        block_objs = query_objs[start : start + block_size]
        block_types = qtypes_list[start : start + block_size]
        block_indices = (
            db_indices[start : start + block_size] if db_indices is not None else None
        )
        # One ``block.flush`` span per completed block: the moment the
        # buffered partial answers of Fig. 4 are fully drained.
        with maybe_phase(
            observer, "block.flush", block=block_index, size=len(block_objs)
        ):
            results.extend(
                session.run(block_objs, block_types, db_indices=block_indices)
            )
        if timeline is not None:
            # Outside a scheduler there is no submit/poll clock, so the
            # block runner is the tick source: one tick per block.
            timeline.record_block(
                database.counters.diff(timeline_base).as_dict()
            )
            timeline.advance()
    return results
