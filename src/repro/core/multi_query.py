"""The multiple similarity query (Definition 4 and Fig. 4).

:class:`MultiQueryProcessor` is the stateful operator the paper proposes
as a basic DBMS operation.  One ``process`` call receives a sequence of
query objects and guarantees complete answers for the *first* of them
(the "driver"); for every other query it collects partial answers from
the pages loaded for the driver and keeps them -- together with the set
of already-processed pages -- in an internal buffer
(``restore_from_buffer`` / ``buffer_answers``).  Repeated calls with the
remaining queries complete the whole batch while never reading a page
twice for the same query.

The batch lives on between calls as an ordered **query window**:
:meth:`MultiQueryProcessor.advance` appends new queries at its tail and
completes its head, so a repeated call costs only what changed.

The query-distance matrix (``QObjDists``) is maintained incrementally in
a slot-recycling array: admitting a query charges one distance
calculation per already-pending query, so a block of m queries pays
exactly the ``(m-1) * m / 2`` initialisation cost of the paper's CPU
formula, and queries dynamically added later (the
ExploreNeighborhoodsMultiple scenario of Sec. 5.1) pay only against the
queries still pending.
"""

from __future__ import annotations

import zlib
from collections import OrderedDict
from typing import Any, Hashable, Iterator, Sequence

import numpy as np

from repro.core.answers import Answer, AnswerList
from repro.core.avoidance import DEFAULT_MAX_PIVOTS
from repro.core.engine import (
    ENGINE_VECTORIZED,
    PendingQuery,
    get_engine,
)
from repro.core.types import QueryType
from repro.prefilter.replay import replay_pruned_page


MATRIX_EAGER = "eager"
MATRIX_LAZY = "lazy"


class _SlotMatrix:
    """Incrementally maintained query-distance matrix with slot reuse.

    Rows/columns of retired queries are recycled, so the memory footprint
    is bounded by the maximum number of *concurrently* pending queries,
    not by the total number of queries a mining run ever issues.

    Two fill policies address the paper's closing remark that "methods to
    reduce the initialization overhead implied by the query distance
    matrix" should be investigated (Sec. 7):

    * ``eager`` (the paper's scheme): admitting the m-th query computes
      its distance to every pending query, so a block pays the full
      ``(m-1) * m / 2`` cost upfront;
    * ``lazy``: pair distances are computed -- and charged -- only when
      first consulted (as avoidance pivots, relevance bounds or radius
      seeds).  With a bounded pivot set most pairs are never consulted,
      which removes the quadratic term that limits large parallel blocks
      (see the matrix-mode ablation benchmark).
    """

    def __init__(self, space: Any, mode: str = MATRIX_EAGER):
        if mode not in (MATRIX_EAGER, MATRIX_LAZY):
            raise ValueError(f"unknown matrix mode {mode!r}")
        self._space = space
        self.mode = mode
        self._capacity = 0
        self.matrix = np.zeros((0, 0), dtype=float)
        self._known = np.zeros((0, 0), dtype=bool)
        self._objs: list[Any] = []
        self._vectors: np.ndarray | None = None
        self._free: list[int] = []
        self._active: list[int] = []
        # Mirror of ``_active`` for O(1) membership tests: the free-list
        # rebuild after a grow scans every slot, and a list scan there
        # is O(capacity * active) per grow.
        self._active_set: set[int] = set()

    @property
    def n_active(self) -> int:
        return len(self._active)

    def _grow(self, minimum: int) -> None:
        new_capacity = max(16, 2 * self._capacity, minimum)
        grown = np.zeros((new_capacity, new_capacity), dtype=float)
        grown_known = np.zeros((new_capacity, new_capacity), dtype=bool)
        if self._capacity:
            grown[: self._capacity, : self._capacity] = self.matrix
            grown_known[: self._capacity, : self._capacity] = self._known
        self.matrix = grown
        self._known = grown_known
        self._objs.extend([None] * (new_capacity - self._capacity))
        if self._vectors is not None:
            grown_vectors = np.zeros(
                (new_capacity, self._vectors.shape[1]), dtype=float
            )
            grown_vectors[: self._capacity] = self._vectors
            self._vectors = grown_vectors
        self._capacity = new_capacity

    def add(self, obj: Any) -> int:
        """Admit a query object; returns its slot.

        In eager mode this charges one query-matrix distance calculation
        per currently active slot; in lazy mode nothing is computed yet.
        """
        if not self._free:
            self._grow(len(self._active) + 1)
            self._free = [
                slot
                for slot in range(self._capacity - 1, -1, -1)
                if slot not in self._active_set and self._objs[slot] is None
            ]
        slot = self._free.pop()
        self._objs[slot] = obj

        is_vector = (
            self._space.distance.is_vector_metric and np.ndim(obj) == 1
        )
        if is_vector:
            vector = np.asarray(obj, dtype=float)
            if self._vectors is None:
                self._vectors = np.zeros((self._capacity, vector.size), dtype=float)
            self._vectors[slot] = vector
        self._known[slot, :] = False
        self._known[:, slot] = False
        if self._active and self.mode == MATRIX_EAGER:
            self._compute_pairs(slot, list(self._active))
        self.matrix[slot, slot] = 0.0
        self._known[slot, slot] = True
        self._active.append(slot)
        self._active_set.add(slot)
        return slot

    def _compute_pairs(self, slot: int, others: Sequence[int] | np.ndarray) -> None:
        """Compute and charge the distances from ``slot`` to ``others``."""
        distance = self._space.distance
        obj = self._objs[slot]
        self._space.counters.query_matrix_distance_calculations += len(others)
        if (
            self._vectors is not None
            and distance.is_vector_metric
            and np.ndim(obj) == 1
        ):
            values = distance.many(self._vectors[others], np.asarray(obj, float))
        else:
            values = np.array(
                [distance.one(self._objs[other], obj) for other in others]
            )
        self.matrix[slot, others] = values
        self.matrix[others, slot] = values
        self._known[slot, others] = True
        self._known[others, slot] = True

    def remove(self, slot: int) -> None:
        """Retire a slot; its row becomes reusable."""
        self._active.remove(slot)
        self._active_set.discard(slot)
        self._objs[slot] = None
        self._free.append(slot)

    def pairs(self, slot: int, other_slots: Sequence[int] | np.ndarray) -> np.ndarray:
        """Distances from one query to a set of others, filling gaps.

        In lazy mode, pairs not yet known are computed (and charged)
        here, at first use.
        """
        others = np.asarray(other_slots, dtype=np.intp)
        if self.mode == MATRIX_LAZY:
            missing = others[~self._known[slot, others]]
            if missing.size:
                self._compute_pairs(slot, missing)
        return self.matrix[slot, others]


def query_label(key: Hashable) -> str:
    """Compact, process-stable trace label of a query key.

    Explicit keys (``("serve", 3)``, ``("parallel", 17)``) render as
    their ``str``; :func:`default_query_key` keys embed the query
    object's raw bytes, which are digested (CRC32 -- stable across
    processes, unlike ``hash``) so trace attributes stay small.  The
    label is what ``query.admit`` / ``query.drive`` records carry and
    what :mod:`repro.obs.provenance` joins cards on.
    """
    if (
        isinstance(key, tuple)
        and len(key) == 3
        and key[0] == "array"
        and isinstance(key[1], bytes)
    ):
        digest = zlib.crc32(key[1]) & 0xFFFFFFFF
        return f"('array', {digest:#010x}, {key[2]})"
    return str(key)


def default_query_key(obj: Any, qtype: QueryType) -> Hashable:
    """Identity of a query within a processor's buffer.

    Numpy query objects hash by content; everything else by value.  The
    query type is part of the key because the same object may be queried
    with different types.
    """
    if isinstance(obj, np.ndarray):
        return ("array", obj.tobytes(), qtype)
    return ("object", obj, qtype)


class MultiQueryProcessor:
    """Incremental multiple-similarity-query operator (Fig. 4).

    Parameters
    ----------
    database:
        The :class:`~repro.core.database.Database` to query.
    engine:
        ``"batched"``, ``"vectorized"``, ``"reference"`` or ``None``
        (the database default).  ``batched`` evaluates a whole page x
        query-batch in one fused kernel and falls back to
        object-at-a-time evaluation for non-vector metrics.
    use_avoidance:
        Enable the triangle-inequality CPU optimisation (Sec. 5.2).
    max_pivots:
        Bound on the known queries consulted per avoidance decision
        (see :data:`repro.core.avoidance.DEFAULT_MAX_PIVOTS`);
        non-positive means unbounded.
    seed_from_queries:
        When the query objects are *database members* (the evaluation
        setup of Sec. 6) the query-distance matrix row of a k-NN query
        contains distances to other database objects, so its k-th
        smallest entry is a valid upper bound on the final query
        distance.  Enabling this seeds each query's radius with that
        bound, tightening page relevance from the start.  It never
        changes answers, but it is only *sound* when every batch query
        carries its dataset index (``db_indices``/``keys``).
    matrix_mode:
        ``"eager"`` (paper scheme: the full pairwise matrix is paid per
        block) or ``"lazy"`` (pairs computed at first use; addresses the
        Sec. 7 future-work item on matrix initialisation overhead).
    warm_start:
        Definition 4 only requires the driver's answers to be complete;
        ``determine_relevant_data_pages`` may add any pages relevant to
        the other queries.  With warm start, each newly admitted query
        has its single best page (the head of its own page stream)
        processed immediately, which collapses its query distance to a
        near-final value and makes both the page-relevance test and the
        avoidance lemmas effective from the first driver call.  Answers
        are unaffected.  Ignored for sequential access methods, whose
        streams are not distance-ranked.
    observer:
        Optional :class:`~repro.obs.Observer`.  Defaults to the
        database's attached observer; when neither is set the processor
        uses the raw (uninstrumented) engine functions and emits
        nothing.  Observation never changes answers or counters.
    prefilter:
        Page pre-filter tier: ``None`` inherits the database's
        (``Database.prefilter``), ``False`` disables it for this
        processor, or pass a :class:`~repro.prefilter.PagePrefilter`
        directly.  In exact mode (the default) the filter replays
        provably empty pages instead of evaluating them, so answers and
        counters stay byte-identical to running without it.
    access:
        Access method serving this processor's page streams: ``None``
        (the database's configured method) or any name accepted by
        :meth:`~repro.core.database.Database.access_method_for`.  Makes
        the access method a per-block decision: one database can serve
        concurrent blocks through different index structures over the
        same pages and counters.
    """

    def __init__(
        self,
        database: Any,
        engine: str | None = None,
        use_avoidance: bool = True,
        max_pivots: int = DEFAULT_MAX_PIVOTS,
        seed_from_queries: bool = False,
        warm_start: bool = False,
        use_lemma1: bool = True,
        use_lemma2: bool = True,
        matrix_mode: str = MATRIX_EAGER,
        observer: Any = None,
        prefilter: Any = None,
        access: str | None = None,
    ):
        self.database = database
        self.access = (
            database.access_method
            if access is None
            else database.access_method_for(access)
        )
        self.space = database.space
        self.disk = database.disk
        self.dataset = database.dataset
        engine_name = engine if engine is not None else database.engine
        if engine_name == ENGINE_VECTORIZED and not self.dataset.is_vector:
            raise ValueError("the vectorized engine requires a vector dataset")
        self.engine_name = engine_name
        self.observer = (
            observer if observer is not None else getattr(database, "observer", None)
        )
        self._process_page = get_engine(engine_name, self.observer)
        self.use_avoidance = use_avoidance
        self.max_pivots = max_pivots
        self.use_lemma1 = use_lemma1
        self.use_lemma2 = use_lemma2
        self.seed_from_queries = seed_from_queries
        self.warm_start = warm_start and not self.access.sequential_data_access
        if prefilter is None:
            prefilter = getattr(database, "prefilter", None)
            if prefilter is not None and self.access is not database.access_method:
                # The database's sketches cover only its primary access
                # method's pages; a variant's page ids are unknown to
                # them, so the inherited filter is disabled rather than
                # silently mispriced.
                prefilter = None
        elif prefilter is False:
            prefilter = None
        self.prefilter = prefilter
        self._pending: dict[Hashable, PendingQuery] = {}
        #: The query window: the buffered queries of the current batch,
        #: in batch order, keyed by ``id`` (cheaper to hash than a key).
        self._window: OrderedDict[int, PendingQuery] = OrderedDict()
        self._slots = _SlotMatrix(self.space, mode=matrix_mode)
        self._n_data_pages = len(self.access.data_pages())

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------

    @property
    def pending_queries(self) -> list[PendingQuery]:
        """Currently buffered queries (complete and incomplete)."""
        return list(self._pending.values())

    @property
    def window(self) -> list[Hashable]:
        """Keys of the query window, head first."""
        return [pending.key for pending in self._window.values()]

    @property
    def n_data_pages(self) -> int:
        """Total data pages of the access method (completeness bounds)."""
        return self._n_data_pages

    def admit(
        self,
        obj: Any,
        qtype: QueryType,
        key: Hashable | None = None,
        db_index: int | None = None,
    ) -> PendingQuery:
        """Restore a query from the buffer or register a new one."""
        if key is None:
            key = default_query_key(obj, qtype)
        pending = self._pending.get(key)
        if pending is not None:
            if pending.qtype != qtype:
                raise ValueError(
                    f"query key {key!r} already buffered with a different type"
                )
            return pending
        pending = PendingQuery(
            key=key,
            obj=obj,
            qtype=qtype,
            answers=AnswerList(qtype),
            slot=self._slots.add(obj),
            db_index=db_index,
        )
        self._pending[key] = pending
        if self.observer is not None:
            self.observer.event(
                "query.admit",
                slot=pending.slot,
                kind=qtype.kind,
                pending=len(self._pending),
                query=query_label(key),
            )
        return pending

    def retire(self, key: Hashable) -> None:
        """Drop a buffered query and recycle its matrix slot."""
        pending = self._pending.pop(key, None)
        if pending is not None:
            self._window.pop(id(pending), None)
            self._slots.remove(pending.slot)

    def clear(self) -> None:
        """Drop the whole buffer (start a fresh block)."""
        for key in list(self._pending):
            self.retire(key)

    def _mark_complete(self, pending: PendingQuery) -> None:
        if not pending.complete:
            pending.complete = True
            self.space.counters.queries_completed += 1

    # ------------------------------------------------------------------
    # Query processing
    # ------------------------------------------------------------------

    def lookup(self, key: Hashable) -> PendingQuery | None:
        """The buffered query registered under ``key``, if any."""
        return self._pending.get(key)

    def process(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[Answer]:
        """One multiple-similarity-query call (Fig. 4): completes the first
        query and returns its answers; the others accumulate partial answers
        in the buffer and stay in the window for :meth:`advance`."""
        return self._complete(*self.prepare(query_objs, qtypes, keys, db_indices))

    def prepare(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> tuple[PendingQuery, list[PendingQuery]]:
        """Make a batch the window and take its head off: everything
        :meth:`process` does short of the drive, which
        :class:`~repro.service.QuerySession` streams page by page."""
        if not len(query_objs):
            raise ValueError("need at least one query object")
        self._window.clear()
        return self._take_head(query_objs, qtypes, keys, db_indices)

    def advance(
        self,
        query_objs: Sequence[Any] = (),
        qtypes: Sequence[QueryType] | QueryType = (),
        keys: Sequence[Hashable] | None = None,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[Answer]:
        """The next call of Sec. 5.1: :meth:`process` over the window
        with ``query_objs`` appended, paying only for those and the head."""
        return self._complete(*self._take_head(query_objs, qtypes, keys, db_indices))

    def _take_head(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None,
        db_indices: Sequence[int | None] | None,
    ) -> tuple[PendingQuery, list[PendingQuery]]:
        """Append queries at the window tail, then take the head off.  A key
        already in the window keeps its place (a duplicate shares its
        pending); newcomers are seeded against the whole window and warmed."""
        qtypes = self._broadcast_types(qtypes, len(query_objs))
        if len(query_objs) != len(qtypes):
            raise ValueError("need one query type per query object")
        if keys is not None and len(keys) != len(query_objs):
            raise ValueError("need one key per query object")
        if db_indices is not None and len(db_indices) != len(query_objs):
            raise ValueError("need one dataset index (or None) per query object")
        window = self._window
        joined = []
        for i, (obj, qtype) in enumerate(zip(query_objs, qtypes)):
            pending = self.admit(
                obj,
                qtype,
                keys[i] if keys is not None else None,
                db_indices[i] if db_indices is not None else None,
            )
            if id(pending) not in window:
                window[id(pending)] = pending
                joined.append(pending)
        if joined and self.seed_from_queries:
            self.seed_radius_hints(joined, list(window.values()))
        if self.warm_start:
            self.warm_up(joined)
        if not window:
            raise ValueError("the query window is empty")
        __, driver = window.popitem(last=False)
        return driver, list(window.values())

    def warm_up(self, pendings: Sequence[PendingQuery]) -> None:
        """Process each new query's best page to tighten its radius."""
        counters = self.space.counters
        for pending in pendings:
            if pending.complete or pending.warmed:
                continue
            pending.warmed = True
            stream = self.access.page_stream(pending.obj)
            item = stream.next_page(pending.radius)
            while item is not None and item[1].page_id in pending.processed_pages:
                item = stream.next_page(pending.radius)
            if item is None:
                continue
            __, page = item
            self.disk.read(page, sequential=self.access.sequential_data_access)
            self._process_page(
                page,
                [pending],
                self.dataset,
                self.space,
                self._slots,
                counters,
                use_avoidance=False,
            )
            if len(pending.processed_pages) >= self._n_data_pages:
                self._mark_complete(pending)

    def seed_radius_hints(
        self, pendings: Sequence[PendingQuery], batch: Sequence[PendingQuery] = ()
    ) -> None:
        """Derive radius upper bounds from the query-distance matrix.

        For a k-NN query whose batch contains at least k other queries
        over *distinct database objects*, those objects are themselves
        candidate answers at the distances the matrix already holds, so
        the k-th smallest row entry bounds the final query distance.
        Each query of ``pendings`` is seeded once, against ``batch``
        (default: ``pendings`` itself) -- the window it joins.
        """
        for pending in pendings:
            if pending.seeded or pending.complete:
                continue
            if not pending.qtype.adapts_radius or pending.db_index is None:
                pending.seeded = True
                continue
            pending.seeded = True
            others: dict[int, int] = {}
            for other in batch or pendings:
                if other is pending or other.db_index is None:
                    continue
                if other.db_index != pending.db_index:
                    others.setdefault(other.db_index, other.slot)
            k = pending.qtype.k
            if len(others) < k:
                continue
            row = self._slots.pairs(pending.slot, list(others.values()))
            hint = float(np.partition(row, k - 1)[k - 1])
            if hint < pending.radius_hint:
                pending.radius_hint = hint

    def query_all(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        keys: Sequence[Hashable] | None = None,
        retire: bool = True,
        db_indices: Sequence[int | None] | None = None,
    ) -> list[list[Answer]]:
        """Answer every query of a batch completely.

        Implements the repeated-call pattern of Sec. 5.1: the method is
        called for ``[Q_1..Q_m]``, then ``[Q_2..Q_m]``, and so on; each
        call restores the partial answers of the previous ones from the
        buffer.
        """
        qtypes = self._broadcast_types(qtypes, len(query_objs))
        if keys is None:
            keys = [default_query_key(o, t) for o, t in zip(query_objs, qtypes)]
        if len(query_objs):
            self.process(query_objs, qtypes, keys, db_indices)
            while self._window:
                self.advance()
        results = [self._pending[key].answers.materialize() for key in keys]
        if retire:
            for key in keys:
                self.retire(key)
        return results

    @staticmethod
    def _broadcast_types(
        qtypes: Sequence[QueryType] | QueryType, n: int
    ) -> list[QueryType]:
        if isinstance(qtypes, QueryType):
            return [qtypes] * n
        return list(qtypes)

    def _complete(
        self, driver: PendingQuery, others: Sequence[PendingQuery]
    ) -> list[Answer]:
        """Complete ``driver``, collecting partial answers for ``others``."""
        if not driver.complete:
            if self.observer is None:
                for _ in self.drive_pages(driver, others):
                    pass
            else:
                with self.observer.phase(
                    "query.drive",
                    slot=driver.slot,
                    others=len(others),
                    query=query_label(driver.key),
                ):
                    for _ in self.drive_pages(driver, others):
                        pass
        return driver.answers.materialize()

    def drive_pages(
        self, driver: PendingQuery, others: Sequence[PendingQuery]
    ) -> "Iterator[float]":
        """Page-step generator behind both execution paths.

        This is the loop of Fig. 4: pull the next relevant page from the
        driver's stream, read it, and evaluate the batch against it.
        Before each page is read, the generator yields the page's lower
        bound on the driver distance.  Because page streams deliver
        pages in non-decreasing lower-bound order, every current driver
        answer strictly below that bound is final -- this is the hook
        :class:`~repro.service.QuerySession` uses to stream confirmed
        answers incrementally (Def. 4), while the batch path simply
        drains the generator.  Draining without acting on the yields is
        exactly the pre-generator loop: answers and counters are
        byte-identical.

        With a page pre-filter attached, each delivered page passes the
        sketch tier first: in exact mode a page provably empty for the
        whole batch is *replayed* (identical counters, no engine
        kernels) after the usual read and batch formation; in the
        opt-in approximate mode a page whose driver bound exceeds
        ``recall_target * radius`` is dropped before it is even read.
        """
        stream = self.access.page_stream(driver.obj)
        counters = self.space.counters
        drive_filter = (
            self.prefilter.open_drive([driver, *others], self.observer)
            if self.prefilter is not None
            else None
        )
        while True:
            item = stream.next_page(driver.radius)
            if item is None:
                break
            lower_bound, page = item
            if page.page_id in driver.processed_pages:
                continue
            if drive_filter is not None and drive_filter.skip_before_read(
                driver, page
            ):
                driver.processed_pages.add(page.page_id)
                driver.approx_pruned += 1
                continue
            yield lower_bound
            self.disk.read(
                page, sequential=self.access.sequential_data_access
            )
            batch = [driver]
            active_others = [
                p
                for p in others
                if not p.complete and page.page_id not in p.processed_pages
            ]
            if active_others:
                driver_distances = self._slots.pairs(
                    driver.slot, [p.slot for p in active_others]
                )
                bounds = stream.lower_bounds_for_others(
                    page,
                    [p.obj for p in active_others],
                    lower_bound,
                    driver_distances,
                )
                batch.extend(
                    p
                    for p, bound in zip(active_others, bounds)
                    if bound <= p.radius
                )
            if drive_filter is not None and drive_filter.provably_empty(
                batch, page
            ):
                # Exact replay: every counter charge of the engine call
                # below, none of its kernels (see repro.prefilter.replay).
                replay_pruned_page(
                    page,
                    batch,
                    self.dataset,
                    self.space,
                    self._slots,
                    counters,
                    use_avoidance=self.use_avoidance,
                    max_pivots=self.max_pivots,
                    use_lemma1=self.use_lemma1,
                    use_lemma2=self.use_lemma2,
                )
            else:
                self._process_page(
                    page,
                    batch,
                    self.dataset,
                    self.space,
                    self._slots,
                    counters,
                    use_avoidance=self.use_avoidance,
                    max_pivots=self.max_pivots,
                    use_lemma1=self.use_lemma1,
                    use_lemma2=self.use_lemma2,
                )
            for query in batch:
                if len(query.processed_pages) >= self._n_data_pages:
                    self._mark_complete(query)
        self._mark_complete(driver)
        if drive_filter is not None:
            drive_filter.finish()
