"""Page processing shared by single and multiple similarity queries.

This module implements the inner loop of Figs. 1 and 4: given a data
page in memory and an ordered batch of queries the page is relevant for
(the driving query first), evaluate every query against every object on
the page, avoiding distance calculations via the triangle inequality
where possible.

Three engines with *identical* semantics and *identical* counter values:

* ``reference`` -- the literal object-at-a-time loop of the paper's
  pseudo code; easy to audit, used by tests and small runs;
* ``vectorized`` -- numpy page-at-a-time evaluation: one batched
  distance call per query per page;
* ``batched`` -- fused page x query-batch evaluation: the whole
  cross-distance matrix is computed by a single kernel call
  (:meth:`repro.metric.space.MetricSpace.cross_many`), then the
  Lemma-1/Lemma-2 avoidance of Sec. 5.2 is replayed as a post-hoc
  *counter adjustment*: calculations the reference engine would have
  avoided are refunded from ``distance_calculations`` and charged to
  ``avoided_calculations``, so the counters (and thus the modelled CPU
  cost) are those of the paper's algorithm while the FLOPs actually
  happen in one GEMM.  The clamped ``|x|^2 + |q|^2 - 2 x.q`` expansion
  misses direct-difference distances by more than 1e-9, enough to change
  sampled k-NN answers, so ``engine="auto"`` stays ``vectorized``.

All use the query distance at page entry for the avoidance tests and
tighten it while inserting the page's computed answers, so their answer
sets and counters match exactly (see DESIGN.md, design decision 2).
The reference engine asks the Lemma 1/2 questions query by query, the
numpy engines pivot by pivot; both call the lemma tests through this
module's ``avoid_reference`` / ``avoid_vectorized`` globals, the one
place a profiler has to patch to see all avoidance work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Hashable

import numpy as np

from repro.core.answers import AnswerList
from repro.core.avoidance import (
    DEFAULT_MAX_PIVOTS,
    PivotSweep,
    avoid_reference,
    avoid_vectorized,
    fetch_pairs,
)
from repro.core.types import QueryType
from repro.costmodel import Counters
from repro.data import Dataset
from repro.metric.space import MetricSpace
from repro.storage.page import Page

ENGINE_REFERENCE = "reference"
ENGINE_VECTORIZED = "vectorized"
ENGINE_BATCHED = "batched"


@dataclass
class PendingQuery:
    """State of one similarity query inside a multiple-query processor.

    This is the unit the answer buffer of Fig. 4 stores: the partial
    answer list, the set of pages already processed for the query, and
    the completion flag.
    """

    key: Hashable
    obj: Any
    qtype: QueryType
    answers: AnswerList
    slot: int = -1
    processed_pages: set[int] = field(default_factory=set)
    complete: bool = False
    #: Dataset index of the query object, when it is a database member.
    db_index: int | None = None
    #: Upper bound on the final query distance derived from the query
    #: distance matrix (other query objects are database objects, so the
    #: k-th smallest matrix entry bounds the k-th-NN distance).  Purely
    #: an optimisation: answers are unaffected.
    radius_hint: float = math.inf
    #: Whether the radius hint has been derived already.
    seeded: bool = False
    #: Whether the warm-start page has been processed already.
    warmed: bool = False
    #: Cached query-to-pivot distances of the page pre-filter sketch
    #: (set by :class:`~repro.prefilter.PagePrefilter`).
    sketch_qd: Any = None
    #: Pages dropped *unread* for this query by the approximate
    #: pre-filter mode; they count into ``processed_pages`` (the query
    #: completes without them) but not into completeness bounds, which
    #: are computed over the post-filter candidate set.
    approx_pruned: int = 0

    @property
    def radius(self) -> float:
        """Current query distance of this query."""
        answer_radius = self.answers.radius
        if self.radius_hint < answer_radius:
            return self.radius_hint
        return answer_radius


_NO_DISTANCES = np.empty(0)


def process_page_vectorized(
    page: Page,
    batch: list[PendingQuery],
    dataset: Dataset,
    space: MetricSpace,
    matrix: np.ndarray,
    counters: Counters,
    use_avoidance: bool = True,
    max_pivots: int = DEFAULT_MAX_PIVOTS,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
) -> None:
    """Evaluate every query of ``batch`` against every object of ``page``.

    ``matrix`` is the query-distance matrix indexed by query slots.
    Distances computed for earlier queries of the batch on this page
    (``AvoidingDists`` in Fig. 4) feed the avoidance tests of the later
    ones: each row is swept over all later queries as soon as it is
    known (see :class:`~repro.core.avoidance.PivotSweep`).
    """
    indices = page.indices
    n_objects = indices.size
    if n_objects == 0:
        for query in batch:
            query.processed_pages.add(page.page_id)
        return
    objects = page.load(dataset)
    if not use_avoidance or len(batch) == 1:
        # No later query consults earlier rows, so skip the sweep state
        # and bookkeeping entirely.
        for query in batch:
            distances = space.d_many(objects, query.obj)
            query.answers.offer_many(indices, distances)
            query.processed_pages.add(page.page_id)
        return

    sweep = PivotSweep(
        batch, matrix, n_objects, counters, max_pivots, use_lemma1, use_lemma2
    )
    for position, query in enumerate(batch):
        columns = sweep.columns(position)
        known = _NO_DISTANCES
        if columns.size:
            known = space.d_many(objects[columns], query.obj)
            query.answers.offer_many(indices[columns], known)
        if position < sweep.n_pivots:
            avoid_vectorized(sweep, position, columns, known)
        query.processed_pages.add(page.page_id)


def process_page_batched(
    page: Page,
    batch: list[PendingQuery],
    dataset: Dataset,
    space: MetricSpace,
    matrix: np.ndarray,
    counters: Counters,
    use_avoidance: bool = True,
    max_pivots: int = DEFAULT_MAX_PIVOTS,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
) -> None:
    """Fused page x query-batch variant of :func:`process_page_vectorized`.

    The full ``(n_objects, len(batch))`` cross-distance matrix is
    evaluated by one kernel call, so the m BLAS dispatches of the
    vectorised engine collapse into a single GEMM.  Avoidance (Sec. 5.2)
    is then *replayed* over the already-computed matrix purely for its
    counter semantics: positions the reference engine would have avoided
    are refunded from ``distance_calculations``, charged to
    ``avoided_calculations``, left out of the rows the sweep tests later
    queries against, and withheld from the answer lists (they are
    provably outside the query distance, so answers are unaffected
    either way).  Answer sets and counters therefore match the other two
    engines exactly.
    """
    indices = page.indices
    n_objects = indices.size
    if n_objects == 0:
        for query in batch:
            query.processed_pages.add(page.page_id)
        return
    objects = page.load(dataset)
    distances = space.cross_many(objects, [query.obj for query in batch])

    # Fused offer prefilter: one (n_objects, m) comparison finds, per
    # query, the candidates that could possibly be accepted.  A candidate
    # at or beyond the current radius of a saturated k-NN list (or beyond
    # the range) is rejected by ``offer`` whenever it is offered, and a
    # query's radius only shrinks through its *own* offers, so the bound
    # taken at page entry is exact for the whole page.
    strict_flags = [query.answers.is_saturated for query in batch]
    bounds = np.array([query.answers.radius for query in batch])
    accept = distances < bounds[None, :]
    if not all(strict_flags):
        loose = ~np.array(strict_flags)
        accept[:, loose] = distances[:, loose] <= bounds[loose]
    # Group the (few) surviving candidates by query once, instead of
    # extracting one boolean column per query.  ``nonzero`` walks the
    # mask in row order; the stable sort by query keeps each group in
    # page order -- the order ``offer`` expects.
    rows_all, query_all = np.nonzero(accept)
    if rows_all.size:
        order = np.argsort(query_all, kind="stable")
        rows_all = rows_all[order]
        group_starts = np.searchsorted(
            query_all[order], np.arange(len(batch) + 1)
        ).tolist()
    else:
        group_starts = [0] * (len(batch) + 1)

    if not use_avoidance or len(batch) == 1:
        for position, query in enumerate(batch):
            rows = rows_all[group_starts[position]:group_starts[position + 1]]
            if rows.size:
                query.answers.offer_many(indices[rows], distances[rows, position])
            query.processed_pages.add(page.page_id)
        return

    sweep = PivotSweep(
        batch, matrix, n_objects, counters, max_pivots, use_lemma1, use_lemma2
    )
    for position, query in enumerate(batch):
        columns = sweep.columns(position)
        rows = rows_all[group_starts[position]:group_starts[position + 1]]
        if columns.size < n_objects:
            counters.distance_calculations -= n_objects - columns.size
            if rows.size:
                computed = np.zeros(n_objects, dtype=bool)
                computed[columns] = True
                rows = rows[computed[rows]]
        if rows.size:
            query.answers.offer_many(indices[rows], distances[rows, position])
        if position < sweep.n_pivots:
            known = distances[columns, position]
            avoid_vectorized(sweep, position, columns, known)
        query.processed_pages.add(page.page_id)


def process_page_reference(
    page: Page,
    batch: list[PendingQuery],
    dataset: Dataset,
    space: MetricSpace,
    matrix: np.ndarray,
    counters: Counters,
    use_avoidance: bool = True,
    max_pivots: int = DEFAULT_MAX_PIVOTS,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
) -> None:
    """Object-at-a-time variant of :func:`process_page_vectorized`.

    Follows the pseudo code of Fig. 4 literally; produces the same
    answers and the same counter values as the vectorised engine.
    """
    indices = page.indices
    n_objects = indices.size
    objects = page.load(dataset)
    known_rows: list[tuple[int, list[float]]] = []

    for query in batch:
        radius = query.radius
        avoidance_active = (
            use_avoidance and known_rows and not math.isinf(radius)
        )
        if avoidance_active:
            pivot_rows = known_rows[:max_pivots] if max_pivots > 0 else known_rows
            pivot_dqq = fetch_pairs(
                matrix, query.slot, [slot for slot, _ in pivot_rows]
            )
        row: list[float] = []
        for position in range(n_objects):
            obj = objects[position]
            if avoidance_active:
                pairs = [
                    (known_row[position], pivot_dqq[j])
                    for j, (_, known_row) in enumerate(pivot_rows)
                    if not math.isnan(known_row[position])
                ]
                if avoid_reference(
                    pairs, radius, counters, use_lemma1, use_lemma2
                ):
                    row.append(math.nan)
                    continue
            distance = space.d(obj, query.obj)
            row.append(distance)
            query.answers.offer(int(indices[position]), distance)
        known_rows.append((query.slot, row))
        query.processed_pages.add(page.page_id)


_ENGINES = {
    ENGINE_REFERENCE: process_page_reference,
    ENGINE_VECTORIZED: process_page_vectorized,
    ENGINE_BATCHED: process_page_batched,
}


def engine_names() -> list[str]:
    """Registered page-processing engine names, in registry order."""
    return list(_ENGINES)


def _instrument_engine(name: str, process: Any, observer: Any) -> Any:
    """Wrap an engine with the ``page.process`` phase profile.

    Each page evaluation is timed into the observer's
    ``phase.page.process.seconds`` histogram (and recorded as a span
    when tracing is on), the sharing-factor inputs (pages processed,
    queries served per page) are counted, and the Lemma-1/2 outcome of
    the page is emitted as one aggregated ``avoidance.try`` event --
    per page, not per object, so tracing granularity never enters the
    inner loops.  Answers and counters are untouched: the wrapper only
    reads counter deltas around the unmodified engine call.
    """

    def process_page_observed(
        page: Page,
        batch: list[PendingQuery],
        dataset: Dataset,
        space: MetricSpace,
        matrix: Any,
        counters: Counters,
        **kwargs: Any,
    ) -> None:
        metrics = observer.metrics
        tries_before = counters.avoidance_tries
        avoided_before = counters.avoided_calculations
        computed_before = counters.distance_calculations
        with observer.phase(
            "page.process", engine=name, page_id=page.page_id, batch=len(batch)
        ):
            process(page, batch, dataset, space, matrix, counters, **kwargs)
        metrics.inc("pages.processed")
        metrics.inc("page.queries_served", len(batch))
        tries = counters.avoidance_tries - tries_before
        if tries:
            observer.event(
                "avoidance.try",
                engine=name,
                page_id=page.page_id,
                tries=tries,
                avoided=counters.avoided_calculations - avoided_before,
                computed=counters.distance_calculations - computed_before,
            )

    return process_page_observed


def get_engine(name: str, observer: Any = None) -> Any:
    """Resolve a page-processing engine by name.

    With ``observer=None`` (the default) the raw engine function is
    returned -- the uninstrumented hot path, byte-for-byte the code the
    tests and benchmarks audit.  With an :class:`~repro.obs.Observer`
    the engine is wrapped with per-page phase profiling and events.
    """
    try:
        process = _ENGINES[name]
    except KeyError:
        known = ", ".join(sorted(_ENGINES))
        raise ValueError(f"unknown engine {name!r}; known: {known}") from None
    if observer is None:
        return process
    return _instrument_engine(name, process, observer)
