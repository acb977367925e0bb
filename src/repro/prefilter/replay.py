"""Counter-exact replay of a page evaluation that cannot produce answers.

When the sketch bound proves that *every* query of a batch has
``sketch_lb > answers.radius`` for a page, no object of the page can be
accepted by any answer list: acceptance tests distances against
``answers.radius`` (strictly when saturated, at the limit otherwise),
and ``sketch_lb`` lower-bounds every object distance.  No radius can
therefore change while the page is evaluated, which makes the engines'
behaviour on the page fully deterministic from the state at page entry
-- and that is what :func:`replay_pruned_page` reproduces: every counter
charge of :func:`~repro.core.engine.process_page_vectorized` (identical,
by the engine-equivalence invariant, to the reference and batched
engines) without running the distance kernels whose results are known to
be discarded.

This is the avoidance-engine discipline of the batched engine inverted:
where ``process_page_batched`` computes *more* than the modelled
algorithm and refunds the difference, the replay computes *less* and
charges the difference.  Either way the counters -- the paper's cost
model -- are those of the unfiltered Fig. 4 run, byte for byte.

What still must run:

* the avoidance tests of every non-first query (they charge
  ``avoidance_tries``/``avoided_calculations`` deterministically from
  the known-row *values*), and
* the known-row values a later query's avoidance test will consult --
  computed through the uncounted kernels, since the replay charges
  ``distance_calculations`` explicitly.

What never runs: answer offers (rejected offers charge nothing and
mutate nothing), the distance kernel of the last query of the batch,
and every row beyond the avoidance pivot window.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core import engine
from repro.core.avoidance import DEFAULT_MAX_PIVOTS, PivotSweep
from repro.core.engine import PendingQuery
from repro.costmodel import Counters
from repro.data import Dataset
from repro.metric.space import MetricSpace
from repro.storage.page import Page


def _uncharged_distances(
    space: MetricSpace, objects: Any, columns: np.ndarray, query_obj: Any
) -> np.ndarray:
    """Distances at the page positions ``columns``, bypassing the counters."""
    if not columns.size:
        # A row avoided in full is common on the far pages replayed here.
        return np.empty(0)
    distance = space.distance
    if isinstance(objects, np.ndarray) and distance.is_vector_metric:
        return np.asarray(distance.many(objects[columns], query_obj), dtype=float)
    return np.array(
        [distance.one(objects[int(i)], query_obj) for i in columns], dtype=float
    )


def replay_pruned_page(
    page: Page,
    batch: list[PendingQuery],
    dataset: Dataset,
    space: MetricSpace,
    matrix: Any,
    counters: Counters,
    use_avoidance: bool = True,
    max_pivots: int = DEFAULT_MAX_PIVOTS,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
) -> None:
    """Charge exactly what an engine would charge for a no-answer page.

    Drop-in replacement for the ``process_page_*`` engines under the
    precondition that no query of ``batch`` can accept any object of
    ``page``.  Marks the page processed for every query, exactly like
    the engines do.
    """
    indices = page.indices
    n_objects = indices.size
    if n_objects == 0:
        for query in batch:
            query.processed_pages.add(page.page_id)
        return
    if not use_avoidance or len(batch) == 1:
        # Every engine computes every (object, query) distance; none of
        # the results can be accepted, so only the charge remains.
        counters.distance_calculations += n_objects * len(batch)
        for query in batch:
            query.processed_pages.add(page.page_id)
        return

    # Position 0 is always inside the pivot window of a batch of two.
    objects = page.load(dataset)
    sweep = PivotSweep(
        batch, matrix, n_objects, counters, max_pivots, use_lemma1, use_lemma2
    )
    for position, query in enumerate(batch):
        columns = sweep.columns(position)
        counters.distance_calculations += columns.size
        # A row is consulted only by *later* queries, and only while it
        # sits inside the pivot window.
        if position < sweep.n_pivots:
            # Through the engine module, like the engines themselves, so
            # one patch point observes every Lemma 1/2 step.
            engine.avoid_vectorized(
                sweep,
                position,
                columns,
                _uncharged_distances(space, objects, columns, query.obj),
            )
        query.processed_pages.add(page.page_id)
