"""Triangle-inequality distance avoidance (Sec. 5.2, Lemmas 1 and 2).

Given the distances between all pairs of query objects (the query
distance matrix) and the distances between the current database object
``O`` and some already-handled query objects ``Q_j``, the calculation of
``dist(O, Q_i)`` is *avoidable* when either lemma proves it exceeds the
current query distance ``r_i``:

* Lemma 1: ``dist(O, Q_j) >  dist(Q_i, Q_j) + r_i``  (``O`` far, queries close)
* Lemma 2: ``dist(Q_i, Q_j) >  dist(O, Q_j) + r_i``  (``O`` close, queries far)

Both conditions use a strict inequality so the conclusion
``dist(O, Q_i) > r_i`` is strict, which keeps boundary objects
(``dist == eps``) in range-query answers, as Definition 2 requires.

Every evaluated lemma counts as one *avoiding try* (the paper's
``avoiding_tries`` term in the CPU cost formula); per object the tries
stop at the first success.  Two implementations with identical counting
semantics are provided: :func:`avoid_reference` (object-at-a-time, one
query after the other: the literal Fig. 4 loop) and
:class:`PivotSweep` + :func:`avoid_vectorized` (page-at-a-time and
pivot-major: one numpy pass per known query over all later queries of
the page, used at benchmark scale).
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Sequence

import numpy as np

from repro.costmodel import Counters
from repro.metric.space import MetricSpace


#: Default bound on how many known queries ("pivots") are consulted per
#: avoidance decision.  An unbounded search can spend more time on failed
#: comparisons than the avoided distance calculation would have cost
#: (2 * (m-1) comparisons vs. one distance, and the paper's own parallel
#: results with m = 1600 are only consistent with a bounded search).
#: 32 pivots keep the worst case per object at ``64 * t_cmp``, about one
#: distance calculation at 20-d, while catching nearly all avoidable
#: calculations at every block size -- see the avoidance-pivots ablation
#: benchmark.  Non-positive means unbounded.
DEFAULT_MAX_PIVOTS = 32


def fetch_pairs(matrix: Any, slot: int, other_slots: Any) -> np.ndarray:
    """Query-to-query distances from a raw array or a slot matrix.

    A :class:`~repro.core.multi_query._SlotMatrix` computes lazy pairs on
    first use; a plain ndarray (as used by direct engine tests) is
    indexed directly.
    """
    if hasattr(matrix, "pairs"):
        return matrix.pairs(slot, other_slots)
    return matrix[slot, other_slots]


class PivotSweep:
    """Per-page state of the pivot-major Lemma 1/2 sweep.

    Fig. 4 asks, for each query ``Q_i`` in batch order, whether an
    earlier query ``Q_j`` proves ``dist(O, Q_i) > r_i``.  The sweep asks
    the same questions pivot by pivot: once row ``j`` (the distances of
    the page objects to ``Q_j``) is known, :func:`avoid_vectorized` tests
    it against *every* later query still undecided on an object.  Masks
    and counters are those of the query-major loop because

    * whether ``dist(O, Q_j)`` is computed depends only on pivots
      ``< j``, all swept before row ``j`` is asked for;
    * the radii are those at page entry -- a query's radius moves only
      through its own offers, and those follow its last test;
    * per ``(O, Q_i)`` the pivots are still consulted in batch order and
      the pair leaves ``pending`` at its first success, so the tries the
      early stop skips are never made.

    ``pending`` has one row per *finite-radius* query (an infinite
    radius is never tested, never charged and asks for no matrix pair):
    ``True`` where ``dist(O, Q_i)`` is not proven avoidable yet.
    """

    def __init__(
        self,
        batch: Sequence[Any],
        matrix: Any,
        n_objects: int,
        counters: Counters,
        max_pivots: int = DEFAULT_MAX_PIVOTS,
        use_lemma1: bool = True,
        use_lemma2: bool = True,
    ):
        radii = np.array([query.radius for query in batch], dtype=float)
        finite = ~np.isinf(radii)
        #: Rows ``< n_pivots`` are consulted by later queries.
        self.n_pivots = len(batch) - 1
        if max_pivots > 0:
            self.n_pivots = min(self.n_pivots, max_pivots)
        self.radii = radii[finite]
        self.slots = [query.slot for query in batch]
        self.finite_slots = np.array(self.slots, dtype=np.intp)[finite]
        self.matrix = matrix
        self.counters = counters
        self.use_lemma1 = use_lemma1
        self.use_lemma2 = use_lemma2
        self.pending = np.ones((self.radii.size, n_objects), dtype=bool)
        #: ``later[p]`` is the first ``pending`` row of the queries after
        #: position ``p`` (the finite-radius queries among positions <= p).
        self.later = np.cumsum(finite).tolist()
        self._finite = finite.tolist()
        self._all_columns = np.arange(n_objects)

    def columns(self, position: int) -> np.ndarray:
        """Page positions where ``dist(O, Q_position)`` must be computed.

        Final once every pivot before ``position`` has been swept.
        """
        if self._finite[position]:
            return self.pending[self.later[position] - 1].nonzero()[0]
        return self._all_columns


def avoid_vectorized(
    sweep: PivotSweep, position: int, columns: np.ndarray, known: np.ndarray
) -> None:
    """Sweep pivot ``position`` over every later query of the page.

    ``known`` holds ``dist(O, Q_position)`` at the page positions
    ``columns`` -- exactly the objects this row was computed for, so an
    avoided (unknown) distance is never used in a lemma.  Each later
    finite-radius query tests the objects it is still undecided on;
    successes leave ``sweep.pending``.  A failed pivot costs one try per
    enabled lemma, a Lemma 1 success one, a Lemma 2 success
    ``use_lemma1 + 1`` -- the counting of :func:`avoid_reference`.
    """
    first = sweep.later[position]
    radii = sweep.radii[first:]
    if not radii.size:
        return
    # Asked for even when nothing is left to test: in lazy matrix mode
    # the query-major loop charges these pairs regardless.
    dqq = fetch_pairs(
        sweep.matrix, sweep.slots[position], sweep.finite_slots[first:]
    )
    if not columns.size:
        return
    pending = sweep.pending[first:, columns]
    lemma1: Any = False
    lemma2: Any = False
    if sweep.use_lemma1:
        # Lemma 1: dist(O, Q_j) > dist(Q_i, Q_j) + r_i
        lemma1 = known > (dqq + radii)[:, None]
    if sweep.use_lemma2:
        # Lemma 2: dist(Q_i, Q_j) > dist(O, Q_j) + r_i
        lemma2 = dqq[:, None] > known + radii[:, None]
    hit = pending & (lemma1 | lemma2)
    n_hit = int(np.count_nonzero(hit))
    # Lemma 1 is tried first: a Lemma 2 success is a hit it did not score.
    n_lemma1 = int(np.count_nonzero(pending & lemma1))
    n_missed = int(np.count_nonzero(pending)) - n_hit
    sweep.counters.avoidance_tries += (
        (sweep.use_lemma1 + sweep.use_lemma2) * n_missed
        + n_lemma1
        + (sweep.use_lemma1 + 1) * (n_hit - n_lemma1)
    )
    if n_hit:
        sweep.counters.avoided_calculations += n_hit
        sweep.pending[first:, columns] = pending ^ hit


def avoid_reference(
    known_for_object: Sequence[tuple[float, float]],
    radius: float,
    counters: Counters,
    use_lemma1: bool = True,
    use_lemma2: bool = True,
) -> bool:
    """Object-at-a-time avoidance test (the literal Fig. 4 inner loop).

    ``known_for_object`` holds ``(dist(O, Q_j), dist(Q_i, Q_j))`` pairs
    for the already-handled queries whose distance to ``O`` was actually
    computed, in handling order, already truncated to the pivot cap by
    the caller.  Returns whether ``dist(O, Q_i)`` is avoidable, charging
    one try per evaluated lemma and stopping at the first success -- the
    same counting as :func:`avoid_vectorized`.
    """
    if math.isinf(radius):
        return False
    avoided = False
    for object_to_known, query_to_known in known_for_object:
        if use_lemma1:
            counters.avoidance_tries += 1
            if object_to_known > query_to_known + radius:  # Lemma 1
                avoided = True
                break
        if use_lemma2:
            counters.avoidance_tries += 1
            if query_to_known > object_to_known + radius:  # Lemma 2
                avoided = True
                break
    if avoided:
        counters.avoided_calculations += 1
    return avoided


class PairwiseDistanceCache:
    """Query-to-query distances (``QObjDists`` in Fig. 4), cached.

    The paper charges ``(m-1) * m / 2`` distance calculations per
    multiple similarity query for the matrix initialisation.  Within an
    incremental processor the same pair may be needed by many successive
    calls; it is computed (and charged) exactly once and dropped when a
    query retires.
    """

    def __init__(self, space: MetricSpace):
        self._space = space
        self._pairs: dict[tuple[Hashable, Hashable], float] = {}

    @staticmethod
    def _key(a: Any, b: Any) -> tuple[Hashable, Hashable]:
        return (a, b) if a <= b else (b, a)

    def __len__(self) -> int:
        return len(self._pairs)

    def get(self, key_a: Hashable, obj_a: Any, key_b: Hashable, obj_b: Any) -> float:
        """Distance between two query objects, computing it on first use."""
        key = self._key(key_a, key_b)
        value = self._pairs.get(key)
        if value is None:
            value = self._space.d_query_pair(obj_a, obj_b)
            self._pairs[key] = value
        return value

    def matrix(
        self, keys: Sequence[Hashable], objs: Sequence[Any]
    ) -> np.ndarray:
        """Symmetric distance matrix over the given queries.

        Missing pairs are computed and charged; the diagonal is zero.
        """
        m = len(keys)
        matrix = np.zeros((m, m), dtype=float)
        for i in range(m):
            for j in range(i + 1, m):
                value = self.get(keys[i], objs[i], keys[j], objs[j])
                matrix[i, j] = matrix[j, i] = value
        return matrix

    def drop(self, key_a: Hashable) -> None:
        """Forget every cached pair involving ``key_a`` (query retired)."""
        stale = [pair for pair in self._pairs if key_a in pair]
        for pair in stale:
            del self._pairs[pair]

    def clear(self) -> None:
        """Drop all cached pairs."""
        self._pairs.clear()
