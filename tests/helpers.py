"""Brute-force oracles, the entry-by-entry X-tree ranking, the scalar
choose-subtree loops, the slice-based repeated-call loops and a Lemma 1/2
sweep driver shared by the test modules."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import namedtuple

import numpy as np

from repro.core.avoidance import PivotSweep, avoid_vectorized
from repro.core.types import QueryType, range_query


def brute_force_answers(
    vectors: np.ndarray, query: np.ndarray, qtype: QueryType
) -> list[tuple[int, float]]:
    """Reference implementation of Definition 1 for Euclidean vectors.

    Returns ``(index, distance)`` pairs sorted by distance then index,
    honouring both the range and the cardinality component of the query
    type.  Used as the oracle for every engine/access-method combination.
    """
    distances = np.sqrt(((vectors - query) ** 2).sum(axis=1))
    order = sorted(range(len(vectors)), key=lambda i: (distances[i], i))
    answers = [
        (i, float(distances[i])) for i in order if distances[i] <= qtype.range
    ]
    if not math.isinf(qtype.cardinality):
        answers = answers[: int(qtype.cardinality)]
    return answers


def answer_indices_match(
    got: list, expected: list[tuple[int, float]], tolerance: float = 1e-9
) -> bool:
    """Compare answers, tolerating reordering among distance ties."""
    if len(got) != len(expected):
        return False
    got_dists = sorted(a.distance for a in got)
    exp_dists = sorted(d for _, d in expected)
    return all(
        abs(g - e) <= tolerance * max(1.0, abs(e))
        for g, e in zip(got_dists, exp_dists)
    )


class ReferenceXTreeStream:
    """Entry-by-entry Hjaltason-Samet ranking: the oracle of the X-tree stream.

    One scalar MINDIST per child, charged as it is taken; children are
    tested and queued in directory order; every directory node but the
    pinned root is read from the tree's disk.  The production stream
    bounds a whole node in one pass and must be indistinguishable from
    this in delivered ``(bound, page)`` pairs, counters and the
    ``index.node_visit`` attributes collected in ``visits``.
    """

    def __init__(self, tree, query):
        self.tree = tree
        self.query = np.asarray(query, dtype=float)
        self.counter = itertools.count()
        self.visits: list[dict] = []
        self.heap = []
        if tree.root is not None:
            self.heap = [(self._bound(tree.root), next(self.counter), tree.root, 0)]

    def _bound(self, node) -> float:
        return float(
            self.tree.space.mbr_mindist(node.mbr.lo, node.mbr.hi, self.query)
        )

    def next_page(self, radius: float):
        heap = self.heap
        while heap:
            bound, _, node, level = heap[0]
            if bound > radius:
                return None
            heapq.heappop(heap)
            if node.is_leaf:
                return bound, node.page
            if node is not self.tree.root:
                self.tree.disk.read(node.page)
            pushed = 0
            for child in node.children:
                child_bound = self._bound(child)
                if child_bound <= radius:
                    heapq.heappush(
                        heap, (child_bound, next(self.counter), child, level + 1)
                    )
                    pushed += 1
            self.visits.append(
                {
                    "level": level,
                    "entries": len(node.children),
                    "pushed": pushed,
                    "pruned": len(node.children) - pushed,
                    "supernode": node.page.n_blocks > 1,
                }
            )
        return None


def least_enlargement_child_reference(children, point):
    """The scalar choose-subtree loop above the leaf level: the oracle of
    ``XTree._least_enlargement_child``."""
    best, best_key = None, None
    for child in children:
        key = (child.mbr.enlargement(point), child.mbr.volume())
        if best_key is None or key < best_key:
            best, best_key = child, key
    return best


def least_overlap_child_reference(children, point):
    """The scalar choose-subtree loop at the leaf level, one
    ``MBR.overlap_volume`` per sibling pair: the oracle of
    ``XTree._least_overlap_child``."""
    best, best_key = None, None
    for child in children:
        enlarged = child.mbr.union_point(point)
        overlap_delta = 0.0
        for other in children:
            if other is child:
                continue
            overlap_delta += enlarged.overlap_volume(other.mbr)
            overlap_delta -= child.mbr.overlap_volume(other.mbr)
        key = (overlap_delta, child.mbr.enlargement(point), child.mbr.volume())
        if best_key is None or key < best_key:
            best, best_key = child, key
    return best


def pull_pages(stream, n_unbounded: int, radius: float) -> list[tuple[float, int]]:
    """Drain ``stream``: ``n_unbounded`` calls at radius inf (a k-NN query
    before its list is full), every later call at ``radius``."""
    delivered = []
    for call in itertools.count():
        item = stream.next_page(math.inf if call < n_unbounded else radius)
        if item is None:
            return delivered
        delivered.append((item[0], item[1].page_id))


Query = namedtuple("Query", "radius slot")


def sweep_last_query(known, dqq, radius, counters, **options):
    """Avoided mask of the last query of a page after sweeping ``known``.

    Row ``j`` of ``known`` holds the object distances to pivot ``Q_j``
    (NaN where that distance was not computed), ``dqq[j]`` is
    ``dist(Q_last, Q_j)``.  The pivots carry an infinite radius, so the
    last query is the only one tested.
    """
    known = np.asarray(known, dtype=float)
    n_known, n_objects = known.shape
    batch = [Query(math.inf, j) for j in range(n_known)]
    batch.append(Query(radius, n_known))
    matrix = np.zeros((n_known + 1, n_known + 1))
    matrix[n_known, :n_known] = matrix[:n_known, n_known] = dqq
    sweep = PivotSweep(batch, matrix, n_objects, counters, **options)
    for position in range(sweep.n_pivots):
        columns = np.flatnonzero(~np.isnan(known[position]))
        avoid_vectorized(sweep, position, columns, known[position, columns])
    avoided = np.ones(n_objects, dtype=bool)
    avoided[sweep.columns(n_known)] = False
    return avoided


def slice_loop_process(processor, objs, qtypes, keys, db_indices=None):
    """One call of the slice-based repeated-call loop: the oracle of
    ``MultiQueryProcessor.advance``.

    The whole slice is handed over on every call: each query is admitted
    (a buffered one restored), duplicates fold into their first
    occurrence, the slice is seeded and warmed (queries seeded or warmed
    before are skipped), and its head is driven against the rest.  The
    processor's query window is never touched.
    """
    if isinstance(qtypes, QueryType):
        qtypes = [qtypes] * len(objs)
    pendings = []
    for i, (obj, qtype) in enumerate(zip(objs, qtypes)):
        index = None if db_indices is None else db_indices[i]
        pending = processor.admit(obj, qtype, keys[i], index)
        if all(pending is not other for other in pendings):
            pendings.append(pending)
    if processor.seed_from_queries:
        processor.seed_radius_hints(pendings)
    if processor.warm_start:
        processor.warm_up(pendings)
    driver, others = pendings[0], pendings[1:]
    if not driver.complete:
        for _ in processor.drive_pages(driver, others):
            pass
    return driver.answers.materialize()


def slice_loop_dbscan(database, eps, min_pts, batch_size):
    """DBSCAN handing ``seeds[:batch_size]`` to :func:`slice_loop_process`
    on every query: the oracle of ``repro.mining.dbscan``."""
    from repro.core.multi_query import MultiQueryProcessor
    from repro.mining.dbscan import _UNCLASSIFIED, NOISE, DBSCANResult

    n = len(database.dataset)
    labels = np.full(n, _UNCLASSIFIED, dtype=int)
    qtype = range_query(eps)
    processor = MultiQueryProcessor(database, seed_from_queries=False)
    queries_issued = 0

    def neighborhood(seeds):
        nonlocal queries_issued
        queries_issued += 1
        window = seeds[:batch_size]
        objs = [database.dataset[i] for i in window]
        answers = slice_loop_process(processor, objs, qtype, window)
        processor.retire(seeds[0])
        return [a.index for a in answers]

    cluster_id = 0
    for start in range(n):
        if labels[start] != _UNCLASSIFIED:
            continue
        neighbors = neighborhood([start])
        if len(neighbors) < min_pts:
            labels[start] = NOISE
            continue
        labels[start] = cluster_id
        seeds = [i for i in neighbors if labels[i] in (_UNCLASSIFIED, NOISE)]
        for i in seeds:
            labels[i] = cluster_id
        while seeds:
            current_neighbors = neighborhood(seeds)
            seeds = seeds[1:]
            if len(current_neighbors) >= min_pts:
                for i in current_neighbors:
                    if labels[i] in (_UNCLASSIFIED, NOISE):
                        if labels[i] == _UNCLASSIFIED:
                            seeds.append(i)
                        labels[i] = cluster_id
        cluster_id += 1
    return DBSCANResult(labels, cluster_id, queries_issued)
