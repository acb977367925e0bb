"""Brute-force answers the program's outputs are checked against.

Distances are direct float64 differences, summed coordinate by
coordinate -- never the ``|x|^2 + |q|^2 - 2xq`` expansion a GEMM kernel
uses -- so the oracle shares no arithmetic shortcut with the program.
The two may still round differently in the last digits; ``TOLERANCE``
is the disagreement allowed at a distance comparison, and only there:

* k-NN: distance lists equal within the tolerance, index sets equal up
  to objects tied with the k-th distance;
* range: index sets equal up to objects within the tolerance of eps;
* DBSCAN: every core point clustered, the same partition of the core
  points, border points attached to a neighbouring core point's
  cluster, everything else noise.

Every checker *returns* the mismatches it found; the caller counts them
into ``failed``.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

TOLERANCE = 1e-9

#: DBSCAN's noise label, as ``repro.mining.dbscan`` reports it.
NOISE = -1


def distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``query`` to every row of ``vectors``."""
    difference = vectors - np.asarray(query, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", difference, difference))


def check_knn(
    vectors: np.ndarray, query: np.ndarray, k: int, answers: Sequence[Any]
) -> bool:
    """Whether ``answers`` (``(index, distance)`` pairs) are the k nearest."""
    truth = distances(vectors, query)
    k = min(k, len(truth))
    if len(answers) != k:
        return False
    indices = np.fromiter((a[0] for a in answers), dtype=np.int64, count=k)
    reported = np.fromiter((a[1] for a in answers), dtype=np.float64, count=k)
    if len(set(indices.tolist())) != k or indices.min() < 0 or indices.max() >= len(truth):
        return False
    if np.abs(truth[indices] - reported).max() > TOLERANCE:
        return False
    nearest = np.sort(np.partition(truth, k - 1)[:k])
    if np.abs(np.sort(reported) - nearest).max() > TOLERANCE:
        return False
    # Index sets modulo ties: everything clearly nearer than the k-th
    # distance must be reported; ties at the k-th distance may differ.
    clearly_inside = np.flatnonzero(truth < nearest[-1] - TOLERANCE)
    return bool(np.isin(clearly_inside, indices).all())


def check_range(
    vectors: np.ndarray, query: np.ndarray, eps: float, answers: Sequence[Any]
) -> bool:
    """Whether ``answers`` are exactly the objects within ``eps``."""
    truth = distances(vectors, query)
    count = len(answers)
    indices = np.fromiter((a[0] for a in answers), dtype=np.int64, count=count)
    reported = np.fromiter((a[1] for a in answers), dtype=np.float64, count=count)
    if len(set(indices.tolist())) != count:
        return False
    if count and (indices.min() < 0 or indices.max() >= len(truth)):
        return False
    if count and np.abs(truth[indices] - reported).max() > TOLERANCE:
        return False
    inside = np.zeros(len(truth), dtype=bool)
    inside[indices] = True
    disputed = inside != (truth <= eps)
    return bool((np.abs(truth[disputed] - eps) <= TOLERANCE).all())


def check_answers(
    vectors: np.ndarray, query: np.ndarray, qtype: Any, answers: Sequence[Any]
) -> bool:
    """Dispatch on the query type: finite cardinality means k-NN."""
    if math.isinf(qtype.cardinality):
        return check_range(vectors, query, qtype.range, answers)
    return check_knn(vectors, query, int(qtype.cardinality), answers)


# ----------------------------------------------------------------------
# DBSCAN
# ----------------------------------------------------------------------


def neighbour_pairs(
    vectors: np.ndarray, radius: float, chunk: int = 256
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All ordered pairs ``(i, j, dist)`` with ``dist <= radius``, self included.

    Exhaustive within a window: points are sorted along their widest
    coordinate and each chunk is compared with every point whose
    coordinate lies within ``radius`` of the chunk's -- a pair outside
    that window differs by more than ``radius`` in one coordinate alone.
    """
    n, dimension = vectors.shape
    axis = int(np.argmax(vectors.max(axis=0) - vectors.min(axis=0)))
    order = np.argsort(vectors[:, axis], kind="stable")
    ordered = vectors[order]
    keys = ordered[:, axis]
    sources, targets, dists = [], [], []
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        low = int(np.searchsorted(keys, keys[start] - radius, side="left"))
        high = int(np.searchsorted(keys, keys[stop - 1] + radius, side="right"))
        squared = np.zeros((stop - start, high - low))
        for column in range(dimension):
            difference = (
                ordered[start:stop, column, None] - ordered[None, low:high, column]
            )
            squared += difference * difference
        rows, columns = np.nonzero(squared <= (radius * (1 + 1e-12)) ** 2)
        found = np.sqrt(squared[rows, columns])
        keep = found <= radius
        sources.append(order[start + rows[keep]])
        targets.append(order[low + columns[keep]])
        dists.append(found[keep])
    return np.concatenate(sources), np.concatenate(targets), np.concatenate(dists)


def _components(n: int, sources: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Smallest member index of each vertex's connected component."""
    component = np.arange(n)
    while True:
        updated = component.copy()
        np.minimum.at(updated, sources, component[targets])
        updated = updated[updated]
        if np.array_equal(updated, component):
            return component
        component = updated


def _dbscan_mismatches(
    labels: np.ndarray,
    min_pts: int,
    sources: np.ndarray,
    targets: np.ndarray,
) -> int:
    """Points whose label contradicts the neighbour graph given."""
    n = len(labels)
    core = np.bincount(sources, minlength=n) >= min_pts
    bad = core & (labels == NOISE)

    core_edge = core[sources] & core[targets]
    split = core_edge & (labels[sources] != labels[targets])
    bad[sources[split]] = True

    # One cluster per component: two components sharing a label were
    # merged by the program without a chain of core points between them.
    component = _components(n, sources[core_edge], targets[core_edge])
    core_points = np.flatnonzero(core)
    pairs = np.unique(
        np.stack([labels[core_points], component[core_points]], axis=1), axis=0
    )
    merged_labels, counts = np.unique(pairs[:, 0], return_counts=True)
    bad |= core & np.isin(labels, merged_labels[counts > 1])

    # Border points belong to the cluster of some core neighbour;
    # points with no core neighbour are noise.
    to_core = ~core[sources] & core[targets]
    has_core = np.zeros(n, dtype=bool)
    has_core[sources[to_core]] = True
    agrees = np.zeros(n, dtype=bool)
    agrees[sources[to_core & (labels[sources] == labels[targets])]] = True
    bad |= ~core & has_core & ~agrees
    bad |= ~core & ~has_core & (labels != NOISE)
    return int(bad.sum())


def check_dbscan(
    vectors: np.ndarray, eps: float, min_pts: int, labels: np.ndarray
) -> int:
    """Number of points whose DBSCAN label is wrong.

    Checked against the exact neighbour graph first.  Only when that
    disagrees are the two graphs at ``eps -/+ TOLERANCE`` tried, so a
    pair whose distance the program rounded to the other side of eps is
    not held against it.
    """
    labels = np.asarray(labels)
    sources, targets, dists = neighbour_pairs(vectors, eps + TOLERANCE)
    mismatches = math.inf
    for radius in (eps, eps - TOLERANCE, eps + TOLERANCE):
        within = dists <= radius
        mismatches = min(
            mismatches,
            _dbscan_mismatches(labels, min_pts, sources[within], targets[within]),
        )
        if mismatches == 0:
            break
    return int(mismatches)
