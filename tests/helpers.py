"""Brute-force oracles and a Lemma 1/2 sweep driver shared by the test modules."""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from repro.core.avoidance import PivotSweep, avoid_vectorized
from repro.core.types import QueryType


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
