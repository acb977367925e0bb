"""Instrumented metric space: every distance evaluation is counted."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.costmodel import Counters
from repro.metric.distances import DistanceFunction, get_distance


class MetricSpace:
    """A distance function bound to a shared :class:`Counters` instance.

    All query engines evaluate distances exclusively through this wrapper,
    which makes the CPU-cost accounting of the paper (number of distance
    calculations, Sec. 5.2) a by-product of running any query.

    Parameters
    ----------
    distance:
        A :class:`DistanceFunction` or a registry name such as
        ``"euclidean"``.
    counters:
        Counter sink; a fresh one is created when omitted.
    """

    def __init__(
        self,
        distance: str | DistanceFunction = "euclidean",
        counters: Counters | None = None,
    ):
        self.distance = get_distance(distance)
        self.counters = counters if counters is not None else Counters()

    @property
    def is_vector_metric(self) -> bool:
        """Whether the underlying metric operates on numeric vectors."""
        return self.distance.is_vector_metric

    def d(self, a: Any, b: Any) -> float:
        """Distance between two objects; counts one distance calculation."""
        self.counters.distance_calculations += 1
        return self.distance.one(a, b)

    def d_many(self, xs: Any, q: Any) -> np.ndarray:
        """Distances from a batch of objects to ``q``; counts ``len(xs)``."""
        n = len(xs)
        self.counters.distance_calculations += n
        if n == 0:
            return np.empty(0, dtype=float)
        return self.distance.many(xs, q)

    def cross_many(self, xs: Any, qs: Any) -> np.ndarray:
        """Cross-distance matrix ``(len(xs), len(qs))``; counts ``n * m``.

        One fused kernel evaluates every (object, query) pair.  The
        batched page engine afterwards *refunds* the calculations the
        reference engine would have avoided via the triangle inequality,
        so the net counter values stay identical across engines.
        """
        n = len(xs)
        m = len(qs)
        self.counters.distance_calculations += n * m
        if n == 0 or m == 0:
            return np.empty((n, m), dtype=float)
        return self.distance.cross(xs, qs)

    def d_query_pair(self, a: Any, b: Any) -> float:
        """Distance between two *query* objects (matrix initialisation).

        Counted separately because the paper's CPU cost formula charges
        the ``(m-1) * m / 2`` pairwise query distances as overhead.
        """
        self.counters.query_matrix_distance_calculations += 1
        return self.distance.one(a, b)

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Lower-bound distances between boxes and queries (broadcast).

        Counts one evaluation per (box, query) pair it was handed.
        """
        bounds = self.distance.mbr_mindist(lo, hi, q)
        self.counters.mindist_evaluations += bounds.size
        return bounds

    def uncounted(self, a: Any, b: Any) -> float:
        """Distance evaluation outside any measured query (e.g. checks)."""
        return self.distance.one(a, b)

    def uncounted_cross(self, xs: Any, qs: Any) -> np.ndarray:
        """Cross-distance matrix outside any measured query.

        Planning work (e.g. the optimizer's affinity partitioning) that
        must not show up in the query cost counters, in one fused
        kernel instead of ``len(xs) * len(qs)`` Python calls.
        """
        if len(xs) == 0 or len(qs) == 0:
            return np.empty((len(xs), len(qs)), dtype=float)
        return self.distance.cross(xs, qs)

    def __repr__(self) -> str:
        return f"MetricSpace({self.distance!r})"
