"""Metric distance functions.

Every distance function implements :class:`DistanceFunction`:

* ``one(a, b)`` -- distance between two objects;
* ``many(xs, q)`` -- distances from a batch of objects to one query object
  (vectorised with numpy where the objects are vectors);
* ``cross(xs, qs)`` -- the full ``(n, m)`` cross-distance matrix between a
  batch of objects and a batch of query objects, evaluated in one fused
  kernel (a single GEMM-based expansion for the inner-product family,
  one broadcast kernel for the other Lp metrics, and an object-at-a-time
  fallback for non-vector metrics);
* optionally ``mbr_mindist(lo, hi, q)`` -- a lower bound of the distance
  between ``q`` and any point inside the axis-aligned box ``[lo, hi]``,
  required by R-tree-family indexes.  The arguments broadcast against
  each other and the last axis is reduced, so one definition bounds one
  box, a directory node's stacked ``(fanout, d)`` boxes against one
  query, or one box against an ``(m, d)`` query block.

Instances are stateless and reusable across databases.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


class DistanceFunction:
    """Base class for metric distance functions.

    Subclasses must implement :meth:`one`; :meth:`many` has a generic
    object-at-a-time fallback that vector metrics override with numpy
    batch evaluation.
    """

    #: Human-readable name used in reports.
    name: str = "abstract"

    #: Whether the metric operates on numeric vectors (enables the
    #: vectorised query engine and R-tree-family indexes).
    is_vector_metric: bool = False

    def one(self, a: Any, b: Any) -> float:
        """Return the distance between objects ``a`` and ``b``."""
        raise NotImplementedError

    def many(self, xs: Any, q: Any) -> np.ndarray:
        """Return distances from each object in ``xs`` to ``q``."""
        return np.array([self.one(x, q) for x in xs], dtype=float)

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        """Return the ``(n, m)`` distance matrix between ``xs`` and ``qs``.

        The generic fallback evaluates one :meth:`many` column per query
        object, which works for arbitrary (non-vector) objects; vector
        metrics override it with a single fused kernel.
        """
        n = len(xs)
        m = len(qs)
        if n == 0 or m == 0:
            return np.empty((n, m), dtype=float)
        return np.stack([self.many(xs, q) for q in qs], axis=1)

    def supports_mbr(self) -> bool:
        """Whether :meth:`mbr_mindist` is available for this metric."""
        return False

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Lower-bound distance from ``q`` to the box ``[lo, hi]``.

        ``lo``, ``hi`` and ``q`` broadcast; the result has their common
        shape minus the last (dimension) axis.
        """
        raise NotImplementedError(f"{self.name} has no MBR lower bound")

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _clip_outside(lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-dimension gap between ``q`` and the box ``[lo, hi]`` (0 inside)."""
    return np.maximum(np.maximum(lo - q, q - hi), 0.0)


def _gemm_sq_cross(
    xs: np.ndarray, qs: np.ndarray, sq_x: np.ndarray, sq_q: np.ndarray
) -> np.ndarray:
    """Squared cross distances via the ``|x|^2 + |q|^2 - 2 x.q`` expansion.

    ``xs @ qs.T`` is the single GEMM carrying all ``n * m`` interactions;
    ``sq_x`` / ``sq_q`` are the per-row squared norms under the metric's
    inner product.  Clipped at zero against cancellation for near-equal
    pairs.  The GEMM output buffer is updated in place: the follow-up
    passes are memory-bound, so avoiding the three broadcast temporaries
    roughly halves the kernel time at page scale.
    """
    sq = xs @ qs.T
    sq *= -2.0
    sq += sq_x[:, None]
    sq += sq_q
    return np.maximum(sq, 0.0, out=sq)


def _abs_diff_cross(xs: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Broadcast ``(n, m, d)`` kernel of |x - q| for the Lp family."""
    return np.abs(xs[:, None, :] - qs[None, :, :])


class EuclideanDistance(DistanceFunction):
    """The Euclidean (L2) distance, the paper's primary metric."""

    name = "euclidean"
    is_vector_metric = True

    def one(self, a: Any, b: Any) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.sqrt(np.dot(diff, diff)))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.asarray(xs, dtype=float) - np.asarray(q, dtype=float)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        sq_x = np.einsum("ij,ij->i", xs, xs)
        sq_q = np.einsum("ij,ij->i", qs, qs)
        sq = _gemm_sq_cross(xs, qs, sq_x, sq_q)
        return np.sqrt(sq, out=sq)

    def supports_mbr(self) -> bool:
        return True

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        gap = _clip_outside(lo, hi, q)
        return np.sqrt(np.einsum("...j,...j->...", gap, gap))


class WeightedEuclideanDistance(DistanceFunction):
    """Euclidean distance with non-negative per-dimension weights."""

    name = "weighted_euclidean"
    is_vector_metric = True

    def __init__(self, weights: Sequence[float]):
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        if np.any(self.weights < 0):
            raise ValueError("weights must be non-negative")

    def one(self, a: Any, b: Any) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.sqrt(np.dot(self.weights * diff, diff)))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.asarray(xs, dtype=float) - np.asarray(q, dtype=float)
        return np.sqrt(np.einsum("ij,j,ij->i", diff, self.weights, diff))

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        xw = xs * self.weights
        sq_x = np.einsum("ij,ij->i", xw, xs)
        sq_q = np.einsum("ij,j,ij->i", qs, self.weights, qs)
        sq = _gemm_sq_cross(xw, qs, sq_x, sq_q)
        return np.sqrt(sq, out=sq)

    def supports_mbr(self) -> bool:
        return True

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        gap = _clip_outside(lo, hi, q)
        return np.sqrt(np.einsum("...j,j,...j->...", gap, self.weights, gap))

    def __repr__(self) -> str:
        return f"WeightedEuclideanDistance(dim={len(self.weights)})"


class QuadraticFormDistance(DistanceFunction):
    """Quadratic-form distance ``sqrt((a-b)^T A (a-b))``.

    With a symmetric positive-semi-definite matrix ``A`` this is the
    distance the paper cites for colour-histogram similarity ([21],
    Seidl & Kriegel).  A valid MBR lower bound is derived by scaling the
    Euclidean MINDIST with the square root of the smallest eigenvalue of
    ``A`` (the quadratic form is bounded below by ``lambda_min * |x|^2``).
    """

    name = "quadratic_form"
    is_vector_metric = True

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(matrix, matrix.T, atol=1e-10):
            raise ValueError("matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(matrix)
        if eigvals[0] < -1e-10:
            raise ValueError("matrix must be positive semi-definite")
        self.matrix = matrix
        self._lambda_min_sqrt = float(np.sqrt(max(eigvals[0], 0.0)))
        self._euclidean = EuclideanDistance()

    @classmethod
    def color_histogram(cls, dim: int, decay: float = 2.0) -> "QuadraticFormDistance":
        """Build the classic colour-histogram similarity matrix.

        ``A[i, j] = exp(-decay * |i - j| / dim)`` expresses that nearby
        histogram bins (similar colours) partially match.
        """
        idx = np.arange(dim)
        matrix = np.exp(-decay * np.abs(idx[:, None] - idx[None, :]) / dim)
        return cls(matrix)

    def one(self, a: Any, b: Any) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        value = float(diff @ self.matrix @ diff)
        return float(np.sqrt(max(value, 0.0)))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.asarray(xs, dtype=float) - np.asarray(q, dtype=float)
        values = np.einsum("ij,jk,ik->i", diff, self.matrix, diff)
        return np.sqrt(np.maximum(values, 0.0))

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        xa = xs @ self.matrix
        sq_x = np.einsum("ij,ij->i", xa, xs)
        sq_q = np.einsum("ij,jk,ik->i", qs, self.matrix, qs)
        sq = _gemm_sq_cross(xa, qs, sq_x, sq_q)
        return np.sqrt(sq, out=sq)

    def supports_mbr(self) -> bool:
        return self._lambda_min_sqrt > 0.0

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        return self._lambda_min_sqrt * self._euclidean.mbr_mindist(lo, hi, q)

    def __repr__(self) -> str:
        return f"QuadraticFormDistance(dim={self.matrix.shape[0]})"


class ManhattanDistance(DistanceFunction):
    """The Manhattan (L1) distance."""

    name = "manhattan"
    is_vector_metric = True

    def one(self, a: Any, b: Any) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.sum(np.abs(diff)))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.asarray(xs, dtype=float) - np.asarray(q, dtype=float)
        return np.sum(np.abs(diff), axis=1)

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        diff = _abs_diff_cross(
            np.asarray(xs, dtype=float), np.asarray(qs, dtype=float)
        )
        return np.sum(diff, axis=-1)

    def supports_mbr(self) -> bool:
        return True

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.sum(_clip_outside(lo, hi, q), axis=-1)


class ChebyshevDistance(DistanceFunction):
    """The Chebyshev (L-infinity) distance."""

    name = "chebyshev"
    is_vector_metric = True

    def one(self, a: Any, b: Any) -> float:
        diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        return float(np.max(np.abs(diff))) if diff.size else 0.0

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.asarray(xs, dtype=float) - np.asarray(q, dtype=float)
        return np.max(np.abs(diff), axis=1)

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        if xs.shape[1] == 0:
            return np.zeros((xs.shape[0], qs.shape[0]), dtype=float)
        return np.max(_abs_diff_cross(xs, qs), axis=-1)

    def supports_mbr(self) -> bool:
        return True

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        return np.max(_clip_outside(lo, hi, q), axis=-1, initial=0.0)


class MinkowskiDistance(DistanceFunction):
    """The Minkowski (Lp) distance for ``p >= 1``."""

    name = "minkowski"
    is_vector_metric = True

    def __init__(self, p: float):
        if p < 1:
            raise ValueError("Minkowski distance requires p >= 1")
        self.p = float(p)

    def one(self, a: Any, b: Any) -> float:
        diff = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))
        return float(np.sum(diff**self.p) ** (1.0 / self.p))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        diff = np.abs(np.asarray(xs, dtype=float) - np.asarray(q, dtype=float))
        return np.sum(diff**self.p, axis=1) ** (1.0 / self.p)

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        diff = _abs_diff_cross(
            np.asarray(xs, dtype=float), np.asarray(qs, dtype=float)
        )
        return np.sum(diff**self.p, axis=-1) ** (1.0 / self.p)

    def supports_mbr(self) -> bool:
        return True

    def mbr_mindist(self, lo: np.ndarray, hi: np.ndarray, q: np.ndarray) -> np.ndarray:
        gap = _clip_outside(lo, hi, q)
        # np.power, not ``**``: a 0-d result would otherwise take numpy's
        # scalar pow, which rounds differently from the array loop.
        return np.power(np.sum(gap**self.p, axis=-1), 1.0 / self.p)

    def __repr__(self) -> str:
        return f"MinkowskiDistance(p={self.p})"


class CosineAngularDistance(DistanceFunction):
    """Angular distance ``arccos(cos_similarity)``, a metric on the sphere.

    Unlike raw cosine *dissimilarity* (which violates the triangle
    inequality), the angle between vectors is a true metric for non-zero
    vectors.
    """

    name = "cosine_angular"
    is_vector_metric = True

    def one(self, a: Any, b: Any) -> float:
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        norm = np.linalg.norm(a) * np.linalg.norm(b)
        if norm == 0.0:
            return 0.0 if np.array_equal(a, b) else float(np.pi)
        cos = np.clip(np.dot(a, b) / norm, -1.0, 1.0)
        return float(np.arccos(cos))

    def many(self, xs: Any, q: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        q = np.asarray(q, dtype=float)
        norms = np.linalg.norm(xs, axis=1) * np.linalg.norm(q)
        dots = xs @ q
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.where(norms > 0, dots / np.where(norms > 0, norms, 1.0), 1.0)
        zero_rows = norms == 0
        if np.any(zero_rows):
            same = np.all(xs == q, axis=1)
            cos = np.where(zero_rows & ~same, -1.0, cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))

    def cross(self, xs: Any, qs: Any) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        qs = np.asarray(qs, dtype=float)
        norm_x = np.linalg.norm(xs, axis=1)
        norm_q = np.linalg.norm(qs, axis=1)
        unit_x = xs / np.where(norm_x > 0, norm_x, 1.0)[:, None]
        unit_q = qs / np.where(norm_q > 0, norm_q, 1.0)[:, None]
        cos = unit_x @ unit_q.T
        zero = (norm_x == 0)[:, None] | (norm_q == 0)[None, :]
        if np.any(zero):
            same = np.all(xs[:, None, :] == qs[None, :, :], axis=-1)
            cos = np.where(zero, np.where(same, 1.0, -1.0), cos)
        return np.arccos(np.clip(cos, -1.0, 1.0))


class LevenshteinDistance(DistanceFunction):
    """Edit distance on strings, the paper's non-vector metric example.

    Supports the WWW-session scenario of Sec. 2: objects such as URL
    paths are not vectors, but edit distance is a metric over them, so a
    metric index (M-tree) and the multiple-query machinery both apply.
    """

    name = "levenshtein"
    is_vector_metric = False

    def one(self, a: Any, b: Any) -> float:
        s, t = str(a), str(b)
        if s == t:
            return 0.0
        if not s:
            return float(len(t))
        if not t:
            return float(len(s))
        previous = list(range(len(t) + 1))
        for i, cs in enumerate(s, start=1):
            current = [i]
            for j, ct in enumerate(t, start=1):
                cost = 0 if cs == ct else 1
                current.append(
                    min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost)
                )
            previous = current
        return float(previous[-1])


_REGISTRY = {
    "euclidean": EuclideanDistance,
    "manhattan": ManhattanDistance,
    "chebyshev": ChebyshevDistance,
    "cosine_angular": CosineAngularDistance,
    "levenshtein": LevenshteinDistance,
}


def get_distance(name: str | DistanceFunction, **kwargs: Any) -> DistanceFunction:
    """Resolve a distance function by name or pass an instance through.

    >>> get_distance("euclidean").name
    'euclidean'
    """
    if isinstance(name, DistanceFunction):
        return name
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown distance {name!r}; known: {known}") from None
    return factory(**kwargs)
