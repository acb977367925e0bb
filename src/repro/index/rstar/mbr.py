"""Minimum bounding rectangles (hyper-rectangles) and their algebra."""

from __future__ import annotations

from typing import Iterable

import numpy as np


class MBR:
    """Axis-aligned minimum bounding rectangle in d dimensions."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if self.lo.shape != self.hi.shape or self.lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal shape")
        if np.any(self.lo > self.hi):
            raise ValueError("MBR must satisfy lo <= hi in every dimension")

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MBR":
        """Tightest MBR of a non-empty point set."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError("need a non-empty (n, d) point array")
        return cls(points.min(axis=0), points.max(axis=0))

    @classmethod
    def from_mbrs(cls, mbrs: Iterable["MBR"]) -> "MBR":
        """Tightest MBR enclosing a non-empty collection of MBRs."""
        mbrs = list(mbrs)
        if not mbrs:
            raise ValueError("need at least one MBR")
        lo = np.min([m.lo for m in mbrs], axis=0)
        hi = np.max([m.hi for m in mbrs], axis=0)
        return cls(lo, hi)

    @property
    def dimension(self) -> int:
        """Number of dimensions."""
        return int(self.lo.size)

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.hi - self.lo

    def volume(self) -> float:
        """Product of the side lengths (the R*-tree "area")."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of the side lengths (the R*-tree "margin")."""
        return float(np.sum(self.extents))

    def center(self) -> np.ndarray:
        """Geometric center point."""
        return (self.lo + self.hi) / 2.0

    def union(self, other: "MBR") -> "MBR":
        """Smallest MBR enclosing both rectangles."""
        return MBR(np.minimum(self.lo, other.lo), np.maximum(self.hi, other.hi))

    def union_point(self, point: np.ndarray) -> "MBR":
        """Smallest MBR enclosing this rectangle and one point."""
        point = np.asarray(point, dtype=float)
        return MBR(np.minimum(self.lo, point), np.maximum(self.hi, point))

    def enlargement(self, point: np.ndarray) -> float:
        """Volume increase needed to include ``point``."""
        return self.union_point(point).volume() - self.volume()

    def intersects(self, other: "MBR") -> bool:
        """Whether the two rectangles share at least one point."""
        return bool(np.all(self.lo <= other.hi) and np.all(other.lo <= self.hi))

    def overlap_volume(self, other: "MBR") -> float:
        """Volume of the intersection (0 when disjoint)."""
        lo = np.maximum(self.lo, other.lo)
        hi = np.minimum(self.hi, other.hi)
        sides = hi - lo
        if np.any(sides < 0):
            return 0.0
        return float(np.prod(sides))

    def contains_point(self, point: np.ndarray) -> bool:
        """Whether ``point`` lies inside (boundary inclusive)."""
        point = np.asarray(point, dtype=float)
        return bool(np.all(self.lo <= point) and np.all(point <= self.hi))

    def copy(self) -> "MBR":
        """Independent copy."""
        return MBR(self.lo.copy(), self.hi.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))

    def __repr__(self) -> str:
        return f"MBR(lo={np.round(self.lo, 3)}, hi={np.round(self.hi, 3)})"
