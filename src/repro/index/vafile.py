"""The VA-file access method (Weber, Schek, Blott, VLDB 1998).

The paper cites the VA-file [22] as the scan-based method of choice in
very high dimensions: a compact *vector approximation* file holds a few
bits per dimension for every object; a query first scans the small
approximation file sequentially, derives per-object distance bounds,
and only reads the full vectors of objects whose lower bound does not
already disqualify them.

Integration with the multiple-query engine: the page stream performs the
approximation scan for the driving query (charged as sequential reads of
the approximation pages plus one bound computation per object) and then
delivers the data pages containing surviving candidates in ascending
lower-bound order.  Other queries of a batch are served from the same
in-memory pages via the triangle-inequality machinery of the engine.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.data import Dataset, VectorDataset
from repro.index.base import AccessMethod, PageStream
from repro.metric.distances import EuclideanDistance
from repro.metric.space import MetricSpace
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import data_page_capacity, paginate
from repro.storage.page import Page, PageKind


class _VAFileStream(PageStream):
    """Approximation-scan stream: data pages by ascending lower bound."""

    def __init__(self, vafile: "VAFile", query_obj: np.ndarray):
        super().__init__(vafile)
        self._vafile = vafile
        query = np.asarray(query_obj, dtype=float)
        # Phase 1: sequential scan of the approximation file.
        vafile.disk.reset_head()
        for page in vafile.approximation_pages:
            vafile.disk.read(page, sequential=True)
        lower = vafile.lower_bounds(query)
        vafile.space.counters.mindist_evaluations += len(lower)
        # Aggregate object bounds to page bounds.
        page_bounds = [
            (float(lower[page.indices].min()), i)
            for i, page in enumerate(vafile.vector_pages)
            if page.n_objects > 0
        ]
        page_bounds.sort()
        self._ordered = page_bounds
        self._position = 0
        self._telemetry = vafile.traversal_telemetry()
        if self._telemetry is not None:
            self._lower = lower
            self._telemetry.observer.event(
                "index.filter",
                access=vafile.name,
                objects=len(lower),
                pages=len(page_bounds),
                approx_pages=len(vafile.approximation_pages),
            )

    def next_page(self, radius: float) -> tuple[float, Page] | None:
        if self._position >= len(self._ordered) or (
            self._ordered[self._position][0] > radius
        ):
            if self._telemetry is not None and not self._telemetry.closed:
                # Candidate set at the final radius: objects whose
                # approximation-derived lower bound does not disqualify
                # them (the VA-file phase-1 filter output, Sec. 5.2).
                if np.isfinite(radius):
                    candidates = int(np.count_nonzero(self._lower <= radius))
                else:
                    candidates = len(self._lower)
                self._telemetry.observer.metrics.set_gauge(
                    "index.vafile.candidates", candidates
                )
                self._telemetry.finish(
                    pending=len(self._ordered) - self._position,
                    candidates=candidates,
                )
            return None
        bound, page_index = self._ordered[self._position]
        self._position += 1
        page = self._vafile.vector_pages[page_index]
        if self._telemetry is not None:
            self._telemetry.node_visit(
                level=0,
                entries=page.n_objects,
                pushed=1,
                pruned=0,
                page_id=page.page_id,
            )
        return bound, page


class VAFile(AccessMethod):
    """Vector-approximation file over a :class:`VectorDataset`.

    Parameters
    ----------
    bits_per_dim:
        Grid resolution; the approximation file stores
        ``n * d * bits_per_dim / 8`` bytes.
    """

    name = "vafile"
    sequential_data_access = False
    stream_scans_filter = True

    def __init__(
        self,
        dataset: Dataset,
        space: MetricSpace,
        disk: SimulatedDisk,
        bits_per_dim: int = 6,
    ):
        super().__init__(dataset, space, disk)
        if not isinstance(dataset, VectorDataset):
            raise TypeError("the VA-file requires a VectorDataset")
        if not isinstance(space.distance, EuclideanDistance):
            raise ValueError("the VA-file bounds are derived for Euclidean distance")
        if not 1 <= bits_per_dim <= 16:
            raise ValueError("bits_per_dim must be between 1 and 16")
        self.bits_per_dim = bits_per_dim
        vectors = dataset.vectors
        n, d = vectors.shape

        # Uniform grid per dimension over the data range.
        n_cells = 2**bits_per_dim
        lo = vectors.min(axis=0)
        hi = vectors.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        self.grid_lo = lo
        self.grid_step = span / n_cells
        codes = np.clip(
            ((vectors - lo) / self.grid_step).astype(np.int32), 0, n_cells - 1
        )
        self.codes = codes
        self.n_cells = n_cells
        # Cell interval cache: the bound computations below used to
        # re-materialise both (n, d) interval arrays on every call --
        # one query at a time, on the hot path of every stream open.
        # The cells are a pure function of the codes and the grid, so
        # they are built once here and shared read-only.
        self._cell_lo = lo + codes * self.grid_step
        self._cell_lo.setflags(write=False)
        self._cell_hi = self._cell_lo + self.grid_step
        self._cell_hi.setflags(write=False)

        # Full vectors on regular data pages.
        capacity = data_page_capacity(d, disk.block_size)
        self.vector_pages = paginate(
            n, capacity, first_page_id=disk.allocate_page_id(), stored=vectors
        )
        disk.register_all(self.vector_pages)

        # Approximation file pages (read on every query).
        approx_bytes = n * d * bits_per_dim / 8
        n_approx_pages = max(1, math.ceil(approx_bytes / disk.block_size))
        first_approx_id = disk.allocate_page_id()
        self.approximation_pages = [
            Page(page_id=first_approx_id + offset, kind=PageKind.DIRECTORY)
            for offset in range(n_approx_pages)
        ]
        disk.register_all(self.approximation_pages)

    def lower_bounds(self, query: np.ndarray) -> np.ndarray:
        """Per-object Euclidean lower bounds from the approximation cells.

        For each dimension the gap between the query coordinate and the
        cell interval of the object is accumulated; a point inside the
        cell contributes zero.
        """
        gap = np.maximum(
            np.maximum(self._cell_lo - query, query - self._cell_hi), 0.0
        )
        return np.sqrt(np.einsum("ij,ij->i", gap, gap))

    def upper_bounds(self, query: np.ndarray) -> np.ndarray:
        """Per-object Euclidean upper bounds from the approximation cells."""
        gap = np.maximum(
            np.abs(query - self._cell_lo), np.abs(self._cell_hi - query)
        )
        return np.sqrt(np.einsum("ij,ij->i", gap, gap))

    def lower_bounds_many(self, queries: np.ndarray) -> np.ndarray:
        """Lower bounds for a query batch in one pass: shape ``(m, n)``.

        Equivalent to stacking :meth:`lower_bounds` per query, but the
        cell-interval comparison runs once over the broadcast
        ``(m, n, d)`` block instead of ``m`` Python-level iterations.
        Purely computational: no counters are charged here (callers
        charge ``mindist_evaluations`` per bound they consume, exactly
        as for the single-query form).
        """
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        gap = np.maximum(
            np.maximum(
                self._cell_lo[None, :, :] - queries[:, None, :],
                queries[:, None, :] - self._cell_hi[None, :, :],
            ),
            0.0,
        )
        return np.sqrt(np.einsum("mij,mij->mi", gap, gap))

    def upper_bounds_many(self, queries: np.ndarray) -> np.ndarray:
        """Upper bounds for a query batch in one pass: shape ``(m, n)``."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        gap = np.maximum(
            np.abs(queries[:, None, :] - self._cell_lo[None, :, :]),
            np.abs(self._cell_hi[None, :, :] - queries[:, None, :]),
        )
        return np.sqrt(np.einsum("mij,mij->mi", gap, gap))

    def data_pages(self) -> list[Page]:
        return list(self.vector_pages)

    def page_stream(self, query_obj: Any) -> PageStream:
        return _VAFileStream(self, query_obj)

    def prefilter_profile(self) -> dict[str, Any]:
        """Quantized intervals at the file's own grid resolution: the
        sketch then mirrors the VA-file's bit-budget discipline."""
        return {
            "kind": "quantized",
            "bits": self.bits_per_dim,
            "pivot_hints": None,
        }

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "pages": len(self.vector_pages),
            "approximation_pages": len(self.approximation_pages),
            "bits_per_dim": self.bits_per_dim,
        }
