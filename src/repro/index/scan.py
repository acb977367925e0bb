"""The linear scan access method.

Query processing by sequential scan is the baseline of the paper: every
data page is relevant for every query, pages are read in physical order
(sequential I/O), and for a multiple similarity query a single pass over
the database answers the whole batch -- which is exactly why the scan's
I/O cost per query drops by a factor of ``m`` (Sec. 5.1).
"""

from __future__ import annotations

from typing import Any

from repro.data import Dataset, VectorDataset
from repro.index.base import AccessMethod, PageStream
from repro.metric.space import MetricSpace
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import data_page_capacity, paginate
from repro.storage.page import DEFAULT_BLOCK_SIZE, Page


class _ScanStream(PageStream):
    """Physical-order stream; the lower bound of every page is 0."""

    def __init__(self, scan: "LinearScan"):
        super().__init__(scan)
        self._pages = scan.data_pages()
        self._position = 0
        self._telemetry = scan.traversal_telemetry()
        scan.disk.reset_head()

    def next_page(self, radius: float) -> tuple[float, Page] | None:
        if radius < 0 or self._position >= len(self._pages):
            if self._telemetry is not None:
                self._telemetry.finish(pending=len(self._pages) - self._position)
            return None
        page = self._pages[self._position]
        self._position += 1
        if self._telemetry is not None:
            self._telemetry.node_visit(
                level=0,
                entries=page.n_objects,
                pushed=1,
                pruned=0,
                page_id=page.page_id,
            )
        return 0.0, page


class LinearScan(AccessMethod):
    """Sequential scan over all data pages in physical order."""

    name = "scan"
    sequential_data_access = True

    def __init__(
        self,
        dataset: Dataset,
        space: MetricSpace,
        disk: SimulatedDisk,
        page_capacity: int | None = None,
    ):
        super().__init__(dataset, space, disk)
        if page_capacity is None:
            if dataset.is_vector:
                page_capacity = data_page_capacity(
                    dataset.dimension, disk.block_size
                )
            else:
                page_capacity = max(1, disk.block_size // 256)
        self.page_capacity = page_capacity
        self._pages = paginate(
            len(dataset),
            page_capacity,
            first_page_id=disk.allocate_page_id(),
            stored=dataset.vectors if isinstance(dataset, VectorDataset) else None,
        )
        disk.register_all(self._pages)

    def data_pages(self) -> list[Page]:
        return list(self._pages)

    def page_stream(self, query_obj: Any) -> PageStream:
        return _ScanStream(self)

    def prefilter_profile(self) -> dict[str, Any]:
        """Raw pivot intervals: the scan stream has no distance ranking
        of its own, so the sketch tier is its only page pruning."""
        return {"kind": "pivot", "bits": None, "pivot_hints": None}

    def summary(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "pages": len(self._pages),
            "page_capacity": self.page_capacity,
            "block_size": self.disk.block_size,
        }


def make_scan(
    dataset: Dataset,
    space: MetricSpace,
    disk: SimulatedDisk | None = None,
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> LinearScan:
    """Convenience constructor creating a disk when none is supplied."""
    if disk is None:
        disk = SimulatedDisk(space.counters, block_size=block_size)
    return LinearScan(dataset, space, disk)
