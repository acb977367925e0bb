"""Access-method interface used by the query engines."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.data import Dataset
from repro.metric.space import MetricSpace
from repro.storage.disk import SimulatedDisk
from repro.storage.page import Page


class TraversalTelemetry:
    """Node-visit / subtree-prune accounting for one page stream.

    Created only when the owning access method has an observer attached;
    every emission site in the streams is guarded by an ``is not None``
    check, so the unobserved fast path stays untouched.  Two events are
    emitted (``index.node_visit`` per directory-node expansion or data
    page delivery, ``index.prune`` per expansion that discarded at least
    one subtree), aggregated per node -- telemetry never enters the
    per-entry inner loops.  When the stream ends, the per-query gauge
    ``index.prune_effectiveness`` reports the fraction of candidate
    subtrees that were cut without being visited.
    """

    __slots__ = ("observer", "access", "visits", "pushed", "pruned", "closed")

    def __init__(self, observer: Any, access: str):
        self.observer = observer
        self.access = access
        self.visits = 0
        self.pushed = 0
        self.pruned = 0
        self.closed = False

    def node_visit(
        self, level: int, entries: int, pushed: int, pruned: int, **attrs: Any
    ) -> None:
        """One expanded node: ``pushed`` kept, ``pruned`` cut subtrees."""
        self.visits += 1
        self.pushed += pushed
        self.pruned += pruned
        self.observer.event(
            "index.node_visit",
            access=self.access,
            level=level,
            entries=entries,
            pushed=pushed,
            pruned=pruned,
            **attrs,
        )
        if pruned:
            self.observer.event(
                "index.prune", access=self.access, level=level, count=pruned
            )

    def finish(self, pending: int = 0, **attrs: Any) -> None:
        """Stream exhausted; ``pending`` candidates were never visited.

        ``pending`` covers the queue residue cut by the final radius
        (level ``-1``: below whatever level each entry lived on).
        """
        if self.closed:
            return
        self.closed = True
        if pending:
            self.pruned += pending
            self.observer.event(
                "index.prune",
                access=self.access,
                level=-1,
                count=pending,
                final=True,
                **attrs,
            )
        total = self.pushed + self.pruned
        metrics = self.observer.metrics
        metrics.set_gauge(
            "index.prune_effectiveness", self.pruned / total if total else 0.0
        )
        metrics.inc("index.subtrees_pruned", self.pruned)


class PageStream:
    """Stream of candidate data pages for one query object.

    Implements the contract of ``determine_relevant_data_pages`` in
    Fig. 1 of the paper together with ``prune_pages``: pages are yielded
    in non-decreasing order of a lower bound of the distance between the
    query object and any object on the page, and the stream ends as soon
    as the next lower bound exceeds the current query distance.

    The stream performs any *directory* I/O needed to find the next page
    (charged to the shared counters) but does **not** read the data page
    itself -- the engine reads it, because the incremental multiple query
    skips pages it has already processed for the driving query.
    """

    def __init__(self, access_method: "AccessMethod"):
        self.access_method = access_method

    def next_page(self, radius: float) -> tuple[float, Page] | None:
        """Return ``(lower_bound, page)`` or ``None`` when exhausted.

        ``radius`` is the current query distance; any page whose lower
        bound exceeds it is pruned (and with it the rest of the stream,
        since bounds are non-decreasing).
        """
        raise NotImplementedError

    def lower_bounds_for_others(
        self,
        page: Page,
        query_objs: Sequence[Any],
        driver_lower_bound: float,
        driver_distances: np.ndarray | None,
    ) -> np.ndarray:
        """Per-query lower bounds for the non-driving queries of a batch.

        Streams that hold query-specific context (e.g. the M-tree stream
        knows the driver's distance to each leaf's routing object) may
        override this; the default delegates to the access method.
        """
        return self.access_method.page_lower_bounds(
            page, query_objs, driver_lower_bound, driver_distances
        )

    def drain(self, radius: float = float("inf")) -> Iterator[tuple[float, Page]]:
        """Yield the remaining pages at a fixed radius (testing helper)."""
        while True:
            item = self.next_page(radius)
            if item is None:
                return
            yield item


class AccessMethod:
    """Base class of all access methods.

    Concrete subclasses register their pages with the shared
    :class:`SimulatedDisk` at construction time and expose page streams
    and page lower bounds for the query engines.
    """

    #: Registry name (``"scan"``, ``"xtree"``, ``"rstar"``, ``"mtree"``,
    #: ``"vafile"``).
    name: str = "abstract"

    #: Whether reading this method's data pages in stream order is a
    #: sequential scan over consecutive physical addresses.
    sequential_data_access: bool = False

    #: Whether opening a page stream first scans a whole filter file (the
    #: VA-file's approximations), so every stream costs a full pass
    #: before its first data page.
    stream_scans_filter: bool = False

    def __init__(self, dataset: Dataset, space: MetricSpace, disk: SimulatedDisk):
        self.dataset = dataset
        self.space = space
        self.disk = disk
        #: Optional :class:`~repro.obs.Observer`; set by
        #: :meth:`repro.core.database.Database.attach_observer`.  ``None``
        #: keeps every stream on the uninstrumented fast path.
        self.observer: Any = None

    def traversal_telemetry(self) -> TraversalTelemetry | None:
        """Per-stream telemetry handle, or ``None`` without an observer."""
        if self.observer is None:
            return None
        return TraversalTelemetry(self.observer, self.name)

    def data_pages(self) -> list[Page]:
        """All data pages in physical-address order."""
        raise NotImplementedError

    def page_stream(self, query_obj: Any) -> PageStream:
        """Open a candidate-page stream for ``query_obj``."""
        raise NotImplementedError

    def page_lower_bounds(
        self,
        page: Page,
        query_objs: Sequence[Any],
        driver_lower_bound: float,
        driver_distances: np.ndarray | None,
    ) -> np.ndarray:
        """Cheap per-query lower bounds for a page already in memory.

        Called by the multiple-query engine to decide which of the
        *other* query objects the current page is relevant for
        (Sec. 5.1).  ``driver_lower_bound`` is the bound the stream
        reported for the driving query, and ``driver_distances[i]`` is
        the known distance between the driving query object and
        ``query_objs[i]`` (one row of the query-distance matrix), which
        metric access methods may exploit via the triangle inequality.

        The default is the trivial bound 0 (every page may be relevant),
        which is correct for any access method.
        """
        return np.zeros(len(query_objs), dtype=float)

    def prefilter_profile(self) -> dict[str, Any]:
        """Hints for building a page sketch over this method's pages.

        Consulted by :meth:`repro.prefilter.PagePrefilter.build`:
        ``kind`` selects the sketch variant (``"pivot"`` raw intervals
        or ``"quantized"`` bit-limited ones), ``bits`` the grid
        resolution of the quantized kind (``None`` for the default), and
        ``pivot_hints`` an optional list of dataset indices the method
        already knows to be good pivots (e.g. M-tree routing objects).
        The base profile -- raw pivot intervals, no hints -- is sound
        for every access method.
        """
        return {"kind": "pivot", "bits": None, "pivot_hints": None}

    def summary(self) -> dict[str, Any]:
        """Human-readable structural statistics (for reports/tests)."""
        return {"name": self.name, "pages": len(self.data_pages())}
