"""The database facade tying the substrates together.

:class:`Database` owns one dataset, one instrumented metric space, one
simulated disk and one access method, and exposes the paper's two query
operations plus measured runs:

>>> import numpy as np
>>> from repro.core.database import Database
>>> from repro.core.types import knn_query
>>> db = Database(np.random.default_rng(0).random((500, 8)), access="xtree")
>>> with db.measure() as run:
...     answers = db.similarity_query(db.dataset[0], knn_query(5))
>>> len(answers)
5
>>> run.counters.page_reads > 0
True
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.core.answers import Answer
from repro.core.engine import ENGINE_BATCHED, ENGINE_REFERENCE, ENGINE_VECTORIZED
from repro.core.multi_query import MultiQueryProcessor
from repro.core.ranking import neighbor_ranking
from repro.core.types import QueryType
from repro.costmodel import CostBreakdown, CostModel, Counters
from repro.data import Dataset, as_dataset
from repro.index.base import AccessMethod
from repro.index.mtree import MTree
from repro.index.scan import LinearScan
from repro.index.vafile import VAFile
from repro.index.xtree import XTree
from repro.index.rstar.tree import RStarTree
from repro.metric.distances import DistanceFunction
from repro.metric.space import MetricSpace
from repro.storage.disk import SimulatedDisk
from repro.storage.page import DEFAULT_BLOCK_SIZE

_ACCESS_METHODS = {
    "scan": LinearScan,
    "xtree": XTree,
    "rstar": RStarTree,
    "mtree": MTree,
    "vafile": VAFile,
}

#: Cost-model dimension assumed for non-vector metrics (how expensive
#: one distance evaluation is relative to one comparison).
_GENERIC_EFFECTIVE_DIMENSION = 32


@dataclass(frozen=True)
class MeasuredRun:
    """Counters accumulated during a measured block, plus modelled cost."""

    counters: Counters
    cost_model: CostModel

    @property
    def cost(self) -> CostBreakdown:
        """Modelled I/O + CPU cost of the run."""
        return self.cost_model.breakdown(self.counters)

    @property
    def io_seconds(self) -> float:
        """Modelled I/O seconds."""
        return self.cost.io_seconds

    @property
    def cpu_seconds(self) -> float:
        """Modelled CPU seconds."""
        return self.cost.cpu_seconds

    @property
    def total_seconds(self) -> float:
        """Modelled total seconds."""
        return self.cost.total_seconds


class _MeasureHandle:
    """Mutable handle populated when a ``measure`` block closes."""

    def __init__(self) -> None:
        self.counters = Counters()
        self.run: MeasuredRun | None = None

    @property
    def cost(self) -> CostBreakdown:
        assert self.run is not None, "measure block has not finished"
        return self.run.cost

    @property
    def io_seconds(self) -> float:
        return self.cost.io_seconds

    @property
    def cpu_seconds(self) -> float:
        return self.cost.cpu_seconds

    @property
    def total_seconds(self) -> float:
        return self.cost.total_seconds


class Database:
    """A metric database with one access method (Sec. 2).

    Parameters
    ----------
    data:
        A :class:`~repro.data.Dataset`, an ``(n, d)`` array, or any
        sequence of objects.
    metric:
        Distance-function name or instance (default Euclidean).
    access:
        ``"scan"``, ``"xtree"``, ``"rstar"``, ``"mtree"`` or ``"vafile"``.
    block_size:
        Disk block size in bytes (paper: 32 KB).
    buffer_fraction:
        LRU buffer capacity as a fraction of the database/index size
        (paper: 10 %); 0 disables buffering.
    engine:
        Default page-processing engine: ``"auto"`` (the default:
        ``"vectorized"`` for vector data under a vector metric,
        ``"reference"`` otherwise), ``"vectorized"``, ``"batched"`` (one
        fused kernel per page x query-batch) or ``"reference"``.  ``auto``
        never picks ``batched``: its GEMM distances are inexact (see
        :mod:`repro.core.engine`).
    index_options:
        Extra keyword arguments forwarded to the access method.
    observer:
        Optional :class:`~repro.obs.Observer` to attach (see
        :meth:`attach_observer`).  Without one, queries run the exact
        uninstrumented code paths.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` (or its dict form);
        when given, :meth:`inject_faults` is called with it.  Without
        one, the read path stays entirely fault-free.
    prefilter:
        Optional sketch-based page pre-filter tier: ``True`` builds one
        with defaults, a dict or :class:`~repro.prefilter.PrefilterConfig`
        customises it (see :meth:`enable_prefilter`).  Exact by default:
        answers and counters stay byte-identical to running without it.
    """

    def __init__(
        self,
        data: Dataset | np.ndarray | Sequence[Any],
        metric: str | DistanceFunction = "euclidean",
        access: str = "scan",
        block_size: int = DEFAULT_BLOCK_SIZE,
        buffer_fraction: float = 0.1,
        engine: str = "auto",
        index_options: dict[str, Any] | None = None,
        observer: Any = None,
        fault_plan: Any = None,
        prefilter: Any = None,
    ):
        self.dataset = as_dataset(data)
        self.counters = Counters()
        self.space = MetricSpace(metric, self.counters)
        self.disk = SimulatedDisk(self.counters, block_size=block_size)
        try:
            factory = _ACCESS_METHODS[access]
        except KeyError:
            known = ", ".join(sorted(_ACCESS_METHODS))
            raise ValueError(f"unknown access method {access!r}; known: {known}")
        self.access_method: AccessMethod = factory(
            self.dataset, self.space, self.disk, **(index_options or {})
        )
        #: Lazily built secondary access methods over the same dataset,
        #: metric space, counters and disk (see :meth:`access_method_for`).
        self._access_variants: dict[str, AccessMethod] = {}
        if buffer_fraction > 0:
            buffer_blocks = max(1, int(buffer_fraction * self.disk.total_blocks))
            self.disk.set_buffer_blocks(buffer_blocks)
        if engine == "auto":
            engine = (
                ENGINE_VECTORIZED
                if self.dataset.is_vector and self.space.is_vector_metric
                else ENGINE_REFERENCE
            )
        if engine not in (ENGINE_REFERENCE, ENGINE_VECTORIZED, ENGINE_BATCHED):
            raise ValueError(f"unknown engine {engine!r}")
        self.engine = engine
        dimension = (
            self.dataset.dimension
            if self.dataset.is_vector
            else _GENERIC_EFFECTIVE_DIMENSION
        )
        self.cost_model = CostModel(dimension)
        self.observer: Any = None
        if observer is not None:
            self.attach_observer(observer)
        self.fault_injector: Any = None
        if fault_plan is not None:
            self.inject_faults(fault_plan)
        self.prefilter: Any = None
        if prefilter is not None and prefilter is not False:
            self.enable_prefilter(None if prefilter is True else prefilter)

    def attach_observer(self, observer: Any) -> Any:
        """Attach an :class:`~repro.obs.Observer` to this database.

        Registers the shared :class:`Counters` and the buffer pool as
        snapshot-time metric collectors and makes every processor
        created from this database -- and every page stream opened by
        the access method -- report phases, spans and events through
        the observer.  Purely additive: answers and counters are
        identical with and without an observer.
        """
        from repro.obs import attach_counters

        self.observer = observer
        self.access_method.observer = observer
        for variant in self._access_variants.values():
            variant.observer = observer
        attach_counters(observer.metrics, self.counters)
        observer.metrics.register_collector(self._buffer_stats)
        return observer

    def access_method_for(self, access: str | None) -> AccessMethod:
        """The named access method over this database's pages.

        ``None`` or the configured name returns the primary access
        method; any other known name lazily builds (and caches) a
        secondary structure over the *same* dataset, metric space,
        counters and simulated disk, so a processor can run one block
        through a different index without a second database.  Index
        construction charges no query counters (building uses uncounted
        distances), and page ids are unique across structures on one
        disk, so the variants coexist in the shared LRU buffer exactly
        like separate relations in one buffer pool.
        """
        if access is None or access == self.access_method.name:
            return self.access_method
        variant = self._access_variants.get(access)
        if variant is None:
            try:
                factory = _ACCESS_METHODS[access]
            except KeyError:
                known = ", ".join(sorted(_ACCESS_METHODS))
                raise ValueError(
                    f"unknown access method {access!r}; known: {known}"
                )
            variant = factory(self.dataset, self.space, self.disk)
            variant.observer = self.observer
            self._access_variants[access] = variant
        return variant

    def inject_faults(
        self, plan: Any, site: str = "server:0", policy: Any = None
    ) -> Any:
        """Arm the fault plan against this database's disk.

        Creates a :class:`~repro.faults.FaultInjector` over ``plan``
        (reporting through the attached observer, if any) and installs
        its read gate for ``site`` on the simulated disk.  Returns the
        injector so callers can inspect :meth:`~repro.faults.FaultInjector.summary`.
        """
        from repro.faults import FaultInjector

        injector = FaultInjector(plan, policy=policy, observer=self.observer)
        self.fault_injector = injector
        self.disk.faults = injector.gate(site)
        return injector

    def enable_prefilter(self, config: Any = None) -> Any:
        """Build and attach the sketch-based page pre-filter tier.

        ``config`` may be ``None`` (defaults), a
        :class:`~repro.prefilter.PrefilterConfig`, its dict form, or an
        already-built :class:`~repro.prefilter.PagePrefilter` (e.g. one
        restored via :mod:`repro.storage.sketch_store`).  The sketch is
        built over the access method's current data pages using its
        :meth:`~repro.index.base.AccessMethod.prefilter_profile` hints;
        construction-time distances are uncounted planning work.
        Returns the attached :class:`~repro.prefilter.PagePrefilter`.
        """
        from repro.prefilter import PagePrefilter, PrefilterConfig

        if isinstance(config, PagePrefilter):
            self.prefilter = config
            return config
        if isinstance(config, dict):
            config = PrefilterConfig(**config)
        prefilter = PagePrefilter.build(
            self.dataset, self.space, self.access_method, config
        )
        self.prefilter = prefilter
        return prefilter

    def disable_prefilter(self) -> None:
        """Detach the pre-filter tier (queries run unfiltered again)."""
        self.prefilter = None

    def _buffer_stats(self) -> dict[str, float]:
        """Snapshot-time buffer-pool statistics (Sec. 5.1 I/O sharing)."""
        buffer = self.disk.buffer
        return {
            "buffer.lookups": buffer.lookups,
            "buffer.hits": buffer.hits,
            "derived.buffer_hit_rate": buffer.hit_rate,
        }

    def __len__(self) -> int:
        return len(self.dataset)

    # ------------------------------------------------------------------
    # Query operations
    # ------------------------------------------------------------------

    def similarity_query(self, query_obj: Any, qtype: QueryType) -> list[Answer]:
        """Single similarity query (Fig. 1)."""
        processor = MultiQueryProcessor(self)
        return processor.process([query_obj], [qtype])

    def ranking(self, query_obj: Any) -> "Iterator[Answer]":
        """Neighbours of ``query_obj`` in ascending distance, lazily.

        The incremental ranking of [13]; see
        :func:`repro.core.ranking.neighbor_ranking`.
        """
        return neighbor_ranking(self, query_obj)

    def processor(
        self,
        engine: str | None = None,
        use_avoidance: bool = True,
        max_pivots: int | None = None,
        seed_from_queries: bool = False,
        warm_start: bool = False,
        matrix_mode: str = "eager",
        prefilter: Any = None,
    ) -> MultiQueryProcessor:
        """Create an incremental multiple-query processor (Fig. 4)."""
        kwargs = {} if max_pivots is None else {"max_pivots": max_pivots}
        return MultiQueryProcessor(
            self,
            engine=engine,
            use_avoidance=use_avoidance,
            seed_from_queries=seed_from_queries,
            warm_start=warm_start,
            matrix_mode=matrix_mode,
            prefilter=prefilter,
            **kwargs,
        )

    def session(
        self,
        engine: str | None = None,
        use_avoidance: bool = True,
        max_pivots: int | None = None,
        seed_from_queries: bool = False,
        warm_start: bool = False,
        matrix_mode: str = "eager",
        prefilter: Any = None,
        access: str | None = None,
    ) -> Any:
        """Open a streaming :class:`~repro.service.QuerySession`.

        The Def. 4 partial-answer buffer as a first-class handle:
        ``submit``/``partial_answers``/``retire`` manage the buffer,
        ``stream`` yields the driver's answers incrementally as pages
        are processed, ``ask``/``run`` are the drained (batch) forms.
        ``access`` runs the session through a secondary access method
        (see :meth:`access_method_for`); engine and access method are
        per-session -- i.e. per-block -- decisions, not database ones.
        """
        from repro.service.session import QuerySession

        return QuerySession(
            self,
            engine=engine,
            use_avoidance=use_avoidance,
            max_pivots=max_pivots,
            seed_from_queries=seed_from_queries,
            warm_start=warm_start,
            matrix_mode=matrix_mode,
            prefilter=prefilter,
            access=access,
        )

    def serve(
        self,
        max_block: int = 8,
        max_queue: int = 256,
        order: str = "fifo",
        fits: Sequence[Any] | None = None,
        optimizer: str = "v1",
        planner: Any = None,
        share_bound: float | None = None,
        **session_options: Any,
    ) -> Any:
        """Open a work-conserving :class:`~repro.service.QueryScheduler`.

        Clients ``submit`` single queries and receive tickets; each
        ``poll`` runs the oldest queued tickets, up to ``max_block``, as
        one multiple-query block through a shared session (Sec. 3.3).
        Pass the cost ``fits`` of a
        :class:`~repro.core.planner.QueryPlanner` probe to install the
        knee-point block cap.  ``optimizer="v2"`` partitions each block
        by predicted sharing and dispatches every partition under its
        own :class:`~repro.core.planner.BatchPlan` entry (per-partition
        access method and engine); pass ``planner`` to price partitions
        on a probed cost surface.
        """
        from repro.service.scheduler import QueryScheduler

        return QueryScheduler(
            self,
            max_block=max_block,
            max_queue=max_queue,
            order=order,
            fits=fits,
            optimizer=optimizer,
            planner=planner,
            share_bound=share_bound,
            **session_options,
        )

    def multiple_similarity_query(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        use_avoidance: bool = True,
    ) -> list[list[Answer]]:
        """Answer a batch of queries completely via one shared session."""
        session = self.session(use_avoidance=use_avoidance)
        return session.run(query_objs, qtypes)

    def run_in_blocks(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        block_size: int,
        use_avoidance: bool = True,
        db_indices: Sequence[int | None] | None = None,
        warm_start: bool = False,
        engine: str | None = None,
    ) -> list[list[Answer]]:
        """Process M queries in consecutive blocks of ``block_size``.

        Passing ``db_indices`` (the dataset index of each query object)
        declares the queries to be database members and enables radius
        seeding from the query-distance matrix.  ``engine`` overrides
        the database's default page-processing engine for these blocks.
        """
        from repro.service.session import run_in_blocks

        return run_in_blocks(
            self,
            query_objs,
            qtypes,
            block_size,
            use_avoidance=use_avoidance,
            db_indices=db_indices,
            warm_start=warm_start,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def measure(self) -> Iterator[_MeasureHandle]:
        """Measure the counters accumulated inside a ``with`` block.

        >>> # with db.measure() as run: db.similarity_query(...)
        >>> # run.counters, run.io_seconds, run.cpu_seconds
        """
        before = self.counters.copy()
        handle = _MeasureHandle()
        try:
            yield handle
        finally:
            handle.counters = self.counters.diff(before)
            handle.run = MeasuredRun(handle.counters, self.cost_model)

    def cold(self) -> None:
        """Clear the disk buffer (start from a cold cache)."""
        self.disk.clear_buffer()

    def summary(self) -> dict[str, Any]:
        """Structural summary of dataset, disk and access method."""
        info = {
            "objects": len(self.dataset),
            "metric": self.space.distance.name,
            "engine": self.engine,
            "disk_blocks": self.disk.total_blocks,
            "buffer_blocks": self.disk.buffer.capacity_blocks,
            "prefilter": (
                self.prefilter.describe() if self.prefilter is not None else "off"
            ),
        }
        info.update(self.access_method.summary())
        return info
