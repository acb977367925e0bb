"""Workload planning: choosing access method, engine and block size.

Sec. 3.3 of the paper argues that "a query optimizer can automatically
use multiple similarity queries" once the operator exists; Sec. 6.3
shows the optimal access method flips from index to scan as the block
size m grows.  :class:`QueryPlanner` automates that choice: it probes a
small sample of the intended workload on each candidate access method,
fits the paper's cost structure

    cost_per_query(m) = shared_cost / m + marginal_cost

(block-shared work such as a sequential scan or the page-set union
amortises over m; per-query work does not), and recommends the cheapest
(access method, block size) plan for the full workload.

The optimizer-v2 layer generalises the one-shot recommendation into a
cost surface and a batch former:

* :meth:`QueryPlanner.fit_for` probes one (query-type, access-method,
  engine) cell of the surface and caches the fit; cells whose index or
  engine cannot serve the dataset are skipped (never a silent fallback
  -- a ``planner.probe.skipped`` event records each one);
* :func:`partition_by_sharing` groups a heterogeneous admitted batch by
  predicted I/O sharing -- the greedy nearest-neighbour affinity chain
  of the scheduler, generalised into a clustering step that *cuts* the
  chain whenever the next query is further than the share bound;
* :meth:`QueryPlanner.plan_batch` combines both into a structured
  :class:`BatchPlan`: per partition the members, the cheapest (access,
  engine) pair at the partition's block size, and the predicted cost
  and sharing factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.database import _ACCESS_METHODS, Database
from repro.core.multi_query import MultiQueryProcessor
from repro.core.types import QueryType
from repro.data import Dataset, as_dataset
from repro.workloads.queries import sample_database_queries

#: Engine names a planner accepts in ``engines`` (``None`` = the
#: candidate database's default engine).
_KNOWN_ENGINES = (None, "reference", "vectorized", "batched")

#: Multiple of the batch's median nearest-neighbour distance used as
#: the default share bound of :func:`partition_by_sharing`: chain links
#: longer than this predict little page overlap, so the chain is cut.
DEFAULT_SHARE_FACTOR = 2.0

#: Relative slack used for the knee-point block cap: the smallest
#: block size whose predicted per-query cost is within this fraction of
#: the cost at the maximum block size.
DEFAULT_KNEE_TOLERANCE = 0.1


@dataclass(frozen=True)
class CostFit:
    """Fitted per-query cost curve of one access method.

    Besides the headline seconds curve, the probe fits the same
    ``shared/m + marginal`` structure to the two *counted* cost
    components of the paper's Sec. 4 model -- page reads and distance
    calculations -- so the plan-vs-actual audit
    (:mod:`repro.obs.audit`) can compare each modelled component against
    the observed counters, not just the bottom line.  The component
    fields default to 0 for fits constructed the pre-audit way.

    ``engine`` and ``kind`` tag which cell of the optimizer-v2 cost
    surface the fit belongs to (``None``/``None`` for fits constructed
    the pre-surface way: the database's default engine, any kind).
    """

    access: str
    shared_seconds: float
    marginal_seconds: float
    shared_io_pages: float = 0.0
    marginal_io_pages: float = 0.0
    shared_distances: float = 0.0
    marginal_distances: float = 0.0
    engine: str | None = None
    kind: str | None = None

    def per_query(self, block_size: int) -> float:
        """Predicted per-query cost at block size ``block_size``."""
        if block_size < 1:
            raise ValueError("block size must be positive")
        return self.shared_seconds / block_size + self.marginal_seconds

    def pages_per_query(self, block_size: int) -> float:
        """Predicted page reads per query at block size ``block_size``."""
        if block_size < 1:
            raise ValueError("block size must be positive")
        return self.shared_io_pages / block_size + self.marginal_io_pages

    def distances_per_query(self, block_size: int) -> float:
        """Predicted distance calculations per query at ``block_size``."""
        if block_size < 1:
            raise ValueError("block size must be positive")
        return self.shared_distances / block_size + self.marginal_distances

    def sharing_factor(self, block_size: int) -> float:
        """Predicted speed-up of batching: cost at m=1 over cost at m."""
        at_block = self.per_query(block_size)
        if at_block <= 0.0:
            return 1.0
        return self.per_query(1) / at_block


def knee_block_size(
    fit: CostFit, max_block: int, tolerance: float = DEFAULT_KNEE_TOLERANCE
) -> int:
    """Smallest block size within ``tolerance`` of the asymptotic cost.

    The fitted per-query cost ``shared/m + marginal`` decreases
    monotonically in m with diminishing returns; batching beyond the
    knee buys almost nothing but costs every client queueing delay.
    """
    if max_block < 1:
        raise ValueError("max block size must be positive")
    asymptote = fit.per_query(max_block)
    for m in range(1, max_block + 1):
        if fit.per_query(m) <= asymptote * (1.0 + tolerance):
            return m
    return max_block


@dataclass(frozen=True)
class WorkloadPlan:
    """The planner's recommendation for a homogeneous workload."""

    access: str
    block_size: int
    predicted_seconds_per_query: float
    fits: tuple[CostFit, ...]

    def describe(self) -> str:
        """One-paragraph human-readable explanation."""
        lines = [
            f"recommended: access={self.access!r}, block_size={self.block_size} "
            f"(predicted {self.predicted_seconds_per_query * 1000:.2f} ms/query)"
        ]
        for fit in self.fits:
            lines.append(
                f"  {fit.access:>7}: shared={fit.shared_seconds * 1000:8.2f} ms/block-unit, "
                f"marginal={fit.marginal_seconds * 1000:8.2f} ms/query"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class PartitionPlan:
    """One partition of a :class:`BatchPlan`.

    ``members`` are positions into the planned batch (admission order).
    ``access``/``engine`` of ``None`` mean "the serving database's
    default" -- used by the scheduler's planner-less fallback; plans
    produced by :meth:`QueryPlanner.plan_batch` always name both.
    """

    members: tuple[int, ...]
    access: str | None
    engine: str | None
    block_size: int
    prefilter: bool
    predicted_seconds_per_query: float
    sharing_factor: float

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def predicted_seconds(self) -> float:
        """Predicted total seconds of the partition."""
        return self.predicted_seconds_per_query * len(self.members)


@dataclass(frozen=True)
class BatchPlan:
    """Structured plan for one admitted heterogeneous batch.

    Replaces the flat :class:`WorkloadPlan` for batch formation: instead
    of one (access, block size) pair for the whole workload, the batch
    is partitioned by predicted sharing and every partition carries its
    own access method, engine, block size and predicted cost.
    """

    partitions: tuple[PartitionPlan, ...]
    predicted_seconds: float

    @property
    def n_queries(self) -> int:
        return sum(p.size for p in self.partitions)

    def describe(self) -> str:
        """Human-readable dump (the ``repro plan`` dry-run output)."""
        lines = [
            f"batch plan: {self.n_queries} queries -> "
            f"{len(self.partitions)} partition(s), predicted "
            f"{self.predicted_seconds * 1000:.2f} ms total"
        ]
        for index, part in enumerate(self.partitions):
            access = part.access if part.access is not None else "<default>"
            engine = part.engine if part.engine is not None else "<default>"
            lines.append(
                f"  partition {index}: {part.size:3d} queries  "
                f"access={access} engine={engine} block={part.block_size} "
                f"prefilter={'on' if part.prefilter else 'off'}  "
                f"predicted {part.predicted_seconds_per_query * 1000:.3f} ms/query, "
                f"sharing {part.sharing_factor:.2f}x"
            )
        return "\n".join(lines)


def _pairwise_uncounted(query_objs: Sequence[Any], space: Any) -> np.ndarray:
    """Full pairwise distance matrix as uncounted planning work.

    Uses the metric's fused cross kernel when it accepts the objects,
    falling back to pairwise ``uncounted`` calls for object types the
    kernel cannot stack (e.g. strings under edit distance).
    """
    n = len(query_objs)
    try:
        matrix = np.asarray(
            space.uncounted_cross(query_objs, query_objs), dtype=float
        )
        if matrix.shape == (n, n):
            return matrix
    except (TypeError, ValueError):
        pass
    uncounted = space.uncounted
    matrix = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = uncounted(query_objs[i], query_objs[j])
    return matrix


def default_share_bound(
    query_objs: Sequence[Any],
    space: Any,
    factor: float = DEFAULT_SHARE_FACTOR,
    matrix: np.ndarray | None = None,
) -> float:
    """Derive a share bound from the batch's own distance scale.

    ``factor`` times the median nearest-neighbour distance among the
    batch queries: links of the affinity chain below it connect queries
    whose page sets overlap well; longer links predict little sharing.
    Uses *uncounted* distances (planning work, not query work); pass
    ``matrix`` to reuse an already-computed pairwise matrix.
    """
    n = len(query_objs)
    if n <= 1:
        return math.inf
    if matrix is None:
        matrix = _pairwise_uncounted(query_objs, space)
    off_diagonal = matrix + np.diag(np.full(n, np.inf))
    scale = float(np.median(off_diagonal.min(axis=1)))
    if scale <= 0.0 or not math.isfinite(scale):
        return math.inf
    return factor * scale


def partition_by_sharing(
    query_objs: Sequence[Any],
    space: Any,
    share_bound: float | None = None,
    max_partition: int | None = None,
) -> list[list[int]]:
    """Group a batch into partitions of predicted I/O sharing.

    The scheduler's greedy nearest-neighbour affinity chain, generalised
    into a clustering step: starting from the *oldest* unassigned query
    (FIFO fairness -- partitions execute in order of their oldest
    member, so no client is starved by a re-ordering), the chain grows
    by the nearest remaining query and is **cut** when that nearest
    distance exceeds ``share_bound`` (or the partition hits
    ``max_partition``).  Within each partition, members are returned in
    admission order; ordering inside a block stays the dispatcher's
    decision.

    ``share_bound=None`` derives the bound from the batch itself
    (:func:`default_share_bound`); ``math.inf`` forces one partition
    (the v1-identical degenerate case) and ``0.0`` forces singletons.
    All distances are uncounted planning work.
    """
    n = len(query_objs)
    if n <= 1:
        return [list(range(n))] if n else []
    if share_bound is not None and math.isinf(share_bound) and share_bound > 0:
        if max_partition is None or n <= max_partition:
            return [list(range(n))]
    matrix = _pairwise_uncounted(query_objs, space)
    if share_bound is None:
        share_bound = default_share_bound(query_objs, space, matrix=matrix)
    remaining = list(range(n))
    partitions: list[list[int]] = []
    while remaining:
        seed = remaining.pop(0)  # oldest unassigned query
        part = [seed]
        last = seed
        while remaining and (
            max_partition is None or len(part) < max_partition
        ):
            gaps = matrix[last, remaining]
            nearest = int(gaps.argmin())
            if gaps[nearest] > share_bound:
                break
            last = remaining.pop(nearest)
            part.append(last)
        partitions.append(sorted(part))
    return partitions


class QueryPlanner:
    """Probe-based planner over candidate access methods and engines.

    Parameters
    ----------
    data:
        The database contents (a dataset or raw array).
    metric:
        Distance function, as for :class:`~repro.core.database.Database`.
    candidates:
        Access methods to consider.  Candidates whose index cannot be
        built for this dataset/metric (e.g. a VA-file over a non-L2
        metric) are recorded as unavailable and *skipped* at probe time
        with a ``planner.probe.skipped`` event -- never silently
        substituted.
    engines:
        Page-processing engines to consider per candidate (``None`` =
        the candidate database's default).  Engines invalid for the
        dataset (``vectorized`` over non-vector data) are skipped the
        same way.
    probe_queries:
        Sample size used for probing; larger samples cost more planning
        time and give stabler fits.
    probe_block:
        The larger of the two probed block sizes (the smaller is 1).
    prefilter:
        Optional page pre-filter configuration forwarded to every
        candidate database (see
        :meth:`~repro.core.database.Database.enable_prefilter`).  The
        sketch pass itself is uncounted planning work, so its modelled
        cost is folded into the fits explicitly: the fitted curves --
        and with them the scheduler's knee-point replan -- see the
        filtered read path *including* the sketch pass, not a
        fictitious free lunch.
    observer:
        Optional :class:`~repro.obs.Observer`; receives the
        ``planner.probe.skipped`` events.

    Probing cost is real query work; the built candidate databases are
    kept, so executing the plan afterwards starts with warm structures.
    Probe results are cached per (query-type kind, access, engine), so
    repeated ``plan``/``plan_batch`` calls pay each cell once.
    """

    def __init__(
        self,
        data: Dataset | Any,
        metric: str = "euclidean",
        candidates: Sequence[str] = ("scan", "xtree"),
        engines: Sequence[str | None] = (None,),
        probe_queries: int = 8,
        probe_block: int | None = None,
        seed: int = 0,
        prefilter: Any = None,
        observer: Any = None,
    ):
        if probe_queries < 2:
            raise ValueError("need at least two probe queries")
        self.dataset = as_dataset(data)
        self.candidates = tuple(candidates)
        if not self.candidates:
            raise ValueError("need at least one candidate access method")
        for access in self.candidates:
            if access not in _ACCESS_METHODS:
                known = ", ".join(sorted(_ACCESS_METHODS))
                raise ValueError(
                    f"unknown access method {access!r}; known: {known}"
                )
        self.engines = tuple(engines)
        if not self.engines:
            raise ValueError("need at least one candidate engine")
        for engine in self.engines:
            if engine not in _KNOWN_ENGINES:
                raise ValueError(f"unknown engine {engine!r}")
        self.probe_queries = probe_queries
        self.probe_block = probe_block if probe_block is not None else probe_queries
        self.seed = seed
        self.prefilter = prefilter
        self.observer = observer
        self.probes_skipped = 0
        self.databases: dict[str, Database] = {}
        #: Human-readable reason per candidate whose index did not build.
        self.unavailable: dict[str, str] = {}
        for access in self.candidates:
            try:
                self.databases[access] = Database(
                    self.dataset, metric=metric, access=access, prefilter=prefilter
                )
            except (ValueError, TypeError) as exc:
                self.unavailable[access] = str(exc)
        if not self.databases:
            reasons = "; ".join(
                f"{access}: {reason}" for access, reason in self.unavailable.items()
            )
            raise ValueError(f"no candidate index could be built ({reasons})")
        #: Probe cache: (qtype.kind, access, engine) -> CostFit | None
        #: (``None`` records a skipped cell so it is not re-probed).
        self._fit_cache: dict[tuple[str, str, str | None], CostFit | None] = {}

    @staticmethod
    def _sketch_pass_state(database: Database) -> tuple[int, int]:
        """Current sketch-pass work counts of the database's pre-filter."""
        prefilter = database.prefilter
        if prefilter is None:
            return (0, 0)
        stats = prefilter.stats
        return (stats.bound_evaluations, stats.pivot_distance_evaluations)

    @staticmethod
    def _sketch_pass_seconds(
        database: Database, before: tuple[int, int]
    ) -> float:
        """Modelled seconds of the sketch passes run since ``before``.

        One sketch bound costs one comparison; one query-to-pivot
        distance costs one distance calculation -- the same unit prices
        the cost model charges the counted work, applied to the
        uncounted planning work the pre-filter performed.
        """
        bounds, pivot_dists = QueryPlanner._sketch_pass_state(database)
        model = database.cost_model
        return (
            (bounds - before[0]) * model.comparison_seconds
            + (pivot_dists - before[1]) * model.distance_seconds
        )

    def _probe(
        self, database: Database, qtype: QueryType, engine: str | None = None
    ) -> CostFit:
        # Clamp the probe sample to the dataset: sampling more queries
        # than there are objects would repeat objects, and repeated
        # queries fold into one buffered query inside a block while the
        # single-query probe pays each repeat fully -- inflating the
        # apparent sharing and producing degenerate fits on tiny
        # datasets.  With fewer than two distinct probes no two-point
        # fit exists; the cost curve degrades to a flat marginal cost.
        n_probe = min(self.probe_queries, len(self.dataset))
        indices = sample_database_queries(self.dataset, n_probe, self.seed)
        queries = [self.dataset[i] for i in indices]
        # Point 1: single queries (m = 1).
        database.cold()
        sketch_before = self._sketch_pass_state(database)
        with database.measure() as single:
            for query in queries:
                MultiQueryProcessor(database, engine=engine).process(
                    [query], [qtype]
                )
        cost_single = (
            single.total_seconds + self._sketch_pass_seconds(database, sketch_before)
        ) / len(queries)
        # Point 2: one block of probe_block queries.
        database.cold()
        sketch_before = self._sketch_pass_state(database)
        with database.measure() as block:
            database.run_in_blocks(
                queries,
                qtype,
                block_size=self.probe_block,
                db_indices=indices,
                engine=engine,
            )
        cost_block = (
            block.total_seconds + self._sketch_pass_seconds(database, sketch_before)
        ) / len(queries)
        # Solve  cost(m) = shared/m + marginal  through both points --
        # for seconds and for each counted component (Sec. 4 model).
        m2 = min(self.probe_block, len(queries))

        def two_point(at_one: float, at_m2: float) -> tuple[float, float]:
            if m2 <= 1:
                return 0.0, at_one
            shared = max(0.0, (at_one - at_m2) * m2 / (m2 - 1))
            return shared, max(0.0, at_one - shared)

        shared, marginal = two_point(cost_single, cost_block)
        n = len(queries)
        shared_pages, marginal_pages = two_point(
            single.counters.page_reads / n, block.counters.page_reads / n
        )
        shared_dists, marginal_dists = two_point(
            single.counters.total_distance_calculations / n,
            block.counters.total_distance_calculations / n,
        )
        return CostFit(
            access=database.access_method.name,
            shared_seconds=shared,
            marginal_seconds=marginal,
            shared_io_pages=shared_pages,
            marginal_io_pages=marginal_pages,
            shared_distances=shared_dists,
            marginal_distances=marginal_dists,
            engine=engine,
            kind=qtype.kind,
        )

    # ------------------------------------------------------------------
    # The cost surface: cached per-(kind, access, engine) probes
    # ------------------------------------------------------------------

    def _skip_probe(
        self, access: str, engine: str | None, reason: str
    ) -> None:
        self.probes_skipped += 1
        if self.observer is not None:
            self.observer.event(
                "planner.probe.skipped",
                access=access,
                engine=str(engine),
                reason=reason,
            )

    def fit_for(
        self, qtype: QueryType, access: str, engine: str | None = None
    ) -> CostFit | None:
        """Probe (and cache) one cell of the cost surface.

        Returns ``None`` -- after emitting ``planner.probe.skipped`` --
        when the candidate's index was never built for this dataset or
        the engine cannot serve it; the skip itself is cached so each
        unavailable cell is reported once.
        """
        key = (qtype.kind, access, engine)
        if key in self._fit_cache:
            return self._fit_cache[key]
        database = self.databases.get(access)
        fit: CostFit | None
        if database is None:
            fit = None
            self._skip_probe(
                access, engine,
                self.unavailable.get(access, "index not built"),
            )
        else:
            try:
                fit = self._probe(database, qtype, engine=engine)
            except (ValueError, TypeError) as exc:
                fit = None
                self._skip_probe(access, engine, str(exc))
        self._fit_cache[key] = fit
        return fit

    def fit_surface(self, qtype: QueryType) -> tuple[CostFit, ...]:
        """All available fits for one query type (the cost surface row)."""
        fits = tuple(
            fit
            for access in self.candidates
            for engine in self.engines
            if (fit := self.fit_for(qtype, access, engine)) is not None
        )
        if not fits:
            raise ValueError(
                "no (access, engine) candidate could be probed for "
                f"query kind {qtype.kind!r}"
            )
        return fits

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------

    def plan(
        self,
        n_queries: int,
        qtype: QueryType,
        max_block_size: int | None = None,
    ) -> WorkloadPlan:
        """Recommend access method and block size for ``n_queries``.

        ``max_block_size`` models the memory bound of Sec. 5 (the answer
        buffer and the O(m^2) query-distance matrix limit m); the block
        size recommendation is the workload size clipped to it.
        """
        if n_queries < 1:
            raise ValueError("workload must contain at least one query")
        block_size = n_queries
        if max_block_size is not None:
            block_size = min(block_size, max_block_size)
        fits = self.fit_surface(qtype)
        best = min(fits, key=lambda fit: fit.per_query(block_size))
        return WorkloadPlan(
            access=best.access,
            block_size=block_size,
            predicted_seconds_per_query=best.per_query(block_size),
            fits=fits,
        )

    def plan_batch(
        self,
        query_objs: Sequence[Any],
        qtypes: Sequence[QueryType] | QueryType,
        max_block: int | None = None,
        share_bound: float | None = None,
    ) -> BatchPlan:
        """Form a :class:`BatchPlan` for one heterogeneous batch.

        Cost-based batch formation in three steps: split the batch by
        exact query type (a k-NN query and a wide range query share few
        pages, so batching them couples the cheap query to the expensive
        one's page union), cluster each type class by predicted sharing
        (:func:`partition_by_sharing`), then merge affinity-adjacent
        clusters while the cost surface prices the merged block cheaper
        than running the two separately (the shared traversal term
        amortizes, up to ``max_block``).  Each final partition is priced
        on the surface and gets its cheapest (access, engine) pair at
        the partition's block size.

        An infinite ``share_bound`` skips all of this and forms one
        partition (capped at ``max_block``) -- the v1-identical path.
        """
        if isinstance(qtypes, QueryType):
            qtypes_list = [qtypes] * len(query_objs)
        else:
            qtypes_list = list(qtypes)
        if len(qtypes_list) != len(query_objs):
            raise ValueError("need one query type per query object")
        if not query_objs:
            raise ValueError("batch must contain at least one query")
        space = next(iter(self.databases.values())).space
        forced_single = (
            share_bound is not None
            and math.isinf(share_bound)
            and share_bound > 0
        )
        if forced_single:
            groups = partition_by_sharing(
                query_objs,
                space,
                share_bound=share_bound,
                max_partition=max_block,
            )
        else:
            # Bucket by *kind*: the cost surface is probed per kind, so
            # radius classes of the same kind share one fit and may
            # merge when affine; different kinds never do.
            buckets: dict[str, list[int]] = {}
            for position, qtype in enumerate(qtypes_list):
                buckets.setdefault(qtype.kind, []).append(position)
            groups = []
            for positions in buckets.values():
                qtype = qtypes_list[positions[0]]
                local = partition_by_sharing(
                    [query_objs[i] for i in positions],
                    space,
                    share_bound=share_bound,
                    max_partition=max_block,
                )
                groups.extend(
                    self._merge_groups(
                        [sorted(positions[i] for i in g) for g in local],
                        qtype,
                        max_block,
                    )
                )
            groups.sort(key=lambda g: g[0])
        partitions = []
        total = 0.0
        for members in groups:
            qtype = qtypes_list[members[0]]
            fits = self.fit_surface(qtype)
            block = len(members) if max_block is None else min(
                len(members), max_block
            )
            best = min(fits, key=lambda fit: fit.per_query(block))
            part = PartitionPlan(
                members=tuple(members),
                access=best.access,
                engine=best.engine,
                block_size=block,
                prefilter=self.prefilter is not None,
                predicted_seconds_per_query=best.per_query(block),
                sharing_factor=best.sharing_factor(block),
            )
            partitions.append(part)
            total += part.predicted_seconds
        return BatchPlan(partitions=tuple(partitions), predicted_seconds=total)

    def _merge_groups(
        self,
        groups: list[list[int]],
        qtype: QueryType,
        max_block: int | None,
    ) -> list[list[int]]:
        """Merge affinity-adjacent groups while merging is priced cheaper.

        ``groups`` come out of :func:`partition_by_sharing` in chain
        order, so consecutive groups are each other's nearest clusters;
        a merge keeps member positions sorted (admission order within a
        partition, preserving the v1 execution discipline).  Merges are
        accepted while the cost surface prices the merged block cheaper
        *and* the merged size stays within the kind's knee-point block
        size: beyond the knee the predicted amortization is within
        tolerance of zero, while larger blocks couple more queries to
        one traversal -- the same diminishing-returns rule the v1
        scheduler applies to its single block cap.
        """
        fits = self.fit_surface(qtype)
        total = sum(len(group) for group in groups)
        cap = total if max_block is None else min(total, max_block)
        best = min(fits, key=lambda fit: fit.per_query(cap))
        knee = knee_block_size(best, cap)

        def cost(m: int) -> float:
            return m * min(fit.per_query(min(m, cap)) for fit in fits)

        merged = [groups[0]]
        for group in groups[1:]:
            a, b = len(merged[-1]), len(group)
            if a + b <= knee and cost(a + b) <= cost(a) + cost(b):
                merged[-1] = sorted(merged[-1] + group)
            else:
                merged.append(group)
        return merged

    def database_for(self, plan: WorkloadPlan) -> Database:
        """The already-built database matching a plan."""
        return self.databases[plan.access]
