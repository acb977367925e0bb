"""Benchmark baseline store and performance-regression comparison.

Backs the ``repro bench`` CLI subcommand: benchmark results are kept in
a schema-versioned JSON *baseline store* keyed by
``benchmark/.../engine-or-access-method``, and fresh runs are compared
against the committed store with configurable relative thresholds.

Two signals per entry, with very different reliability:

* ``counters`` -- the paper's deterministic cost accounting (page
  reads, distance calculations, avoided calculations, ...).  With fixed
  seeds these are machine-independent, so the comparison is (near-)
  exact and catches algorithmic regressions -- a pruning bound loosened,
  an avoidance test dropped -- even on noisy CI runners.
* ``seconds`` -- wall-clock time, compared with a loose relative
  threshold; catches implementation-level slowdowns on a quiet machine.

The *quick suite* (:func:`run_quick_suite`) is a fixed-seed k-NN block
workload over every registered access method plus a DBSCAN mining run;
it finishes in seconds and is what CI checks on every push.  Results of
the heavyweight standalone benchmarks (``benchmarks/bench_*.py``) are
imported into the same store via :func:`entries_from_bench_file`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Store schema identifier; bump on incompatible layout changes.
SCHEMA_VERSION = "repro-bench/1"

#: Access methods exercised by the quick suite, in run order.
QUICK_ACCESS_METHODS = ("scan", "xtree", "rstar", "mtree", "vafile")

#: Counter fields recorded per quick-suite entry (all deterministic
#: under fixed seeds).
_COUNTER_FIELDS = (
    "page_reads",
    "distance_calculations",
    "avoidance_tries",
    "avoided_calculations",
    "queries_completed",
)


def make_entry(
    seconds: float,
    counters: Mapping[str, int] | None = None,
    meta: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """One baseline-store entry (plain dict, JSON-ready)."""
    entry: dict[str, Any] = {"seconds": float(seconds)}
    if counters:
        entry["counters"] = {k: int(v) for k, v in sorted(counters.items())}
    if meta:
        entry["meta"] = dict(meta)
    return entry


# ----------------------------------------------------------------------
# Baseline store I/O
# ----------------------------------------------------------------------


def save_store(path: str, entries: Mapping[str, dict[str, Any]]) -> None:
    """Write ``entries`` as a schema-versioned baseline store."""
    store = {
        "schema": SCHEMA_VERSION,
        "entries": {key: entries[key] for key in sorted(entries)},
    }
    with open(path, "w") as handle:
        json.dump(store, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_store(path: str) -> dict[str, dict[str, Any]]:
    """Load a baseline store; raises on a schema mismatch."""
    with open(path) as handle:
        store = json.load(handle)
    schema = store.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"baseline store {path!r} has schema {schema!r}, "
            f"expected {SCHEMA_VERSION!r}"
        )
    return dict(store.get("entries", {}))


# ----------------------------------------------------------------------
# Converters for the standalone benchmark result files
# ----------------------------------------------------------------------


def entries_from_engine_kernels(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_engine_kernels.json`` payload into store entries."""
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        stem = (
            f"engine_kernels/{row['metric']}/{row['scenario']}"
            f"/page{row['page_size']}/batch{row['batch_size']}"
        )
        for engine, seconds in row["seconds"].items():
            entries[f"{stem}/{engine}"] = make_entry(
                seconds,
                meta={
                    "dimension": row.get("dimension"),
                    "use_avoidance": row.get("use_avoidance"),
                },
            )
    return entries


def entries_from_obs_overhead(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_obs_overhead.json`` payload into store entries."""
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        for mode, seconds in row["seconds"].items():
            entries[f"obs_overhead/{row['engine']}/{mode}"] = make_entry(
                seconds,
                meta={
                    "n_objects": row.get("n_objects"),
                    "n_queries": row.get("n_queries"),
                    "block_size": row.get("block_size"),
                },
            )
    return entries


def entries_from_service(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_service.json`` payload into store entries.

    Each row carries wall-clock seconds *and* the run's deterministic
    cost counters, so the scheduler-throughput guard has the same exact
    counter signal as the quick suite.
    """
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        entries[f"service/{row['order']}/knn"] = make_entry(
            row["seconds"],
            counters=row.get("counters"),
            meta={
                "n_objects": row.get("n_objects"),
                "n_clients": row.get("n_clients"),
                "n_queries": row.get("n_queries"),
                "max_block": row.get("max_block"),
                "queries_per_second": row.get("queries_per_second"),
            },
        )
    return entries


def entries_from_faults(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_faults.json`` payload into store entries.

    One entry per fault scenario (``no_faults``, ``empty_plan``,
    ``one_crash``, ``straggler``...).  Counters are recorded for every
    scenario; because recovery is counter-neutral they must all equal
    the ``no_faults`` row's, so any drift -- including overhead creeping
    into the faults-disabled path -- fails ``repro bench --check``
    exactly.
    """
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        entries[f"faults/{row['scenario']}"] = make_entry(
            row["seconds"],
            counters=row.get("counters"),
            meta={
                "n_objects": result.get("n_objects"),
                "n_queries": result.get("n_queries"),
                "access": result.get("access"),
                "injected": row.get("injected"),
                "redispatches": row.get("redispatches"),
            },
        )
    return entries


def entries_from_prefilter(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_prefilter.json`` payload into store entries.

    One entry per run mode (``off``, ``exact``, ``exact_noavoid``,
    ``approx...``).  Counters are recorded for every mode; the exact
    modes must match the ``off`` row's counters byte-for-byte (the
    pre-filter's identity guarantee), so any drift fails
    ``repro bench --check`` exactly.  Page-candidate reduction and
    measured recall ride along as metadata.
    """
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        entries[f"prefilter/{row['mode']}"] = make_entry(
            row["seconds"],
            counters=row.get("counters"),
            meta={
                "n_objects": result.get("n_objects"),
                "n_queries": result.get("n_queries"),
                "access": result.get("access"),
                "pages_pruned": row.get("pages_pruned"),
                "pages_skipped": row.get("pages_skipped"),
                "candidate_reduction": row.get("candidate_reduction"),
                "measured_recall": row.get("measured_recall"),
            },
        )
    return entries


def entries_from_optimizer(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_optimizer.json`` payload into store entries.

    One entry per optimizer mode (``v1``, ``v2``).  Counters are
    recorded for both; wall-clock carries the throughput headline, and
    the v2-vs-v1 speedup plus the identity-sweep verdict (v2 forced to
    one partition must match v1 byte-for-byte across every access
    method x engine cell) ride along as metadata.
    """
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        entries[f"optimizer/{row['mode']}"] = make_entry(
            row["seconds"],
            counters=row.get("counters"),
            meta={
                "n_objects": result.get("n_objects"),
                "n_queries": result.get("n_queries"),
                "speedup_vs_v1": row.get("speedup_vs_v1"),
                "queries_per_second": row.get("queries_per_second"),
                "partitions_mean": row.get("partitions_mean"),
                "identity_cells": result.get("identity_cells"),
            },
        )
    return entries


def entries_from_net(result: Mapping[str, Any]) -> dict[str, dict]:
    """Convert a ``BENCH_net.json`` payload into store entries.

    One entry per replay mode (``in-process``, ``wire``).  Counters,
    where a row carries them, are the served database's deterministic
    cost accounting.  Client-observed latency percentiles and
    shed/degraded totals ride along as metadata.
    """
    entries: dict[str, dict] = {}
    for row in result.get("rows", []):
        entries[f"net/{row['mode']}/knn"] = make_entry(
            row["seconds"],
            counters=row.get("counters"),
            meta={
                "n_objects": result.get("n_objects"),
                "n_queries": result.get("n_queries"),
                "offered_rate": result.get("offered_rate"),
                "queries_per_second": row.get("queries_per_second"),
                "latency_p50_ms": row.get("latency_p50_ms"),
                "latency_p99_ms": row.get("latency_p99_ms"),
                "shed": row.get("shed"),
                "degraded": row.get("degraded"),
                "identical_to_in_process": result.get(
                    "identical_to_in_process"
                ),
            },
        )
    return entries


def entries_from_bench_file(path: str) -> dict[str, dict]:
    """Convert a committed ``BENCH_*.json`` file, dispatching on its kind."""
    with open(path) as handle:
        result = json.load(handle)
    kind = result.get("benchmark")
    if kind == "engine_kernels":
        return entries_from_engine_kernels(result)
    if kind == "obs_overhead":
        return entries_from_obs_overhead(result)
    if kind == "service":
        return entries_from_service(result)
    if kind == "faults":
        return entries_from_faults(result)
    if kind == "prefilter":
        return entries_from_prefilter(result)
    if kind == "optimizer":
        return entries_from_optimizer(result)
    if kind == "net":
        return entries_from_net(result)
    raise ValueError(f"unknown benchmark kind {kind!r} in {path!r}")


# ----------------------------------------------------------------------
# The quick suite
# ----------------------------------------------------------------------


def run_quick_suite(
    n_objects: int = 2000,
    dimension: int = 16,
    n_queries: int = 24,
    block_size: int = 8,
    seed: int = 0,
) -> dict[str, dict]:
    """Fixed-seed k-NN blocks over every access method, plus DBSCAN.

    Every entry records wall-clock seconds *and* the deterministic cost
    counters of the run, so the comparison has a machine-independent
    exact signal next to the noisy timing one.
    """
    from repro.core.database import Database
    from repro.core.types import knn_query
    from repro.mining.dbscan import dbscan
    from repro.workloads import make_gaussian_mixture, sample_database_queries

    dataset = make_gaussian_mixture(
        n=n_objects, dimension=dimension, n_clusters=16, cluster_std=0.05, seed=seed
    )
    indices = sample_database_queries(dataset, n_queries, seed=seed + 1)
    queries = [dataset[i] for i in indices]
    meta = {
        "n_objects": n_objects,
        "dimension": dimension,
        "n_queries": n_queries,
        "block_size": block_size,
        "seed": seed,
    }

    entries: dict[str, dict] = {}
    for access in QUICK_ACCESS_METHODS:
        database = Database(dataset, access=access, block_size=2048)
        start = time.perf_counter()
        with database.measure() as run:
            database.run_in_blocks(
                queries, knn_query(10), block_size=block_size, db_indices=indices
            )
        seconds = time.perf_counter() - start
        counters = {
            name: getattr(run.counters, name) for name in _COUNTER_FIELDS
        }
        entries[f"quick/{access}/knn"] = make_entry(seconds, counters, meta)

    # DBSCAN mining run on a smaller slice (it queries every object).
    n_mine = min(n_objects, 600)
    mine_data = make_gaussian_mixture(
        n=n_mine, dimension=8, n_clusters=8, cluster_std=0.03, seed=seed
    )
    database = Database(mine_data, access="xtree", block_size=2048)
    start = time.perf_counter()
    with database.measure() as run:
        result = dbscan(database, eps=0.25, min_pts=4, batch_size=block_size)
    seconds = time.perf_counter() - start
    counters = {name: getattr(run.counters, name) for name in _COUNTER_FIELDS}
    counters["n_clusters"] = result.n_clusters
    counters["queries_issued"] = result.queries_issued
    entries["quick/dbscan/xtree"] = make_entry(
        seconds, counters, {"n_objects": n_mine, "batch_size": block_size}
    )
    return entries


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------


@dataclass
class ComparisonRow:
    """Verdict for one benchmark key."""

    key: str
    status: str  # "ok" | "improved" | "regression" | "new" | "missing"
    seconds_base: float | None = None
    seconds_current: float | None = None
    seconds_ratio: float | None = None
    counter_regressions: list[tuple[str, int, int]] = field(default_factory=list)

    def to_json(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "status": self.status,
            "seconds_base": self.seconds_base,
            "seconds_current": self.seconds_current,
            "seconds_ratio": self.seconds_ratio,
            "counter_regressions": [
                {"counter": name, "base": base, "current": current}
                for name, base, current in self.counter_regressions
            ],
        }


@dataclass
class ComparisonReport:
    """Outcome of comparing a run against a baseline store."""

    rows: list[ComparisonRow]
    seconds_threshold: float
    counter_threshold: float

    @property
    def regressions(self) -> list[ComparisonRow]:
        return [row for row in self.rows if row.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "seconds_threshold": self.seconds_threshold,
            "counter_threshold": self.counter_threshold,
            "ok": self.ok,
            "regressions": [row.key for row in self.regressions],
            "rows": [row.to_json() for row in self.rows],
        }


def compare(
    current: Mapping[str, dict[str, Any]],
    baseline: Mapping[str, dict[str, Any]],
    seconds_threshold: float = 0.5,
    counter_threshold: float = 0.0,
) -> ComparisonReport:
    """Compare ``current`` entries against a ``baseline`` store.

    A key regresses when its wall-clock ratio exceeds
    ``1 + seconds_threshold`` or any shared counter exceeds its baseline
    by more than ``counter_threshold`` (relative; 0 means exact, with a
    small absolute slack of 2 once a tolerance is given).  Keys only in
    ``current`` are ``new``; keys only in ``baseline`` are ``missing``;
    neither fails the check.
    """
    rows: list[ComparisonRow] = []
    for key in sorted(current):
        cur = current[key]
        base = baseline.get(key)
        if base is None:
            rows.append(
                ComparisonRow(key, "new", seconds_current=cur.get("seconds"))
            )
            continue
        base_seconds = float(base.get("seconds", 0.0))
        cur_seconds = float(cur.get("seconds", 0.0))
        if base_seconds > 0:
            ratio = cur_seconds / base_seconds
        else:
            ratio = float("inf") if cur_seconds > 0 else 1.0

        counter_regressions: list[tuple[str, int, int]] = []
        base_counters = base.get("counters") or {}
        cur_counters = cur.get("counters") or {}
        slack = 2 if counter_threshold > 0 else 0
        for name in sorted(set(base_counters) & set(cur_counters)):
            base_value = int(base_counters[name])
            cur_value = int(cur_counters[name])
            if cur_value > base_value * (1.0 + counter_threshold) + slack:
                counter_regressions.append((name, base_value, cur_value))

        if counter_regressions or ratio > 1.0 + seconds_threshold:
            status = "regression"
        elif ratio < 1.0 / (1.0 + seconds_threshold):
            status = "improved"
        else:
            status = "ok"
        rows.append(
            ComparisonRow(
                key,
                status,
                seconds_base=base_seconds,
                seconds_current=cur_seconds,
                seconds_ratio=ratio,
                counter_regressions=counter_regressions,
            )
        )
    for key in sorted(set(baseline) - set(current)):
        rows.append(
            ComparisonRow(
                key, "missing", seconds_base=baseline[key].get("seconds")
            )
        )
    return ComparisonReport(rows, seconds_threshold, counter_threshold)


def render_comparison(report: ComparisonReport) -> str:
    """Aligned text table of a comparison, regressions spelled out."""
    lines = [
        f"  {'benchmark':<52}{'base':>10}{'current':>10}{'ratio':>8}  status"
    ]
    for row in report.rows:
        base = f"{row.seconds_base * 1e3:8.2f}ms" if row.seconds_base else "-"
        cur = (
            f"{row.seconds_current * 1e3:8.2f}ms" if row.seconds_current else "-"
        )
        ratio = f"{row.seconds_ratio:7.2f}x" if row.seconds_ratio else "-"
        lines.append(f"  {row.key:<52}{base:>10}{cur:>10}{ratio:>8}  {row.status}")
        for name, base_value, cur_value in row.counter_regressions:
            lines.append(
                f"      counter {name}: {base_value:,} -> {cur_value:,}"
            )
    for row in report.regressions:
        detail = []
        if row.seconds_ratio is not None and (
            row.seconds_ratio > 1.0 + report.seconds_threshold
        ):
            detail.append(f"seconds {row.seconds_ratio:.2f}x baseline")
        for name, base_value, cur_value in row.counter_regressions:
            detail.append(f"{name} {base_value:,} -> {cur_value:,}")
        lines.append(f"REGRESSION: {row.key} ({'; '.join(detail)})")
    if report.ok:
        lines.append(
            f"ok: {sum(1 for r in report.rows if r.status != 'missing')} "
            "benchmarks within thresholds"
        )
    return "\n".join(lines)
