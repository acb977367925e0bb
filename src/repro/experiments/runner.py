"""Shared sweep infrastructure for the figure harnesses.

Figures 7-10 all derive from one sweep: for each dataset (astronomy,
image), access method (scan, X-tree) and block size m, the M-query
workload is processed in blocks of m and the average modelled I/O and
CPU cost per query recorded.  The sweep is computed once per
configuration and cached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.database import Database
from repro.core.types import knn_query
from repro.experiments.config import ExperimentConfig
from repro.workloads.generators import make_astronomy, make_image_histograms
from repro.workloads.queries import sample_database_queries

DATASET_NAMES = ("astronomy", "image")
ACCESS_METHODS = ("scan", "xtree")

_dataset_cache: dict[tuple, object] = {}
_sweep_cache: dict[tuple, dict] = {}
_sweep_metrics_cache: dict[tuple, dict] = {}


def clear_caches() -> None:
    """Drop all cached datasets and sweeps (test isolation)."""
    _dataset_cache.clear()
    _sweep_cache.clear()
    _sweep_metrics_cache.clear()


def get_dataset(name: str, config: ExperimentConfig):
    """Build (or fetch) one of the two evaluation datasets."""
    key = (name, config)
    if key not in _dataset_cache:
        if name == "astronomy":
            _dataset_cache[key] = make_astronomy(
                n=config.astronomy_n, seed=config.seed
            )
        elif name == "image":
            _dataset_cache[key] = make_image_histograms(
                n=config.image_n, seed=config.seed + 1
            )
        else:
            raise ValueError(f"unknown dataset {name!r}")
    return _dataset_cache[key]


def dataset_k(name: str, config: ExperimentConfig) -> int:
    """The k used for this dataset's k-NN workload (paper Sec. 6)."""
    return config.astronomy_k if name == "astronomy" else config.image_k


def build_database(name: str, access: str, config: ExperimentConfig) -> Database:
    """Construct a database over one evaluation dataset."""
    return Database(get_dataset(name, config), access=access)


def workload_queries(
    name: str, config: ExperimentConfig, n_queries: int | None = None
) -> list[int]:
    """The M query-object indices for a dataset's workload.

    Astronomy: independent random database objects (the simultaneous
    classification scenario).  Image: *dependent* queries -- a breadth-
    first expansion over k-NN answers starting from one random object,
    modelling the manual-exploration scenario where new query objects
    are answers of previous queries.
    """
    dataset = get_dataset(name, config)
    if n_queries is None:
        n_queries = config.n_queries
    if name == "astronomy":
        return sample_database_queries(dataset, n_queries, seed=config.seed)
    return _dependent_queries(
        dataset, n_queries, dataset_k(name, config), seed=config.seed
    )


def _dependent_queries(dataset, n_queries: int, k: int, seed: int) -> list[int]:
    """Exploration-style query chain: answers of previous queries."""
    rng = np.random.default_rng(seed)
    database = Database(dataset, access="scan", buffer_fraction=0.0)
    start = int(rng.integers(0, len(dataset)))
    queue = [start]
    seen = {start}
    selected: list[int] = []
    while queue and len(selected) < n_queries:
        current = queue.pop(0)
        selected.append(current)
        answers = database.similarity_query(dataset[current], knn_query(k))
        fresh = [a.index for a in answers if a.index not in seen]
        rng.shuffle(fresh)
        for index in fresh:
            seen.add(index)
            queue.append(index)
    while len(selected) < n_queries:
        extra = int(rng.integers(0, len(dataset)))
        if extra not in seen:
            seen.add(extra)
            selected.append(extra)
    return selected


@dataclass(frozen=True)
class CostPoint:
    """Average modelled cost per query at one sweep point."""

    m: int
    io_seconds: float
    cpu_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.io_seconds + self.cpu_seconds


def sweep(name: str, access: str, config: ExperimentConfig) -> dict[int, CostPoint]:
    """Average per-query cost over the m sweep for one dataset/access.

    Results are cached per configuration; Figures 7-10 all read from the
    same sweep.
    """
    key = (name, access, config)
    if key in _sweep_cache:
        return _sweep_cache[key]
    database = build_database(name, access, config)
    query_indices = workload_queries(name, config)
    queries = [database.dataset[i] for i in query_indices]
    qtype = knn_query(dataset_k(name, config))
    points: dict[int, CostPoint] = {}
    sidecar: dict[int, dict] = {}
    for m in config.m_values:
        database.cold()
        with database.measure() as handle:
            database.run_in_blocks(
                queries,
                qtype,
                block_size=m,
                db_indices=query_indices,
            )
        n = len(queries)
        points[m] = CostPoint(
            m=m,
            io_seconds=handle.io_seconds / n,
            cpu_seconds=handle.cpu_seconds / n,
        )
        counters = handle.counters
        sidecar[m] = {
            "m": m,
            "io_seconds_per_query": points[m].io_seconds,
            "cpu_seconds_per_query": points[m].cpu_seconds,
            "page_reads": counters.page_reads,
            "buffer_hits": counters.buffer_hits,
            "distance_calculations": counters.distance_calculations,
            "avoided_calculations": counters.avoided_calculations,
            "avoidance_tries": counters.avoidance_tries,
            "queries_completed": counters.queries_completed,
            "sharing_factor": counters.sharing_factor,
            "avoidance_hit_rate": counters.avoidance_hit_rate,
        }
    _sweep_cache[key] = points
    _sweep_metrics_cache[key] = sidecar
    return points


def sweep_metrics(name: str, access: str, config: ExperimentConfig) -> dict[int, dict]:
    """Per-point metrics sidecar of one figure sweep.

    For every block size m of :func:`sweep`, the Sec. 5.1/5.2
    effectiveness metrics measured over the whole M-query workload:
    sharing factor (queries completed per physical page read), avoidance
    hit-rate, and the raw counter totals they derive from.  Computed
    alongside the sweep and cached with it; ``run_all --metrics-out``
    writes the union for all figure sweeps as one JSON file.
    """
    key = (name, access, config)
    if key not in _sweep_metrics_cache:
        sweep(name, access, config)
    return _sweep_metrics_cache[key]
