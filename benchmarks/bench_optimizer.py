"""Optimizer-v2 benchmark: identity sweep plus mixed-workload throughput.

Two guarantees of the cost-based batch optimizer are measured:

* **Identity** -- v2 forced to a single partition (``share_bound=inf``)
  must produce answers *and* deterministic cost counters byte-identical
  to the v1 scheduler, across every access method x engine cell.  Any
  planning work that leaked a distance calculation or page read into
  the execution path would fail this sweep.
* **Throughput** -- on a mixed range/k-NN multi-client trace at
  n >= 10^4, v2 (sharing-aware partitioning, per-partition engine and
  access-method selection on a probed cost surface) must beat the v1
  single-knee configuration by >= 1.2x wall-clock.  The modelled-cost
  ratio (the paper's Sec. 6 currency) is reported next to it.

Results are written to ``BENCH_optimizer.json`` at the repository root;
``repro bench --import-bench BENCH_optimizer.json`` folds them into the
baseline store so the CI regression check guards optimizer throughput.

Run standalone (``python benchmarks/bench_optimizer.py``) or via pytest
(``pytest benchmarks/bench_optimizer.py``).
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

from repro.core.database import Database
from repro.core.planner import QueryPlanner
from repro.core.types import knn_query, range_query
from repro.service import OPTIMIZER_V1, OPTIMIZER_V2, knee_block_size
from repro.workloads import make_gaussian_mixture, sample_database_queries

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_optimizer.json"

DIMENSION = 16
K = 10

# Identity sweep: small database, every access method x engine cell.
N_IDENTITY = 1_500
IDENTITY_CLIENTS = 4
IDENTITY_QUERIES_PER_CLIENT = 3
ACCESS_METHODS = ("scan", "xtree", "mtree", "rstar", "vafile")
ENGINES = ("reference", "vectorized", "batched")

# Throughput headline: mixed trace at n >= 10^4, one cluster per
# client (the paper's mining drivers issue spatially local streams).
N_THROUGHPUT = 12_000
CLIENTS = 8
QUERIES_PER_CLIENT = 12
BLOCK_CAP = 8
MAX_BLOCK = 32
REPEATS = 5
MIN_SPEEDUP = 1.2


def _mixed_qtypes(n: int) -> list:
    """Alternating k-NN and diverse-radius range queries (CLI ``--mix``)."""
    qtypes = []
    for position in range(n):
        if position % 2:
            qtypes.append(knn_query(K))
        else:
            qtypes.append(range_query(0.12 * (1 + (position // 2) % 3)))
    return qtypes


def _trace(dataset, indices, n_clients: int):
    """Round-robin arrivals: client c submits its next query each round."""
    qtypes = _mixed_qtypes(len(indices))
    trace = []
    for position, index in enumerate(indices):
        trace.append((position % n_clients, dataset[index], qtypes[position]))
    return trace


def _clustered_trace(dataset, n_clients: int, queries_per_client: int):
    """Round-robin arrivals with per-client locality: client c queries
    its own cluster, so FIFO admission interleaves far-apart queries
    while affinity partitioning can regroup them."""
    labels = dataset.labels
    per_client = {
        c: [i for i in range(len(labels)) if labels[i] == c][:queries_per_client]
        for c in range(n_clients)
    }
    qtypes = _mixed_qtypes(n_clients * queries_per_client)
    trace = []
    position = 0
    for round_ in range(queries_per_client):
        for client in range(n_clients):
            trace.append(
                (client, dataset[per_client[client][round_]], qtypes[position])
            )
            position += 1
    return trace


def _run_scheduler(
    dataset,
    trace,
    access: str,
    engine: str,
    optimizer: str,
    share_bound: float | None = None,
    planner=None,
    max_block: int = BLOCK_CAP,
):
    database = Database(dataset, access=access, engine=engine, block_size=2048)
    scheduler = database.serve(
        max_block=max_block,
        optimizer=optimizer,
        share_bound=share_bound,
        planner=planner,
    )
    start = time.perf_counter()
    tickets = scheduler.serve(trace)
    seconds = time.perf_counter() - start
    answers = [
        [(a.index, float(a.distance)) for a in t.answers] for t in tickets
    ]
    return {
        "seconds": seconds,
        "modelled_seconds": database.cost_model.total_seconds(database.counters),
        "answers": answers,
        "counters": database.counters.as_dict(),
        "scheduler": scheduler,
    }


def run_identity_sweep() -> list[dict]:
    """v1 vs v2-forced-single-partition across every access x engine."""
    dataset = make_gaussian_mixture(
        n=N_IDENTITY, dimension=DIMENSION, n_clusters=12, cluster_std=0.05, seed=0
    )
    indices = sample_database_queries(
        dataset, IDENTITY_CLIENTS * IDENTITY_QUERIES_PER_CLIENT, seed=1
    )
    trace = _trace(dataset, indices, IDENTITY_CLIENTS)
    cells = []
    for access in ACCESS_METHODS:
        for engine in ENGINES:
            v1 = _run_scheduler(dataset, trace, access, engine, OPTIMIZER_V1)
            v2 = _run_scheduler(
                dataset,
                trace,
                access,
                engine,
                OPTIMIZER_V2,
                share_bound=math.inf,
            )
            cells.append(
                {
                    "access": access,
                    "engine": engine,
                    "answers_identical": v1["answers"] == v2["answers"],
                    "counters_identical": v1["counters"] == v2["counters"],
                }
            )
    return cells


def _v1_knee_cap(planner: QueryPlanner) -> int:
    """The v1 single-knee block cap from the probed k-NN fits."""
    fits = planner.fit_surface(knn_query(K))
    own = [f for f in fits if f.engine is None]
    best = min(
        own or fits, key=lambda f: f.per_query(MAX_BLOCK)
    )
    return knee_block_size(best, MAX_BLOCK)


def run_throughput() -> dict:
    dataset = make_gaussian_mixture(
        n=N_THROUGHPUT,
        dimension=DIMENSION,
        n_clusters=30,
        cluster_std=0.03,
        seed=0,
    )
    trace = _clustered_trace(dataset, CLIENTS, QUERIES_PER_CLIENT)
    # Probe the serving access method only: the cold-database probes
    # systematically overprice buffer-friendly tree indexes relative to
    # scan, so cross-access selection is not part of the headline.
    planner = QueryPlanner(
        dataset,
        candidates=("xtree",),
        engines=(None, "batched"),
    )
    v1_cap = _v1_knee_cap(planner)

    best: dict[str, dict] = {}
    for _ in range(REPEATS):
        v1 = _run_scheduler(
            dataset,
            trace,
            "xtree",
            "auto",
            OPTIMIZER_V1,
            max_block=v1_cap,
        )
        # v2 takes blocks of the full cap and lets the cost-based
        # partitioner cut them; v1 runs blocks of its single knee cap.
        v2 = _run_scheduler(
            dataset,
            trace,
            "xtree",
            "auto",
            OPTIMIZER_V2,
            planner=planner,
            max_block=MAX_BLOCK,
        )
        assert v1["answers"] == v2["answers"], "v2 changed answers"
        for mode, run in (("v1", v1), ("v2", v2)):
            if mode not in best or run["seconds"] < best[mode]["seconds"]:
                best[mode] = run

    n_queries = len(trace)
    rows = []
    for mode in ("v1", "v2"):
        run = best[mode]
        rows.append(
            {
                "mode": mode,
                "seconds": run["seconds"],
                "queries_per_second": n_queries / run["seconds"],
                "speedup_vs_v1": best["v1"]["seconds"] / run["seconds"],
                "modelled_seconds": run["modelled_seconds"],
                "max_block": v1_cap if mode == "v1" else MAX_BLOCK,
                "counters": run["counters"],
            }
        )
    return {
        "rows": rows,
        "speedup": best["v1"]["seconds"] / best["v2"]["seconds"],
        "modelled_speedup": (
            best["v1"]["modelled_seconds"] / best["v2"]["modelled_seconds"]
        ),
        "n_queries": n_queries,
    }


def run_bench() -> dict:
    cells = run_identity_sweep()
    throughput = run_throughput()
    result = {
        "benchmark": "optimizer",
        "n_objects": N_THROUGHPUT,
        "n_queries": throughput["n_queries"],
        "repeats": REPEATS,
        "identity_cells": cells,
        "rows": throughput["rows"],
        "speedup": throughput["speedup"],
        "modelled_speedup": throughput["modelled_speedup"],
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def _render(result: dict) -> str:
    lines = ["identity sweep (v1 vs v2 forced single partition):"]
    for cell in result["identity_cells"]:
        verdict = (
            "ok"
            if cell["answers_identical"] and cell["counters_identical"]
            else "MISMATCH"
        )
        lines.append(
            f"  {cell['access']:<8} {cell['engine']:<11} {verdict}"
        )
    lines.append("")
    lines.append(
        f"{'mode':<6} {'seconds':>9} {'q/s':>8} {'speedup':>8} "
        f"{'modelled s':>11} {'page reads':>11} {'dist calcs':>11}"
    )
    for row in result["rows"]:
        c = row["counters"]
        pages = c["sequential_page_reads"] + c["random_page_reads"]
        lines.append(
            f"{row['mode']:<6} {row['seconds']:>9.3f} "
            f"{row['queries_per_second']:>8.1f} "
            f"{row['speedup_vs_v1']:>7.2f}x {row['modelled_seconds']:>11.3f} "
            f"{pages:>11,} {c['distance_calculations']:>11,}"
        )
    lines.append(f"modelled-cost speedup of v2: {result['modelled_speedup']:.2f}x")
    return "\n".join(lines)


def test_optimizer_identity_and_throughput():
    result = run_bench()
    print()
    print(_render(result))
    for cell in result["identity_cells"]:
        assert cell["answers_identical"], cell
        assert cell["counters_identical"], cell
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"v2 speedup {result['speedup']:.2f}x below {MIN_SPEEDUP}x"
    )


if __name__ == "__main__":
    result = run_bench()
    print(_render(result))
    sys.exit(0 if result["speedup"] >= MIN_SPEEDUP else 1)
