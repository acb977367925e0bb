"""Scheduler-throughput benchmark: the query service under client load.

Drives a deterministic multi-client k-NN trace through
:class:`~repro.service.QueryScheduler` (work-conserving blocks, FIFO driver)
for both block orderings and measures wall-clock seconds plus the run's
deterministic cost counters.  Every ticket's answers are asserted
byte-identical to the plain ``run_in_blocks`` path over the same
workload -- the service layer batches and streams, it never changes
answers.

Results are written to ``BENCH_service.json`` at the repository root;
``repro bench --import-bench BENCH_service.json`` folds them into the
baseline store so the CI regression check guards scheduler throughput.

Run standalone (``python benchmarks/bench_service.py``) or via pytest
(``pytest benchmarks/bench_service.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.database import Database
from repro.core.types import knn_query
from repro.service import ORDER_AFFINITY, ORDER_FIFO
from repro.workloads import make_gaussian_mixture, sample_database_queries

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_service.json"

N_OBJECTS = 4_096
DIMENSION = 16
N_CLIENTS = 8
QUERIES_PER_CLIENT = 8
K = 10
MAX_BLOCK = 8
REPEATS = 5

_COUNTER_FIELDS = (
    "page_reads",
    "distance_calculations",
    "avoidance_tries",
    "avoided_calculations",
    "queries_completed",
)


def _workload():
    dataset = make_gaussian_mixture(
        n=N_OBJECTS, dimension=DIMENSION, n_clusters=16, cluster_std=0.05, seed=0
    )
    indices = sample_database_queries(
        dataset, N_CLIENTS * QUERIES_PER_CLIENT, seed=1
    )
    return dataset, indices


def _client_trace(dataset, indices):
    """Round-robin arrivals: client c submits its next query each round."""
    trace = []
    position = 0
    for _ in range(QUERIES_PER_CLIENT):
        for client in range(N_CLIENTS):
            trace.append((client, dataset[indices[position]], knn_query(K)))
            position += 1
    return trace


def _time_once(order: str, dataset, indices) -> dict:
    database = Database(dataset, access="xtree", block_size=2048)
    scheduler = database.serve(max_block=MAX_BLOCK, order=order)
    trace = _client_trace(dataset, indices)
    start = time.perf_counter()
    tickets = scheduler.serve(trace)
    seconds = time.perf_counter() - start
    return {
        "seconds": seconds,
        "answers": [
            [(a.index, a.distance) for a in t.answers] for t in tickets
        ],
        "counters": {
            name: getattr(database.counters, name) for name in _COUNTER_FIELDS
        },
    }


def _reference_answers(dataset, indices) -> list[list[tuple[int, float]]]:
    """Per-query exact answers via the plain block path."""
    database = Database(dataset, access="xtree", block_size=2048)
    results = database.run_in_blocks(
        [dataset[i] for i in indices], knn_query(K), block_size=MAX_BLOCK
    )
    return [[(a.index, a.distance) for a in r] for r in results]


def run_bench() -> dict:
    dataset, indices = _workload()
    reference = _reference_answers(dataset, indices)
    rows = []
    for order in (ORDER_FIFO, ORDER_AFFINITY):
        best: dict | None = None
        for _ in range(REPEATS):
            run = _time_once(order, dataset, indices)
            if best is None or run["seconds"] < best["seconds"]:
                best = run
        assert best is not None
        # Answers are exact per query, independent of block order.
        assert best["answers"] == reference, order
        n_queries = len(indices)
        rows.append(
            {
                "order": order,
                "n_objects": N_OBJECTS,
                "dimension": DIMENSION,
                "n_clients": N_CLIENTS,
                "n_queries": n_queries,
                "max_block": MAX_BLOCK,
                "seconds": best["seconds"],
                "queries_per_second": n_queries / best["seconds"],
                "counters": best["counters"],
                "equivalent": True,
            }
        )
    result = {
        "benchmark": "service",
        "repeats": REPEATS,
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def _render(result: dict) -> str:
    lines = [
        f"{'order':<10} {'seconds':>9} {'q/s':>8} {'page reads':>11} "
        f"{'dist calcs':>11} {'avoided':>9}"
    ]
    for row in result["rows"]:
        c = row["counters"]
        lines.append(
            f"{row['order']:<10} {row['seconds']:>9.3f} "
            f"{row['queries_per_second']:>8.1f} {c['page_reads']:>11,} "
            f"{c['distance_calculations']:>11,} "
            f"{c['avoided_calculations']:>9,}"
        )
    return "\n".join(lines)


def test_service_throughput():
    result = run_bench()
    print()
    print(_render(result))
    for row in result["rows"]:
        assert row["equivalent"], row
        assert row["counters"]["queries_completed"] >= row["n_queries"], row


if __name__ == "__main__":
    print(_render(run_bench()))
    sys.exit(0)
