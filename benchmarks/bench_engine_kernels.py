"""Microbenchmark: page-processing engines across page and batch sizes.

Times one page x query-batch evaluation for the three engines
(``reference``, ``vectorized``, ``batched``) over a grid of page sizes,
batch sizes, metrics and scenarios, verifies that answers and counters
are identical across engines for every configuration, and writes the
measurements to ``BENCH_engine_kernels.json`` at the repository root so
successive PRs have a perf trajectory.

Scenarios
---------
``knn_cold``
    Fresh k-NN batch: radii are infinite, every candidate reaches the
    answer heaps, so the (identical, per-candidate) insertion cost
    dominates all engines.  This is only the *first* page of a query's
    life.
``knn_warm``
    The steady state: answer lists pre-saturated from a 4096-object
    sample, so radii are tight, the offer prefilter rejects almost every
    candidate, and the Lemma-1/2 avoidance machinery runs with finite
    radii -- the cost profile of every page after the first.
``knn_warm_kernel``
    As ``knn_warm`` with avoidance disabled: isolates the distance
    kernels themselves (m strided einsum kernels for ``vectorized``
    vs. one fused GEMM for ``batched``), which is what the batched
    engine exists to accelerate.
``range_avoidance``
    Selective range queries with finite radii from the start.

The dimensionality is 64, the paper's colour-histogram dimensionality
(Sec. 6 evaluates 20-d and 64-d; the kernels are memory-bound below
~32-d where per-call dispatch overhead, identical across engines,
dominates the timings).

Run standalone (``python benchmarks/bench_engine_kernels.py``) or via
pytest (``pytest benchmarks/bench_engine_kernels.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.answers import AnswerList
from repro.core.engine import (
    PendingQuery,
    process_page_batched,
    process_page_reference,
    process_page_vectorized,
)
from repro.core.types import knn_query, range_query
from repro.data import VectorDataset
from repro.metric.distances import QuadraticFormDistance, get_distance
from repro.metric.space import MetricSpace
from repro.storage.page import Page

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_engine_kernels.json"

ENGINES = {
    "reference": process_page_reference,
    "vectorized": process_page_vectorized,
    "batched": process_page_batched,
}

PAGE_SIZES = (256, 1024, 2048)
BATCH_SIZES = (8, 32)
DIMENSION = 64
WARM_OBJECTS = 4096
REPEATS = 5

#: scenario name -> (query type factory, pre-saturate answers, avoidance)
SCENARIOS = {
    "knn_cold": (lambda: knn_query(10), False, True),
    "knn_warm": (lambda: knn_query(10), True, True),
    "knn_warm_kernel": (lambda: knn_query(10), True, False),
    "range_avoidance": (
        lambda: range_query(0.45 * float(np.sqrt(DIMENSION / 12))),
        False,
        True,
    ),
}


def _metric(name: str):
    if name == "quadratic_form":
        return QuadraticFormDistance.color_histogram(DIMENSION)
    return get_distance(name)


def _run_config(metric_name: str, n_objects: int, m: int, scenario: str):
    """Time every engine on one configuration; check equivalence."""
    make_qtype, saturate, use_avoidance = SCENARIOS[scenario]
    rng = np.random.default_rng(hash((metric_name, n_objects, m)) % 2**32)
    vectors = rng.random((n_objects, DIMENSION))
    queries = rng.random((m, DIMENSION))
    warm = rng.random((WARM_OBJECTS, DIMENSION)) if saturate else None
    metric = _metric(metric_name)
    qtypes = [make_qtype() for _ in range(m)]
    matrix = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            matrix[i, j] = metric.one(queries[i], queries[j])
    dataset = VectorDataset(vectors)
    page = Page(page_id=0, indices=np.arange(n_objects), objects=dataset.vectors)
    # Warm candidates use indices disjoint from the page so answer sets
    # stay comparable across engines.
    warm_indices = np.arange(10**6, 10**6 + WARM_OBJECTS)
    warm_distances = (
        [metric.many(warm, queries[i]) for i in range(m)] if saturate else None
    )

    def make_batch():
        batch = []
        for i in range(m):
            answers = AnswerList(qtypes[i])
            if saturate:
                answers.offer_many(warm_indices, warm_distances[i])
            batch.append(
                PendingQuery(
                    key=i,
                    obj=queries[i],
                    qtype=qtypes[i],
                    answers=answers,
                    slot=i,
                )
            )
        return batch

    seconds: dict[str, float] = {}
    checks: dict[str, tuple] = {}
    for name, process in ENGINES.items():
        best = float("inf")
        for _ in range(REPEATS):
            space = MetricSpace(metric)
            batch = make_batch()
            start = time.perf_counter()
            process(
                page,
                batch,
                dataset,
                space,
                matrix,
                space.counters,
                use_avoidance=use_avoidance,
            )
            best = min(best, time.perf_counter() - start)
        seconds[name] = best
        checks[name] = (
            space.counters.as_dict(),
            [
                frozenset(a.index for a in pending.answers.materialize())
                for pending in batch
            ],
        )
    reference = checks["reference"]
    equivalent = all(checks[name] == reference for name in ENGINES)
    return {
        "metric": metric_name,
        "page_size": n_objects,
        "batch_size": m,
        "scenario": scenario,
        "use_avoidance": use_avoidance,
        "dimension": DIMENSION,
        "seconds": seconds,
        "speedup_batched_vs_vectorized": seconds["vectorized"]
        / seconds["batched"],
        "speedup_batched_vs_reference": seconds["reference"]
        / seconds["batched"],
        "engines_equivalent": equivalent,
    }


def run_bench() -> dict:
    rows = []
    for metric_name in ("euclidean", "quadratic_form"):
        for n_objects in PAGE_SIZES:
            for m in BATCH_SIZES:
                for scenario in SCENARIOS:
                    rows.append(
                        _run_config(metric_name, n_objects, m, scenario)
                    )
    result = {
        "benchmark": "engine_kernels",
        "dimension": DIMENSION,
        "repeats": REPEATS,
        "rows": rows,
    }
    OUTPUT.write_text(json.dumps(result, indent=2) + "\n")
    return result


def _render(result: dict) -> str:
    lines = [
        f"{'metric':<15} {'page':>5} {'batch':>5} {'scenario':<16} "
        f"{'ref ms':>9} {'vec ms':>9} {'bat ms':>9} {'bat/vec':>8}"
    ]
    for row in result["rows"]:
        s = row["seconds"]
        lines.append(
            f"{row['metric']:<15} {row['page_size']:>5} {row['batch_size']:>5} "
            f"{row['scenario']:<16} {s['reference'] * 1e3:>9.3f} "
            f"{s['vectorized'] * 1e3:>9.3f} {s['batched'] * 1e3:>9.3f} "
            f"{row['speedup_batched_vs_vectorized']:>7.1f}x"
        )
    return "\n".join(lines)


def test_engine_kernels():
    result = run_bench()
    print()
    print(_render(result))
    for row in result["rows"]:
        assert row["engines_equivalent"], row
    # Acceptance: on Euclidean pages of >= 256 objects with batch size
    # >= 8, the fused kernel reaches >= 3x over the vectorized engine in
    # the kernel-bound steady state (knn_warm_kernel), and is never
    # slower in any steady-state scenario.
    kernel_rows = [
        row
        for row in result["rows"]
        if row["metric"] == "euclidean"
        and row["page_size"] >= 256
        and row["batch_size"] >= 8
        and row["scenario"] == "knn_warm_kernel"
    ]
    assert kernel_rows
    best = max(r["speedup_batched_vs_vectorized"] for r in kernel_rows)
    assert best >= 3.0, kernel_rows
    for row in result["rows"]:
        if row["metric"] == "euclidean" and row["scenario"] in (
            "knn_warm",
            "knn_warm_kernel",
        ):
            assert row["speedup_batched_vs_vectorized"] >= 1.0, row


if __name__ == "__main__":
    result = run_bench()
    print(_render(result))
    sys.exit(0)
