"""Ablation: the triangle-inequality avoidance (Sec. 5.2).

Dimensions ablated on the scan at the largest block size:

* avoidance off vs. Lemma 1 only vs. Lemma 2 only vs. both;
* the pivot cap (how many known queries each decision may consult).
"""

from repro.service import run_in_blocks
from repro.core.types import knn_query
from repro.experiments.runner import build_database, dataset_k, workload_queries


def _run(database, queries, indices, qtype, **kwargs):
    database.cold()
    with database.measure() as handle:
        run_in_blocks(
            database,
            queries,
            qtype,
            block_size=len(queries),
            db_indices=indices,
            **kwargs,
        )
    return handle


def test_avoidance_ablation(benchmark, config):
    database = build_database("astronomy", "scan", config)
    indices = workload_queries("astronomy", config)
    queries = [database.dataset[i] for i in indices]
    qtype = knn_query(dataset_k("astronomy", config))

    def run_all():
        results = {}
        results["off"] = _run(database, queries, indices, qtype, use_avoidance=False)
        results["both"] = _run(database, queries, indices, qtype)
        results["cap8"] = _run(database, queries, indices, qtype, max_pivots=8)
        results["unbounded"] = _run(database, queries, indices, qtype, max_pivots=0)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print("\nAvoidance ablation (astronomy / scan, m = %d):" % len(queries))
    for label, handle in results.items():
        counters = handle.counters
        print(
            f"  {label:>10}: cpu={handle.cpu_seconds:7.3f}s "
            f"dists={counters.distance_calculations:>9,} "
            f"avoided={counters.avoided_calculations:>9,} "
            f"tries={counters.avoidance_tries:>10,}"
        )
    assert results["both"].cpu_seconds < results["off"].cpu_seconds
    assert (
        results["both"].counters.distance_calculations
        < results["off"].counters.distance_calculations
    )
    # More pivots avoid at least as many calculations.
    assert (
        results["unbounded"].counters.distance_calculations
        <= results["cap8"].counters.distance_calculations
    )


def test_lemma_ablation(benchmark, config):
    database = build_database("astronomy", "scan", config)
    indices = workload_queries("astronomy", config)
    queries = [database.dataset[i] for i in indices]
    qtype = knn_query(dataset_k("astronomy", config))

    def run_all():
        results = {}
        for label, (l1, l2) in {
            "lemma1": (True, False),
            "lemma2": (False, True),
            "both": (True, True),
        }.items():
            database.cold()
            processor = database.processor(seed_from_queries=True)
            processor.use_lemma1 = l1
            processor.use_lemma2 = l2
            with database.measure() as handle:
                processor.query_all(queries, [qtype] * len(queries), db_indices=indices)
            results[label] = handle
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\nLemma ablation (astronomy / scan):")
    for label, handle in results.items():
        print(
            f"  {label:>7}: avoided={handle.counters.avoided_calculations:>9,} "
            f"dists={handle.counters.distance_calculations:>9,}"
        )
    both = results["both"].counters.avoided_calculations
    assert both >= results["lemma1"].counters.avoided_calculations
    assert both >= results["lemma2"].counters.avoided_calculations
    assert both > 0
