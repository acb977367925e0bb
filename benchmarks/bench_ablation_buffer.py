"""Ablation: LRU buffer size (paper setting: 10 % of the index)."""

from repro import Database
from repro.core.types import knn_query
from repro.experiments.runner import dataset_k, get_dataset, workload_queries


def test_buffer_ablation(benchmark, config):
    dataset = get_dataset("astronomy", config)
    indices = workload_queries("astronomy", config)
    queries = [dataset[i] for i in indices]
    qtype = knn_query(dataset_k("astronomy", config))
    m = config.m_values[len(config.m_values) // 2]

    def run_all():
        results = {}
        for fraction in (0.0, 0.1, 0.5):
            database = Database(dataset, access="xtree", buffer_fraction=fraction)
            with database.measure() as handle:
                database.run_in_blocks(
                    queries,
                    qtype,
                    block_size=m,
                    db_indices=indices,
                )
            results[fraction] = handle
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\nBuffer-size ablation (astronomy / X-tree, m = %d):" % m)
    for fraction, handle in results.items():
        print(
            f"  buffer={fraction:4.1f}: io={handle.io_seconds:7.3f}s "
            f"hits={handle.counters.buffer_hits:>7,} "
            f"reads={handle.counters.page_reads:>7,}"
        )
    assert results[0.5].io_seconds <= results[0.0].io_seconds
    assert results[0.5].counters.buffer_hits >= results[0.0].counters.buffer_hits
