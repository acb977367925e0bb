"""Ablation: the incremental optimisations of the multiple query.

Measures, on the X-tree workload: batching, then + matrix radius
seeding -- neither changes answers, only cost.  Warm start is part of
both: every unsaturated k-NN query joining a block is warmed (DESIGN.md
decision 10), so it has no switch to ablate.  Also demonstrates the
Sec. 5.1 incremental-buffer effect in a dynamic ExploreNeighborhoods
run (persistent vs. per-iteration processor).
"""

from repro import Database
from repro.core.types import knn_query, range_query
from repro.experiments.runner import build_database, dataset_k, workload_queries
from repro.mining import explore_neighborhoods_multiple
from repro.workloads import make_gaussian_mixture


def test_incremental_optimisations(benchmark, config):
    database = build_database("astronomy", "xtree", config)
    indices = workload_queries("astronomy", config)
    queries = [database.dataset[i] for i in indices]
    qtype = knn_query(dataset_k("astronomy", config))

    def run_all():
        variants = {
            "plain": dict(),
            "+seeding": dict(db_indices=indices),
        }
        results = {}
        for label, kwargs in variants.items():
            database.cold()
            with database.measure() as handle:
                database.run_in_blocks(
                    queries, qtype, block_size=len(queries), **kwargs
                )
            results[label] = handle
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\nIncremental optimisations (astronomy / X-tree):")
    for label, handle in results.items():
        print(
            f"  {label:>12}: io={handle.io_seconds:7.3f}s "
            f"cpu={handle.cpu_seconds:7.3f}s total={handle.total_seconds:7.3f}s"
        )
    assert results["+seeding"].cpu_seconds <= results["plain"].cpu_seconds * 1.05


def test_incremental_buffer_in_mining(benchmark):
    dataset = make_gaussian_mixture(
        n=6000, dimension=8, n_clusters=8, cluster_std=0.02, seed=3
    )

    def run_both():
        results = {}
        for label, persistent in (("persistent", True), ("fresh", False)):
            database = Database(dataset, access="xtree", buffer_fraction=0.0)
            processor = database.processor() if persistent else None
            with database.measure() as handle:
                explore_neighborhoods_multiple(
                    database,
                    [0],
                    range_query(0.06),
                    batch_size=16,
                    max_iterations=150,
                    processor=processor,
                )
            results[label] = handle
        return results

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print("\nIncremental buffer in ExploreNeighborhoodsMultiple:")
    for label, handle in results.items():
        print(
            f"  {label:>10}: pages={handle.counters.page_reads:>6} "
            f"total={handle.total_seconds:7.3f}s"
        )
    assert (
        results["persistent"].counters.page_reads
        <= results["fresh"].counters.page_reads
    )
