"""Parallel multiple similarity queries on a shared-nothing cluster (Sec. 5.3).

The data is declustered over s simulated servers; every server answers
the same multiple similarity query on its local partition and the
answers are merged.  Because s servers also have s times the memory, the
block size grows to m * s -- which is what can push the speed-up beyond
the server count.

Run:  python examples/parallel_speedup.py
"""

from repro import Database, knn_query
from repro.service import run_in_blocks
from repro.parallel import ParallelDatabase
from repro.workloads import make_astronomy, sample_database_queries


def main() -> None:
    dataset = make_astronomy(n=30_000, seed=0)
    base_m, k = 50, 10

    # Sequential baseline: blocks of base_m on one machine.
    database = Database(dataset, access="xtree")
    base_queries = sample_database_queries(dataset, base_m, seed=1)
    with database.measure() as baseline:
        run_in_blocks(
            database,
            [dataset[i] for i in base_queries],
            knn_query(k),
            block_size=base_m,
            db_indices=base_queries,
            warm_start=True,
        )
    base_cost = baseline.total_seconds / base_m
    print(f"sequential multiple query (m={base_m}): {base_cost * 1000:6.2f} ms/query")

    print(f"\n{'s':>3} {'m = s*base':>10} {'ms/query':>10} {'speed-up':>9} {'vs linear':>10}")
    for n_servers in (1, 2, 4, 8):
        n_queries = base_m * n_servers
        query_indices = sample_database_queries(dataset, n_queries, seed=2)
        cluster = ParallelDatabase(dataset, n_servers=n_servers, access="xtree")
        run = cluster.multiple_similarity_query(
            [dataset[i] for i in query_indices],
            knn_query(k),
            db_indices=query_indices,
        )
        per_query = run.elapsed_seconds / n_queries
        speedup = base_cost / per_query
        shape = "super-linear" if speedup > n_servers else "sub-linear"
        print(
            f"{n_servers:>3} {n_queries:>10} {per_query * 1000:>10.2f} "
            f"{speedup:>8.1f}x {shape:>12}"
        )

    print(
        "\nThe speed-up exceeds the server count when the larger block "
        "(m * s) increases page sharing faster than the O(m^2) "
        "query-distance matrix grows -- Sec. 5.3 / Figure 11 of the paper."
    )


if __name__ == "__main__":
    main()
