"""Quickstart: single vs. multiple similarity queries on a metric database.

Builds a small clustered vector database, runs the same k-NN workload
once as independent single queries (Fig. 1 of the paper) and once as one
multiple similarity query (Fig. 4), and prints the modelled I/O and CPU
cost of both -- the paper's headline effect in ~60 lines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import Database, knn_query
from repro.workloads import make_gaussian_mixture, sample_database_queries


def main() -> None:
    # A 16-d clustered dataset standing in for feature vectors.
    dataset = make_gaussian_mixture(
        n=20_000, dimension=16, n_clusters=40, cluster_std=0.03, seed=0
    )
    database = Database(dataset, access="xtree")
    print("database:", database.summary())

    # The workload: 50 k-NN queries for random database objects.
    query_indices = sample_database_queries(dataset, 50, seed=1)
    queries = [dataset[i] for i in query_indices]
    qtype = knn_query(10)

    # --- one query at a time (traditional query processing) ----------
    with database.measure() as single:
        single_answers = [database.similarity_query(q, qtype) for q in queries]

    # --- the same workload as one multiple similarity query ----------
    database.cold()
    with database.measure() as multi:
        multi_answers = database.run_in_blocks(
            queries,
            qtype,
            block_size=len(queries),
            db_indices=query_indices,
        )

    # Same answers either way.
    for a, b in zip(single_answers, multi_answers):
        assert {x.index for x in a} == {x.index for x in b}

    def report(label, run):
        counters = run.counters
        print(
            f"{label:>18}: io={run.io_seconds:7.3f}s cpu={run.cpu_seconds:7.3f}s "
            f"total={run.total_seconds:7.3f}s  "
            f"(pages={counters.page_reads}, dists={counters.distance_calculations:,}, "
            f"avoided={counters.avoided_calculations:,})"
        )

    print(f"\nworkload: {len(queries)} x {qtype.kind} (k=10)")
    report("single queries", single)
    report("multiple query", multi)
    speedup = single.total_seconds / multi.total_seconds
    print(f"\nspeed-up from batching: {speedup:.1f}x (identical answers)")

    nn = multi_answers[0]
    print(f"\nfirst query's neighbours: {[(a.index, round(a.distance, 4)) for a in nn[:5]]}")


if __name__ == "__main__":
    main()
