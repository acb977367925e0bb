"""Ablation: access methods under the same multiple-query workload.

Adds the M-tree (metric index) and the VA-file (approximation scan) to
the paper's scan/X-tree comparison.

Observed at the default scale: the M-tree's I/O is dominated by
*directory* reads, not data pages.  Its data pages are read once for
the whole batch (the multiple-query sharing works), but a 40 k-object
M-tree has ~86 internal nodes, every driver's descent touches most of
them (weak ball pruning at 20 dimensions), and the paper's buffer
setting -- 10 % of the index, ~31 blocks -- thrashes on them.  The
X-tree avoids this with a one-node directory (315-entry MBR fanout).
A directory-pinning buffer policy would close most of the gap; it is
left at the paper's plain-LRU setting for comparability.
"""

from repro import Database
from repro.core.types import knn_query
from repro.experiments.runner import dataset_k, get_dataset, workload_queries


def test_access_method_ablation(benchmark, config):
    dataset = get_dataset("astronomy", config)
    indices = workload_queries("astronomy", config)
    qtype = knn_query(dataset_k("astronomy", config))
    queries = [dataset[i] for i in indices]

    def run_all():
        results = {}
        for access in ("scan", "xtree", "vafile", "mtree"):
            database = Database(dataset, access=access)
            with database.measure() as handle:
                database.run_in_blocks(
                    queries,
                    qtype,
                    block_size=len(queries),
                    db_indices=indices,
                )
            results[access] = handle
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print("\nAccess methods (astronomy, m = %d):" % len(queries))
    for access, handle in results.items():
        print(
            f"  {access:>7}: io={handle.io_seconds:7.3f}s "
            f"cpu={handle.cpu_seconds:7.3f}s total={handle.total_seconds:7.3f}s"
        )
    for handle in results.values():
        assert handle.total_seconds > 0
