"""Tests for the shared-nothing parallel simulator."""

import numpy as np
import pytest

from repro import Database, knn_query, range_query
from repro.parallel import (
    ParallelDatabase,
    hash_decluster,
    random_decluster,
    range_decluster,
    round_robin_decluster,
)

STRATEGIES = {
    "round_robin": round_robin_decluster,
    "hash": hash_decluster,
    "range": range_decluster,
}


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(61)
    centers = rng.random((4, 5))
    return np.clip(
        centers[rng.integers(0, 4, 600)] + rng.standard_normal((600, 5)) * 0.05,
        0,
        1,
    )


class TestDecluster:
    @pytest.mark.parametrize("strategy", STRATEGIES.values(), ids=STRATEGIES.keys())
    def test_partitions_cover_everything_disjointly(self, strategy):
        parts = strategy(101, 4)
        combined = sorted(int(i) for part in parts for i in part)
        assert combined == list(range(101))

    def test_random_decluster_covers(self):
        parts = random_decluster(50, 3, seed=1)
        combined = sorted(int(i) for part in parts for i in part)
        assert combined == list(range(50))

    @pytest.mark.parametrize(
        "strategy",
        [round_robin_decluster, random_decluster, hash_decluster],
        ids=["round_robin", "random", "hash"],
    )
    def test_balanced_sizes(self, strategy):
        parts = strategy(1000, 8)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 120  # hash may deviate slightly

    def test_range_decluster_contiguous(self):
        parts = range_decluster(100, 4)
        for part in parts:
            assert list(part) == list(range(part[0], part[-1] + 1))

    def test_rejects_more_servers_than_objects(self):
        with pytest.raises(ValueError):
            round_robin_decluster(2, 5)

    def test_rejects_zero_servers(self):
        with pytest.raises(ValueError):
            round_robin_decluster(10, 0)


class TestParallelCorrectness:
    @pytest.mark.parametrize("access", ["scan", "xtree"])
    @pytest.mark.parametrize("decluster", ["round_robin", "random", "hash", "range"])
    def test_knn_merge_matches_sequential(self, vectors, access, decluster):
        queries = [vectors[i] for i in range(0, 60, 6)]
        sequential = Database(vectors, access=access, block_size=2048)
        expected = sequential.multiple_similarity_query(queries, knn_query(7))
        parallel = ParallelDatabase(
            vectors, n_servers=4, access=access, decluster=decluster, block_size=2048
        )
        run = parallel.multiple_similarity_query(queries, knn_query(7))
        for exp, got in zip(expected, run.answers):
            assert sorted(a.distance for a in got) == pytest.approx(
                sorted(a.distance for a in exp)
            )

    def test_range_merge_matches_sequential(self, vectors):
        queries = [vectors[0], vectors[100]]
        sequential = Database(vectors, access="scan", block_size=2048)
        expected = sequential.multiple_similarity_query(queries, range_query(0.3))
        parallel = ParallelDatabase(vectors, n_servers=3, access="scan", block_size=2048)
        run = parallel.multiple_similarity_query(queries, range_query(0.3))
        for exp, got in zip(expected, run.answers):
            assert {a.index for a in got} == {a.index for a in exp}

    def test_seeding_does_not_change_answers(self, vectors):
        indices = list(range(0, 120, 10))
        queries = [vectors[i] for i in indices]
        parallel = ParallelDatabase(vectors, n_servers=4, access="xtree", block_size=2048)
        plain = parallel.multiple_similarity_query(queries, knn_query(5))
        parallel.cold()
        seeded = parallel.multiple_similarity_query(
            queries, knn_query(5), db_indices=indices
        )
        for a, b in zip(plain.answers, seeded.answers):
            assert sorted(x.distance for x in a) == pytest.approx(
                sorted(x.distance for x in b)
            )

    def test_home_bound_cell_is_never_warmed(self, vectors):
        # A Fig. 11 cell: after the home-bound phase every query holds a
        # finite bound, so the window warms nothing and each server's
        # counters stay those pinned before warming became automatic.
        indices = list(range(0, 120, 10))
        parallel = ParallelDatabase(vectors, n_servers=4, access="xtree", block_size=2048)
        run = parallel.multiple_similarity_query(
            [vectors[i] for i in indices], knn_query(5), db_indices=indices
        )
        pinned = [
            (6, 3, 747, 1179, 433, 88),
            (3, 0, 429, 2006, 532, 72),
            (5, 4, 757, 886, 350, 92),
            (3, 0, 456, 2156, 578, 74),
        ]
        for server, want in zip(run.per_server, pinned):
            counters = server.counters
            assert (
                counters.random_page_reads,
                counters.buffer_hits,
                counters.distance_calculations,
                counters.avoidance_tries,
                counters.avoided_calculations,
                counters.mindist_evaluations,
            ) == want
            assert counters.sequential_page_reads == 0
            assert counters.query_matrix_distance_calculations == 66
            assert counters.queries_completed == 12

    def test_single_server_equals_sequential_cost(self, vectors):
        queries = [vectors[i] for i in range(10)]
        sequential = Database(vectors, access="scan", block_size=2048)
        with sequential.measure() as seq_run:
            sequential.multiple_similarity_query(queries, knn_query(5))
        parallel = ParallelDatabase(vectors, n_servers=1, access="scan", block_size=2048)
        run = parallel.multiple_similarity_query(queries, knn_query(5))
        assert run.elapsed_seconds == pytest.approx(seq_run.total_seconds, rel=1e-9)


class TestParallelCostModel:
    def test_elapsed_is_max_aggregate_is_sum(self, vectors):
        parallel = ParallelDatabase(vectors, n_servers=4, access="scan", block_size=2048)
        run = parallel.multiple_similarity_query(
            [vectors[0], vectors[1]], knn_query(3)
        )
        totals = [r.total_seconds for r in run.per_server]
        assert run.elapsed_seconds == pytest.approx(max(totals))
        assert run.aggregate_seconds == pytest.approx(sum(totals))
        assert len(run.per_server) == 4

    def test_elapsed_io_decreases_with_servers(self, vectors):
        queries = [vectors[i] for i in range(20)]
        costs = {}
        for s in (1, 4):
            parallel = ParallelDatabase(
                vectors, n_servers=s, access="scan", block_size=2048,
                buffer_fraction=0.0,
            )
            run = parallel.multiple_similarity_query(queries, knn_query(5))
            costs[s] = run.elapsed_io_seconds
        assert costs[4] < costs[1]

    def test_unknown_strategy(self, vectors):
        with pytest.raises(ValueError, match="unknown decluster"):
            ParallelDatabase(vectors, n_servers=2, decluster="zorder")

    def test_summary(self, vectors):
        parallel = ParallelDatabase(vectors, n_servers=3, access="scan")
        summary = parallel.summary()
        assert summary["servers"] == 3
        assert sum(summary["per_server"]) == len(vectors)

    def test_labels_survive_partitioning(self):
        from repro.workloads import make_gaussian_mixture

        dataset = make_gaussian_mixture(n=300, dimension=4, n_clusters=3, seed=2)
        parallel = ParallelDatabase(dataset, n_servers=3, access="scan")
        for server in parallel.servers:
            local_labels = server.database.dataset.labels
            expected = dataset.labels[server.global_indices]
            assert np.array_equal(local_labels, expected)


class TestProcessBackend:
    """The measured ``backend="process"`` agrees with the modelled one."""

    def test_answers_and_counters_match_model(self, vectors):
        queries = [vectors[i] for i in range(12)]
        indices = list(range(12))
        with ParallelDatabase(
            vectors, n_servers=2, access="scan", block_size=2048
        ) as parallel:
            modelled = parallel.multiple_similarity_query(
                queries, knn_query(5), db_indices=indices, backend="model"
            )
            measured = parallel.multiple_similarity_query(
                queries, knn_query(5), db_indices=indices, backend="process"
            )
        for a, b in zip(modelled.answers, measured.answers):
            assert [x.index for x in a] == [x.index for x in b]
            assert [x.distance for x in a] == pytest.approx(
                [x.distance for x in b]
            )
        for run_a, run_b in zip(modelled.per_server, measured.per_server):
            assert run_a.counters.as_dict() == run_b.counters.as_dict()

    def test_wall_clock_only_measured_for_process(self, vectors):
        queries = [vectors[i] for i in range(6)]
        with ParallelDatabase(
            vectors, n_servers=2, access="scan", block_size=2048
        ) as parallel:
            modelled = parallel.multiple_similarity_query(
                queries, knn_query(3), backend="model"
            )
            measured = parallel.multiple_similarity_query(
                queries, knn_query(3), backend="process"
            )
        assert modelled.wall_seconds is None
        with pytest.raises(ValueError, match="wall-clock"):
            modelled.elapsed_wall_seconds
        assert measured.wall_seconds is not None
        assert len(measured.wall_seconds) == 2
        assert measured.elapsed_wall_seconds > 0.0

    def test_range_queries_and_unknown_backend(self, vectors):
        queries = [vectors[0], vectors[1]]
        with ParallelDatabase(
            vectors, n_servers=2, access="scan", block_size=2048
        ) as parallel:
            modelled = parallel.multiple_similarity_query(
                queries, range_query(0.3), backend="model"
            )
            measured = parallel.multiple_similarity_query(
                queries, range_query(0.3), backend="process"
            )
            with pytest.raises(ValueError, match="unknown backend"):
                parallel.multiple_similarity_query(
                    queries, knn_query(2), backend="threads"
                )
        for a, b in zip(modelled.answers, measured.answers):
            assert sorted(x.index for x in a) == sorted(x.index for x in b)
