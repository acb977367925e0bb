"""Cross-module integration tests: full pipelines over real workloads."""

import numpy as np
import pytest

from repro import Database, knn_query, range_query
from repro.costmodel import CostModel
from repro.mining import dbscan, knn_classify, simulate_concurrent_exploration
from repro.parallel import ParallelDatabase
from repro.workloads import (
    make_astronomy,
    make_image_histograms,
    make_web_sessions,
)

from tests.helpers import brute_force_answers


@pytest.fixture(scope="module")
def astronomy():
    return make_astronomy(n=3000, seed=2)


@pytest.fixture(scope="module")
def images():
    return make_image_histograms(n=1500, seed=3)


class TestAstronomyPipeline:
    def test_classification_beats_chance(self, astronomy):
        database = Database(astronomy, access="xtree")
        indices = list(range(0, 300, 3))
        predictions = knn_classify(database, indices, k=10, exclude_self=True)
        truth = [astronomy.labels[i] for i in indices]
        accuracy = float(np.mean([p == t for p, t in zip(predictions, truth)]))
        n_classes = len(np.unique(astronomy.labels))
        assert accuracy > 2.0 / n_classes

    def test_multiple_query_cost_le_single(self, astronomy):
        database = Database(astronomy, access="xtree")
        indices = list(range(0, 120, 4))
        queries = [astronomy[i] for i in indices]
        with database.measure() as single:
            for query in queries:
                database.similarity_query(query, knn_query(10))
        database.cold()
        with database.measure() as multi:
            database.run_in_blocks(
                queries, knn_query(10), block_size=len(queries), db_indices=indices
            )
        assert multi.total_seconds < single.total_seconds

    def test_all_access_methods_agree(self, astronomy):
        queries = [astronomy[i] for i in (0, 777, 1500)]
        reference = None
        for access in ("scan", "xtree", "vafile", "mtree"):
            database = Database(astronomy, access=access)
            results = database.multiple_similarity_query(queries, knn_query(7))
            distances = [sorted(a.distance for a in r) for r in results]
            if reference is None:
                reference = distances
            else:
                for got, expected in zip(distances, reference):
                    assert got == pytest.approx(expected), access


class TestImagePipeline:
    def test_histograms_query_correct(self, images):
        database = Database(images, access="xtree")
        query = images[3]
        answers = database.similarity_query(query, knn_query(20))
        expected = brute_force_answers(images.vectors, query, knn_query(20))
        assert sorted(a.distance for a in answers) == pytest.approx(
            [d for _, d in expected]
        )

    def test_exploration_stays_in_clusters(self, images):
        # Highly clustered data: most exploration steps stay inside one
        # scene cluster (users starting in tiny clusters may jump once).
        database = Database(images, access="xtree")
        trace = simulate_concurrent_exploration(
            database, n_users=3, k=5, n_rounds=3, seed=1
        )
        same = total = 0
        for path in trace.user_paths:
            labels = [int(images.labels[i]) for i in path]
            for a, b in zip(labels, labels[1:]):
                total += 1
                same += a == b
        assert same >= total / 2

    def test_dbscan_on_histograms(self, images):
        database = Database(images, access="scan")
        result = dbscan(database, eps=0.05, min_pts=5, batch_size=16)
        assert result.n_clusters > 3
        # Discovered clusters align with generator clusters.
        pure = 0
        for cluster_id in range(result.n_clusters):
            members = result.cluster_members(cluster_id)
            if len(set(images.labels[members].tolist())) == 1:
                pure += 1
        assert pure >= result.n_clusters * 0.8


class TestWebSessionPipeline:
    def test_mtree_multi_query_on_strings(self):
        sessions = make_web_sessions(n=300, seed=5)
        database = Database(sessions, metric="levenshtein", access="mtree")
        queries = [sessions[i] for i in range(12)]
        results = database.multiple_similarity_query(queries, knn_query(5))
        from repro import get_distance

        lev = get_distance("levenshtein")
        for query, answers in zip(queries, results):
            expected = sorted(lev.one(s, query) for s in sessions)[:5]
            assert sorted(a.distance for a in answers) == expected

    def test_range_queries_batch(self):
        sessions = make_web_sessions(n=200, seed=6)
        database = Database(sessions, metric="levenshtein", access="mtree")
        queries = [sessions[i] for i in range(6)]
        results = database.multiple_similarity_query(queries, range_query(4.0))
        from repro import get_distance

        lev = get_distance("levenshtein")
        for query, answers in zip(queries, results):
            expected = {
                i for i, s in enumerate(sessions) if lev.one(s, query) <= 4.0
            }
            assert {a.index for a in answers} == expected


class TestParallelPipeline:
    def test_parallel_classification_matches_sequential(self, astronomy):
        indices = list(range(0, 100, 5))
        queries = [astronomy[i] for i in indices]
        sequential = Database(astronomy, access="scan")
        expected = sequential.multiple_similarity_query(queries, knn_query(10))
        cluster = ParallelDatabase(astronomy, n_servers=4, access="scan")
        run = cluster.multiple_similarity_query(
            queries, knn_query(10), db_indices=indices
        )
        for exp, got in zip(expected, run.answers):
            assert sorted(a.distance for a in got) == pytest.approx(
                sorted(a.distance for a in exp)
            )

    def test_parallel_elapsed_below_sequential(self, astronomy):
        indices = list(range(80))
        queries = [astronomy[i] for i in indices]
        sequential = Database(astronomy, access="scan")
        with sequential.measure() as seq:
            sequential.multiple_similarity_query(queries, knn_query(5))
        cluster = ParallelDatabase(astronomy, n_servers=8, access="scan")
        run = cluster.multiple_similarity_query(
            queries, knn_query(5), db_indices=indices
        )
        assert run.elapsed_seconds < seq.total_seconds


class TestCostAccountingConsistency:
    def test_io_seconds_match_counters(self, astronomy):
        database = Database(astronomy, access="scan", buffer_fraction=0.0)
        with database.measure() as run:
            database.similarity_query(astronomy[0], knn_query(3))
        model = CostModel(astronomy.dimension)
        expected = (
            run.counters.sequential_page_reads * model.sequential_block_seconds
            + run.counters.random_page_reads * model.random_block_seconds
        )
        assert run.io_seconds == pytest.approx(expected)

    def test_cpu_seconds_match_counters(self, astronomy):
        database = Database(astronomy, access="scan")
        queries = [astronomy[i] for i in range(10)]
        with database.measure() as run:
            database.multiple_similarity_query(queries, knn_query(5))
        model = CostModel(astronomy.dimension)
        counters = run.counters
        expected = (
            counters.total_distance_calculations * model.distance_seconds
            + counters.avoidance_tries * model.comparison_seconds
            + counters.mindist_evaluations * model.mindist_seconds
        )
        assert run.cpu_seconds == pytest.approx(expected)

    def test_distance_conservation_on_scan(self, astronomy):
        # Every (object, query) pair is either computed or avoided.
        database = Database(astronomy, access="scan")
        m = 15
        queries = [astronomy[i] for i in range(m)]
        with database.measure() as run:
            database.multiple_similarity_query(queries, knn_query(5))
        counters = run.counters
        assert (
            counters.distance_calculations + counters.avoided_calculations
            == m * len(astronomy)
        )
