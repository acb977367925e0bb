"""Tests for dynamic index maintenance: deletion, forced reinsertion,
and the M-tree construction paths."""

import numpy as np
import pytest

from repro import Database, GenericDataset, get_distance, knn_query


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(91)
    centers = rng.random((5, 5))
    return np.clip(
        centers[rng.integers(0, 5, 600)] + rng.standard_normal((600, 5)) * 0.05,
        0,
        1,
    )


def check_xtree_invariants(tree, dataset, expected_indices):
    stored = sorted(int(i) for page in tree.data_pages() for i in page.indices)
    assert stored == sorted(expected_indices)
    for node in tree.iter_nodes():
        if node.is_leaf:
            for point in dataset.batch(node.page.indices):
                assert node.mbr.contains_point(point)
        else:
            assert node.children
            for child in node.children:
                assert child.parent is node
                assert np.all(node.mbr.lo <= child.mbr.lo + 1e-12)
                assert np.all(child.mbr.hi <= node.mbr.hi + 1e-12)


class TestXTreeDeletion:
    def _dynamic_db(self, vectors):
        return Database(
            vectors,
            access="xtree",
            block_size=1024,
            index_options={"bulk_load": False},
        )

    def test_delete_removes_object(self, vectors):
        db = self._dynamic_db(vectors)
        tree = db.access_method
        assert tree.delete(42)
        check_xtree_invariants(tree, db.dataset, set(range(600)) - {42})

    def test_delete_missing_returns_false(self, vectors):
        db = self._dynamic_db(vectors)
        tree = db.access_method
        assert tree.delete(42)
        assert not tree.delete(42)

    def test_queries_correct_after_mass_deletion(self, vectors):
        db = self._dynamic_db(vectors)
        tree = db.access_method
        rng = np.random.default_rng(3)
        deleted = set(int(i) for i in rng.choice(600, 300, replace=False))
        for index in deleted:
            assert tree.delete(index)
        remaining = np.array(sorted(set(range(600)) - deleted))
        check_xtree_invariants(tree, db.dataset, remaining.tolist())
        query = vectors[remaining[0]]
        answers = db.similarity_query(query, knn_query(5))
        dists = np.sqrt(((vectors[remaining] - query) ** 2).sum(axis=1))
        assert np.allclose(
            sorted(a.distance for a in answers), np.sort(dists)[:5]
        )
        assert all(a.index not in deleted for a in answers)

    def test_delete_everything_empties_tree(self, vectors):
        db = self._dynamic_db(vectors[:50])
        tree = db.access_method
        for index in range(50):
            assert tree.delete(index)
        assert tree.root is None
        assert tree.data_pages() == []

    def test_interleaved_insert_delete(self, vectors):
        from repro.costmodel import Counters
        from repro.data import VectorDataset
        from repro.index.xtree import XTree
        from repro.metric import MetricSpace
        from repro.storage import SimulatedDisk

        counters = Counters()
        space = MetricSpace("euclidean", counters)
        disk = SimulatedDisk(counters, block_size=1024)
        dataset = VectorDataset(vectors)
        tree = XTree(dataset, space, disk, bulk_load=False, leaf_capacity=16)
        # Shrink to the first 300, then churn: re-insert one deleted
        # object and delete a random present one, repeatedly.
        rng = np.random.default_rng(4)
        present = set(range(300))
        for index in range(300, 600):
            assert tree.delete(index)
        for index in range(300, 450):
            tree.insert(index)
            present.add(index)
            victim = int(rng.choice(sorted(present)))
            assert tree.delete(victim)
            present.discard(victim)
        check_xtree_invariants(tree, dataset, present)


class TestBulkLoadedTreeMaintenance:
    """Queries *between* mutations of a bulk-loaded tree: its leaves start
    out holding their objects and its directory nodes their stacked child
    bounds, and both must be dropped where a mutation makes them stale."""

    @pytest.mark.parametrize("access", ["xtree", "rstar"])
    def test_query_delete_query_insert_query(self, vectors, access):
        db = Database(
            vectors, access=access, block_size=1024, index_options={"leaf_capacity": 8}
        )
        tree = db.access_method
        present = set(range(600))

        def check(query_index):
            query = vectors[query_index]
            ids = np.array(sorted(present))
            dists = np.sqrt(((vectors[ids] - query) ** 2).sum(axis=1))
            answers = db.similarity_query(query, knn_query(7))
            assert np.allclose([a.distance for a in answers], np.sort(dists)[:7])
            assert {a.index for a in answers} <= present

        check(5)
        # One whole leaf, object by object (an underflow dissolves it and
        # reinserts the rest), then objects scattered over the database,
        # querying from the mutated neighbourhood in between.
        rng = np.random.default_rng(17)
        leaf_of_5 = next(p for p in tree.data_pages() if 5 in p.indices)
        victims = leaf_of_5.indices.tolist() + rng.choice(600, 60).tolist()
        for step, victim in enumerate(victims):
            if victim in present:
                assert tree.delete(victim)
                present.discard(victim)
            if step < 10 or step % 10 == 0:
                check(5)
        assert 5 not in present
        check_xtree_invariants(tree, db.dataset, present)
        for step, index in enumerate(sorted(set(range(600)) - present)):
            tree.insert(index)
            present.add(index)
            if index == 5 or step % 10 == 0:
                check(5)
        check(311)
        check_xtree_invariants(tree, db.dataset, present)


class TestForcedReinsertion:
    def test_dynamic_build_quality(self, vectors):
        # Forced reinsertion should not hurt: the dynamically built tree
        # answers correctly and its pages respect capacity.
        db = Database(
            vectors,
            access="xtree",
            block_size=1024,
            index_options={"bulk_load": False},
        )
        tree = db.access_method
        for page in tree.data_pages():
            assert 1 <= page.n_objects <= tree.leaf_capacity
        check_xtree_invariants(tree, db.dataset, range(600))

    def test_reinsertion_triggered(self, vectors):
        from repro.costmodel import Counters
        from repro.data import VectorDataset
        from repro.index.xtree import XTree
        from repro.metric import MetricSpace
        from repro.storage import SimulatedDisk

        counters = Counters()
        space = MetricSpace("euclidean", counters)
        disk = SimulatedDisk(counters, block_size=1024)
        tree = XTree(
            VectorDataset(vectors[:100]),
            space,
            disk,
            bulk_load=False,
            leaf_capacity=8,
        )
        # With capacity 8 and 100 clustered inserts, reinsertion paths
        # ran; compare against brute force to prove nothing was lost.
        stored = sorted(int(i) for page in tree.data_pages() for i in page.indices)
        assert stored == list(range(100))


class TestMTreeConstructionPaths:
    @pytest.mark.parametrize("bulk", [True, False])
    def test_same_answers_both_builds(self, vectors, bulk):
        db = Database(
            vectors,
            access="mtree",
            block_size=2048,
            index_options={"bulk_load": bulk},
        )
        assert db.access_method.covering_radii_valid()
        query = vectors[7]
        answers = db.similarity_query(query, knn_query(9))
        dists = np.sqrt(((vectors - query) ** 2).sum(axis=1))
        assert np.allclose(
            sorted(a.distance for a in answers), np.sort(dists)[:9]
        )

    def test_bulk_load_much_cheaper_construction(self, vectors):
        import time

        t0 = time.perf_counter()
        Database(
            vectors, access="mtree", block_size=2048,
            index_options={"bulk_load": True},
        )
        bulk_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        Database(
            vectors, access="mtree", block_size=2048,
            index_options={"bulk_load": False},
        )
        insert_seconds = time.perf_counter() - t0
        assert bulk_seconds < insert_seconds

    def test_bulk_load_strings(self):
        rng = np.random.default_rng(6)
        words = [
            "".join(rng.choice(list("abcde"), size=rng.integers(2, 9)))
            for _ in range(300)
        ]
        db = Database(
            GenericDataset(words), metric="levenshtein", access="mtree",
            block_size=2048,
        )
        assert db.access_method.covering_radii_valid()
        lev = get_distance("levenshtein")
        answers = db.similarity_query("abcde", knn_query(5))
        expected = sorted(lev.one(w, "abcde") for w in words)[:5]
        assert sorted(a.distance for a in answers) == expected

    def test_bulk_load_duplicate_heavy_data(self):
        # Degenerate clustering fallback: many identical objects.
        data = np.zeros((200, 4))
        data[:10] = np.arange(40).reshape(10, 4) / 40.0
        db = Database(
            data, access="mtree", block_size=256,
            index_options={"bulk_load": True},
        )
        assert db.access_method.covering_radii_valid()
        answers = db.similarity_query(np.zeros(4), knn_query(5))
        assert all(a.distance == 0.0 for a in answers)
