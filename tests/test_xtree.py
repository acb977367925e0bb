"""Tests for the X-tree access method."""

import gc
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import Database, knn_query, range_query
from repro.costmodel import Counters
from repro.data import VectorDataset
from repro.index.rstar.mbr import MBR
from repro.index.xtree import XTree
from repro.metric import MetricSpace
from repro.metric.distances import (
    ChebyshevDistance,
    EuclideanDistance,
    ManhattanDistance,
    MinkowskiDistance,
    QuadraticFormDistance,
    WeightedEuclideanDistance,
)
from repro.obs import Observer
from repro.storage import SimulatedDisk

from tests.helpers import (
    ReferenceXTreeStream,
    brute_force_answers,
    least_enlargement_child_reference,
    least_overlap_child_reference,
    pull_pages,
)

#: Every metric with an MBR lower bound, as a factory of the dimension.
MBR_METRICS = {
    "euclidean": lambda d: EuclideanDistance(),
    "weighted_euclidean": lambda d: WeightedEuclideanDistance(np.arange(1.0, d + 1)),
    "quadratic_form": lambda d: QuadraticFormDistance.color_histogram(d),
    "manhattan": lambda d: ManhattanDistance(),
    "chebyshev": lambda d: ChebyshevDistance(),
    "minkowski": lambda d: MinkowskiDistance(3),
}


def build_xtree(vectors, bulk_load=True, block_size=2048, metric="euclidean", **kwargs):
    counters = Counters()
    space = MetricSpace(metric, counters)
    disk = SimulatedDisk(counters, block_size=block_size)
    dataset = VectorDataset(vectors)
    tree = XTree(dataset, space, disk, bulk_load=bulk_load, **kwargs)
    return tree, dataset, space, disk


@pytest.fixture(scope="module")
def vectors():
    rng = np.random.default_rng(21)
    centers = rng.random((6, 5))
    return np.clip(
        centers[rng.integers(0, 6, 600)] + rng.standard_normal((600, 5)) * 0.04,
        0,
        1,
    )


class TestStructure:
    @pytest.mark.parametrize("bulk_load", [True, False])
    def test_all_objects_stored_exactly_once(self, vectors, bulk_load):
        tree, *_ = build_xtree(vectors, bulk_load=bulk_load)
        stored = sorted(
            int(i) for page in tree.data_pages() for i in page.indices
        )
        assert stored == list(range(len(vectors)))

    @pytest.mark.parametrize("bulk_load", [True, False])
    def test_leaf_mbrs_contain_their_points(self, vectors, bulk_load):
        tree, dataset, *_ = build_xtree(vectors, bulk_load=bulk_load)
        for node in tree.iter_nodes():
            if node.is_leaf:
                for point in dataset.batch(node.page.indices):
                    assert node.mbr.contains_point(point)

    @pytest.mark.parametrize("bulk_load", [True, False])
    def test_directory_mbrs_contain_children(self, vectors, bulk_load):
        tree, *_ = build_xtree(vectors, bulk_load=bulk_load)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                for child in node.children:
                    assert np.all(node.mbr.lo <= child.mbr.lo + 1e-12)
                    assert np.all(child.mbr.hi <= node.mbr.hi + 1e-12)

    def test_leaf_capacity_respected(self, vectors):
        tree, *_ = build_xtree(vectors, bulk_load=False)
        for page in tree.data_pages():
            assert page.n_objects <= tree.leaf_capacity

    def test_height_consistent(self, vectors):
        tree, *_ = build_xtree(vectors)
        assert tree.height() >= 2  # 600 points never fit one small page

    def test_empty_dataset(self):
        tree, *_ = build_xtree(np.empty((0, 4)))
        assert tree.root is None
        assert tree.data_pages() == []

    def test_single_object(self):
        tree, *_ = build_xtree(np.array([[0.5, 0.5]]), bulk_load=False)
        assert tree.height() == 1
        assert tree.data_pages()[0].n_objects == 1

    def test_requires_vector_dataset(self):
        counters = Counters()
        space = MetricSpace("euclidean", counters)
        disk = SimulatedDisk(counters)
        from repro.data import GenericDataset

        with pytest.raises(TypeError):
            XTree(GenericDataset(["a", "b"]), space, disk)

    def test_requires_mbr_capable_metric(self):
        counters = Counters()
        space = MetricSpace("cosine_angular", counters)
        disk = SimulatedDisk(counters)
        with pytest.raises(ValueError, match="MBR"):
            XTree(VectorDataset(np.random.random((10, 3))), space, disk)

    def test_summary_fields(self, vectors):
        tree, *_ = build_xtree(vectors)
        summary = tree.summary()
        assert summary["name"] == "xtree"
        assert summary["pages"] == len(tree.data_pages())


class TestResidentObjects:
    def test_bulk_loaded_leaves_hold_their_objects(self, vectors):
        tree, dataset, *_ = build_xtree(vectors)
        pages = tree.data_pages()
        for page in pages:
            assert np.array_equal(page.objects, dataset.batch(page.indices))
            assert not page.objects.flags.writeable
        # one leaf-ordered matrix, sliced: no per-page copies, and the
        # caller's dataset is not what the leaves read
        assert all(page.objects.base is pages[0].objects.base for page in pages)
        assert not np.shares_memory(pages[0].objects, dataset.vectors)

    def test_dynamic_and_mutated_leaves_gather(self, vectors):
        tree, *_ = build_xtree(vectors[:100], bulk_load=False)
        assert all(page.objects is None for page in tree.data_pages())
        tree, dataset, *_ = build_xtree(vectors)
        victim = tree.data_pages()[0]
        assert tree.delete(int(victim.indices[0]))
        assert victim.objects is None
        assert np.array_equal(victim.load(dataset), dataset.batch(victim.indices))
        assert all(page.objects is not None for page in tree.data_pages()[1:])

    def test_data_pages_sorted_and_refreshed_on_mutation(self, vectors):
        tree, *_ = build_xtree(vectors, leaf_capacity=8)
        before = tree.data_pages()
        assert before is tree.data_pages()  # kept, not re-sorted per call
        for index in before[0].indices.tolist():
            assert tree.delete(index)  # dissolves the leaf on underflow
        after = tree.data_pages()
        assert [p.page_id for p in after] == sorted(tree._leaf_by_page_id)
        assert before[0].page_id not in {p.page_id for p in after}

    def test_dropped_tree_frees_leaf_storage_by_refcount(self, vectors):
        gc.collect()
        gc.disable()
        try:
            tree = build_xtree(vectors)[0]
            stored = weakref.ref(tree.data_pages()[0].objects.base)
            assert stored() is not None
            del tree
            assert stored() is None
        finally:
            gc.enable()


def assert_stream_matches_reference(tree, query, n_unbounded, radius):
    """Production stream against the entry-by-entry oracle, on one tree:
    same pages with the same bounds in the same order, same counters."""
    counters = tree.space.counters
    runs = []
    for open_stream in (tree.page_stream, lambda q: ReferenceXTreeStream(tree, q)):
        counters.reset()
        tree.disk.clear_buffer()
        delivered = pull_pages(open_stream(query), n_unbounded, radius)
        runs.append((delivered, counters.as_dict()))
    assert runs[0] == runs[1]
    return runs[0]


class TestStreamAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        metric=st.sampled_from(sorted(MBR_METRICS)),
        bulk_load=st.booleans(),
        n=st.integers(1, 70),
        d=st.integers(1, 4),
        max_overlap=st.sampled_from([0.0, 0.2]),
        n_unbounded=st.integers(0, 6),
        radius=st.sampled_from([0.0, 0.1, 0.2, 0.5, float("inf")]),
    )
    def test_one_pass_expansion_equals_entry_by_entry(
        self, seed, metric, bulk_load, n, d, max_overlap, n_unbounded, radius
    ):
        # A one-decimal grid: duplicate points, degenerate boxes and many
        # children at exactly the same bound (and exactly at the radius).
        rng = np.random.default_rng(seed)
        points = np.round(rng.random((n, d)), 1)
        tree, *_ = build_xtree(
            points,
            bulk_load=bulk_load,
            metric=MBR_METRICS[metric](d),
            leaf_capacity=4,
            dir_capacity=3,
            max_overlap=max_overlap,
        )
        for query in (points[0], np.round(rng.random(d) * 1.4 - 0.2, 1)):
            assert_stream_matches_reference(tree, query, n_unbounded, radius)

    def test_supernodes_and_telemetry(self):
        rng = np.random.default_rng(0)
        points = np.round(rng.random((120, 3)), 1)
        tree, *_ = build_xtree(
            points, bulk_load=False, leaf_capacity=4, dir_capacity=3, max_overlap=0.0
        )
        assert tree.n_supernodes > 0
        query = points[7]
        untraced = assert_stream_matches_reference(tree, query, 2, 0.2)

        reference = ReferenceXTreeStream(tree, query)
        pull_pages(reference, 2, 0.2)
        assert any(visit["supernode"] for visit in reference.visits)
        tree.observer = Observer()
        tree.space.counters.reset()
        traced = pull_pages(tree.page_stream(query), 2, 0.2)
        assert (traced, tree.space.counters.as_dict()) == untraced
        visits = [
            {key: record["attrs"][key] for key in reference.visits[0]}
            for record in tree.observer.tracer.records()
            if record["name"] == "index.node_visit"
        ]
        assert visits == reference.visits


class TestChooseSubtreeAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 90),
        d=st.integers(1, 5),
        grid=st.booleans(),
        dir_capacity=st.sampled_from([3, 8]),
        max_overlap=st.sampled_from([0.0, 0.2]),
    )
    def test_dynamic_build_same_leaves(
        self, seed, n, d, grid, dir_capacity, max_overlap
    ):
        # A grid gives duplicate points, degenerate boxes and tied keys.
        rng = np.random.default_rng(seed)
        points = rng.random((n, d))
        if grid:
            points = np.round(points, 1)

        def leaves():
            tree, *_ = build_xtree(
                points,
                bulk_load=False,
                leaf_capacity=4,
                dir_capacity=dir_capacity,
                max_overlap=max_overlap,
            )
            return [(p.page_id, p.indices.tolist()) for p in tree.data_pages()]

        built = leaves()
        with (
            mock.patch.object(
                XTree,
                "_least_overlap_child",
                staticmethod(least_overlap_child_reference),
            ),
            mock.patch.object(
                XTree,
                "_least_enlargement_child",
                staticmethod(least_enlargement_child_reference),
            ),
        ):
            assert leaves() == built

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**16), n=st.integers(1, 12), d=st.integers(1, 4))
    # Found by search: summing in another order, or letting a child's own
    # box into its overlap sum, picks another child on these.
    @example(seed=355, n=12, d=3)
    @example(seed=470, n=6, d=3)
    @example(seed=161, n=12, d=2)
    @example(seed=222, n=6, d=2)
    def test_same_child_on_tied_and_rounding_keys(self, seed, n, d):
        # One-decimal boxes: tied keys, and overlap sums whose last bit
        # depends on the order they are accumulated in.
        rng = np.random.default_rng(seed)
        lo = np.round(rng.random((n, d)), 1)
        extent = np.round(rng.random((n, d)), 1)
        point = np.round(rng.random(d) * 1.2, 1)
        children = [SimpleNamespace(mbr=MBR(a, a + b)) for a, b in zip(lo, extent)]
        for method, reference in (
            (XTree._least_overlap_child, least_overlap_child_reference),
            (XTree._least_enlargement_child, least_enlargement_child_reference),
        ):
            assert method(children, point) is reference(children, point)


class TestSupernodes:
    def test_supernode_created_on_overlapping_directory(self):
        # Points on a diagonal line in 8-d: every median split of the
        # *directory* overlaps heavily, which must trigger supernodes
        # rather than degenerate splits.
        rng = np.random.default_rng(8)
        base = rng.random(2000)
        points = np.stack([base + rng.standard_normal(2000) * 0.001] * 8, axis=1)
        tree, *_ = build_xtree(points, bulk_load=False, block_size=512)
        # Either a clean overlap-free split always existed, or supernodes
        # appeared; in both cases queries must stay correct (checked in
        # TestQueries); here we assert the accounting is consistent.
        supernode_pages = [
            node.page
            for node in tree.iter_nodes()
            if not node.is_leaf and node.page.n_blocks > 1
        ]
        assert len(supernode_pages) == tree.n_supernodes

    def test_supernode_capacity_grows(self, vectors):
        tree, *_ = build_xtree(vectors, bulk_load=False, block_size=1024)
        for node in tree.iter_nodes():
            if not node.is_leaf:
                assert len(node.children) <= tree.dir_capacity * node.page.n_blocks


class TestQueries:
    @pytest.mark.parametrize("bulk_load", [True, False])
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_knn_matches_brute_force(self, vectors, bulk_load, k):
        db = Database(
            vectors,
            access="xtree",
            block_size=2048,
            index_options={"bulk_load": bulk_load},
        )
        for qi in (0, 99, 311):
            answers = db.similarity_query(vectors[qi], knn_query(k))
            expected = brute_force_answers(vectors, vectors[qi], knn_query(k))
            assert sorted(a.distance for a in answers) == pytest.approx(
                [d for _, d in expected]
            )

    @pytest.mark.parametrize("eps", [0.01, 0.1, 0.5])
    def test_range_matches_brute_force(self, vectors, eps):
        db = Database(vectors, access="xtree", block_size=2048)
        for qi in (5, 123):
            answers = db.similarity_query(vectors[qi], range_query(eps))
            expected = brute_force_answers(vectors, vectors[qi], range_query(eps))
            assert {a.index for a in answers} == {i for i, _ in expected}

    def test_knn_prunes_pages(self, vectors):
        db = Database(vectors, access="xtree", block_size=2048)
        with db.measure() as run:
            db.similarity_query(vectors[0], knn_query(3))
        n_data_pages = len(db.access_method.data_pages())
        data_reads = run.counters.page_reads + run.counters.buffer_hits
        assert data_reads < n_data_pages  # pruning happened

    def test_stream_orders_by_mindist(self, vectors):
        db = Database(vectors, access="xtree", block_size=2048)
        stream = db.access_method.page_stream(vectors[0])
        bounds = [bound for bound, _ in stream.drain()]
        assert bounds == sorted(bounds)

    def test_page_lower_bounds_are_valid(self, vectors):
        db = Database(vectors, access="xtree", block_size=2048)
        tree = db.access_method
        page = tree.data_pages()[0]
        queries = vectors[:10]
        bounds = tree.page_lower_bounds(page, queries, 0.0, None)
        for bound, q in zip(bounds, queries):
            for point in db.dataset.batch(page.indices):
                true = float(np.sqrt(((point - q) ** 2).sum()))
                assert bound <= true + 1e-9


class TestDynamicVsBulk:
    def test_same_answers_both_builds(self, vectors):
        db_bulk = Database(vectors, access="xtree", block_size=2048)
        db_dyn = Database(
            vectors,
            access="xtree",
            block_size=2048,
            index_options={"bulk_load": False},
        )
        for qi in (1, 50, 400):
            a = db_bulk.similarity_query(vectors[qi], knn_query(7))
            b = db_dyn.similarity_query(vectors[qi], knn_query(7))
            assert sorted(x.distance for x in a) == pytest.approx(
                sorted(x.distance for x in b)
            )
