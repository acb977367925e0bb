"""Tests for the instrumented metric space and the storage substrate."""

import numpy as np
import pytest

from repro.costmodel import Counters
from repro.metric import MetricSpace
from repro.storage import (
    LRUBufferPool,
    Page,
    PageKind,
    SimulatedDisk,
    data_page_capacity,
    paginate,
)


class TestMetricSpace:
    def test_counts_single_distances(self):
        space = MetricSpace("euclidean")
        space.d([0, 0], [1, 1])
        space.d([0, 0], [2, 2])
        assert space.counters.distance_calculations == 2

    def test_counts_batch_distances(self):
        space = MetricSpace("euclidean")
        xs = np.random.default_rng(0).random((7, 3))
        space.d_many(xs, xs[0])
        assert space.counters.distance_calculations == 7

    def test_query_pair_counts_separately(self):
        space = MetricSpace("euclidean")
        space.d_query_pair([0, 0], [1, 1])
        assert space.counters.distance_calculations == 0
        assert space.counters.query_matrix_distance_calculations == 1

    def test_uncounted_does_not_count(self):
        space = MetricSpace("euclidean")
        space.uncounted([0, 0], [1, 1])
        assert space.counters.distance_calculations == 0

    def test_mbr_mindist_counts(self):
        space = MetricSpace("euclidean")
        space.mbr_mindist(np.zeros(2), np.ones(2), np.array([2.0, 2.0]))
        assert space.counters.mindist_evaluations == 1
        # charged per (box, query) pair of a broadcast call
        space.mbr_mindist(np.zeros((3, 2)), np.ones((3, 2)), np.array([2.0, 2.0]))
        space.mbr_mindist(np.zeros(2), np.ones(2), np.full((4, 2), 2.0))
        assert space.counters.mindist_evaluations == 1 + 3 + 4

    def test_shared_counters(self):
        counters = Counters()
        space = MetricSpace("euclidean", counters)
        space.d([0], [1])
        assert counters.distance_calculations == 1

    def test_empty_batch(self):
        space = MetricSpace("euclidean")
        result = space.d_many(np.empty((0, 3)), np.zeros(3))
        assert result.size == 0
        assert space.counters.distance_calculations == 0


class TestLRUBufferPool:
    def test_miss_then_hit(self):
        pool = LRUBufferPool(2)
        assert not pool.access(1)
        assert pool.access(1)

    def test_eviction_order(self):
        pool = LRUBufferPool(2)
        pool.access(1)
        pool.access(2)
        pool.access(3)  # evicts 1
        assert not pool.access(1)
        assert 2 not in pool  # 2 evicted when 1 re-admitted

    def test_access_refreshes_recency(self):
        pool = LRUBufferPool(2)
        pool.access(1)
        pool.access(2)
        pool.access(1)  # 1 becomes most recent
        pool.access(3)  # evicts 2
        assert 1 in pool
        assert 2 not in pool

    def test_multi_block_pages_use_capacity(self):
        pool = LRUBufferPool(3)
        pool.access(1, n_blocks=2)
        pool.access(2, n_blocks=2)  # must evict 1
        assert 1 not in pool
        assert pool.used_blocks == 2

    def test_oversized_page_not_admitted(self):
        pool = LRUBufferPool(1)
        assert not pool.access(1, n_blocks=5)
        assert 1 not in pool

    def test_zero_capacity_never_hits(self):
        pool = LRUBufferPool(0)
        assert not pool.access(1)
        assert not pool.access(1)

    def test_invalidate(self):
        pool = LRUBufferPool(2)
        pool.access(1)
        pool.invalidate(1)
        assert 1 not in pool
        assert pool.used_blocks == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUBufferPool(-1)


class TestSimulatedDisk:
    def _disk_with_pages(self, n_pages=5, buffer_blocks=0):
        counters = Counters()
        disk = SimulatedDisk(counters, buffer_blocks=buffer_blocks)
        for i in range(n_pages):
            disk.register(Page(page_id=i, indices=np.arange(3)))
        return disk, counters

    def test_sequential_scan_charges_sequential(self):
        disk, counters = self._disk_with_pages()
        disk.reset_head()
        for i in range(5):
            disk.read(i, sequential=True)
        assert counters.sequential_page_reads == 5
        assert counters.random_page_reads == 0

    def test_non_consecutive_charged_random_even_if_marked_sequential(self):
        disk, counters = self._disk_with_pages()
        disk.reset_head()
        disk.read(0, sequential=True)
        disk.read(3, sequential=True)  # gap -> random
        assert counters.sequential_page_reads == 1
        assert counters.random_page_reads == 1

    def test_random_reads(self):
        disk, counters = self._disk_with_pages()
        disk.read(2)
        disk.read(4)
        assert counters.random_page_reads == 2

    def test_buffer_hit_free(self):
        disk, counters = self._disk_with_pages(buffer_blocks=2)
        disk.read(1)
        disk.read(1)
        assert counters.random_page_reads == 1
        assert counters.buffer_hits == 1

    def test_supernode_charges_block_count(self):
        counters = Counters()
        disk = SimulatedDisk(counters)
        disk.register(Page(page_id=0, kind=PageKind.DIRECTORY, n_blocks=3))
        disk.read(0)
        assert counters.random_page_reads == 3

    def test_duplicate_page_id_rejected(self):
        disk, _ = self._disk_with_pages()
        with pytest.raises(ValueError):
            disk.register(Page(page_id=0))

    def test_unregistered_page_rejected(self):
        disk, _ = self._disk_with_pages()
        with pytest.raises(KeyError):
            disk.read(Page(page_id=99))

    def test_allocate_page_id_monotone(self):
        disk, _ = self._disk_with_pages(n_pages=3)
        assert disk.allocate_page_id() == 3

    def test_total_blocks(self):
        counters = Counters()
        disk = SimulatedDisk(counters)
        disk.register(Page(page_id=0))
        disk.register(Page(page_id=1, n_blocks=4))
        assert disk.total_blocks == 5

    def test_clear_buffer(self):
        disk, counters = self._disk_with_pages(buffer_blocks=3)
        disk.read(1)
        disk.clear_buffer()
        disk.read(1)
        assert counters.buffer_hits == 0
        assert counters.random_page_reads == 2


class TestLayout:
    def test_capacity_paper_block_size(self):
        # 32 KB block, 20-d float32 vectors + 8-byte object id.
        assert data_page_capacity(20) == 32768 // 88

    def test_capacity_too_small_block(self):
        with pytest.raises(ValueError):
            data_page_capacity(10_000, block_size=64)

    def test_paginate_covers_all_objects(self):
        pages = paginate(10, 3)
        seen = sorted(i for p in pages for i in p.indices)
        assert seen == list(range(10))
        assert [p.n_objects for p in pages] == [3, 3, 3, 1]

    def test_paginate_consecutive_addresses(self):
        pages = paginate(10, 4, first_page_id=7)
        assert [p.page_id for p in pages] == [7, 8, 9]

    def test_paginate_custom_order(self):
        order = np.array([4, 3, 2, 1, 0])
        pages = paginate(5, 2, order=order)
        assert list(pages[0].indices) == [4, 3]

    def test_paginate_bad_order_rejected(self):
        with pytest.raises(ValueError):
            paginate(5, 2, order=np.array([0, 1]))

    def test_page_validation(self):
        with pytest.raises(ValueError):
            Page(page_id=0, n_blocks=0)
