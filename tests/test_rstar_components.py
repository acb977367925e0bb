"""Tests for the R*-tree building blocks: MBRs, splits, bulk loading."""

import numpy as np
import pytest

from repro.index.rstar import MBR, rstar_split, str_partition
from repro.index.rstar.str_load import kd_partition
from repro.metric.distances import EuclideanDistance


class TestMBR:
    def test_from_points(self):
        points = np.array([[0.0, 1.0], [2.0, 0.5], [1.0, 3.0]])
        box = MBR.from_points(points)
        assert list(box.lo) == [0.0, 0.5]
        assert list(box.hi) == [2.0, 3.0]

    def test_from_points_rejects_empty(self):
        with pytest.raises(ValueError):
            MBR.from_points(np.empty((0, 2)))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            MBR(np.array([1.0]), np.array([0.0]))

    def test_volume_and_margin(self):
        box = MBR(np.array([0.0, 0.0]), np.array([2.0, 3.0]))
        assert box.volume() == pytest.approx(6.0)
        assert box.margin() == pytest.approx(5.0)

    def test_union(self):
        a = MBR(np.array([0.0]), np.array([1.0]))
        b = MBR(np.array([2.0]), np.array([3.0]))
        u = a.union(b)
        assert (u.lo[0], u.hi[0]) == (0.0, 3.0)

    def test_union_point_and_enlargement(self):
        box = MBR(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        grown = box.union_point(np.array([2.0, 0.5]))
        assert grown.hi[0] == 2.0
        assert box.enlargement(np.array([2.0, 0.5])) == pytest.approx(1.0)
        assert box.enlargement(np.array([0.5, 0.5])) == 0.0

    def test_overlap_volume(self):
        a = MBR(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
        b = MBR(np.array([1.0, 1.0]), np.array([3.0, 3.0]))
        assert a.overlap_volume(b) == pytest.approx(1.0)
        c = MBR(np.array([5.0, 5.0]), np.array([6.0, 6.0]))
        assert a.overlap_volume(c) == 0.0
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_contains_point_boundary(self):
        box = MBR(np.array([0.0]), np.array([1.0]))
        assert box.contains_point(np.array([1.0]))
        assert not box.contains_point(np.array([1.1]))

    def test_from_mbrs(self):
        boxes = [
            MBR(np.array([0.0]), np.array([1.0])),
            MBR(np.array([-1.0]), np.array([0.5])),
        ]
        merged = MBR.from_mbrs(boxes)
        assert (merged.lo[0], merged.hi[0]) == (-1.0, 1.0)

    def test_equality_and_copy(self):
        a = MBR(np.array([0.0]), np.array([1.0]))
        b = a.copy()
        assert a == b
        b.hi[0] = 2.0
        assert a != b

    def test_mindist_many_matches_definition(self):
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1.0])
        queries = np.array([[0.5, 0.5], [2.0, 0.5], [2.0, 2.0]])
        result = EuclideanDistance().mbr_mindist(lo, hi, queries)
        assert result[0] == 0.0
        assert result[1] == pytest.approx(1.0)
        assert result[2] == pytest.approx(np.sqrt(2.0))


class TestRStarSplit:
    def test_split_respects_min_fill(self):
        rng = np.random.default_rng(0)
        points = rng.random((20, 3))
        result = rstar_split(points, points, min_fill_fraction=0.4)
        assert len(result.left) >= 8
        assert len(result.right) >= 8
        assert len(result.left) + len(result.right) == 20

    def test_split_partitions_all_entries(self):
        rng = np.random.default_rng(1)
        points = rng.random((15, 4))
        result = rstar_split(points, points)
        combined = sorted(list(result.left) + list(result.right))
        assert combined == list(range(15))

    def test_separable_clusters_split_cleanly(self):
        left_cluster = np.random.default_rng(2).random((10, 2)) * 0.1
        right_cluster = left_cluster + 5.0
        points = np.vstack([left_cluster, right_cluster])
        result = rstar_split(points, points)
        groups = {frozenset(result.left.tolist()), frozenset(result.right.tolist())}
        assert groups == {frozenset(range(10)), frozenset(range(10, 20))}
        assert result.overlap == 0.0

    def test_rejects_single_entry(self):
        with pytest.raises(ValueError):
            rstar_split(np.zeros((1, 2)), np.zeros((1, 2)))

    def test_works_on_rectangles(self):
        los = np.array([[0.0, 0.0], [0.1, 0.1], [5.0, 5.0], [5.1, 5.2]])
        his = los + 0.5
        result = rstar_split(los, his)
        groups = {frozenset(result.left.tolist()), frozenset(result.right.tolist())}
        assert groups == {frozenset({0, 1}), frozenset({2, 3})}


class TestBulkLoaders:
    @pytest.mark.parametrize("loader", [str_partition, kd_partition])
    def test_covers_all_points_within_capacity(self, loader):
        rng = np.random.default_rng(3)
        points = rng.random((537, 8))
        tiles = loader(points, 64)
        seen = sorted(int(i) for tile in tiles for i in tile)
        assert seen == list(range(537))
        assert all(len(tile) <= 64 for tile in tiles)

    @pytest.mark.parametrize("loader", [str_partition, kd_partition])
    def test_single_tile_when_fits(self, loader):
        points = np.random.default_rng(4).random((10, 3))
        tiles = loader(points, 16)
        assert len(tiles) == 1

    @pytest.mark.parametrize("loader", [str_partition, kd_partition])
    def test_rejects_bad_capacity(self, loader):
        with pytest.raises(ValueError):
            loader(np.zeros((5, 2)), 0)

    def test_kd_tiles_are_tighter_in_high_dimensions(self):
        # The motivation for the kd loader: at d=20 classic STR degenerates
        # to slices along one axis, giving leaf MBRs with far larger
        # total volume-margin than recursive median splits.
        rng = np.random.default_rng(5)
        centers = rng.random((10, 20))
        points = centers[rng.integers(0, 10, 2000)] + rng.standard_normal(
            (2000, 20)
        ) * 0.02
        def total_margin(tiles):
            margin = 0.0
            for tile in tiles:
                sub = points[tile]
                margin += float(np.sum(sub.max(axis=0) - sub.min(axis=0)))
            return margin
        str_margin = total_margin(str_partition(points, 100))
        kd_margin = total_margin(kd_partition(points, 100))
        assert kd_margin < str_margin

    def test_kd_pages_mostly_full(self):
        points = np.random.default_rng(6).random((1000, 5))
        tiles = kd_partition(points, 100)
        # Page-aligned median splits keep utilisation high.
        assert len(tiles) <= 12
