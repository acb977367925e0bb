"""The X-tree access method (Berchtold, Keim, Kriegel, VLDB 1996).

An X-tree is an R*-tree variant for high-dimensional data whose
directory refuses high-overlap splits: when splitting a directory node
would create two heavily overlapping children and no balanced
overlap-free split exists, the node is extended into a *supernode*
spanning several consecutive disk blocks instead.  Reading a supernode
is charged its full block count.

Construction paths:

* **bulk load** (default) -- STR packing of the data points into leaf
  pages, directory built bottom-up; used at benchmark scale;
* **dynamic insertion** -- R* ChooseSubtree and topological split with
  the X-tree supernode fallback; exercised by the unit tests and
  available for incremental maintenance.

k-nearest-neighbour search uses the ranking algorithm of Hjaltason and
Samet [13], which the paper's ``determine_relevant_data_pages`` is based
on: data pages are delivered in ascending MINDIST order and the stream
stops as soon as the next MINDIST exceeds the current query distance.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Any, Sequence

import numpy as np

from repro.data import Dataset, VectorDataset
from repro.index.base import AccessMethod, PageStream
from repro.index.rstar.mbr import MBR
from repro.index.rstar.split import rstar_split
from repro.index.rstar.str_load import kd_partition, str_partition
from repro.metric.space import MetricSpace
from repro.storage.disk import SimulatedDisk
from repro.storage.layout import data_page_capacity
from repro.storage.page import Page, PageKind

#: Directory entry size: 2 * d float32 bounds plus a child pointer.
_DIR_ENTRY_OVERHEAD = 8

#: Maximum tolerated overlap fraction of a directory split before the
#: X-tree falls back to an overlap-minimal split or a supernode.
MAX_OVERLAP = 0.2

#: Minimum fill fraction a fallback split must respect to be "balanced".
MIN_FANOUT_FRACTION = 0.35

#: Fraction of a leaf's entries evicted by R* forced reinsertion.
REINSERT_FRACTION = 0.3


class _Node:
    """Common part of X-tree nodes.

    ``parent`` is held weakly: with a strong back-pointer every node
    sits on a reference cycle, and a dropped tree -- whose leaf pages
    pin the leaf-ordered object matrix -- would wait for the cycle
    collector instead of being freed by reference counting.
    """

    __slots__ = ("mbr", "page", "_parent", "__weakref__")

    def __init__(self, mbr: MBR, page: Page):
        self.mbr = mbr
        self.page = page
        self._parent: "weakref.ref[_DirNode] | None" = None

    @property
    def parent(self) -> "_DirNode | None":
        return None if self._parent is None else self._parent()

    @parent.setter
    def parent(self, node: "_DirNode | None") -> None:
        self._parent = None if node is None else weakref.ref(node)

    @property
    def is_leaf(self) -> bool:
        raise NotImplementedError


class _LeafNode(_Node):
    """Leaf node: one data page holding object indices."""

    __slots__ = ()

    @property
    def is_leaf(self) -> bool:
        return True


class _DirNode(_Node):
    """Directory node; ``page.n_blocks > 1`` marks a supernode."""

    __slots__ = ("children",)

    def __init__(self, mbr: MBR, children: list[_Node], page: Page):
        super().__init__(mbr, page)
        self.children = children
        for child in children:
            child.parent = self

    @property
    def is_leaf(self) -> bool:
        return False

    def recompute_mbr(self) -> None:
        self.mbr = MBR.from_mbrs(c.mbr for c in self.children)


class _XTreeStream(PageStream):
    """Hjaltason-Samet ranking over the X-tree directory."""

    def __init__(self, tree: "XTree", query_obj: np.ndarray):
        super().__init__(tree)
        self._tree = tree
        self._query = np.asarray(query_obj, dtype=float)
        self._counter = itertools.count()
        self._telemetry = tree.traversal_telemetry()
        root = tree.root
        self._heap: list[tuple[float, int, _Node, int]] = []
        if root is not None:
            bound = tree.space.mbr_mindist(root.mbr.lo, root.mbr.hi, self._query)
            self._heap = [(float(bound), next(self._counter), root, 0)]

    def next_page(self, radius: float) -> tuple[float, Page] | None:
        heap = self._heap
        telemetry = self._telemetry
        while heap:
            bound, _, node, level = heap[0]
            if bound > radius:
                if telemetry is not None:
                    telemetry.finish(pending=len(heap))
                return None
            heapq.heappop(heap)
            if not isinstance(node, _DirNode):
                return bound, node.page
            # The root is pinned in memory (standard DBMS practice); all
            # other directory nodes are charged as reads.
            if node is not self._tree.root:
                self._tree.disk.read(node.page)
            # Bound the whole node in one pass, then filter: survivors
            # enter the queue in child order, like an entry-by-entry walk.
            children = node.children
            bounds = self._tree.space.mbr_mindist(
                *self._tree.child_bounds(node), self._query
            )
            keep = np.flatnonzero(bounds <= radius)
            for i, child_bound in zip(keep.tolist(), bounds[keep].tolist()):
                heapq.heappush(
                    heap, (child_bound, next(self._counter), children[i], level + 1)
                )
            if telemetry is not None:
                telemetry.node_visit(
                    level=level,
                    entries=len(children),
                    pushed=keep.size,
                    pruned=len(children) - keep.size,
                    supernode=node.page.n_blocks > 1,
                )
        if telemetry is not None:
            telemetry.finish()
        return None


class XTree(AccessMethod):
    """X-tree over a :class:`VectorDataset`.

    Parameters
    ----------
    dataset, space, disk:
        The shared substrate.  The metric must provide an MBR lower
        bound (Euclidean-family metrics do).
    leaf_capacity, dir_capacity:
        Entries per leaf / directory block; derived from the disk block
        size when omitted.
    bulk_load:
        Build by bulk loading (default).  With ``False`` the tree is
        built by dynamic insertion.
    bulk_loader:
        ``"kd"`` (recursive widest-dimension median splits; default) or
        ``"str"`` (classic Sort-Tile-Recursive, which degenerates in
        high dimensions -- see :func:`repro.index.rstar.str_load.kd_partition`).
    max_overlap, min_fanout_fraction:
        X-tree supernode policy knobs.
    """

    name = "xtree"
    sequential_data_access = False
    dataset: VectorDataset

    def __init__(
        self,
        dataset: Dataset,
        space: MetricSpace,
        disk: SimulatedDisk,
        leaf_capacity: int | None = None,
        dir_capacity: int | None = None,
        bulk_load: bool = True,
        bulk_loader: str = "kd",
        max_overlap: float = MAX_OVERLAP,
        min_fanout_fraction: float = MIN_FANOUT_FRACTION,
    ):
        super().__init__(dataset, space, disk)
        if not isinstance(dataset, VectorDataset):
            raise TypeError("the X-tree requires a VectorDataset")
        if not space.distance.supports_mbr():
            raise ValueError(
                f"metric {space.distance.name!r} provides no MBR lower bound"
            )
        d = dataset.dimension
        if leaf_capacity is None:
            leaf_capacity = data_page_capacity(d, disk.block_size)
        if dir_capacity is None:
            entry_bytes = 2 * d * 4 + _DIR_ENTRY_OVERHEAD
            dir_capacity = max(2, disk.block_size // entry_bytes)
        if leaf_capacity < 2 or dir_capacity < 2:
            raise ValueError("leaf and directory capacities must be at least 2")
        self.leaf_capacity = leaf_capacity
        self.dir_capacity = dir_capacity
        if bulk_loader not in ("kd", "str"):
            raise ValueError("bulk_loader must be 'kd' or 'str'")
        self.bulk_loader = bulk_loader
        self.max_overlap = max_overlap
        self.min_fanout_fraction = min_fanout_fraction
        self.root: _Node | None = None
        self._leaf_by_page_id: dict[int, _LeafNode] = {}
        #: ``data_pages()`` result; dropped when the set of leaves changes.
        self._data_pages: list[Page] | None = None
        #: Stacked child ``(lo, hi)`` per directory page id, built on a
        #: node's first expansion and dropped by every mutation.
        self._child_bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.n_supernodes = 0
        self._reinsert_armed = False

        if len(dataset) == 0:
            return
        if bulk_load:
            self._bulk_load()
        else:
            for idx in range(len(dataset)):
                self.insert(idx)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_leaf(
        self, indices: np.ndarray, objects: np.ndarray | None = None
    ) -> _LeafNode:
        page = Page(
            page_id=self.disk.allocate_page_id(),
            kind=PageKind.DATA,
            indices=indices,
            objects=objects,
        )
        self.disk.register(page)
        leaf = _LeafNode(MBR.from_points(page.load(self.dataset)), page)
        self._leaf_by_page_id[page.page_id] = leaf
        self._data_pages = None
        return leaf

    def _rewrite_leaf(self, leaf: _LeafNode, indices: np.ndarray) -> None:
        """Replace a leaf's object ids; its resident objects go stale."""
        page = leaf.page
        page.indices = indices
        page.objects = None
        if indices.size:
            leaf.mbr = MBR.from_points(self.dataset.batch(indices))
        self.disk.buffer.invalidate(page.page_id)

    def _new_dir(self, children: list[_Node], n_blocks: int = 1) -> _DirNode:
        page = Page(
            page_id=self.disk.allocate_page_id(),
            kind=PageKind.DIRECTORY,
            n_blocks=n_blocks,
        )
        self.disk.register(page)
        mbr = MBR.from_mbrs(c.mbr for c in children)
        return _DirNode(mbr, children, page)

    def _bulk_load(self) -> None:
        vectors = self.dataset.vectors
        if self.bulk_loader == "kd":
            tiles = kd_partition(vectors, self.leaf_capacity)
        else:
            tiles = str_partition(vectors, self.leaf_capacity)
        # The vectors once more, in leaf order, so that a leaf read is a
        # row slice instead of a gather.  The copy is private to the
        # index: object ids and the caller's dataset are untouched.
        stored = vectors[np.concatenate(tiles)]
        stored.setflags(write=False)
        leaf_rows = np.split(stored, np.cumsum([tile.size for tile in tiles])[:-1])
        # Leaf pages first: they occupy a contiguous physical range.
        level: list[_Node] = [
            self._new_leaf(tile, rows) for tile, rows in zip(tiles, leaf_rows)
        ]
        # Directory bottom-up, grouping spatially consecutive nodes.
        while len(level) > 1:
            group_size = self.dir_capacity
            next_level: list[_Node] = []
            for start in range(0, len(level), group_size):
                group = level[start : start + group_size]
                if len(group) == 1:
                    next_level.append(group[0])
                else:
                    next_level.append(self._new_dir(group))
            level = next_level
        self.root = level[0]

    # ------------------------------------------------------------------
    # Dynamic insertion
    # ------------------------------------------------------------------

    def insert(self, index: int) -> None:
        """Insert dataset object ``index`` (R* choose-subtree + split).

        The first leaf overflow of an insertion triggers R* forced
        reinsertion (the 30 % of entries farthest from the leaf centre
        are removed and reinserted), which locally reorganises the tree
        before resorting to a split.
        """
        self._reinsert_armed = True
        self._insert_point(index)

    def _insert_point(self, index: int) -> None:
        self._child_bounds.clear()
        point = np.asarray(self.dataset[index], dtype=float)
        if self.root is None:
            self.root = self._new_leaf(np.array([index], dtype=np.intp))
            return
        leaf = self._choose_leaf(point)
        self._rewrite_leaf(leaf, np.append(leaf.page.indices, np.intp(index)))
        self._adjust_mbrs_upward(leaf.parent, point)
        if leaf.page.n_objects > self.leaf_capacity:
            if self._reinsert_armed and leaf.parent is not None:
                self._reinsert_armed = False
                self._forced_reinsert(leaf)
            else:
                self._split_leaf(leaf)

    def _forced_reinsert(self, leaf: _LeafNode) -> None:
        """R* forced reinsertion: evict the farthest 30 % and re-add them."""
        points = np.asarray(self.dataset.batch(leaf.page.indices), dtype=float)
        center = leaf.mbr.center()
        distances = np.sqrt(((points - center) ** 2).sum(axis=1))
        n_evict = max(1, int(REINSERT_FRACTION * points.shape[0]))
        order = np.argsort(-distances, kind="stable")
        evicted = leaf.page.indices[order[:n_evict]]
        self._rewrite_leaf(leaf, leaf.page.indices[np.sort(order[n_evict:])])
        self._recompute_mbrs_upward(leaf.parent)
        for index in evicted:
            self._insert_point(int(index))

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def delete(self, index: int) -> bool:
        """Remove dataset object ``index``; returns whether it was found.

        Underflowing leaves (below ``min_fill_fraction`` of the leaf
        capacity) are dissolved and their remaining objects reinserted
        (the R*-tree CondenseTree strategy); emptied directory nodes are
        spliced out, and a single-child root is collapsed.
        """
        point = np.asarray(self.dataset[index], dtype=float)
        leaf = self._find_leaf(self.root, point, int(index))
        if leaf is None:
            return False
        self._child_bounds.clear()
        page = leaf.page
        self._rewrite_leaf(leaf, page.indices[page.indices != index])
        min_fill = max(1, int(MIN_FANOUT_FRACTION * self.leaf_capacity))
        if page.n_objects == 0 or (
            page.n_objects < min_fill and leaf.parent is not None
        ):
            orphans = [int(i) for i in page.indices]
            self._detach(leaf)
            self._reinsert_armed = False
            for orphan in orphans:
                self._insert_point(orphan)
        else:
            self._recompute_mbrs_upward(leaf.parent)
        return True

    def _find_leaf(
        self, node: _Node | None, point: np.ndarray, index: int
    ) -> _LeafNode | None:
        if node is None or not node.mbr.contains_point(point):
            return None
        if isinstance(node, _LeafNode):
            return node if index in node.page.indices else None
        if isinstance(node, _DirNode):
            for child in node.children:
                found = self._find_leaf(child, point, index)
                if found is not None:
                    return found
        return None

    def _detach(self, node: _Node) -> None:
        """Remove ``node`` from the tree, splicing out empty ancestors."""
        if node.is_leaf:
            self._leaf_by_page_id.pop(node.page.page_id, None)
            self._data_pages = None
            self.disk.buffer.invalidate(node.page.page_id)
        parent = node.parent
        if parent is None:
            self.root = None
            return
        parent.children.remove(node)
        node.parent = None
        self.disk.buffer.invalidate(parent.page.page_id)
        if not parent.children:
            self._detach(parent)
            return
        if len(parent.children) == 1 and parent is self.root:
            only_child = parent.children[0]
            only_child.parent = None
            self.root = only_child
            return
        self._recompute_mbrs_upward(parent)

    def _recompute_mbrs_upward(self, node: _DirNode | None) -> None:
        while node is not None:
            node.recompute_mbr()
            node = node.parent

    def _choose_leaf(self, point: np.ndarray) -> _LeafNode:
        node = self.root
        while isinstance(node, _DirNode):
            children = node.children
            if children[0].is_leaf:
                node = self._least_overlap_child(children, point)
            else:
                node = self._least_enlargement_child(children, point)
        assert isinstance(node, _LeafNode)
        return node

    @classmethod
    def _least_enlargement_child(
        cls, children: list[_Node], point: np.ndarray
    ) -> _Node:
        """R* choose-subtree above the leaves: least enlargement, then volume."""
        lo, hi = cls._stack_bounds(children)
        volume = np.prod(hi - lo, axis=-1)
        grown = np.prod(np.maximum(hi, point) - np.minimum(lo, point), axis=-1)
        keys = list(zip((grown - volume).tolist(), volume.tolist()))
        return children[min(range(len(children)), key=keys.__getitem__)]

    @classmethod
    def _least_overlap_child(cls, children: list[_Node], point: np.ndarray) -> _Node:
        """R* choose-subtree over leaves: least overlap enlargement, then
        enlargement, then volume.  The overlap deltas are accumulated in
        sibling order, so they round as a loop over ``MBR.overlap_volume``."""
        lo, hi = cls._stack_bounds(children)
        grown_lo, grown_hi = np.minimum(lo, point), np.maximum(hi, point)
        volume = np.prod(hi - lo, axis=-1)
        enlargement = np.prod(grown_hi - grown_lo, axis=-1) - volume

        def overlaps(box_lo: np.ndarray, box_hi: np.ndarray) -> np.ndarray:
            sides = np.minimum(box_hi[:, None], hi) - np.maximum(box_lo[:, None], lo)
            volumes = np.where((sides < 0).any(axis=-1), 0.0, np.prod(sides, axis=-1))
            np.fill_diagonal(volumes, 0.0)  # a child is not its own sibling
            return volumes

        n = len(children)
        steps = np.empty((n, 2 * n))
        steps[:, 0::2] = overlaps(grown_lo, grown_hi)
        steps[:, 1::2] = -overlaps(lo, hi)
        overlap_delta = np.add.accumulate(steps, axis=1)[:, -1]
        keys = list(zip(overlap_delta.tolist(), enlargement.tolist(), volume.tolist()))
        return children[min(range(n), key=keys.__getitem__)]

    def _adjust_mbrs_upward(self, node: _DirNode | None, point: np.ndarray) -> None:
        while node is not None:
            node.mbr = node.mbr.union_point(point)
            node = node.parent

    def _split_leaf(self, leaf: _LeafNode) -> None:
        points = np.asarray(self.dataset.batch(leaf.page.indices), dtype=float)
        result = rstar_split(points, points)
        indices = leaf.page.indices
        # Reuse the existing page for the left group.
        self._rewrite_leaf(leaf, indices[result.left])
        sibling = self._new_leaf(indices[result.right])
        self._install_sibling(leaf, sibling)

    def _install_sibling(self, node: _Node, sibling: _Node) -> None:
        parent = node.parent
        if parent is None:
            self.root = self._new_dir([node, sibling])
            return
        parent.children.append(sibling)
        sibling.parent = parent
        parent.recompute_mbr()
        self.disk.buffer.invalidate(parent.page.page_id)
        if len(parent.children) > self._dir_node_capacity(parent):
            self._split_dir(parent)
        else:
            self._recompute_mbrs_upward(parent.parent)

    def _dir_node_capacity(self, node: _DirNode) -> int:
        return self.dir_capacity * node.page.n_blocks

    def _split_dir(self, node: _DirNode) -> None:
        """Split a directory node, or extend it into a supernode.

        The R* topological split is tried first.  If its overlap
        fraction exceeds ``max_overlap``, an overlap-free balanced split
        over the center coordinates is searched; failing that, the node
        becomes (or grows as) a supernode.
        """
        children = node.children
        result = rstar_split(*self._stack_bounds(children))
        union_volume = MBR.from_mbrs(c.mbr for c in children).volume()
        overlap_fraction = (
            result.overlap / union_volume if union_volume > 0 else 0.0
        )
        if overlap_fraction > self.max_overlap:
            alternative = self._overlap_minimal_split(children)
            if alternative is None:
                self._grow_supernode(node)
                return
            left_ids, right_ids = alternative
        else:
            left_ids, right_ids = result.left, result.right

        left_children = [children[i] for i in left_ids]
        right_children = [children[i] for i in right_ids]
        node.children = left_children
        for child in left_children:
            child.parent = node
        node.recompute_mbr()
        self._shrink_supernode_if_possible(node)
        self.disk.buffer.invalidate(node.page.page_id)
        sibling = self._new_dir(right_children)
        self._install_sibling(node, sibling)

    def _overlap_minimal_split(
        self, children: list[_Node]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Balanced overlap-free split over child centers, if one exists."""
        n = len(children)
        min_fill = max(1, int(self.min_fanout_fraction * n))
        centers = np.array([c.mbr.center() for c in children])
        los, his = self._stack_bounds(children)
        for axis in np.argsort(-(centers.max(axis=0) - centers.min(axis=0))):
            order = np.argsort(centers[:, axis], kind="stable")
            for size in range(min_fill, n - min_fill + 1):
                left, right = order[:size], order[size:]
                if his[left, axis].max() <= los[right, axis].min():
                    return left, right
        return None

    def _grow_supernode(self, node: _DirNode) -> None:
        """Extend ``node`` by one block instead of splitting it."""
        if node.page.n_blocks == 1:
            self.n_supernodes += 1
        self.disk.buffer.invalidate(node.page.page_id)
        node.page.n_blocks += 1

    def _shrink_supernode_if_possible(self, node: _DirNode) -> None:
        """After a successful split, release now-unneeded supernode blocks."""
        needed_blocks = max(1, -(-len(node.children) // self.dir_capacity))
        if needed_blocks < node.page.n_blocks:
            if needed_blocks == 1 and node.page.n_blocks > 1:
                self.n_supernodes -= 1
            node.page.n_blocks = needed_blocks

    # ------------------------------------------------------------------
    # Query interface
    # ------------------------------------------------------------------

    def data_pages(self) -> list[Page]:
        """All leaf pages by physical address; shared, so do not mutate."""
        if self._data_pages is None:
            leaves = self._leaf_by_page_id
            self._data_pages = [leaves[page_id].page for page_id in sorted(leaves)]
        return self._data_pages

    @staticmethod
    def _stack_bounds(children: list[_Node]) -> tuple[np.ndarray, np.ndarray]:
        """The children's MBRs as two ``(fanout, d)`` arrays."""
        return (
            np.array([c.mbr.lo for c in children]),
            np.array([c.mbr.hi for c in children]),
        )

    def child_bounds(self, node: _DirNode) -> tuple[np.ndarray, np.ndarray]:
        """Stacked child bounds of ``node``, kept until the next mutation."""
        stacked = self._child_bounds.get(node.page.page_id)
        if stacked is None:
            stacked = self._stack_bounds(node.children)
            self._child_bounds[node.page.page_id] = stacked
        return stacked

    def page_stream(self, query_obj: Any) -> PageStream:
        return _XTreeStream(self, query_obj)

    def prefilter_profile(self) -> dict[str, Any]:
        """Quantized intervals: the R-tree family already stores
        bit-limited geometry (MBRs), so the sketch follows suit."""
        return {"kind": "quantized", "bits": None, "pivot_hints": None}

    def page_lower_bounds(
        self,
        page: Page,
        query_objs: Sequence[Any],
        driver_lower_bound: float,
        driver_distances: np.ndarray | None,
    ) -> np.ndarray:
        leaf = self._leaf_by_page_id[page.page_id]
        return self.space.mbr_mindist(
            leaf.mbr.lo, leaf.mbr.hi, np.asarray(query_objs, dtype=float)
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def height(self) -> int:
        """Tree height (1 for a single leaf)."""
        node, height = self.root, 0
        while node is not None:
            height += 1
            node = node.children[0] if isinstance(node, _DirNode) else None
        return height

    def iter_nodes(self) -> Any:
        """Yield every node (directory and leaf), pre-order."""
        stack = [self.root] if self.root is not None else []
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, _DirNode):
                stack.extend(node.children)

    def summary(self) -> dict[str, Any]:
        n_leaves = len(self._leaf_by_page_id)
        n_dir = sum(1 for n in self.iter_nodes() if not n.is_leaf)
        return {
            "name": self.name,
            "pages": n_leaves,
            "directory_nodes": n_dir,
            "supernodes": self.n_supernodes,
            "height": self.height(),
            "leaf_capacity": self.leaf_capacity,
            "dir_capacity": self.dir_capacity,
        }
