"""Disk pages of the simulated database."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.data import Dataset

#: Disk block size used throughout the paper's evaluation (Sec. 6).
DEFAULT_BLOCK_SIZE = 32 * 1024


class PageKind(enum.Enum):
    """What a page stores: database objects or index directory entries."""

    DATA = "data"
    DIRECTORY = "directory"


@dataclass
class Page:
    """One disk page of the simulated database.

    Attributes
    ----------
    page_id:
        Stable identifier; also the physical address on the simulated
        disk.  Data pages of one database occupy a contiguous address
        range in physical order, which is what makes a sequential scan
        seek-free.
    kind:
        Data page (stores objects) or directory page (stores index
        entries).
    indices:
        For data pages: row indices of the stored objects within the
        dataset, in storage order.
    n_blocks:
        Number of physical blocks occupied.  Regular pages occupy one
        block; X-tree supernodes occupy several consecutive blocks and
        are charged accordingly on every read.
    objects:
        For data pages whose access method stores the objects
        physically in page order: the stored objects themselves, row
        ``i`` being object ``indices[i]`` (a read-only, zero-copy slice
        of the storage matrix).  ``None`` means the page only knows its
        object ids and readers gather them from the dataset.
    """

    page_id: int
    kind: PageKind = PageKind.DATA
    indices: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    n_blocks: int = 1
    objects: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.intp)
        if self.n_blocks < 1:
            raise ValueError("a page occupies at least one block")

    @property
    def n_objects(self) -> int:
        """Number of database objects stored on this page."""
        return int(self.indices.size)

    def load(self, dataset: Dataset) -> Any:
        """The stored objects in storage order, gathered if not resident."""
        if self.objects is not None:
            return self.objects
        return dataset.batch(self.indices)

    def __hash__(self) -> int:
        return hash(self.page_id)

    def __repr__(self) -> str:
        return (
            f"Page(id={self.page_id}, kind={self.kind.value}, "
            f"objects={self.n_objects}, blocks={self.n_blocks})"
        )
