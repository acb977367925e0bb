"""Laying out a dataset on data pages."""

from __future__ import annotations

import numpy as np

from repro.storage.page import DEFAULT_BLOCK_SIZE, Page, PageKind

#: Bytes per stored vector component (the paper stored 32-bit floats).
VALUE_BYTES = 4

#: Per-object record overhead (object identifier).
RECORD_OVERHEAD_BYTES = 8


def data_page_capacity(
    dimension: int,
    block_size: int = DEFAULT_BLOCK_SIZE,
    value_bytes: int = VALUE_BYTES,
) -> int:
    """Objects per data page for ``dimension``-d vectors.

    >>> data_page_capacity(20)
    372
    """
    record = dimension * value_bytes + RECORD_OVERHEAD_BYTES
    capacity = block_size // record
    if capacity < 1:
        raise ValueError(
            f"block size {block_size} cannot hold one {dimension}-d record"
        )
    return capacity


def paginate(
    n_objects: int,
    capacity: int,
    order: np.ndarray | None = None,
    first_page_id: int = 0,
    stored: np.ndarray | None = None,
) -> list[Page]:
    """Slice ``n_objects`` into data pages of at most ``capacity`` objects.

    ``order`` optionally permutes the objects before slicing (clustered
    layouts place similar objects on the same page); by default objects
    are stored in dataset order.  Pages receive consecutive physical
    addresses starting at ``first_page_id``.  ``stored`` is the object
    matrix in storage order (row ``i`` is object ``order[i]``); each
    page then carries its rows as a zero-copy slice.
    """
    if capacity < 1:
        raise ValueError("page capacity must be positive")
    if order is None:
        order = np.arange(n_objects, dtype=np.intp)
    else:
        order = np.asarray(order, dtype=np.intp)
        if order.size != n_objects:
            raise ValueError("order must be a permutation of all objects")
    pages = []
    for offset, start in enumerate(range(0, n_objects, capacity)):
        pages.append(
            Page(
                page_id=first_page_id + offset,
                kind=PageKind.DATA,
                indices=order[start : start + capacity],
                objects=None if stored is None else stored[start : start + capacity],
            )
        )
    return pages
