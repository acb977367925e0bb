"""Dataset containers for metric databases.

Two kinds of databases appear in the paper: vector databases (feature
vectors of stars, colour histograms of images) and general metric
databases (e.g. WWW sessions compared by a metric that is not induced by
a vector space).  :class:`VectorDataset` stores a numpy matrix and
enables the vectorised engine and R-tree-family indexes;
:class:`GenericDataset` stores arbitrary objects for use with metric
indexes (M-tree) and the reference engine.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np


class Dataset:
    """Base class of dataset containers.

    A dataset assigns every object a stable integer identifier equal to
    its position; pages reference objects by these identifiers.
    """

    labels: np.ndarray | None

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Any:
        raise NotImplementedError

    def batch(self, indices: np.ndarray) -> Any:
        """Return the objects at ``indices`` in a batch-friendly form."""
        raise NotImplementedError

    @property
    def is_vector(self) -> bool:
        """Whether the objects are rows of a numeric matrix."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self[i]


class VectorDataset(Dataset):
    """A dataset of fixed-dimension numeric vectors.

    Parameters
    ----------
    vectors:
        Matrix of shape ``(n, d)``; copied to float64 and made read-only.
    labels:
        Optional per-object labels (class ids for classification
        workloads, cluster ids for generated data).
    """

    def __init__(self, vectors: np.ndarray, labels: Sequence[Any] | None = None):
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array of shape (n, d)")
        self.vectors = vectors.copy()
        self.vectors.setflags(write=False)
        self.labels = None if labels is None else np.asarray(labels)
        if self.labels is not None and self.labels.shape[0] != vectors.shape[0]:
            raise ValueError("labels must have one entry per object")

    @property
    def dimension(self) -> int:
        """Number of vector components per object."""
        return int(self.vectors.shape[1])

    @property
    def is_vector(self) -> bool:
        return True

    def __len__(self) -> int:
        return int(self.vectors.shape[0])

    def __getitem__(self, index: int) -> np.ndarray:
        return self.vectors[index]

    def batch(self, indices: np.ndarray) -> np.ndarray:
        return self.vectors[np.asarray(indices, dtype=np.intp)]

    def __repr__(self) -> str:
        return f"VectorDataset(n={len(self)}, d={self.dimension})"


class GenericDataset(Dataset):
    """A dataset of arbitrary objects under a user-supplied metric."""

    def __init__(self, objects: Sequence[Any], labels: Sequence[Any] | None = None):
        self.objects = list(objects)
        self.labels = None if labels is None else np.asarray(labels)
        if self.labels is not None and self.labels.shape[0] != len(self.objects):
            raise ValueError("labels must have one entry per object")

    @property
    def is_vector(self) -> bool:
        return False

    def __len__(self) -> int:
        return len(self.objects)

    def __getitem__(self, index: int) -> Any:
        return self.objects[index]

    def batch(self, indices: np.ndarray) -> list[Any]:
        return [self.objects[int(i)] for i in np.asarray(indices, dtype=np.intp)]

    def __repr__(self) -> str:
        return f"GenericDataset(n={len(self)})"


def as_dataset(data: Dataset | np.ndarray | Sequence[Any]) -> Dataset:
    """Coerce raw data into a :class:`Dataset`.

    Numeric 2-d arrays become :class:`VectorDataset`; any other sequence
    becomes :class:`GenericDataset`.
    """
    if isinstance(data, Dataset):
        return data
    if isinstance(data, np.ndarray) and data.ndim == 2:
        return VectorDataset(data)
    try:
        array = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        return GenericDataset(list(data))
    if array.ndim == 2:
        return VectorDataset(array)
    return GenericDataset(list(data))
