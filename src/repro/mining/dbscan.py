"""DBSCAN (Ester, Kriegel, Sander, Xu, KDD 1996) over similarity queries.

DBSCAN is the paper's flagship instance of iterative neighbourhood
exploration: starting from an object, it repeatedly retrieves
eps-neighbourhoods of objects retrieved by previous queries.  Two query
paths are provided:

* ``batch_size=1`` -- classic DBSCAN issuing single range queries;
* ``batch_size=m`` -- the ExploreNeighborhoodsMultiple form: the first
  m seeds form the session's query window, so neighbourhood pages are
  read once for many seeds and each query admits only the new seeds.

Both paths produce identical clusterings (asserted by the test suite):
the transformation of Sec. 3.3 is purely syntactic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.database import Database
from repro.core.types import range_query
from repro.obs.observer import maybe_phase

#: Label for noise objects.
NOISE = -1

#: Internal marker for not-yet-visited objects.
_UNCLASSIFIED = -2


@dataclass
class DBSCANResult:
    """Clustering produced by :func:`dbscan`.

    Attributes
    ----------
    labels:
        Per-object cluster id (0-based); ``-1`` marks noise.
    n_clusters:
        Number of clusters found.
    queries_issued:
        Range queries answered (same for both query paths).
    """

    labels: np.ndarray
    n_clusters: int
    queries_issued: int

    def cluster_members(self, cluster_id: int) -> np.ndarray:
        """Indices of the objects in one cluster."""
        return np.flatnonzero(self.labels == cluster_id)


def dbscan(
    database: Database,
    eps: float,
    min_pts: int,
    batch_size: int = 1,
) -> DBSCANResult:
    """Density-based clustering of the whole database.

    Parameters
    ----------
    eps, min_pts:
        The DBSCAN density parameters: an object is a *core object*
        when its eps-neighbourhood (itself included) holds at least
        ``min_pts`` objects.
    batch_size:
        Number of pending seeds handed to each multiple similarity
        query; 1 reproduces classic single-query DBSCAN.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    if batch_size < 1:
        raise ValueError("batch size must be positive")

    dataset = database.dataset
    labels = [_UNCLASSIFIED] * len(dataset)
    qtype = range_query(eps)
    session = database.session(seed_from_queries=False)
    queries_issued = 0
    observer = getattr(database, "observer", None)

    def neighborhood(head: int, entering: list[int], batch: int) -> list[int]:
        """Answer ``head``'s range query after ``entering`` joins the window."""
        nonlocal queries_issued
        with maybe_phase(
            observer,
            "mine.iteration",
            driver="dbscan",
            iteration=queries_issued,
            seed=head,
            batch=batch,
        ):
            queries_issued += 1
            answers = session.advance(
                [dataset[i] for i in entering], qtype, keys=entering
            )
            session.retire(head)
            return [a.index for a in answers]

    cluster_id = 0
    with maybe_phase(
        observer, "mine.dbscan", eps=eps, min_pts=min_pts, batch_size=batch_size
    ):
        for start in range(len(dataset)):
            if labels[start] != _UNCLASSIFIED:
                continue
            neighbors = neighborhood(start, [start], 1)
            if len(neighbors) < min_pts:
                labels[start] = NOISE
                continue
            # Expand a new cluster from this core object.
            labels[start] = cluster_id
            seeds = deque(i for i in neighbors if labels[i] in (_UNCLASSIFIED, NOISE))
            for i in seeds:
                labels[i] = cluster_id
            # seeds[:windowed] is the session's query window.
            windowed = 0
            while seeds:
                width = min(batch_size, len(seeds))
                current_neighbors = neighborhood(
                    seeds[0], list(islice(seeds, windowed, width)), width
                )
                seeds.popleft()
                windowed = width - 1
                if len(current_neighbors) >= min_pts:
                    for i in current_neighbors:
                        if labels[i] in (_UNCLASSIFIED, NOISE):
                            if labels[i] == _UNCLASSIFIED:
                                seeds.append(i)
                            labels[i] = cluster_id
            cluster_id += 1

    return DBSCANResult(np.asarray(labels, dtype=int), cluster_id, queries_issued)
