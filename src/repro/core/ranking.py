"""Incremental neighbour ranking (Hjaltason & Samet [13]).

The paper's ``determine_relevant_data_pages`` is based on the ranking
algorithm of [13]: data pages are visited in ascending order of their
distance lower bound, which provably minimises the number of pages read
for a k-NN query.  This module exposes the algorithm directly as a lazy
generator: neighbours are produced one at a time in ascending distance
order, and pages are only read when the next candidate cannot yet be
proven to be the next neighbour.

Useful wherever k is not known in advance -- e.g. "give me neighbours
until the distance doubles" -- and as the reference for the page-stream
implementations.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Iterator

from repro.core.answers import Answer


def neighbor_ranking(database: Any, query_obj: Any) -> Iterator[Answer]:
    """Yield database objects in ascending distance from ``query_obj``.

    Lazily reads data pages via the database's access method: a
    candidate object is emitted only once its distance is no larger than
    the lower bound of every unread page, so consuming the first k
    results costs exactly the pages a k-NN query would read.

    >>> # first three neighbours without fixing k upfront:
    >>> # [next(it) for _ in range(3)] where it = neighbor_ranking(db, q)
    """
    access = database.access_method
    stream = access.page_stream(query_obj)
    sequential = access.sequential_data_access
    candidates: list[tuple[float, int]] = []
    next_item = stream.next_page(math.inf)
    while True:
        while next_item is not None and (
            not candidates or next_item[0] <= candidates[0][0]
        ):
            _, page = next_item
            database.disk.read(page, sequential=sequential)
            objects = page.load(database.dataset)
            distances = database.space.d_many(objects, query_obj)
            for index, distance in zip(page.indices, distances):
                heapq.heappush(candidates, (float(distance), int(index)))
            next_item = stream.next_page(math.inf)
        if not candidates:
            return
        distance, index = heapq.heappop(candidates)
        yield Answer(index, distance)


def neighbors_within_factor(
    database: Any, query_obj: Any, factor: float, max_results: int = 1000
) -> list[Answer]:
    """All neighbours within ``factor`` times the nearest distance.

    A classic use of incremental ranking: the cut-off depends on the
    first result, so no fixed k or radius exists upfront.  The nearest
    neighbour itself is always included; with a nearest distance of 0
    (the query object is a database member) only distance-0 objects
    qualify.
    """
    if factor < 1.0:
        raise ValueError("factor must be at least 1")
    results: list[Answer] = []
    for answer in neighbor_ranking(database, query_obj):
        if results and answer.distance > factor * results[0].distance:
            break
        results.append(answer)
        if len(results) >= max_results:
            break
    return results
