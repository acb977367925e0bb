"""The generic ExploreNeighborhoods schemes (Figs. 2 and 3).

``explore_neighborhoods`` is the single-query scheme: starting from a
set of objects, repeatedly take an object from the control list, run a
similarity query for it, process the answers, and enqueue the filtered
answers.  ``explore_neighborhoods_multiple`` is the purely syntactic
transformation of Sec. 3.3: a *set* of control-list objects is handed to
one multiple similarity query, but only the first object and its answer
set are consumed per iteration -- the rest is prefetching hints to the
DBMS.  Both functions perform exactly the same task; the test suite
asserts identical traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Sequence

from repro.core.answers import Answer
from repro.core.database import Database
from repro.core.types import QueryType
from repro.obs.observer import maybe_phase
from repro.service.session import QuerySession


@dataclass
class ExplorationCallbacks:
    """The task-specific plug-ins of the scheme.

    Attributes
    ----------
    proc_1:
        Called with the selected object index before its query runs.
    proc_2:
        Called with ``(object_index, answers)`` after the query.
    filter:
        Called with ``(object_index, answers)``; returns the answer
        indices to enqueue.  The scheme itself removes indices that were
        ever enqueued before, which guarantees termination (Sec. 3.1).
    condition_check:
        Called with the current control list; returning ``False`` stops
        the loop early.
    """

    proc_1: Callable[[int], None] | None = None
    proc_2: Callable[[int, list[Answer]], None] | None = None
    filter: Callable[[int, list[Answer]], Iterable[int]] | None = None
    condition_check: Callable[[Sequence[int]], bool] | None = None


@dataclass
class ExplorationStats:
    """What an exploration run did (for tests and reports)."""

    queries_issued: int = 0
    objects_visited: list[int] = field(default_factory=list)


def _default_filter(obj_index: int, answers: list[Answer]) -> list[int]:
    return [a.index for a in answers]


def explore_neighborhoods(
    database: Database,
    start_objects: Sequence[int],
    sim_type: QueryType,
    callbacks: ExplorationCallbacks | None = None,
    max_iterations: int | None = None,
) -> ExplorationStats:
    """The single-query scheme of Fig. 2 over dataset object indices."""
    callbacks = callbacks or ExplorationCallbacks()
    filter_fn = callbacks.filter or _default_filter
    control: dict[int, None] = dict.fromkeys(int(i) for i in start_objects)
    ever_enqueued = set(control)
    stats = ExplorationStats()
    observer = getattr(database, "observer", None)

    with maybe_phase(
        observer, "mine.explore", scheme="single", start_objects=len(control)
    ):
        while control:
            if callbacks.condition_check is not None and not callbacks.condition_check(
                list(control)
            ):
                break
            if max_iterations is not None and stats.queries_issued >= max_iterations:
                break
            obj_index = next(iter(control))
            with maybe_phase(
                observer,
                "mine.iteration",
                driver="explore",
                iteration=stats.queries_issued,
                obj=obj_index,
            ):
                if callbacks.proc_1 is not None:
                    callbacks.proc_1(obj_index)
                answers = database.similarity_query(
                    database.dataset[obj_index], sim_type
                )
                stats.queries_issued += 1
                stats.objects_visited.append(obj_index)
                if callbacks.proc_2 is not None:
                    callbacks.proc_2(obj_index, answers)
                fresh = [
                    int(i)
                    for i in filter_fn(obj_index, answers)
                    if i not in ever_enqueued
                ]
                del control[obj_index]
                for index in fresh:
                    control[index] = None
                    ever_enqueued.add(index)
    return stats


def explore_neighborhoods_multiple(
    database: Database,
    start_objects: Sequence[int],
    sim_type: QueryType,
    callbacks: ExplorationCallbacks | None = None,
    batch_size: int = 16,
    max_iterations: int | None = None,
    session: QuerySession | None = None,
) -> ExplorationStats:
    """The multiple-query scheme of Fig. 3.

    Performs exactly the same task as :func:`explore_neighborhoods`
    (identical visit order, identical callback invocations); the only
    difference is that each iteration hands the first ``batch_size``
    control-list objects to one multiple similarity query through a
    shared :class:`~repro.service.QuerySession`, letting the session
    buffer prefetch partial answers for the objects that will be
    selected in later iterations.  They stay in the session's query
    window, so an iteration admits only the objects entering it.
    """
    if batch_size < 1:
        raise ValueError("batch size must be positive")
    callbacks = callbacks or ExplorationCallbacks()
    filter_fn = callbacks.filter or _default_filter
    control = deque(dict.fromkeys(int(i) for i in start_objects))
    ever_enqueued = set(control)
    stats = ExplorationStats()
    if session is None:
        session = database.session(seed_from_queries=True)
    observer = getattr(database, "observer", None)
    # control[:windowed] is the session's query window.
    windowed = 0

    with maybe_phase(
        observer, "mine.explore", scheme="multiple", start_objects=len(control)
    ):
        while control:
            if callbacks.condition_check is not None and not callbacks.condition_check(
                list(control)
            ):
                break
            if max_iterations is not None and stats.queries_issued >= max_iterations:
                break
            width = min(batch_size, len(control))
            first = control[0]
            entering = list(islice(control, windowed, width))
            with maybe_phase(
                observer,
                "mine.iteration",
                driver="explore",
                iteration=stats.queries_issued,
                obj=first,
                batch=width,
            ):
                if callbacks.proc_1 is not None:
                    callbacks.proc_1(first)
                objs = [database.dataset[i] for i in entering]
                if stats.queries_issued:
                    answers = session.advance(objs, sim_type, entering, entering)
                else:  # one-shot: an injected session may hold a window
                    answers = session.ask(objs, sim_type, entering, entering)
                stats.queries_issued += 1
                stats.objects_visited.append(first)
                if callbacks.proc_2 is not None:
                    callbacks.proc_2(first, answers)
                fresh = [
                    int(i) for i in filter_fn(first, answers) if i not in ever_enqueued
                ]
                control.popleft()
                windowed = width - 1
                session.retire(first)
                control.extend(dict.fromkeys(fresh))
                ever_enqueued.update(fresh)
    return stats
