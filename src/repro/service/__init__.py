"""The query service: plan -> admit -> schedule -> execute -> stream.

This package layers the paper's multiple similarity query (Def. 4,
Fig. 4) into a service pipeline:

* :class:`~repro.service.session.QuerySession` -- the Def. 4
  partial-answer buffer as a first-class handle, with a streaming
  generator face (:meth:`~repro.service.session.QuerySession.stream`)
  that emits the driver's answers the moment index traversal proves
  them final, and batch faces (``ask``/``run``) that are
  ``MultiQueryProcessor.process``/``query_all`` exactly;
* :class:`~repro.service.scheduler.QueryScheduler` -- work-conserving
  batching of queries from many concurrent logical clients (each poll
  runs the oldest queued tickets as one block; FIFO driver for
  fairness; optional affinity ordering), with the block cap taken from
  :class:`~repro.core.planner.QueryPlanner` cost fits when available;
* :func:`~repro.service.session.run_in_blocks` -- the canonical block
  runner every mining driver and the CLI sit on.

Entry points: ``Database.session()`` and ``Database.serve()``.
"""

from repro.service.scheduler import (
    OPTIMIZER_V1,
    OPTIMIZER_V2,
    ORDER_AFFINITY,
    ORDER_FIFO,
    QueryScheduler,
    Ticket,
    knee_block_size,
    recommend_access,
)
from repro.service.session import (
    TTFA_METRIC,
    AnswerEvent,
    DegradedAnswerEvent,
    QueryCompleted,
    QuerySession,
    run_in_blocks,
)

__all__ = [
    "AnswerEvent",
    "DegradedAnswerEvent",
    "OPTIMIZER_V1",
    "OPTIMIZER_V2",
    "ORDER_AFFINITY",
    "ORDER_FIFO",
    "QueryCompleted",
    "QueryScheduler",
    "QuerySession",
    "TTFA_METRIC",
    "Ticket",
    "knee_block_size",
    "recommend_access",
    "run_in_blocks",
]
