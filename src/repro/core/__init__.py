"""The paper's primary contribution: single and multiple similarity queries.

Public surface:

* :class:`~repro.core.types.QueryType` with the constructors
  :func:`~repro.core.types.range_query`,
  :func:`~repro.core.types.knn_query` and
  :func:`~repro.core.types.bounded_knn_query` (Definitions 1-3);
* :class:`~repro.core.database.Database`, the facade tying together a
  dataset, metric, simulated disk and access method, offering
  ``similarity_query`` (Fig. 1), ``multiple_similarity_query`` (Fig. 4)
  and measured runs;
* :class:`~repro.core.multi_query.MultiQueryProcessor`, the stateful,
  incremental multiple-query operator of Definition 4.
"""

from repro.core.answers import Answer, AnswerList
from repro.core.avoidance import (
    PairwiseDistanceCache,
    PivotSweep,
    avoid_reference,
    avoid_vectorized,
)
from repro.core.database import Database, MeasuredRun
from repro.core.multi_query import MultiQueryProcessor
from repro.core.planner import CostFit, QueryPlanner, WorkloadPlan
from repro.core.ranking import neighbor_ranking, neighbors_within_factor
from repro.core.types import QueryType, bounded_knn_query, knn_query, range_query

__all__ = [
    "Answer",
    "AnswerList",
    "CostFit",
    "Database",
    "MeasuredRun",
    "MultiQueryProcessor",
    "PairwiseDistanceCache",
    "PivotSweep",
    "QueryType",
    "avoid_reference",
    "avoid_vectorized",
    "bounded_knn_query",
    "knn_query",
    "neighbor_ranking",
    "neighbors_within_factor",
    "QueryPlanner",
    "range_query",
    "WorkloadPlan",
]
