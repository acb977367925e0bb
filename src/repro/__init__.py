"""repro -- multiple similarity queries for mining in metric databases.

A from-scratch reproduction of Braunmüller, Ester, Kriegel, Sander:
*Efficiently Supporting Multiple Similarity Queries for Mining in Metric
Databases* (ICDE 2000): the multiple-similarity-query operator with I/O
sharing and triangle-inequality distance avoidance, the access methods
it runs on (linear scan, X-tree, M-tree, VA-file) over a simulated
paged disk, the ExploreNeighborhoods mining scheme and its instances,
a shared-nothing parallel simulator, and the full evaluation harness
reproducing Figures 7-12.

Quick start::

    import numpy as np
    from repro import Database, knn_query

    data = np.random.default_rng(0).random((10_000, 20))
    db = Database(data, access="xtree")
    queries = data[:100]

    answers = db.multiple_similarity_query(queries, knn_query(10))

Or, through a streaming query session (answers arrive incrementally)::

    session = db.session()
    for event in session.stream(queries[:16], knn_query(10)):
        ...  # AnswerEvent / QueryCompleted
"""

from repro.core import (
    Answer,
    AnswerList,
    Database,
    MeasuredRun,
    MultiQueryProcessor,
    QueryPlanner,
    QueryType,
    WorkloadPlan,
    bounded_knn_query,
    knn_query,
    neighbor_ranking,
    neighbors_within_factor,
    range_query,
)
from repro.costmodel import CostModel, Counters
from repro.data import GenericDataset, VectorDataset, as_dataset
from repro.metric import MetricSpace, check_metric_axioms, get_distance
from repro.service import (
    AnswerEvent,
    QueryCompleted,
    QueryScheduler,
    QuerySession,
    Ticket,
    run_in_blocks,
)

__version__ = "1.0.0"

__all__ = [
    "Answer",
    "AnswerEvent",
    "AnswerList",
    "CostModel",
    "Counters",
    "Database",
    "GenericDataset",
    "MeasuredRun",
    "MetricSpace",
    "MultiQueryProcessor",
    "QueryCompleted",
    "QueryPlanner",
    "QueryScheduler",
    "QuerySession",
    "QueryType",
    "Ticket",
    "WorkloadPlan",
    "VectorDataset",
    "as_dataset",
    "bounded_knn_query",
    "check_metric_axioms",
    "get_distance",
    "knn_query",
    "neighbor_ranking",
    "neighbors_within_factor",
    "range_query",
    "run_in_blocks",
    "__version__",
]
