"""Tests for the query planner, platform calibration and matrix modes."""

import math

import numpy as np
import pytest

from repro import Database, knn_query, range_query
from repro.core.multi_query import MultiQueryProcessor, _SlotMatrix
from repro.core.planner import (
    CostFit,
    QueryPlanner,
    default_share_bound,
    knee_block_size,
    partition_by_sharing,
)
from repro.costmodel import CostModel, calibrated_cost_model, measure_platform
from repro.metric import MetricSpace
from repro.obs import Observer
from repro.workloads import make_gaussian_mixture


@pytest.fixture(scope="module")
def clustered():
    return make_gaussian_mixture(
        n=3000, dimension=10, n_clusters=15, cluster_std=0.02, seed=4
    )


class TestCostFit:
    def test_per_query_curve(self):
        fit = CostFit(access="scan", shared_seconds=1.0, marginal_seconds=0.1)
        assert fit.per_query(1) == pytest.approx(1.1)
        assert fit.per_query(10) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            fit.per_query(0)


class TestQueryPlanner:
    def test_prefers_index_for_single_queries(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=8, seed=1)
        plan = planner.plan(n_queries=1, qtype=knn_query(5))
        assert plan.access == "xtree"
        assert plan.block_size == 1

    def test_prefers_scan_for_large_blocks(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=8, seed=1)
        plan = planner.plan(n_queries=500, qtype=knn_query(5))
        assert plan.access == "scan"
        assert plan.block_size == 500

    def test_block_size_clipped_to_memory_bound(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=4)
        plan = planner.plan(n_queries=500, qtype=knn_query(5), max_block_size=64)
        assert plan.block_size == 64

    def test_describe_mentions_all_candidates(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=4)
        plan = planner.plan(n_queries=10, qtype=knn_query(3))
        text = plan.describe()
        assert "scan" in text and "xtree" in text

    def test_database_for_returns_built_database(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=4)
        plan = planner.plan(n_queries=10, qtype=knn_query(3))
        database = planner.database_for(plan)
        assert database.access_method.name == plan.access

    def test_validation(self, clustered):
        with pytest.raises(ValueError):
            QueryPlanner(clustered, probe_queries=1)
        with pytest.raises(ValueError):
            QueryPlanner(clustered, candidates=())
        planner = QueryPlanner(clustered, probe_queries=4)
        with pytest.raises(ValueError):
            planner.plan(n_queries=0, qtype=knn_query(3))

    def test_dataset_smaller_than_probe_sample(self, clustered):
        """Probing clamps to the dataset: tiny workloads must still fit.

        With fewer objects than ``probe_queries`` the old sampler
        repeated queries; repeats fold to near-zero inside the block
        probe while the single-query probe pays each in full, producing
        degenerate (wildly over-shared) fits.
        """
        tiny = clustered[:4]
        planner = QueryPlanner(tiny, probe_queries=8, seed=1)
        plan = planner.plan(n_queries=3, qtype=knn_query(2))
        assert plan.block_size >= 1
        for fit in plan.fits:
            assert fit.shared_seconds >= 0.0
            assert fit.marginal_seconds >= 0.0
            assert fit.per_query(1) > 0.0
            # A fit is degenerate when nearly all cost is "shared":
            # blocking would then look free, which it never is.
            assert fit.marginal_seconds > 0.0


class TestCalibration:
    def test_measure_platform_sane(self):
        timings = measure_platform(16, batch=200, repeats=20)
        assert timings.distance_seconds > 0
        assert timings.comparison_seconds > 0
        assert timings.ratio > 1  # a distance costs more than a comparison

    def test_higher_dimension_costs_more(self):
        low = measure_platform(4, batch=500, repeats=30)
        high = measure_platform(256, batch=500, repeats=30)
        assert high.distance_seconds > low.distance_seconds

    def test_calibrated_model_uses_measured_constants(self):
        model = calibrated_cost_model(16, 1e-3, 5e-3, batch=200, repeats=10)
        assert model.distance_seconds == model.distance_seconds_override
        assert model.sequential_block_seconds == 1e-3

    def test_default_model_unaffected(self):
        assert CostModel(20).distance_seconds == pytest.approx(4.3e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            measure_platform(0)


class TestMatrixModes:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            _SlotMatrix(MetricSpace("euclidean"), mode="cached")

    def test_eager_charges_on_admit(self):
        space = MetricSpace("euclidean")
        slots = _SlotMatrix(space, mode="eager")
        for i in range(5):
            slots.add(np.array([float(i), 0.0]))
        assert space.counters.query_matrix_distance_calculations == 10

    def test_lazy_charges_on_first_use_only(self):
        space = MetricSpace("euclidean")
        slots = _SlotMatrix(space, mode="lazy")
        a = slots.add(np.array([0.0, 0.0]))
        b = slots.add(np.array([1.0, 0.0]))
        slots.add(np.array([2.0, 0.0]))
        assert space.counters.query_matrix_distance_calculations == 0
        values = slots.pairs(a, [b])
        assert values[0] == pytest.approx(1.0)
        assert space.counters.query_matrix_distance_calculations == 1
        slots.pairs(a, [b])  # cached now
        assert space.counters.query_matrix_distance_calculations == 1

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_single_admission_charges_nothing(self, mode):
        """Admitting with zero pending queries must not compute pairs.

        Pins the m=1 cost of both fill policies: a lone query has no
        partner rows, so neither policy may charge a matrix distance on
        admission -- eager pays only from the second admission on.
        """
        space = MetricSpace("euclidean")
        slots = _SlotMatrix(space, mode=mode)
        slots.add(np.array([0.5, 0.5]))
        assert space.counters.query_matrix_distance_calculations == 0
        slots.add(np.array([1.5, 0.5]))
        expected = 1 if mode == "eager" else 0
        assert space.counters.query_matrix_distance_calculations == expected

    @pytest.mark.parametrize("mode", ["eager", "lazy"])
    def test_single_query_block_charges_no_matrix_distances(self, clustered, mode):
        """An m=1 multiple similarity query pays zero matrix overhead."""
        database = Database(clustered, access="xtree", block_size=4096)
        with database.measure() as handle:
            processor = MultiQueryProcessor(database, matrix_mode=mode)
            processor.query_all([clustered[0]], knn_query(5))
        assert handle.counters.query_matrix_distance_calculations == 0

    def test_lazy_slot_reuse_invalidates_pairs(self):
        space = MetricSpace("euclidean")
        slots = _SlotMatrix(space, mode="lazy")
        a = slots.add(np.array([0.0, 0.0]))
        b = slots.add(np.array([3.0, 0.0]))
        slots.pairs(a, [b])
        slots.remove(b)
        c = slots.add(np.array([7.0, 0.0]))
        assert c == b  # slot recycled
        assert slots.pairs(a, [c])[0] == pytest.approx(7.0)

    @pytest.mark.parametrize("access", ["scan", "xtree"])
    def test_lazy_mode_answers_identical(self, clustered, access):
        database = Database(clustered, access=access, block_size=4096)
        queries = [clustered[i] for i in range(0, 300, 10)]
        results = {}
        for mode in ("eager", "lazy"):
            database.cold()
            processor = MultiQueryProcessor(database, matrix_mode=mode)
            results[mode] = processor.query_all(queries, knn_query(5))
        for a, b in zip(results["eager"], results["lazy"]):
            assert [x.index for x in a] == [x.index for x in b]

    def test_lazy_mode_never_computes_more_pairs(self, clustered):
        database = Database(clustered, access="scan", block_size=4096)
        queries = [clustered[i] for i in range(40)]
        counts = {}
        for mode in ("eager", "lazy"):
            database.cold()
            with database.measure() as handle:
                processor = MultiQueryProcessor(database, matrix_mode=mode)
                processor.query_all(queries, knn_query(5))
            counts[mode] = handle.counters.query_matrix_distance_calculations
        assert counts["lazy"] <= counts["eager"]
        assert counts["eager"] == len(queries) * (len(queries) - 1) // 2

    def test_lazy_sweep_requests_the_query_major_pair_set(self, clustered):
        """Lazy mode pays exactly ``{(i, j): j < min(i, P), r_i finite}``.

        Seven queries against a three-pivot window, with a k-NN query in
        mid-batch that can never saturate (k exceeds the database): its
        radius stays infinite, so it asks for no pairs of its own, while
        it still serves later queries as a pivot.  The reference engine
        still walks the query-major loop, so equal counter dicts across
        engines pin the pivot-major sweep to the same requests.
        """
        database = Database(clustered, access="scan", block_size=4096)
        pivots, unsaturated = 3, 3
        qtypes = [range_query(0.05)] * 7
        qtypes[unsaturated] = knn_query(len(clustered) + 1)
        queries = [clustered[i] for i in range(0, 70, 10)]
        counters = {}
        for mode in ("eager", "lazy"):
            for engine in ("reference", "vectorized", "batched"):
                database.cold()
                with database.measure() as handle:
                    processor = MultiQueryProcessor(
                        database, engine=engine, matrix_mode=mode,
                        max_pivots=pivots,
                    )
                    processor.query_all(queries, qtypes)
                counters[mode, engine] = handle.counters.as_dict()
        matrix = "query_matrix_distance_calculations"
        assert counters["eager", "reference"][matrix] == 7 * 6 // 2
        for engine in ("reference", "vectorized", "batched"):
            lazy = counters["lazy", engine]
            assert lazy == counters["lazy", "reference"]
            assert {**lazy, matrix: 21} == counters["eager", engine]
        # The driver's row (relevance bounds) plus the pivot windows of
        # the finite-radius queries.
        consulted = {(i, 0) for i in range(1, 7)} | {
            (i, j)
            for i in range(1, 7)
            if i != unsaturated
            for j in range(min(i, pivots))
        }
        assert counters["lazy", "vectorized"][matrix] == len(consulted) < 21


class TestPartitionBySharing:
    def _objs(self):
        # Two tight clumps far apart, admission order interleaved.
        return [
            np.array([0.0, 0.0]),
            np.array([10.0, 10.0]),
            np.array([0.1, 0.0]),
            np.array([10.1, 10.0]),
        ]

    def test_infinite_bound_forces_one_partition(self):
        space = MetricSpace("euclidean")
        groups = partition_by_sharing(self._objs(), space, share_bound=math.inf)
        assert groups == [[0, 1, 2, 3]]

    def test_zero_bound_forces_singletons(self):
        space = MetricSpace("euclidean")
        groups = partition_by_sharing(self._objs(), space, share_bound=0.0)
        assert groups == [[0], [1], [2], [3]]

    def test_default_bound_groups_the_clumps(self):
        space = MetricSpace("euclidean")
        groups = partition_by_sharing(self._objs(), space)
        assert sorted(groups) == [[0, 2], [1, 3]]

    def test_seed_is_oldest_and_members_stay_sorted(self):
        space = MetricSpace("euclidean")
        groups = partition_by_sharing(self._objs(), space)
        # FIFO: the first partition is seeded by position 0, the next by
        # the oldest remaining (position 1); members in admission order.
        assert groups[0] == [0, 2]
        assert groups[1] == [1, 3]

    def test_max_partition_caps_group_size(self):
        space = MetricSpace("euclidean")
        objs = [np.array([0.0, float(i) * 0.01]) for i in range(6)]
        groups = partition_by_sharing(objs, space, max_partition=2)
        assert all(len(g) <= 2 for g in groups)
        assert sorted(i for g in groups for i in g) == list(range(6))

    def test_empty_and_single(self):
        space = MetricSpace("euclidean")
        assert partition_by_sharing([], space) == []
        assert partition_by_sharing([np.zeros(2)], space) == [[0]]

    def test_default_share_bound_degenerate_scales(self):
        space = MetricSpace("euclidean")
        assert default_share_bound([np.zeros(2)], space) == math.inf
        identical = [np.zeros(2) for _ in range(4)]
        assert default_share_bound(identical, space) == math.inf

    def test_knee_block_size_reexported_by_service(self):
        from repro.service import knee_block_size as service_knee

        assert service_knee is knee_block_size


class TestPlanBatch:
    @pytest.fixture(scope="class")
    def planner(self, clustered):
        return QueryPlanner(clustered, probe_queries=4, seed=1)

    def test_partitions_cover_batch_exactly_once(self, planner, clustered):
        objs = [clustered[i] for i in range(0, 160, 10)]
        plan = planner.plan_batch(objs, knn_query(3), max_block=8)
        members = sorted(i for p in plan.partitions for i in p.members)
        assert members == list(range(len(objs)))
        assert all(p.block_size <= 8 for p in plan.partitions)
        assert plan.n_queries == len(objs)
        assert "partition" in plan.describe()

    def test_forced_single_partition(self, planner, clustered):
        objs = [clustered[i] for i in range(12)]
        plan = planner.plan_batch(
            objs, knn_query(3), max_block=16, share_bound=math.inf
        )
        assert len(plan.partitions) == 1
        assert plan.partitions[0].members == tuple(range(12))

    def test_kinds_never_share_a_partition(self, planner, clustered):
        objs = [clustered[i] for i in range(16)]
        qtypes = [
            knn_query(3) if i % 2 else range_query(0.2 + 0.1 * (i % 3))
            for i in range(16)
        ]
        plan = planner.plan_batch(objs, qtypes, max_block=16)
        for part in plan.partitions:
            kinds = {qtypes[i].kind for i in part.members}
            assert len(kinds) == 1

    def test_partition_plans_name_access_and_engine_cell(self, planner, clustered):
        objs = [clustered[i] for i in range(8)]
        plan = planner.plan_batch(objs, knn_query(3), max_block=8)
        for part in plan.partitions:
            assert part.access in ("scan", "xtree")
            assert part.predicted_seconds_per_query > 0.0
            assert part.sharing_factor >= 1.0

    def test_probe_cache_probes_each_cell_once(self, clustered):
        planner = QueryPlanner(clustered, probe_queries=4, seed=1)
        first = planner.fit_surface(knn_query(3))
        cells = len(planner._fit_cache)
        again = planner.fit_surface(knn_query(3))
        assert len(planner._fit_cache) == cells
        assert first == again

    def test_unbuildable_candidate_skipped_with_event(self, clustered):
        observer = Observer(trace=True)
        planner = QueryPlanner(
            clustered,
            metric="manhattan",
            candidates=("xtree", "vafile"),
            probe_queries=4,
            observer=observer,
        )
        assert "vafile" in planner.unavailable
        planner.fit_surface(knn_query(3))
        assert planner.probes_skipped >= 1
        counters = observer.metrics.snapshot()["counters"]
        assert counters.get("events.planner.probe.skipped", 0) >= 1
        # the skip is cached: re-probing does not re-emit
        planner.fit_surface(knn_query(3))
        after = observer.metrics.snapshot()["counters"]
        assert after["events.planner.probe.skipped"] == counters[
            "events.planner.probe.skipped"
        ]
