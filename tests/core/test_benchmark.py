"""OCBBenchmark facade tests."""

from __future__ import annotations

import pytest

from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.core.benchmark import OCBBenchmark
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.errors import WorkloadError
from repro.store.storage import StoreConfig


def make_benchmark(policy=None, placement="sequential"):
    db = DatabaseParameters(num_classes=5, max_nref=3, base_size=20,
                            num_objects=200, seed=3)
    wl = WorkloadParameters(cold_n=2, hot_n=8, set_depth=2, simple_depth=2,
                            hierarchy_depth=2, stochastic_depth=5,
                            max_visits=150)
    return OCBBenchmark(db, wl, StoreConfig(page_size=512, buffer_pages=8),
                        policy=policy, initial_placement=placement)


class TestSetup:
    def test_setup_generates_and_loads(self):
        bench = make_benchmark()
        database = bench.setup()
        assert database.num_objects == 200
        assert bench.store is not None
        assert bench.store.object_count == 200

    def test_setup_resets_stats(self):
        bench = make_benchmark()
        bench.setup()
        assert bench.store.snapshot().total_ios == 0

    def test_initial_placement_applied(self):
        bench = make_benchmark(placement="by_class")
        bench.setup()
        order = bench.store.current_order()
        database = bench.database
        classes = [database.class_of(oid) for oid in order]
        assert classes == sorted(classes)


class TestRun:
    def test_run_returns_full_result(self):
        result = make_benchmark().run()
        assert result.report.warm.transactions().operation_count == 8
        assert result.database_statistics.num_objects == 200
        assert result.store_pages > 0
        assert result.generation.total_seconds > 0.0

    def test_run_auto_setup(self):
        bench = make_benchmark()
        result = bench.run()  # No explicit setup().
        assert result.report.cold.transactions().operation_count == 2

    def test_describe(self):
        result = make_benchmark().run()
        text = result.describe()
        assert "OCB benchmark result" in text
        assert "warm run" in text

    def test_defaults_are_paper_defaults(self):
        bench = OCBBenchmark()
        assert bench.database_parameters.num_objects == 20000
        assert bench.workload_parameters.hot_n == 10000


class TestClusteringExperiment:
    def test_requires_clustering_policy(self):
        bench = make_benchmark()
        with pytest.raises(WorkloadError):
            bench.run_clustering_experiment()

    def test_runs_with_dstc(self):
        policy = DSTCPolicy(DSTCParameters(observation_period=5,
                                           selection_threshold=1,
                                           unit_weight_threshold=1.0))
        bench = make_benchmark(policy=policy)
        result = bench.run_clustering_experiment(label="facade")
        assert result.label == "facade"
        assert result.before.warm.transactions().operation_count == 8
