"""The full OCB protocol against every engine, plus the equivalence
guarantees the tentpole promises:

* the registry's ``simulated`` engine is bit-identical to a store
  built directly from the same configuration;
* the logical workload (visits, distinct objects, transaction mix) is
  identical across all engines;
* only the simulated engine reports simulated I/O; everyone reports
  wall-clock percentiles.
"""

from __future__ import annotations

import pytest

from repro.backends import (
    MemoryBackend,
    SQLiteBackend,
    create_backend,
)
from repro.clustering.dstc import DSTCPolicy
from repro.core.benchmark import OCBBenchmark
from repro.core.parameters import DatabaseParameters
from repro.core.scenario import Scenario, ScenarioRunner
from repro.errors import WorkloadError
from repro.store.storage import ObjectStore, StoreConfig


def _loaded(backend, database):
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend


def _run(database, backend, params, policy=None):
    """One client's cold + warm run; the phases per transaction kind."""
    scenario = Scenario.from_workload_parameters(params, clients=1)
    client = ScenarioRunner(database, scenario, store=backend,
                            policy=policy).run().clients[0]
    return client.cold.transactions(), client.warm.transactions()


class TestBitIdenticalSimulated:
    def test_adapter_equals_direct_store(self, small_database,
                                         small_workload):
        config = StoreConfig(page_size=512, buffer_pages=16)
        records = small_database.to_records()

        direct = config.build()
        direct.bulk_load(records.values(), order=sorted(records))
        direct.reset_stats()
        direct_report = _run(small_database, direct, small_workload)

        adapted = _loaded(create_backend("simulated", config),
                          small_database)
        adapted_report = _run(small_database, adapted, small_workload)

        for phase_direct, phase_adapted in zip(direct_report,
                                               adapted_report):
            t_direct = phase_direct.totals
            t_adapted = phase_adapted.totals
            assert t_direct.count == t_adapted.count
            assert t_direct.objects == t_adapted.objects
            assert t_direct.io_reads == t_adapted.io_reads
            assert t_direct.io_writes == t_adapted.io_writes
            assert t_direct.buffer_hits == t_adapted.buffer_hits
            assert t_direct.buffer_misses == t_adapted.buffer_misses
            assert t_direct.sim_time == t_adapted.sim_time


class TestCrossBackendEquivalence:
    def test_logical_workload_identical(self, small_database,
                                        small_workload):
        config = StoreConfig(page_size=512, buffer_pages=16)
        signatures = {}
        for name in ("simulated", "memory", "sqlite"):
            backend = _loaded(create_backend(name, config), small_database)
            _cold, warm = _run(small_database, backend, small_workload)
            totals = warm.totals
            signatures[name] = (totals.count, totals.objects,
                                totals.distinct_objects)
            backend.close()
        assert len(set(signatures.values())) == 1, signatures

    def test_real_engines_report_no_simulated_io(self, small_database,
                                                 small_workload):
        for factory in (MemoryBackend,
                        lambda: SQLiteBackend(page_size=512, cache_pages=8)):
            backend = _loaded(factory(), small_database)
            _cold, warm = _run(small_database, backend, small_workload)
            totals = warm.totals
            assert totals.io_reads == 0
            assert totals.sim_time == 0.0
            assert totals.objects > 0
            backend.close()

    def test_wall_percentiles_populated(self, small_database,
                                        small_workload):
        backend = _loaded(MemoryBackend(), small_database)
        _cold, warm = _run(small_database, backend, small_workload)
        wall = warm.wall_percentiles()
        assert wall.count == small_workload.hot_n
        assert 0.0 < wall.p50 <= wall.p95 <= wall.p99

    def test_think_time_not_reported_as_simulated_cost(self, small_database):
        from repro.core.parameters import WorkloadParameters
        params = WorkloadParameters(set_depth=1, simple_depth=1,
                                    hierarchy_depth=1, stochastic_depth=2,
                                    cold_n=1, hot_n=5, max_visits=50,
                                    think_time=0.5)
        backend = _loaded(MemoryBackend(), small_database)
        _cold, warm = _run(small_database, backend, params)
        assert warm.totals.sim_time == 0.0


class TestClusteringGuard:
    def test_clustering_policy_needs_simulated(self, small_workload):
        bench = OCBBenchmark(
            DatabaseParameters(num_classes=5, max_nref=3, base_size=20,
                               num_objects=150, num_ref_types=3, seed=7),
            small_workload, backend="sqlite", policy=DSTCPolicy())
        with pytest.raises(WorkloadError, match="clustering"):
            bench.run()
        # Refused before any client executed a statement.
        assert bench.backend.stats()["sql_round_trips"] == 0
        bench.backend.close()

    def test_simulated_backend_allows_clustering(self, small_database,
                                                 small_workload):
        backend = _loaded(ObjectStore(page_size=512, buffer_pages=16),
                          small_database)
        _cold, warm = _run(small_database, backend, small_workload,
                           policy=DSTCPolicy())
        assert warm.totals.count == small_workload.hot_n


class TestBenchmarkFacade:
    @pytest.fixture(scope="class")
    def tiny_db_params(self):
        return DatabaseParameters(num_classes=5, max_nref=3, base_size=20,
                                  num_objects=150, num_ref_types=3, seed=7)

    def test_run_with_backend_name(self, tiny_db_params, small_workload):
        bench = OCBBenchmark(tiny_db_params, small_workload,
                             backend="sqlite")
        result = bench.run()
        assert result.backend_name == "sqlite"
        assert result.report.warm.transactions().totals.count == \
            small_workload.hot_n
        assert "P95" in result.describe()
        bench.backend.close()

    def test_run_with_backend_instance(self, tiny_db_params, small_workload):
        bench = OCBBenchmark(tiny_db_params, small_workload,
                             backend=MemoryBackend())
        result = bench.run()
        assert result.backend_name == "memory"

    def test_default_backend_is_simulated(self, tiny_db_params,
                                          small_workload):
        bench = OCBBenchmark(tiny_db_params, small_workload,
                             StoreConfig(page_size=512, buffer_pages=4))
        result = bench.run()
        assert result.backend_name == "simulated"
        assert bench.store is not None
        assert result.store_pages == bench.store.page_count
        assert result.report.warm.transactions().totals.io_reads > 0

    def test_clustering_experiment_rejects_real_engines(self, tiny_db_params,
                                                        small_workload):
        bench = OCBBenchmark(tiny_db_params, small_workload,
                             backend="memory", policy=DSTCPolicy())
        with pytest.raises(WorkloadError, match="simulated"):
            bench.run_clustering_experiment()
