"""Round-robin multi-client runs: the Table 2 protocol at CLIENTN > 1."""

from __future__ import annotations

from repro.core.parameters import WorkloadParameters
from repro.core.scenario import Scenario, ScenarioReport, ScenarioRunner
from repro.store.storage import StoreConfig


def workload(clients=2, cold=2, hot=5):
    return WorkloadParameters(clients=clients, cold_n=cold, hot_n=hot,
                              set_depth=2, simple_depth=2, hierarchy_depth=2,
                              stochastic_depth=5, max_visits=150)


def fresh_store(database):
    store = StoreConfig(page_size=512, buffer_pages=16).build()
    records = database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    return store


def run(database, params, store=None, **fields):
    """The protocol of *params* at CLIENTN clients, interleaved."""
    scenario = Scenario.from_workload_parameters(params, **fields)
    return ScenarioRunner(database, scenario, store=store).run()


class TestMultiClientScenario:
    def test_each_client_runs_full_protocol(self, small_database):
        report = run(small_database, workload(clients=3),
                     fresh_store(small_database))
        assert report.client_count == 3
        for client in report.clients:
            assert client.cold.transactions().operation_count == 2
            assert client.warm.transactions().operation_count == 5

    def test_merged_totals(self, small_database):
        report = run(small_database, workload(clients=2),
                     fresh_store(small_database))
        assert report.merged_warm.transactions().operation_count == 10
        assert report.merged_cold.transactions().operation_count == 4
        total = sum(c.warm.transactions().totals.objects
                    for c in report.clients)
        assert report.merged_warm.transactions().totals.objects == total

    def test_clients_follow_distinct_streams(self, small_database):
        report = run(small_database, workload(clients=2),
                     fresh_store(small_database))
        a, b = report.clients
        assert a.warm.transactions().totals.objects \
            != b.warm.transactions().totals.objects

    def test_shared_buffer_gives_cross_client_hits(self, small_database):
        report = run(small_database, workload(clients=2),
                     fresh_store(small_database))
        assert report.merged_warm.transactions().totals.buffer_hits > 0

    def test_single_client_equivalent_shape(self, small_database):
        report = run(small_database, workload(clients=1),
                     fresh_store(small_database))
        assert report.client_count == 1
        assert report.merged_warm.transactions().totals.reads_per_op \
            >= 0.0

    def test_empty_report_defaults(self):
        report = ScenarioReport(scenario_name="empty")
        assert report.client_count == 0
        assert report.merged_warm.transactions().operation_count == 0
        assert report.merged_warm.wall_percentiles().count == 0


class TestMergedWallPercentiles:
    """Multi-user reports quote P50/P95/P99 like single-client runs."""

    def test_merged_percentiles_cover_every_transaction(self,
                                                        small_database):
        report = run(small_database, workload(clients=3),
                     fresh_store(small_database))
        merged_warm = report.merged_warm.transactions()
        warm = merged_warm.wall_percentiles()
        assert warm.count == merged_warm.operation_count == 15
        assert 0.0 < warm.p50 <= warm.p95 <= warm.p99
        merged_cold = report.merged_cold.transactions()
        cold = merged_cold.wall_percentiles()
        assert cold.count == merged_cold.operation_count == 6

    def test_merged_samples_are_union_of_clients(self, small_database):
        report = run(small_database, workload(clients=2),
                     fresh_store(small_database))
        merged = sorted(report.merged_warm.transactions().totals.wall_samples)
        unioned = sorted(
            sample for client in report.clients
            for sample in client.warm.transactions().totals.wall_samples)
        assert merged == unioned

    def test_per_client_percentiles(self, small_database):
        report = run(small_database, workload(clients=2),
                     fresh_store(small_database))
        for client in report.clients:
            wall = client.warm.transactions().wall_percentiles()
            assert wall.count == 5
            assert wall.p99 > 0.0


class TestBackendNames:
    """Multi-client scenarios target any registered engine by name."""

    def test_runs_on_named_backend(self, small_database):
        report = run(small_database, workload(clients=2), backend="memory")
        assert report.backend_name == "memory"
        assert report.client_count == 2
        for client in report.clients:
            assert client.warm.transactions().operation_count == 5
            # Wall-clock only: no simulated I/O on a real engine.
            assert client.warm.transactions().totals.io_reads == 0

    def test_runs_on_sqlite(self, small_database):
        report = run(small_database, workload(clients=2), backend="sqlite")
        assert report.backend_name == "sqlite"
        assert report.merged_warm.transactions().wall_percentiles().p99 > 0.0

    def test_clients_share_one_engine(self, small_database):
        scenario = Scenario.from_workload_parameters(workload(clients=3),
                                                     backend="memory")
        runner = ScenarioRunner(small_database, scenario)
        engine = runner._resolve_engine()
        executors = runner.build_executors(engine)
        assert all(executor.session.store is engine
                   for executor in executors)
        engine.close()

    def test_backend_options_reach_the_engine(self, small_database,
                                              tmp_path):
        path = str(tmp_path / "multiuser.db")
        run(small_database, workload(clients=2, cold=1, hot=2),
            backend="sqlite", backend_options={"path": path})
        assert (tmp_path / "multiuser.db").exists()
