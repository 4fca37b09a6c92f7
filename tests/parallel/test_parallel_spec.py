"""WorkerSpec / ParallelConfig / a worker's report: validation and
pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.core.scenario import ClientScenarioReport, Scenario, \
    ScenarioPhase
from repro.errors import ParameterError
from repro.parallel import ParallelConfig, WorkerSpec


class TestParallelConfig:
    def test_defaults_are_wal_with_busy_budget(self):
        # A process run starts one worker per client in parallel; its
        # shared storage defaults to the multi-writer SQLite settings.
        from repro.backends.sqlite import multi_writer_options

        assert ParallelConfig().parallel is True
        defaults = multi_writer_options({})
        assert defaults["journal_mode"] == "WAL"
        assert defaults["busy_timeout_ms"] > 0
        assert defaults["synchronous"] == "NORMAL"

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ParameterError):
            ParallelConfig(start_method="teleport")

    def test_accepts_standard_start_methods(self):
        for method in (None, "fork", "spawn", "forkserver"):
            assert ParallelConfig(start_method=method).start_method == method


class TestWorkerSpec:
    def test_rejects_negative_client_id(self, small_database,
                                        small_workload):
        with pytest.raises(ParameterError):
            WorkerSpec(client_id=-1, database=small_database,
                       scenario=Scenario.from_workload_parameters(
                           small_workload, backend="sqlite"))

    def test_round_trips_through_pickle(self, small_database,
                                        small_workload):
        """The spec must survive every multiprocessing start method,
        which all ship arguments as pickles."""
        scenario = Scenario.from_workload_parameters(
            small_workload, backend="sqlite",
            backend_options={"path": "/tmp/x.db", "journal_mode": "WAL"})
        spec = WorkerSpec(client_id=2, database=small_database,
                          scenario=scenario, shared=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.client_id == 2
        assert clone.scenario.backend == "sqlite"
        assert clone.scenario.backend_options["journal_mode"] == "WAL"
        assert clone.shared is True
        assert clone.database.num_objects == small_database.num_objects
        assert clone.database.catalog() == small_database.catalog()
        assert clone.scenario == scenario


class TestWorkerReport:
    """A worker returns its client's report, engine stats included."""

    def test_operations_count_both_phases(self):
        report = ClientScenarioReport(client_id=0,
                                      cold=ScenarioPhase(name="cold"),
                                      warm=ScenarioPhase(name="warm"))
        assert report.operations == 0
        assert report.busy_retries == 0

    def test_round_trips_through_pickle(self):
        report = ClientScenarioReport(
            client_id=1, cold=ScenarioPhase(name="cold"),
            warm=ScenarioPhase(name="warm"), pid=99,
            engine_stats={"journal_mode": "wal", "busy_retries": 3,
                          "busy_wait_seconds": 0.01})
        clone = pickle.loads(pickle.dumps(report))
        assert clone.busy_retries == 3
        assert clone.busy_wait_seconds == 0.01
        assert clone.engine_stats["journal_mode"] == "wal"
        assert clone.pid == 99
