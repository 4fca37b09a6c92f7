"""WorkerSpec / ParallelConfig / WorkerResult: validation and pickling."""

from __future__ import annotations

import pickle

import pytest

from repro.core.scenario import ClientScenarioReport, ScenarioPhase, \
    WorkloadMix
from repro.errors import ParameterError
from repro.parallel import ParallelConfig, WorkerResult, WorkerSpec


class TestParallelConfig:
    def test_defaults_are_wal_with_busy_budget(self):
        config = ParallelConfig()
        assert config.journal_mode == "WAL"
        assert config.busy_timeout_ms > 0
        assert config.parallel is True
        assert config.synchronous == "NORMAL"

    def test_rejects_negative_busy_timeout(self):
        with pytest.raises(ParameterError):
            ParallelConfig(busy_timeout_ms=-1)

    def test_rejects_unknown_start_method(self):
        with pytest.raises(ParameterError):
            ParallelConfig(start_method="teleport")

    def test_rejects_zero_max_workers(self):
        with pytest.raises(ParameterError):
            ParallelConfig(max_workers=0)

    def test_accepts_standard_start_methods(self):
        for method in (None, "fork", "spawn", "forkserver"):
            assert ParallelConfig(start_method=method).start_method == method


class TestWorkerSpec:
    def test_rejects_negative_client_id(self, small_database,
                                        small_workload):
        with pytest.raises(ParameterError):
            WorkerSpec(client_id=-1, database=small_database,
                       parameters=small_workload, backend="sqlite",
                       mix=WorkloadMix.from_workload_parameters(
                           small_workload))

    def test_round_trips_through_pickle(self, small_database,
                                        small_workload):
        """The spec must survive every multiprocessing start method,
        which all ship arguments as pickles."""
        spec = WorkerSpec(client_id=2, database=small_database,
                          parameters=small_workload, backend="sqlite",
                          mix=WorkloadMix.from_workload_parameters(
                              small_workload),
                          backend_options={"path": "/tmp/x.db",
                                           "journal_mode": "WAL"},
                          shared=True)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.client_id == 2
        assert clone.backend == "sqlite"
        assert clone.backend_options["journal_mode"] == "WAL"
        assert clone.shared is True
        assert clone.database.num_objects == small_database.num_objects
        assert clone.database.catalog() == small_database.catalog()
        assert clone.parameters == small_workload
        assert clone.mix == spec.mix


class TestWorkerResult:
    def test_transactions_counts_both_phases(self):
        report = ClientScenarioReport(client_id=0,
                                      cold=ScenarioPhase(name="cold"),
                                      warm=ScenarioPhase(name="warm"))
        result = WorkerResult(client_id=0, pid=123, report=report,
                              wall_seconds=0.5, setup_seconds=0.1)
        assert result.transactions == 0
        assert result.busy_retries == 0

    def test_round_trips_through_pickle(self):
        report = ClientScenarioReport(client_id=0,
                                      cold=ScenarioPhase(name="cold"),
                                      warm=ScenarioPhase(name="warm"))
        result = WorkerResult(client_id=1, pid=99, report=report,
                              wall_seconds=1.0, setup_seconds=0.2,
                              busy_retries=3, busy_wait_seconds=0.01,
                              backend_stats={"journal_mode": "wal"})
        clone = pickle.loads(pickle.dumps(result))
        assert clone.busy_retries == 3
        assert clone.backend_stats["journal_mode"] == "wal"
