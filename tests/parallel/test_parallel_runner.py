"""ParallelRunner: determinism vs the in-process runner, report shape.

The subsystem's contract is pinned here: a process-parallel run produces
byte-identical *logical* metrics (per-client transaction mix, objects
visited, truncations) to the in-process
:meth:`~repro.core.scenario.ScenarioRunner.run` on the same seed — for
a shared SQLite file and for per-worker replicas alike.
"""

from __future__ import annotations

import dataclasses
import glob
import os

import pytest

from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.scenario import ENGINE_COUNTERS, Scenario, ScenarioRunner
from repro.errors import BackendError, WorkloadError
from repro.parallel import ParallelConfig, ParallelRunner

PARAMS = WorkloadParameters(clients=3, cold_n=2, hot_n=8,
                            set_depth=2, simple_depth=2,
                            hierarchy_depth=2, stochastic_depth=5,
                            max_visits=150)

#: SQLite setting used throughout: a small busy budget.
BUSY_BUDGET = {"busy_timeout_ms": 2000}


def table2(backend="sqlite", params=PARAMS, backend_options=None,
           **fields):
    """The Table 2 protocol of *params* as a scenario on *backend*."""
    options = dict(BUSY_BUDGET) if backend == "sqlite" else {}
    options.update(backend_options or {})
    return Scenario.from_workload_parameters(params, backend=backend,
                                             backend_options=options,
                                             **fields)


@pytest.fixture(scope="module")
def parallel_database():
    params = DatabaseParameters(num_classes=6, max_nref=4, base_size=25,
                                num_objects=220, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


def _exit_hard(spec):
    """Worker body that dies without reporting (see crash-cleanup test)."""
    import multiprocessing

    if multiprocessing.parent_process() is None:
        # Sequential fallback: we ARE the test process — fail loudly
        # instead of killing pytest.
        raise RuntimeError("worker failure (sequential fallback)")
    os._exit(13)


def _logical_signature(reports):
    """Per-client logical metrics, phase by phase, kind by kind."""
    signature = []
    for report in reports:
        for phase in (report.cold.transactions(),
                      report.warm.transactions()):
            for kind, stats in sorted(phase.per_class.items()):
                signature.append((phase.name, kind, stats.count,
                                  stats.objects, stats.distinct_objects,
                                  stats.truncated))
    return tuple(signature)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["simulated", "memory", "sqlite"])
    def test_parallel_equals_in_process(self, parallel_database, backend):
        """The worker path without an explicit mix runs the Table 2 mix
        as the in-process runner does, client by client.  Simulated I/O
        is not compared: replicated workers each warm a private buffer
        pool, while in-process clients share one."""
        parallel = ParallelRunner(
            parallel_database, table2(backend),
            config=ParallelConfig(parallel=False)).run()
        in_process = ScenarioRunner(parallel_database,
                                    table2(backend)).run()
        assert _logical_signature(parallel.clients) \
            == _logical_signature(in_process.clients)

    def test_sequential_fallback_equals_parallel(self, parallel_database):
        """parallel=False runs the same specs in-process — same metrics."""
        contended = ParallelRunner(parallel_database, table2()).run()
        sequential = ParallelRunner(
            parallel_database, table2(),
            config=ParallelConfig(parallel=False)).run()
        assert sequential.executed_parallel is False
        assert _logical_signature(contended.clients) \
            == _logical_signature(sequential.clients)

    def test_worker_zero_independent_of_width(self, parallel_database):
        """Client 0's substream never sees the other processes, so its
        logical metrics are the same at every sweep width."""
        signatures = set()
        for clients in (1, PARAMS.clients):
            params = dataclasses.replace(PARAMS, clients=clients)
            report = ParallelRunner(parallel_database,
                                    table2(params=params)).run()
            signatures.add(_logical_signature(report.clients[:1]))
        assert len(signatures) == 1

    def test_repeated_runs_identical(self, parallel_database):
        first = ParallelRunner(parallel_database, table2()).run()
        second = ParallelRunner(parallel_database, table2()).run()
        assert _logical_signature(first.clients) \
            == _logical_signature(second.clients)


class TestExecutionModes:
    def test_sqlite_runs_shared_with_wal(self, parallel_database):
        report = ParallelRunner(parallel_database, table2()).run()
        assert report.mode == "shared"
        assert report.client_count == PARAMS.clients
        for client in report.clients:
            assert client.engine_stats["journal_mode"] == "wal"
            assert client.engine_stats["busy_timeout_ms"] == 2000

    @pytest.mark.parametrize("backend,options", [
        ("sqlite", {}), ("sharded-sqlite", {"shards": 2})])
    def test_backend_options_configure_every_worker(
            self, parallel_database, backend, options):
        """The scenario's backend options are the one place a run's
        storage settings live: every worker's engine reports them."""
        settings = {"busy_timeout_ms": 1234, "journal_mode": "WAL"}
        report = ParallelRunner(
            parallel_database,
            table2(backend, backend_options={**settings, **options})).run()
        assert report.mode == "shared"
        assert len(report.clients) == PARAMS.clients
        for client in report.clients:
            assert client.engine_stats["busy_timeout_ms"] == 1234
            assert client.engine_stats["journal_mode"] == "wal"
            if options:
                assert client.engine_stats["shards"] == 2

    def test_workers_ran_as_distinct_processes(self, parallel_database):
        report = ParallelRunner(parallel_database, table2()).run()
        if report.executed_parallel:
            pids = {client.pid for client in report.clients}
            assert os.getpid() not in pids
            assert len(pids) == PARAMS.clients

    def test_simulated_runs_replicated(self, parallel_database):
        report = ParallelRunner(parallel_database, table2("simulated")).run()
        assert report.mode == "replicated"
        # Cost-model engines keep their simulated counters in parallel
        # (the small database is fully buffer-resident, so the evidence
        # is buffer traffic, not page faults).
        totals = report.merged_warm.transactions().totals
        assert totals.buffer_hits + totals.buffer_misses > 0

    def test_memory_runs_replicated(self, parallel_database):
        report = ParallelRunner(parallel_database, table2("memory")).run()
        assert report.mode == "replicated"
        assert report.total_operations == \
            PARAMS.clients * (PARAMS.cold_n + PARAMS.hot_n)

    def test_explicit_path_is_kept_and_loaded_once(self, parallel_database,
                                                   tmp_path):
        path = str(tmp_path / "explicit.db")
        report = ParallelRunner(
            parallel_database, table2(backend_options={"path": path})).run()
        assert report.mode == "shared"
        assert os.path.exists(path)
        # A second run attaches to the existing file instead of reloading.
        again = ParallelRunner(
            parallel_database, table2(backend_options={"path": path})).run()
        assert again.total_operations == report.total_operations

    def test_temp_storage_is_cleaned_up(self, parallel_database):
        import tempfile
        before = set(glob.glob(os.path.join(tempfile.gettempdir(),
                                            "ocb-parallel-*")))
        ParallelRunner(parallel_database, table2()).run()
        after = set(glob.glob(os.path.join(tempfile.gettempdir(),
                                           "ocb-parallel-*")))
        assert after == before

    def test_dead_worker_does_not_leak_temp_storage(self, parallel_database,
                                                    monkeypatch):
        """A worker killed mid-run still tears the temp directory down.

        The temp shared-storage directory is managed by a context
        manager around the whole load/spawn/execute body, so even a
        broken pool — here every worker ``os._exit``\\ s before
        reporting — unwinds through the cleanup instead of leaking
        ``ocb-parallel-*`` directories.
        """
        import multiprocessing
        import tempfile

        from repro.parallel import runner as runner_module

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        created = []
        real_mkdtemp = tempfile.mkdtemp

        def capturing_mkdtemp(*args, **kwargs):
            path = real_mkdtemp(*args, **kwargs)
            created.append(path)
            return path

        monkeypatch.setattr(runner_module.tempfile, "mkdtemp",
                            capturing_mkdtemp)
        # Forked children inherit the patched module, so every worker
        # dies without ever returning a result.
        monkeypatch.setattr(runner_module, "run_worker", _exit_hard)
        runner = ParallelRunner(
            parallel_database, table2(),
            config=ParallelConfig(start_method="fork"))
        with pytest.raises(Exception):
            runner.run()
        assert len(created) == 1
        assert not os.path.exists(created[0])

    def test_memory_path_falls_back_to_replicated(self, parallel_database):
        report = ParallelRunner(
            parallel_database, table2(backend_options={"path": ":memory:"})).run()
        assert report.mode == "replicated"

    def test_rejects_backend_instances(self, parallel_database):
        from repro.backends import MemoryBackend
        with pytest.raises(WorkloadError, match="name"):
            ParallelRunner(parallel_database, table2(MemoryBackend()))

    def test_rejects_unknown_backend(self, parallel_database):
        with pytest.raises(WorkloadError, match="unknown backend"):
            ParallelRunner(parallel_database, table2("teleport")).run()

    def test_mistagged_concurrent_backend_fails_loudly(self,
                                                       parallel_database,
                                                       monkeypatch):
        """A backend registered 'concurrent' whose engine cannot share
        storage must fail before any worker spawns, not run workers
        against freshly-created empty replicas: the coordinator's
        connect_worker probe refuses it."""
        from repro.backends import (
            MemoryBackend,
            register_backend,
            unregister_backend,
        )
        from repro.parallel import runner as runner_module

        started = []
        monkeypatch.setattr(runner_module.ProcessPool, "map",
                            lambda pool, fn, specs: started.append(specs))
        register_backend("mistagged", lambda config, **opts: MemoryBackend(),
                         "claims concurrency it does not implement",
                         capabilities=("concurrent",), overwrite=True)
        try:
            with pytest.raises(BackendError, match="concurrent"):
                ParallelRunner(parallel_database, table2("mistagged")).run()
        finally:
            unregister_backend("mistagged")
        assert started == []

    def test_stale_same_size_storage_refused(self, parallel_database,
                                             tmp_path):
        """A file with the right object *count* but different content
        (another seed) must be refused, not silently benchmarked."""
        other_params = DatabaseParameters(num_classes=6, max_nref=4,
                                          base_size=25, num_objects=220,
                                          num_ref_types=4, seed=2024)
        other, _ = generate_database(other_params)
        path = str(tmp_path / "seeded.db")
        ParallelRunner(other, table2(backend_options={"path": path})).run()
        with pytest.raises(WorkloadError, match="stale"):
            ParallelRunner(parallel_database,
                           table2(backend_options={"path": path})).run()

    def test_mismatched_existing_storage_refused(self, parallel_database,
                                                 tmp_path):
        from repro.backends import SQLiteBackend
        from repro.store.serializer import StoredObject
        path = str(tmp_path / "stale.db")
        stale = SQLiteBackend(path=path, journal_mode="WAL")
        stale.bulk_load([StoredObject(oid=1, cid=1, filler=4)])
        stale.close()
        with pytest.raises(WorkloadError, match="mismatched"):
            ParallelRunner(parallel_database,
                           table2(backend_options={"path": path})).run()


class TestParallelReport:
    """A process run returns the ScenarioReport an in-process run does."""

    @pytest.fixture(scope="class")
    def report(self, parallel_database):
        return ParallelRunner(parallel_database, table2()).run()

    def test_folds_into_multiuser_shape(self, report):
        assert report.client_count == PARAMS.clients
        assert report.backend_name == "sqlite"
        assert report.scenario_name == "ocb-transactions"
        merged = report.merged_warm.transactions()
        assert merged.operation_count == PARAMS.clients * PARAMS.hot_n
        assert merged.totals.objects == sum(
            client.warm.transactions().totals.objects
            for client in report.clients)

    def test_merged_percentiles_cover_every_transaction(self, report):
        warm = report.merged_warm.transactions().wall_percentiles()
        assert warm.count == PARAMS.clients * PARAMS.hot_n
        assert 0.0 < warm.p50 <= warm.p95 <= warm.p99
        assert report.merged_cold.transactions().operation_count == \
            PARAMS.clients * PARAMS.cold_n

    def test_throughput(self, report):
        assert report.total_operations == \
            PARAMS.clients * (PARAMS.cold_n + PARAMS.hot_n)
        assert report.throughput > 0.0

    def test_contention_counters_aggregate(self, report):
        """Each client carries its own engine's stats; the report sums
        the counters over clients."""
        for name in ENGINE_COUNTERS:
            assert getattr(report, name) == sum(
                client.engine_stats.get(name, 0)
                for client in report.clients)
        assert report.sql_round_trips > 0
        assert report.records_decoded > 0
        assert report.busy_wait_seconds >= 0.0
