"""ParallelRunner: determinism vs the in-process runner, report shape.

The subsystem's contract is pinned here: a process-parallel run produces
byte-identical *logical* metrics (per-client transaction mix, objects
visited, truncations) to the in-process
:class:`~repro.multiuser.runner.MultiClientRunner` on the same seed —
for a shared SQLite file and for per-worker simulated replicas alike.
"""

from __future__ import annotations

import dataclasses
import glob
import os

import pytest

from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.presets import default_database_parameters
from repro.core.scenario import MixEntry, Scenario, ScenarioRunner, \
    WorkloadMix
from repro.errors import WorkloadError
from repro.multiuser.runner import MultiClientRunner, MultiUserReport
from repro.parallel import ParallelConfig, ParallelRunner

PARAMS = WorkloadParameters(clients=3, cold_n=2, hot_n=8,
                            set_depth=2, simple_depth=2,
                            hierarchy_depth=2, stochastic_depth=5,
                            max_visits=150)

#: Config used throughout: small busy budget, platform start method.
CONFIG = ParallelConfig(busy_timeout_ms=2000)


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
        for phase in (report.cold, report.warm):
            for kind, stats in sorted(phase.per_kind.items()):
                signature.append((phase.name, kind.value, stats.count,
                                  stats.visits, stats.distinct_objects,
                                  stats.truncated))
    return tuple(signature)


class TestDeterminism:
    @pytest.mark.parametrize("backend", ["sqlite", "simulated"])
    def test_parallel_equals_in_process(self, parallel_database, backend):
        parallel = ParallelRunner(parallel_database, backend, PARAMS,
                                  config=CONFIG).run()
        runner = MultiClientRunner(parallel_database, backend, PARAMS)
        in_process = runner.run()
        close = getattr(runner.store, "close", None)
        if close is not None:
            close()
        assert _logical_signature([w.report for w in parallel.workers]) \
            == _logical_signature(in_process.clients)

    def test_sequential_fallback_equals_parallel(self, parallel_database):
        """parallel=False runs the same specs in-process — same metrics."""
        contended = ParallelRunner(parallel_database, "sqlite", PARAMS,
                                   config=CONFIG).run()
        sequential = ParallelRunner(
            parallel_database, "sqlite", PARAMS,
            config=ParallelConfig(busy_timeout_ms=2000,
                                  parallel=False)).run()
        assert sequential.executed_parallel is False
        assert _logical_signature([w.report for w in contended.workers]) \
            == _logical_signature([w.report for w in sequential.workers])

    def test_worker_zero_independent_of_width(self, parallel_database):
        """Client 0's substream never sees the other processes, so its
        logical metrics are the same at every sweep width."""
        signatures = set()
        for clients in (1, PARAMS.clients):
            params = dataclasses.replace(PARAMS, clients=clients)
            report = ParallelRunner(parallel_database, "sqlite", params,
                                    config=CONFIG).run()
            signatures.add(_logical_signature([report.workers[0].report]))
        assert len(signatures) == 1

    def test_repeated_runs_identical(self, parallel_database):
        first = ParallelRunner(parallel_database, "sqlite", PARAMS,
                               config=CONFIG).run()
        second = ParallelRunner(parallel_database, "sqlite", PARAMS,
                                config=CONFIG).run()
        assert _logical_signature([w.report for w in first.workers]) \
            == _logical_signature([w.report for w in second.workers])


class TestExecutionModes:
    def test_sqlite_runs_shared_with_wal(self, parallel_database):
        report = ParallelRunner(parallel_database, "sqlite", PARAMS,
                                config=CONFIG).run()
        assert report.mode == "shared"
        assert report.worker_count == PARAMS.clients
        for worker in report.workers:
            assert worker.backend_stats["journal_mode"] == "wal"
            assert worker.backend_stats["busy_timeout_ms"] == 2000

    def test_workers_ran_as_distinct_processes(self, parallel_database):
        report = ParallelRunner(parallel_database, "sqlite", PARAMS,
                                config=CONFIG).run()
        if report.executed_parallel:
            pids = {worker.pid for worker in report.workers}
            assert os.getpid() not in pids
            assert len(pids) == PARAMS.clients

    def test_simulated_runs_replicated(self, parallel_database):
        report = ParallelRunner(parallel_database, "simulated", PARAMS,
                                config=CONFIG).run()
        assert report.mode == "replicated"
        # Cost-model engines keep their simulated counters in parallel
        # (the small database is fully buffer-resident, so the evidence
        # is buffer traffic, not page faults).
        totals = report.merged_warm.totals
        assert totals.buffer_hits + totals.buffer_misses > 0

    def test_memory_runs_replicated(self, parallel_database):
        report = ParallelRunner(parallel_database, "memory", PARAMS,
                                config=CONFIG).run()
        assert report.mode == "replicated"
        assert report.total_transactions == \
            PARAMS.clients * (PARAMS.cold_n + PARAMS.hot_n)

    def test_explicit_path_is_kept_and_loaded_once(self, parallel_database,
                                                   tmp_path):
        path = str(tmp_path / "explicit.db")
        report = ParallelRunner(
            parallel_database, "sqlite", PARAMS, config=CONFIG,
            backend_options={"path": path}).run()
        assert report.mode == "shared"
        assert os.path.exists(path)
        # A second run attaches to the existing file instead of reloading.
        again = ParallelRunner(
            parallel_database, "sqlite", PARAMS, config=CONFIG,
            backend_options={"path": path}).run()
        assert again.total_transactions == report.total_transactions

    def test_temp_storage_is_cleaned_up(self, parallel_database):
        import tempfile
        before = set(glob.glob(os.path.join(tempfile.gettempdir(),
                                            "ocb-parallel-*")))
        ParallelRunner(parallel_database, "sqlite", PARAMS,
                       config=CONFIG).run()
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
            parallel_database, "sqlite", PARAMS,
            config=ParallelConfig(busy_timeout_ms=2000,
                                  start_method="fork"))
        with pytest.raises(Exception):
            runner.run()
        assert len(created) == 1
        assert not os.path.exists(created[0])

    def test_memory_path_falls_back_to_replicated(self, parallel_database):
        report = ParallelRunner(
            parallel_database, "sqlite", PARAMS, config=CONFIG,
            backend_options={"path": ":memory:"}).run()
        assert report.mode == "replicated"

    def test_rejects_backend_instances(self, parallel_database):
        from repro.backends import MemoryBackend
        with pytest.raises(WorkloadError, match="name"):
            ParallelRunner(parallel_database, MemoryBackend(), PARAMS)

    def test_rejects_unknown_backend(self, parallel_database):
        with pytest.raises(WorkloadError, match="unknown backend"):
            ParallelRunner(parallel_database, "teleport", PARAMS).run()

    def test_mistagged_concurrent_backend_fails_loudly(self,
                                                       parallel_database):
        """A backend registered 'concurrent' whose engine cannot share
        storage must fail before any worker spawns, not run workers
        against freshly-created empty replicas."""
        from repro.backends import (
            MemoryBackend,
            register_backend,
            unregister_backend,
        )
        register_backend("mistagged", lambda config, **opts: MemoryBackend(),
                         "claims concurrency it does not implement",
                         capabilities=("concurrent",), overwrite=True)
        try:
            with pytest.raises(WorkloadError,
                               match="supports_concurrent_access"):
                ParallelRunner(parallel_database, "mistagged", PARAMS,
                               config=CONFIG).run()
        finally:
            unregister_backend("mistagged")

    def test_stale_same_size_storage_refused(self, parallel_database,
                                             tmp_path):
        """A file with the right object *count* but different content
        (another seed) must be refused, not silently benchmarked."""
        other_params = DatabaseParameters(num_classes=6, max_nref=4,
                                          base_size=25, num_objects=220,
                                          num_ref_types=4, seed=2024)
        other, _ = generate_database(other_params)
        path = str(tmp_path / "seeded.db")
        ParallelRunner(other, "sqlite", PARAMS, config=CONFIG,
                       backend_options={"path": path}).run()
        with pytest.raises(WorkloadError, match="stale"):
            ParallelRunner(parallel_database, "sqlite", PARAMS,
                           config=CONFIG,
                           backend_options={"path": path}).run()

    def test_mismatched_existing_storage_refused(self, parallel_database,
                                                 tmp_path):
        from repro.backends import SQLiteBackend
        from repro.store.serializer import StoredObject
        path = str(tmp_path / "stale.db")
        stale = SQLiteBackend(path=path, journal_mode="WAL")
        stale.bulk_load([StoredObject(oid=1, cid=1, filler=4)])
        stale.close()
        with pytest.raises(WorkloadError, match="mismatched"):
            ParallelRunner(parallel_database, "sqlite", PARAMS,
                           config=CONFIG,
                           backend_options={"path": path}).run()


class TestParallelReport:
    @pytest.fixture(scope="class")
    def report(self, parallel_database):
        return ParallelRunner(parallel_database, "sqlite", PARAMS,
                              config=CONFIG).run()

    def test_folds_into_multiuser_shape(self, report):
        multiuser = report.to_multiuser()
        assert isinstance(multiuser, MultiUserReport)
        assert multiuser.client_count == PARAMS.clients
        assert multiuser.backend_name == "sqlite"
        assert multiuser.merged_warm.transaction_count == \
            PARAMS.clients * PARAMS.hot_n

    def test_merged_percentiles_cover_every_transaction(self, report):
        warm = report.warm_wall_percentiles
        assert warm.count == PARAMS.clients * PARAMS.hot_n
        assert 0.0 < warm.p50 <= warm.p95 <= warm.p99
        cold = report.cold_wall_percentiles
        assert cold.count == PARAMS.clients * PARAMS.cold_n

    def test_per_worker_percentiles(self, report):
        for index in range(report.worker_count):
            wall = report.worker_wall_percentiles(index)
            assert wall.count == PARAMS.hot_n

    def test_throughput_and_describe(self, report):
        assert report.total_transactions == \
            PARAMS.clients * (PARAMS.cold_n + PARAMS.hot_n)
        assert report.throughput > 0.0
        text = report.describe()
        assert "workers" in text and "busy retries" in text

    def test_contention_counters_aggregate(self, report):
        assert report.busy_retries == \
            sum(worker.busy_retries for worker in report.workers)
        assert report.busy_wait_seconds >= 0.0


def test_run_processes_accepts_lazy_scenarios(tmp_path):
    """Lazy scenarios run as processes: the flag rides the WorkerSpec
    and the merged report carries the avoided decodes."""
    database, _ = generate_database(
        default_database_parameters(scale=0.02, seed=11))
    scenario = Scenario(
        mix=WorkloadMix(name="walk", entries=(
            MixEntry("structure_traversal", weight=1.0, depth=4),)),
        clients=2, cold_ops=1, warm_ops=6, seed=11, lazy=True,
        backend="sqlite",
        backend_options={"path": str(tmp_path / "walk.db"),
                         "ref_index": True})
    # Sequential fallback: same specs and worker code path, no fork —
    # deterministic in CI while still exercising the spec plumbing.
    report = ScenarioRunner(database, scenario).run_processes(
        config=ParallelConfig(parallel=False))
    assert report.decodes_avoided > 0
    assert report.records_decoded == 0
    assert report.total_operations == 2 * 7
