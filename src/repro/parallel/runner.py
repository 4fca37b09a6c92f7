"""The process-parallel coordinator: CLIENTN clients, CLIENTN processes.

OCB's original implementation "also supports multiple users, in a very
simple way (using processes)".  :class:`ParallelRunner` is that
capability rebuilt on the backends subsystem: it bulk-loads one shared
engine, hands every client of a :class:`~repro.core.scenario.Scenario`
a :class:`~repro.parallel.spec.WorkerSpec`, and lets a
:class:`~repro.parallel.pool.ProcessPool` run them as real OS processes
— real file locks, real busy retries, real parallel wall-clock.  Each
worker returns its client's
:class:`~repro.core.scenario.ClientScenarioReport`, carrying the stats
of the engine connection it drove; together they make the run's
:class:`~repro.core.scenario.ScenarioReport`, the report an in-process
run gives too.

Two execution modes, chosen per backend:

* **shared** — the backend declares the ``concurrent`` capability
  (SQLite on a file, or a directory of shard files).  The coordinator
  creates the storage with the scenario's ``backend_options`` (the
  multi-writer settings of
  :func:`~repro.backends.sqlite.multi_writer_options` fill in what they
  leave unset), bulk-loads the database through the engine's own
  ``bulk_load``, closes its own connection, and every worker opens an
  independent connection to the same storage;
* **replicated** — the engine's state lives in process memory
  (simulated, memory, ``:memory:`` SQLite).  Every worker bulk-loads a
  private replica; the logical metrics are still exactly those of the
  in-process :meth:`~repro.core.scenario.ScenarioRunner.run`, which is
  the determinism bridge the test-suite pins.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import shutil
import tempfile
import time
from typing import Iterator, Dict, Optional

from repro.backends import create_backend
from repro.backends.registry import backend_info
from repro.backends.sqlite import multi_writer_options
from repro.core.database import OCBDatabase
from repro.core.scenario import Scenario, ScenarioReport
from repro.errors import BackendError, WorkloadError
from repro.parallel.pool import ProcessPool
from repro.parallel.spec import ParallelConfig, WorkerSpec
from repro.parallel.worker import run_worker

__all__ = ["ParallelRunner"]


def _backend_capabilities(name: str) -> tuple:
    try:
        return backend_info(name).capabilities
    except BackendError as exc:
        raise WorkloadError(str(exc)) from exc


class ParallelRunner:
    """Run a :class:`~repro.core.scenario.Scenario`'s clients as
    concurrent OS processes.

    ``scenario.backend`` must be a registered backend *name* — the
    workers resolve it through the registry on their side of the process
    boundary, so a live engine instance (unpicklable connections and
    all) never has to cross it.
    """

    def __init__(self, database: OCBDatabase, scenario: Scenario,
                 config: Optional[ParallelConfig] = None) -> None:
        if not isinstance(scenario.backend, str):
            raise WorkloadError(
                "ParallelRunner needs a registered backend name; live "
                "engine instances cannot cross a process boundary")
        self.database = database
        self.backend = scenario.backend.strip().lower()
        self.scenario = dataclasses.replace(scenario, backend=self.backend)
        self.config = config or ParallelConfig()
        path = scenario.backend_options.get("path")
        capabilities = _backend_capabilities(self.backend)
        self.shared = ("concurrent" in capabilities and path != ":memory:")
        #: Whether the engine partitions the oid space across shards —
        #: shard count and per-worker home shards only apply then.
        self.sharded = "sharded" in capabilities
        self.shard_count: Optional[int] = None
        if self.sharded:
            # Default to shards == workers: each worker's mutation lane
            # (``oid % clients``) is then exactly its home shard, the
            # alignment that collapses write contention.
            self.shard_count = int(scenario.backend_options.get("shards")
                                   or scenario.clients)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> ScenarioReport:
        """Load, spawn, execute; one report over every worker."""
        with self._storage_options() as options:
            if self.shared:
                self._load_shared(options)
            scenario = dataclasses.replace(self.scenario,
                                           backend_options=options)
            specs = [WorkerSpec(client_id=client,
                                database=self.database,
                                scenario=scenario,
                                shared=self.shared,
                                home_shard=self._home_shard(client))
                     for client in range(scenario.clients)]
            pool = ProcessPool(
                processes=len(specs),
                start_method=self.config.start_method,
                parallel=self.config.parallel)
            started = time.perf_counter()
            clients = pool.map(run_worker, specs)
            elapsed = time.perf_counter() - started
        clients.sort(key=lambda client: client.client_id)
        return ScenarioReport(
            scenario_name=self.scenario.mix.name,
            clients=clients,
            backend_name=self.backend,
            mode="shared" if self.shared else "replicated",
            elapsed_seconds=elapsed,
            executed_parallel=pool.executed_parallel)

    @contextlib.contextmanager
    def _storage_options(self) -> Iterator[Dict[str, object]]:
        """Resolve this run's backend options; guarantee temp cleanup.

        Shared storage gets the multi-writer settings the scenario's
        options leave unset (:func:`multi_writer_options`).  When the
        caller supplied no storage path, the shared database (or shard
        directory) lives in a fresh temp directory for the duration of
        the run.  The context form is what makes teardown
        unconditional: a worker that crashes — or a pool that breaks —
        propagates through ``run()``'s body, and the directory is still
        removed on the way out instead of leaking.
        """
        options = dict(self.scenario.backend_options)
        tempdir: Optional[str] = None
        try:
            if self.shared:
                if self.sharded:
                    options["shards"] = self.shard_count
                if not options.get("path"):
                    tempdir = tempfile.mkdtemp(prefix="ocb-parallel-")
                    options["path"] = (
                        os.path.join(tempdir, "shards") if self.sharded
                        else os.path.join(tempdir, "shared.db"))
                options = multi_writer_options(options)
            yield options
        finally:
            if tempdir is not None:
                shutil.rmtree(tempdir, ignore_errors=True)

    def _home_shard(self, client: int) -> Optional[int]:
        """The affinity shard of *client* — its mutation lane's residue
        class — on a shared sharded engine; ``None`` otherwise."""
        if not (self.sharded and self.shared and self.shard_count):
            return None
        return client % self.shard_count

    def _load_shared(self, options: Dict[str, object]) -> None:
        """Bulk-load the shared storage, validate the contract, disconnect.

        The coordinator's connection is closed before any worker spawns
        so the workers' locks contend only with each other, never with a
        parent connection forked into their address space.  Before that,
        the :meth:`~repro.backends.base.Backend.connect_worker` contract
        is exercised once — if a backend registers the ``concurrent``
        capability without actually supporting independent connections,
        the probe raises :class:`~repro.errors.BackendError` here,
        loudly, instead of spawning workers against storage they cannot
        attach to.
        """
        engine = create_backend(self.backend, **options)
        try:
            if engine.object_count == 0:
                self.database.load_into(engine)
            elif engine.object_count != self.database.num_objects:
                raise WorkloadError(
                    f"shared storage at {options.get('path')!r} holds "
                    f"{engine.object_count} objects but the database has "
                    f"{self.database.num_objects}; refusing to run "
                    f"against mismatched data")
            else:
                self._verify_shared_content(engine, options)
            engine.flush()
            # One probe connection proves workers will be able to attach.
            probe = engine.connect_worker()
            probe.close()
        finally:
            engine.close()

    #: Records spot-checked when attaching to pre-existing storage.
    _CONTENT_SAMPLE = 16

    def _verify_shared_content(self, engine, options: Dict[str, object]
                               ) -> None:
        """Spot-check pre-existing storage against the database.

        A count match alone would accept a file loaded from a different
        seed with the same NO — workers would then traverse one graph
        while reading another's records.  Comparing a deterministic
        sample of stored records (cid, references, filler) against the
        in-memory graph catches that without re-serializing the whole
        database.
        """
        from repro.errors import UnknownObject

        oids = self.database.sorted_oids()
        step = max(1, len(oids) // self._CONTENT_SAMPLE)
        for oid in oids[::step][:self._CONTENT_SAMPLE]:
            expected = self.database.to_record(oid)
            try:
                stored = engine.read_object(oid)
            except UnknownObject:
                stored = None
            if stored != expected:
                raise WorkloadError(
                    f"shared storage at {options.get('path')!r} holds a "
                    f"different database (object {oid} differs); it is "
                    f"stale — delete the file or pass the database it "
                    f"was loaded from")
