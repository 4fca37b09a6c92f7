"""The process-parallel coordinator: CLIENTN clients, CLIENTN processes.

OCB's original implementation "also supports multiple users, in a very
simple way (using processes)".  :class:`ParallelRunner` is that
capability rebuilt on the backends subsystem: it bulk-loads one shared
engine, hands every client a :class:`~repro.parallel.spec.WorkerSpec`,
and lets a :class:`~repro.parallel.pool.ProcessPool` run them as real OS
processes — real file locks, real busy retries, real parallel
wall-clock — then folds the results into a
:class:`~repro.parallel.report.ParallelReport`.

Two execution modes, chosen per backend:

* **shared** — the backend declares the ``concurrent`` capability
  (SQLite on a file).  The coordinator creates the file (WAL journal,
  busy-timeout budget from the :class:`ParallelConfig`), bulk-loads the
  database, closes its own connection, and every worker opens an
  independent connection to the same file;
* **replicated** — the engine's state lives in process memory
  (simulated, memory, ``:memory:`` SQLite).  Every worker bulk-loads a
  private replica; the logical metrics are still exactly those of the
  in-process :class:`~repro.multiuser.runner.MultiClientRunner`, which
  is the determinism bridge the test-suite pins.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Dict, Optional

from repro.backends import create_backend
from repro.backends.registry import backend_info
from repro.core.database import OCBDatabase
from repro.core.parameters import WorkloadParameters
from repro.errors import BackendError, WorkloadError
from repro.parallel.pool import ProcessPool
from repro.parallel.report import ParallelReport
from repro.parallel.spec import ParallelConfig, WorkerSpec
from repro.parallel.worker import run_worker
from repro.store.serializer import StoredObject
from repro.store.storage import StoreConfig

__all__ = ["ParallelRunner", "ShardLoadTask", "load_shard"]


def _backend_capabilities(name: str) -> tuple:
    try:
        return backend_info(name).capabilities
    except BackendError as exc:
        raise WorkloadError(str(exc)) from exc


@dataclass
class ShardLoadTask:
    """One shard file's picklable bulk-load job (coordinator fan-out)."""

    path: str
    records: List[StoredObject] = field(default_factory=list)
    page_size: int = 4096
    cache_pages: int = 128
    synchronous: str = "NORMAL"
    journal_mode: str = "WAL"
    busy_timeout_ms: int = 5000
    ref_index: bool = True


def load_shard(task: ShardLoadTask) -> int:
    """Bulk-load one shard file; module-level so every start method can
    ship it to a child process.  Returns the shard's object count."""
    from repro.backends.sqlite import SQLiteBackend

    engine = SQLiteBackend(path=task.path,
                           page_size=task.page_size,
                           cache_pages=task.cache_pages,
                           synchronous=task.synchronous,
                           journal_mode=task.journal_mode,
                           busy_timeout_ms=task.busy_timeout_ms,
                           ref_index=task.ref_index)
    try:
        if engine.object_count == 0:
            engine.bulk_load(task.records)
        return engine.object_count
    finally:
        engine.close()


class ParallelRunner:
    """Run ``parameters.clients`` OCB clients as concurrent OS processes.

    ``backend`` must be a registered backend *name* — the workers
    resolve it through the registry on their side of the process
    boundary, so a live engine instance (unpicklable connections and
    all) never has to cross it.
    """

    def __init__(self, database: OCBDatabase,
                 backend: str,
                 parameters: WorkloadParameters,
                 config: Optional[ParallelConfig] = None,
                 store_config: Optional[StoreConfig] = None,
                 backend_options: Optional[Dict[str, object]] = None,
                 batch: Optional[bool] = None,
                 mix: "Optional[object]" = None,
                 lazy: bool = False) -> None:
        if not isinstance(backend, str):
            raise WorkloadError(
                "ParallelRunner needs a registered backend name; live "
                "engine instances cannot cross a process boundary")
        if parameters.clients < 1:
            raise WorkloadError(f"need >= 1 client, got {parameters.clients}")
        self.database = database
        self.backend = backend.strip().lower()
        self.parameters = parameters
        self.config = config or ParallelConfig()
        self.store_config = store_config
        self.backend_options = dict(backend_options or {})
        self.batch = batch
        #: Optional :class:`~repro.core.scenario.WorkloadMix` — threaded
        #: through every :class:`WorkerSpec` so the workers execute a
        #: declarative scenario (possibly mutating) instead of the
        #: classic read-only transaction protocol.
        self.mix = mix
        #: Decode-free reads for every worker's session (``Scenario.lazy``
        #: threaded across the process boundary).
        self.lazy = bool(lazy)
        path = self.backend_options.get("path")
        capabilities = _backend_capabilities(self.backend)
        self.shared = ("concurrent" in capabilities and path != ":memory:")
        #: Whether the engine partitions the oid space across shards —
        #: shard count and per-worker home shards only apply then.
        self.sharded = "sharded" in capabilities
        if self.config.shards is not None and not self.sharded:
            raise WorkloadError(
                f"ParallelConfig.shards={self.config.shards} was set but "
                f"backend {self.backend!r} does not have the 'sharded' "
                f"capability; drop the knob or pick a sharded engine")
        self.shard_count: Optional[int] = None
        if self.sharded:
            # Default to shards == workers: each worker's mutation lane
            # (``oid % clients``) is then exactly its home shard, the
            # alignment that collapses write contention.
            explicit = self.backend_options.get("shards")
            self.shard_count = int(explicit or self.config.shards
                                   or parameters.clients)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run(self) -> ParallelReport:
        """Load, spawn, execute, merge."""
        with self._storage_options() as options:
            if self.shared:
                self._load_shared(options)
            # An offered rate is a fleet-wide target: each worker paces
            # its even share on its own seeded arrival lane.
            rate_share = (self.config.rate / self.parameters.clients
                          if self.config.rate is not None else None)
            specs = [WorkerSpec(client_id=client,
                                database=self.database,
                                parameters=self.parameters,
                                backend=self.backend,
                                backend_options=options,
                                store_config=self.store_config,
                                shared=self.shared,
                                batch=self.batch,
                                mix=self.mix,
                                home_shard=self._home_shard(client),
                                rate=rate_share,
                                arrival_mode=self.config.arrival_mode,
                                lazy=self.lazy)
                     for client in range(self.parameters.clients)]
            pool = ProcessPool(
                processes=self.config.max_workers or len(specs),
                start_method=self.config.start_method,
                parallel=self.config.parallel)
            started = time.perf_counter()
            results = pool.map(run_worker, specs)
            elapsed = time.perf_counter() - started
        results.sort(key=lambda result: result.client_id)
        return ParallelReport(
            workers=results,
            backend_name=self.backend,
            mode="shared" if self.shared else "replicated",
            elapsed_seconds=elapsed,
            executed_parallel=pool.executed_parallel)

    @contextlib.contextmanager
    def _storage_options(self) -> Iterator[Dict[str, object]]:
        """Resolve this run's backend options; guarantee temp cleanup.

        When the caller supplied no storage path, the shared database
        (or shard directory) lives in a fresh temp directory for the
        duration of the run.  The context form is what makes teardown
        unconditional: a worker that crashes — or a pool that breaks —
        propagates through ``run()``'s body, and the directory is still
        removed on the way out instead of leaking.
        """
        options = dict(self.backend_options)
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
                options.setdefault("journal_mode", self.config.journal_mode)
                options.setdefault("busy_timeout_ms",
                                   self.config.busy_timeout_ms)
                options.setdefault("synchronous", self.config.synchronous)
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
        the run fails here, loudly, instead of spawning workers against
        storage they cannot attach to.
        """
        engine = create_backend(self.backend, self.store_config, **options)
        try:
            if not getattr(engine, "supports_concurrent_access", False):
                raise WorkloadError(
                    f"backend {self.backend!r} is registered with the "
                    f"'concurrent' capability but the engine does not "
                    f"declare supports_concurrent_access; fix the "
                    f"registration or implement connect_worker")
            if engine.object_count == 0:
                if self.sharded and getattr(engine, "shards", 1) > 1:
                    self._load_shards_parallel(engine)
                else:
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

    def _load_shards_parallel(self, engine) -> None:
        """Bulk-load the shard files concurrently, one process per shard.

        The coordinator partitions the serialized records by the
        engine's own shard function and ships one
        :class:`ShardLoadTask` per shard through the same
        :class:`ProcessPool` the workers will use (honest sequential
        fallback included), so load time scales with the slowest shard
        instead of the whole database.
        """
        records = self.database.to_records()
        partitions: List[List[StoredObject]] = [[] for _ in
                                                range(engine.shards)]
        for oid in sorted(records):
            partitions[engine.shard_of(oid)].append(records[oid])
        tasks = [ShardLoadTask(path=engine.shard_path(shard),
                               records=partitions[shard],
                               page_size=engine.page_size,
                               cache_pages=engine.cache_pages,
                               synchronous=engine.synchronous,
                               journal_mode=engine.journal_mode,
                               busy_timeout_ms=engine.busy_timeout_ms,
                               ref_index=engine.ref_index)
                 for shard in range(engine.shards)]
        pool = ProcessPool(processes=len(tasks),
                           start_method=self.config.start_method,
                           parallel=self.config.parallel)
        loaded = sum(pool.map(load_shard, tasks))
        if loaded != self.database.num_objects:
            raise WorkloadError(
                f"parallel shard load stored {loaded} objects but the "
                f"database has {self.database.num_objects}")

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
