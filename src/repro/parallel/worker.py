"""The worker-process entry point: one OCB client, one connection.

:func:`run_worker` is deliberately a module-level function of one
picklable argument so every ``multiprocessing`` start method (fork,
spawn, forkserver) can ship it to a child process.  The worker rebuilds
its whole execution stack on its side of the boundary:

* **shared mode** — resolve the backend name through the registry with
  the coordinator's options (the file path, journal mode and busy
  budget), which opens this process's *own* connection to the shared
  storage; attach without loading (``Session.for_database(load=False)``).
* **replicated mode** — build a private engine and bulk-load the
  database into it (simulated / memory engines, whose state cannot be
  shared across processes).

Either way the worker is one scenario client: the pickled database copy
is its private logical view, and its operation stream is drawn from the
same ``client_id``-keyed Lewis–Payne substream an in-process
:class:`~repro.core.scenario.ScenarioRunner` would use, so the logical
metrics are identical by construction — only the wall clock and the
contention counters change.  Mutating mixes partition the oid space by
``client_id`` (see :mod:`repro.core.scenario`); this is how ``ocb
scenario --processes N`` runs read/write mixes against one shared
SQLite file where write-write collisions and busy retries genuinely
occur.
"""

from __future__ import annotations

import os
import time

from repro.core.scenario import ClientExecutor, ClientScenarioReport, \
    ScenarioCollector
from repro.core.session import Session
from repro.obs import trace
from repro.parallel.spec import WorkerSpec

__all__ = ["run_worker"]


def run_worker(spec: WorkerSpec) -> ClientScenarioReport:
    """Execute one client's cold/warm protocol; return its report, which
    carries the stats of the engine connection it drove."""
    setup_start = time.perf_counter()
    scenario = spec.scenario
    backend_options = dict(scenario.backend_options)
    if spec.home_shard is not None:
        # Sharded engines open this worker's connection set home-shard
        # first and account remote_reads/remote_writes against it.
        backend_options.setdefault("home_shard", spec.home_shard)
    session = Session.for_database(
        spec.database, scenario.backend,
        backend_options=backend_options,
        batch=scenario.batch,
        load=not spec.shared)
    try:
        if trace.enabled:
            trace.emit("worker.setup", time.perf_counter() - setup_start,
                       client=spec.client_id, shared=spec.shared)
        executor = ClientExecutor(
            spec.database, scenario.mix, session,
            client_id=spec.client_id,
            total_clients=scenario.clients,
            seed=scenario.seed,
            partitioned=scenario.partitioned,
            # Mutating clients of one shared engine must survive reading
            # or writing back rows a concurrent client deleted; private
            # replicas cannot conflict, so the flag only bites when
            # shared.
            tolerate_conflicts=scenario.partitioned and spec.shared)
        cold = ScenarioCollector("cold")
        warm = ScenarioCollector("warm")
        for _ in range(scenario.cold_ops):
            executor.step(cold)
        for _ in range(scenario.warm_ops):
            executor.step(warm)
        stats = session.store.stats()
    finally:
        session.close()
    return executor.report(cold, warm, stats, pid=os.getpid())
