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
from repro.parallel.spec import WorkerSpec, WorkerResult

__all__ = ["run_worker"]


def run_worker(spec: WorkerSpec) -> WorkerResult:
    """Execute one client's cold/warm protocol; return its metrics."""
    setup_start = time.perf_counter()
    backend_options = dict(spec.backend_options)
    if spec.home_shard is not None:
        # Sharded engines open this worker's connection set home-shard
        # first and account remote_reads/remote_writes against it.
        backend_options.setdefault("home_shard", spec.home_shard)
    session = Session.for_database(
        spec.database, spec.backend,
        store_config=spec.store_config,
        backend_options=backend_options,
        batch=spec.batch,
        load=not spec.shared)
    if trace.enabled:
        trace.emit("worker.setup", time.perf_counter() - setup_start,
                   client=spec.client_id, shared=spec.shared)
    partitioned = spec.parameters.clients > 1 and spec.mix.mutates
    executor = ClientExecutor(
        spec.database, spec.mix, session,
        client_id=spec.client_id,
        total_clients=spec.parameters.clients,
        seed=spec.parameters.seed,
        partitioned=partitioned,
        # Mutating clients of one shared engine must survive reading
        # or writing back rows a concurrent client deleted; private
        # replicas cannot conflict, so the flag only bites when shared.
        tolerate_conflicts=partitioned and spec.shared)
    setup_seconds = time.perf_counter() - setup_start
    cold = ScenarioCollector("cold")
    warm = ScenarioCollector("warm")
    late_starts = 0
    max_backlog = 0
    run_start = time.perf_counter()
    for _ in range(spec.parameters.cold_n):
        executor.step(cold)
    if spec.rate is None:
        for _ in range(spec.parameters.hot_n):
            executor.step(warm)
    else:
        # Open-loop warm phase: this worker paces its share of the
        # offered rate on its own seeded arrival lane and records
        # intended-arrival latency (see repro.core.loadgen).
        from repro.core.loadgen import ArrivalSchedule, pace
        from repro.obs.latency import LatencyCollector
        from repro.rand.lewis_payne import DEFAULT_SEED
        schedule = ArrivalSchedule(
            rate=spec.rate, operations=spec.parameters.hot_n,
            mode=spec.arrival_mode,
            seed=(spec.parameters.seed
                  if spec.parameters.seed is not None
                  else DEFAULT_SEED),
            stream=spec.client_id)
        latency = LatencyCollector()
        pace(schedule.offsets(), lambda index: executor.step(warm),
             latency)
        late_starts = latency.late_starts
        max_backlog = latency.max_backlog
    wall_seconds = time.perf_counter() - run_start

    stats = session.store.stats()
    session.close()
    busy_retries = int(stats.get("busy_retries", 0) or 0)
    busy_wait = float(stats.get("busy_wait_seconds", 0.0) or 0.0)
    report = ClientScenarioReport(
        client_id=spec.client_id,
        cold=cold.phase, warm=warm.phase,
        read_misses=executor.read_misses,
        write_conflicts=executor.write_conflicts,
        busy_retries=busy_retries,
        busy_wait_seconds=busy_wait,
        remote_reads=int(stats.get("remote_reads", 0) or 0),
        pid=os.getpid(),
        wall_seconds=wall_seconds,
        late_starts=late_starts,
        max_backlog=max_backlog)
    return WorkerResult(
        client_id=spec.client_id,
        pid=os.getpid(),
        report=report,
        wall_seconds=wall_seconds,
        setup_seconds=setup_seconds,
        busy_retries=busy_retries,
        busy_wait_seconds=busy_wait,
        backend_stats=stats)
