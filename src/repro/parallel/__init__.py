"""Process-parallel execution: real multi-user contention on shared engines.

An in-process :class:`~repro.core.scenario.ScenarioRunner` interleaves
CLIENTN clients round-robin — cache pollution is real, but lock
contention and parallel wall-clock are not.  This subsystem runs the
same CLIENTN clients as real OS processes:

* :class:`~repro.parallel.spec.WorkerSpec` /
  :class:`~repro.parallel.spec.ParallelConfig` — the picklable job
  descriptions that cross the process boundary;
* :func:`~repro.parallel.worker.run_worker` — the worker entry point:
  own connection (shared mode) or own replica (replicated mode), one
  cold/warm run of the spec's :class:`~repro.core.scenario.WorkloadMix`
  on a per-client Lewis–Payne substream;
* :class:`~repro.parallel.pool.ProcessPool` — ordered fan-out with an
  honest sequential fallback;
* :class:`~repro.parallel.runner.ParallelRunner` — the coordinator:
  bulk-load once, spawn CLIENTN workers, merge;
* :class:`~repro.parallel.report.ParallelReport` — merges the workers'
  phases per transaction kind and adds throughput + contention
  accounting.

The determinism contract: a parallel run's per-client *logical* metrics
(operation mix, objects visited) are identical to the in-process
runner's on the same seed — the RNG substreams are keyed by client id,
never by process scheduling.  Mutating mixes make every worker write its
own oid partition of one shared WAL SQLite file, so the busy-retry
accounting has real write-write collisions to count.
``ScenarioRunner.run_processes`` is the high-level entry point; without
an explicit mix, :class:`ParallelRunner` runs the Table 2 transaction
mix.
"""

from repro.parallel.pool import ProcessPool
from repro.parallel.report import ParallelReport
from repro.parallel.runner import ParallelRunner
from repro.parallel.spec import ParallelConfig, WorkerResult, WorkerSpec
from repro.parallel.worker import run_worker

__all__ = [
    "ParallelConfig",
    "ParallelReport",
    "ParallelRunner",
    "ProcessPool",
    "WorkerResult",
    "WorkerSpec",
    "run_worker",
]
