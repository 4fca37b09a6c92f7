"""Process-parallel execution: real multi-user contention on shared engines.

An in-process :class:`~repro.core.scenario.ScenarioRunner` interleaves
CLIENTN clients round-robin — cache pollution is real, but lock
contention and parallel wall-clock are not.  This subsystem runs the
same CLIENTN clients of a :class:`~repro.core.scenario.Scenario` as real
OS processes:

* :class:`~repro.parallel.spec.WorkerSpec` /
  :class:`~repro.parallel.spec.ParallelConfig` — the picklable job
  description that crosses the process boundary, and the harness knobs;
* :func:`~repro.parallel.worker.run_worker` — the worker entry point:
  own connection (shared mode) or own replica (replicated mode), one
  cold/warm run of the scenario's mix on a per-client Lewis–Payne
  substream, returning the client's
  :class:`~repro.core.scenario.ClientScenarioReport`;
* :class:`~repro.parallel.pool.ProcessPool` — ordered fan-out with an
  honest sequential fallback;
* :class:`~repro.parallel.runner.ParallelRunner` — the coordinator:
  bulk-load once, spawn CLIENTN workers, and return their reports as
  one :class:`~repro.core.scenario.ScenarioReport` (mode ``shared`` or
  ``replicated``), the type every scenario run returns.

The determinism contract: a parallel run's per-client *logical* metrics
(operation mix, objects visited) are identical to the in-process
runner's on the same seed — the RNG substreams are keyed by client id,
never by process scheduling.  Mutating mixes make every worker write its
own oid partition of one shared WAL SQLite file, so the busy-retry
accounting has real write-write collisions to count.
``ScenarioRunner.run_processes`` is the high-level entry point.
"""

from repro.parallel.pool import ProcessPool
from repro.parallel.runner import ParallelRunner
from repro.parallel.spec import ParallelConfig, WorkerSpec
from repro.parallel.worker import run_worker

__all__ = [
    "ParallelConfig",
    "ParallelRunner",
    "ProcessPool",
    "WorkerSpec",
    "run_worker",
]
