"""Merged results of a process-parallel run.

:class:`ParallelReport` folds the per-worker results into the existing
:class:`~repro.multiuser.runner.MultiUserReport` shape — the same merged
cold/warm phases, the same wall-clock percentiles — so every table and
comparison helper in :mod:`repro.reporting` renders a single-process
interleaved run and a multi-process contended run side by side.  On top
of that shape it adds what only real parallelism has: harness wall-clock
(spawn to join), aggregate throughput, and the contention counters
(busy retries, time spent waiting on locks) the engines accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

from repro.core.metrics import LatencyPercentiles, PhaseReport
from repro.multiuser.runner import MultiUserReport
from repro.parallel.spec import WorkerResult

__all__ = ["ParallelReport"]


@dataclass
class ParallelReport:
    """Per-worker and merged metrics of a process-parallel run."""

    workers: List[WorkerResult] = field(default_factory=list)
    backend_name: str = "sqlite"
    #: ``"shared"`` — every worker drove its own connection to one
    #: engine; ``"replicated"`` — every worker drove a private replica.
    mode: str = "shared"
    #: Harness wall-clock from first spawn to last join (seconds).
    elapsed_seconds: float = 0.0
    #: Whether workers really ran as OS processes (``False`` means the
    #: sequential fallback executed — identical metrics, no parallelism).
    executed_parallel: bool = True

    # -- the MultiUserReport shape --------------------------------------- #

    def to_multiuser(self) -> MultiUserReport:
        """The run folded into the in-process multi-user report shape."""
        return MultiUserReport(
            clients=[worker.report for worker in self.workers],
            backend_name=self.backend_name)

    @property
    def worker_count(self) -> int:
        """Number of worker processes that ran."""
        return len(self.workers)

    # The merged folds walk every transaction sample of every worker, and
    # one rendered report reads them several times — cache the fold (the
    # worker list is append-only during the run and fixed afterwards).

    @cached_property
    def merged_cold(self) -> PhaseReport:
        """All workers' cold runs folded together."""
        return self.to_multiuser().merged_cold

    @cached_property
    def merged_warm(self) -> PhaseReport:
        """All workers' warm runs folded together."""
        return self.to_multiuser().merged_warm

    @cached_property
    def cold_wall_percentiles(self) -> LatencyPercentiles:
        """P50/P95/P99 over every cold transaction of every worker."""
        return self.merged_cold.wall_percentiles()

    @cached_property
    def warm_wall_percentiles(self) -> LatencyPercentiles:
        """P50/P95/P99 over every warm transaction of every worker."""
        return self.merged_warm.wall_percentiles()

    def worker_wall_percentiles(self, index: int) -> LatencyPercentiles:
        """One worker's warm-phase wall-clock percentiles."""
        return self.workers[index].report.warm.wall_percentiles()

    # -- what only real parallelism measures ----------------------------- #

    @property
    def total_transactions(self) -> int:
        """Transactions executed across all workers (cold + warm)."""
        return sum(worker.transactions for worker in self.workers)

    @property
    def throughput(self) -> float:
        """Aggregate transactions per second of harness wall-clock."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.total_transactions / self.elapsed_seconds

    @property
    def busy_retries(self) -> int:
        """Lock collisions retried, summed over all workers."""
        return sum(worker.busy_retries for worker in self.workers)

    @property
    def busy_wait_seconds(self) -> float:
        """Time spent backing off on locks, summed over all workers."""
        return sum(worker.busy_wait_seconds for worker in self.workers)

    @property
    def decodes_avoided(self) -> int:
        """Record decodes skipped by structure-only frontier answers,
        summed over every worker's engine stats."""
        return sum(int((worker.backend_stats or {})
                       .get("decodes_avoided", 0) or 0)
                   for worker in self.workers)

    # -- scenario-mix aggregates (zero for classic read-only runs) ------- #

    @property
    def read_misses(self) -> int:
        """Tolerated reads of rows a concurrent worker deleted."""
        return sum(worker.scenario_report.read_misses
                   for worker in self.workers
                   if worker.scenario_report is not None)

    @property
    def write_conflicts(self) -> int:
        """Tolerated write-backs to rows a concurrent worker deleted."""
        return sum(worker.scenario_report.write_conflicts
                   for worker in self.workers
                   if worker.scenario_report is not None)

    def describe(self) -> str:
        """One line: workers, mode, throughput, contention."""
        mode = self.mode if self.executed_parallel else \
            f"{self.mode}, sequential fallback"
        return (f"{self.worker_count} workers ({mode}) on "
                f"{self.backend_name!r}: {self.total_transactions} txns "
                f"in {self.elapsed_seconds:.3f} s "
                f"({self.throughput:.1f} txn/s), "
                f"{self.busy_retries} busy retries")
