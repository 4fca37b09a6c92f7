"""Merged results of a process-parallel run.

:class:`ParallelReport` folds each worker's
:class:`~repro.core.scenario.ClientScenarioReport` into merged cold/warm
phases per transaction kind (the reports' ``classic`` phases) with
wall-clock percentiles, and adds what only real parallelism has:
harness wall-clock (spawn to join), aggregate throughput, and the
contention counters (busy retries, time spent waiting on locks) the
engines accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List

from repro.core.metrics import LatencyPercentiles, PhaseReport
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

    @property
    def worker_count(self) -> int:
        """Number of worker processes that ran."""
        return len(self.workers)

    # The merged folds walk every transaction sample of every worker, and
    # one rendered report reads them several times — cache the fold (the
    # worker list is append-only during the run and fixed afterwards).

    @cached_property
    def merged_cold(self) -> PhaseReport:
        """All workers' cold runs folded together, per transaction kind."""
        merged = PhaseReport(name="cold")
        for worker in self.workers:
            merged.merge(worker.report.cold.classic)
        return merged

    @cached_property
    def merged_warm(self) -> PhaseReport:
        """All workers' warm runs folded together, per transaction kind."""
        merged = PhaseReport(name="warm")
        for worker in self.workers:
            merged.merge(worker.report.warm.classic)
        return merged

    @cached_property
    def warm_wall_percentiles(self) -> LatencyPercentiles:
        """P50/P95/P99 over every warm transaction of every worker."""
        return self.merged_warm.wall_percentiles()

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
