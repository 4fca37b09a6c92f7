"""Scaling-sweep rendering for process-parallel runs.

One :class:`ScalingPoint` per worker count — throughput, speedup over
the single-worker baseline, warm-phase latency tails and the contention
counters — rendered with the same ASCII-table helpers as every other
report, so a worker-count sweep reads like the cross-backend comparison
it sits next to.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import List, Optional, Sequence

from repro.parallel.report import ParallelReport
from repro.reporting.tables import render_table

__all__ = ["ScalingPoint", "summarize_parallel_run",
           "render_scaling_sweep", "render_parallel_workers"]


@dataclass(frozen=True)
class ScalingPoint:
    """One worker count's row in a scaling sweep."""

    workers: int
    backend: str
    mode: str
    executed_parallel: bool
    transactions: int
    elapsed_seconds: float
    throughput: float
    warm_p50_ms: float
    warm_p95_ms: float
    warm_p99_ms: float
    busy_retries: int
    busy_wait_seconds: float

    def to_dict(self) -> dict:
        """A JSON-ready mapping (one ``ocb scale --json`` point)."""
        return asdict(self)


def summarize_parallel_run(report: ParallelReport) -> ScalingPoint:
    """Fold one :class:`ParallelReport` into a sweep row."""
    warm = report.warm_wall_percentiles
    return ScalingPoint(
        workers=report.worker_count,
        backend=report.backend_name,
        mode=report.mode,
        executed_parallel=report.executed_parallel,
        transactions=report.total_transactions,
        elapsed_seconds=report.elapsed_seconds,
        throughput=report.throughput,
        warm_p50_ms=warm.p50 * 1e3,
        warm_p95_ms=warm.p95 * 1e3,
        warm_p99_ms=warm.p99 * 1e3,
        busy_retries=report.busy_retries,
        busy_wait_seconds=report.busy_wait_seconds)


def render_scaling_sweep(points: Sequence[ScalingPoint],
                         title: Optional[str] = None) -> str:
    """The worker-count sweep table; speedup is against the first row.

    The natural sweep starts at one worker, making ``speedup`` the
    parallel-scaling curve a benchmark report quotes.
    """
    if title is None:
        backend = points[0].backend if points else "?"
        title = f"Throughput scaling on {backend!r} (workers sweep)"
    baseline = points[0].throughput if points else 0.0
    rows: List[List[object]] = []
    for point in points:
        speedup = point.throughput / baseline if baseline > 0.0 else 0.0
        rows.append([
            point.workers,
            point.mode if point.executed_parallel
            else f"{point.mode} (sequential!)",
            point.transactions,
            point.elapsed_seconds,
            point.throughput,
            speedup,
            point.warm_p95_ms,
            point.warm_p99_ms,
            point.busy_retries,
        ])
    return render_table(
        ["workers", "mode", "txns", "elapsed (s)", "txn/s", "speedup",
         "P95 (ms)", "P99 (ms)", "busy retries"],
        rows, title=title, precision=3)


def render_parallel_workers(report: ParallelReport,
                            title: Optional[str] = None) -> str:
    """Per-worker breakdown of one parallel run, with the merged row."""
    if title is None:
        title = (f"{report.worker_count} worker processes on "
                 f"{report.backend_name!r} ({report.mode} storage)")
    rows: List[List[object]] = []
    for worker in report.workers:
        warm = worker.report.warm.totals
        wall = worker.report.warm.wall_percentiles()
        rows.append([worker.client_id, worker.pid, warm.count,
                     warm.visits_per_transaction, wall.p50 * 1e3,
                     wall.p95 * 1e3, wall.p99 * 1e3,
                     worker.busy_retries, worker.wall_seconds])
    merged = report.merged_warm.totals
    merged_wall = report.warm_wall_percentiles
    # The merged wall cell sums the workers' protocol walls (same
    # semantics as the column above it); the harness elapsed — spawn,
    # pickling and setup included — is reported by describe().
    rows.append(["all", "-", merged.count, merged.visits_per_transaction,
                 merged_wall.p50 * 1e3, merged_wall.p95 * 1e3,
                 merged_wall.p99 * 1e3, report.busy_retries,
                 sum(worker.wall_seconds for worker in report.workers)])
    return render_table(
        ["worker", "pid", "warm txns", "objects/txn", "P50 (ms)",
         "P95 (ms)", "P99 (ms)", "busy retries", "wall (s)"],
        rows, title=title, precision=3)
