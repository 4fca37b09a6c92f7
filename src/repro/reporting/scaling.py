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

from repro.core.scenario import ScenarioReport
from repro.reporting.tables import render_table

__all__ = ["ScalingPoint", "summarize_parallel_run",
           "render_scaling_sweep"]


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


def summarize_parallel_run(report: ScenarioReport) -> ScalingPoint:
    """Fold one process-parallel run of the Table 2 mix into a sweep
    row; the latency tails are over its warm transactions."""
    warm = report.merged_warm.transactions().wall_percentiles()
    return ScalingPoint(
        workers=report.client_count,
        backend=report.backend_name,
        mode=report.mode,
        executed_parallel=report.executed_parallel,
        transactions=report.total_operations,
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
