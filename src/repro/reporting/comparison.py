"""Cross-backend comparison rendering.

One :class:`BackendRunSummary` row per engine — the logical workload
numbers (which must match across backends, since the RNG streams and the
object graph are identical), the simulated I/O costs (zero for engines
without a cost model) and the wall-clock latency percentiles that make
real engines comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.metrics import LatencyPercentiles
from repro.core.scenario import ScenarioPhase
from repro.reporting.tables import render_table

__all__ = ["BackendRunSummary", "summarize_backend_run",
           "render_backend_comparison"]


@dataclass(frozen=True)
class BackendRunSummary:
    """Warm-run summary of one backend's execution of the shared workload."""

    backend: str
    transactions: int
    visits_per_transaction: float
    reads_per_transaction: float
    ios_per_transaction: float
    sim_time_per_transaction: float
    wall: LatencyPercentiles
    wall_total_seconds: float


def summarize_backend_run(backend: str,
                          warm: ScenarioPhase) -> BackendRunSummary:
    """Fold the transactions of one backend's warm phase into one table
    row."""
    totals = warm.transactions().totals
    return BackendRunSummary(
        backend=backend,
        transactions=totals.count,
        visits_per_transaction=totals.objects_per_op,
        reads_per_transaction=totals.reads_per_op,
        ios_per_transaction=totals.ios_per_op,
        sim_time_per_transaction=totals.sim_time_per_op,
        wall=totals.wall_percentiles(),
        wall_total_seconds=totals.wall_time)


def render_backend_comparison(
        summaries: Sequence[BackendRunSummary],
        title: str = "Cross-backend comparison (warm run)") -> str:
    """The cross-backend table: simulated costs next to wall-clock tails."""
    rows: List[List[object]] = []
    for s in summaries:
        rows.append([
            s.backend,
            s.transactions,
            s.visits_per_transaction,
            s.reads_per_transaction,
            s.ios_per_transaction,
            s.sim_time_per_transaction,
            s.wall.p50 * 1e3,
            s.wall.p95 * 1e3,
            s.wall.p99 * 1e3,
            s.wall_total_seconds,
        ])
    return render_table(
        ["backend", "n", "objects/txn", "reads/txn", "IOs/txn",
         "t_sim/txn (s)", "P50 (ms)", "P95 (ms)", "P99 (ms)", "wall (s)"],
        rows, title=title, precision=3)
