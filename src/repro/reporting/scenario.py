"""Scenario-report rendering: per-class breakdowns and per-client tables.

The declarative scenario layer (:mod:`repro.core.scenario`) reports per
*operation class* — the four OCB transaction types and the six generic
operations in one table — plus the per-client contention counters that
only exist once mixes can mutate (busy retries, write conflicts, read
misses).  Rendered with the same ASCII helpers as every other report.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.scenario import ScenarioReport
from repro.reporting.tables import render_table

__all__ = ["render_scenario_classes", "render_scenario_clients",
           "render_scenario_report"]


def render_scenario_classes(report: ScenarioReport,
                            title: Optional[str] = None) -> str:
    """The merged warm phase, one row per operation class."""
    if title is None:
        title = (f"Warm phase per operation class — scenario "
                 f"{report.scenario_name!r} on {report.backend_name!r}")
    return render_table(
        ["class", "n", "objects/op", "t_sim/op (s)", "P50 (ms)",
         "P95 (ms)", "P99 (ms)", "busy retries"],
        report.merged_warm.rows(), title=title, precision=3)


def render_scenario_clients(report: ScenarioReport,
                            title: Optional[str] = None) -> str:
    """Per-client breakdown with the merged row."""
    if title is None:
        title = (f"{report.client_count} clients ({report.mode}) on "
                 f"{report.backend_name!r}")
    rows: List[List[object]] = []
    for client in report.clients:
        warm = client.warm.totals
        wall = client.warm.wall_percentiles()
        rows.append([client.client_id,
                     client.pid if client.pid is not None else "-",
                     warm.count, warm.objects_per_op, warm.reads_per_op,
                     wall.p95 * 1e3,
                     client.busy_retries, client.busy_wait_seconds,
                     client.late_starts, client.max_backlog,
                     client.remote_reads,
                     client.write_conflicts, client.read_misses])
    merged = report.merged_warm.totals
    merged_wall = report.merged_warm.wall_percentiles()
    rows.append(["all", "-", merged.count, merged.objects_per_op,
                 merged.reads_per_op, merged_wall.p95 * 1e3,
                 report.busy_retries,
                 report.busy_wait_seconds, report.late_starts,
                 report.max_backlog,
                 report.remote_reads, report.write_conflicts,
                 report.read_misses])
    return render_table(
        ["client", "pid", "warm ops", "objects/op", "reads/op", "P95 (ms)",
         "busy retries", "busy wait (s)", "late starts", "backlog",
         "remote reads", "write conflicts", "read misses"],
        rows, title=title, precision=3)


def render_scenario_report(report: ScenarioReport) -> str:
    """Full console rendering: class table, client table, headline."""
    return "\n".join([
        render_scenario_classes(report),
        "",
        render_scenario_clients(report),
        "",
        report.describe(),
    ])
