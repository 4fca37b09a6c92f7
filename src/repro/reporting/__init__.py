"""Reporting helpers: ASCII tables, charts, CSV, backend comparisons."""

from repro.reporting.comparison import (
    BackendRunSummary,
    render_backend_comparison,
    summarize_backend_run,
)
from repro.reporting.csvout import rows_to_csv, write_csv
from repro.reporting.scaling import (
    ScalingPoint,
    render_scaling_sweep,
    summarize_parallel_run,
)
from repro.reporting.scenario import (
    render_scenario_classes,
    render_scenario_clients,
    render_scenario_report,
)
from repro.reporting.figures import (
    Series,
    render_line_chart,
    render_series_table,
)
from repro.reporting.loadtest import (
    describe_knee,
    render_load_chart,
    render_load_report,
    render_load_sweep,
)
from repro.reporting.tables import format_cell, render_kv, render_table

__all__ = [
    "format_cell",
    "render_table",
    "render_kv",
    "Series",
    "render_line_chart",
    "render_series_table",
    "rows_to_csv",
    "write_csv",
    "BackendRunSummary",
    "summarize_backend_run",
    "render_backend_comparison",
    "ScalingPoint",
    "summarize_parallel_run",
    "render_scaling_sweep",
    "render_scenario_classes",
    "render_scenario_clients",
    "render_scenario_report",
    "describe_knee",
    "render_load_chart",
    "render_load_report",
    "render_load_sweep",
]
