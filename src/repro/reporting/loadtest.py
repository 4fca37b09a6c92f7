"""Load-sweep rendering: latency vs offered load, knee, DES validation.

One sweep document (the ``ocb loadtest --json`` object) renders as
three pieces: the per-rate table with the response/service latency
split and the predicted-vs-measured wait columns, an ASCII chart of the
latency-vs-offered-load curve (the hockey stick whose bend is the
knee), and a headline naming the knee rate — or certifying that the
sweep never saturated.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.reporting.figures import render_line_chart
from repro.reporting.tables import render_table

__all__ = ["render_load_sweep", "render_load_chart", "describe_knee",
           "render_load_report"]


def _ordered(cells: Sequence[Mapping[str, object]]
             ) -> List[Mapping[str, object]]:
    return sorted(cells, key=lambda cell: float(cell["offered_rate"]))


def render_load_sweep(cells: Sequence[Mapping[str, object]],
                      title: Optional[str] = None) -> str:
    """One row per offered rate: achieved throughput, latency split,
    backlog accounting and the DES predicted-vs-measured wait pair."""
    if title is None:
        first = _ordered(cells)[0]
        title = (f"Load sweep — scenario {first['scenario']!r} on "
                 f"{first['backend']!r} ({first['arrival_mode']} arrivals)")
    rows: List[List[object]] = []
    for cell in _ordered(cells):
        predicted = cell.get("predicted_wait_mean_ms")
        rows.append([
            float(cell["offered_rate"]),
            float(cell["throughput"]),
            int(cell["operations"]),
            int(cell["late_starts"]),
            int(cell["max_backlog"]),
            float(cell["service_p95_ms"]),
            float(cell["response_p50_ms"]),
            float(cell["response_p95_ms"]),
            float(cell["response_p99_ms"]),
            float(cell["response_p999_ms"]),
            float(cell["wait_mean_ms"]),
            float(predicted) if predicted is not None else "-",
            "knee" if cell.get("knee")
            else ("sat" if cell.get("saturated") else ""),
        ])
    return render_table(
        ["offered (op/s)", "achieved (op/s)", "ops", "late", "backlog",
         "svc P95 (ms)", "resp P50 (ms)", "resp P95 (ms)",
         "resp P99 (ms)", "resp P99.9 (ms)", "wait meas (ms)",
         "wait pred (ms)", ""],
        rows, title=title, precision=2)


def render_load_chart(cells: Sequence[Mapping[str, object]],
                      width: int = 64, height: int = 16) -> str:
    """Response vs service P95 against offered rate — the latency curve
    whose divergence *is* coordinated omission made visible."""
    ordered = _ordered(cells)
    series: Dict[str, List] = {
        "response P95": [(float(cell["offered_rate"]),
                          float(cell["response_p95_ms"]))
                         for cell in ordered],
        "service P95": [(float(cell["offered_rate"]),
                         float(cell["service_p95_ms"]))
                        for cell in ordered],
    }
    return render_line_chart(series, width=width, height=height,
                             title="latency vs offered load",
                             x_label="offered rate (op/s)",
                             y_label="P95 (ms)")


def describe_knee(document: Mapping[str, object]) -> str:
    """One headline line for the sweep's saturation verdict."""
    knee = document.get("knee")
    cells = document["cells"]
    top = max(float(cell["offered_rate"]) for cell in cells)
    if knee is None:
        return (f"no saturation knee up to {top:g} op/s — "
                f"achieved throughput tracked every offered rate")
    return (f"saturation knee at {float(knee):g} op/s "
            f"(achieved throughput diverges / response tail blows up "
            f"at and beyond this offered rate)")


def render_load_report(document: Mapping[str, object]) -> str:
    """Full console rendering of one sweep document."""
    cells = document["cells"]
    parts = [render_load_sweep(cells)]
    if len(cells) > 1:
        parts.extend(["", render_load_chart(cells)])
    parts.extend(["", describe_knee(document)])
    return "\n".join(parts)