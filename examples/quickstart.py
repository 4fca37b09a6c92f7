#!/usr/bin/env python
"""Quickstart: generate an OCB database, run the workload, read the report.

This is the three-step loop every other example elaborates:

1. pick parameters (here: the paper's Table 1/2 defaults, scaled down so
   the script finishes in seconds),
2. ``OCBBenchmark.setup()`` — run the Fig. 2 generation algorithm and
   bulk-load the object graph into the Texas-like store,
3. ``run()`` — execute the cold/warm protocol and print the metrics the
   paper defines: response time, objects accessed and I/Os, per
   transaction type.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import OCBBenchmark, StoreConfig
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
)
from repro.reporting.tables import render_table


def main() -> None:
    database_parameters = default_database_parameters(scale=0.1)  # 2000 objects
    workload_parameters = default_workload_parameters(scale=0.02)  # 20 + 200 txns

    benchmark = OCBBenchmark(
        database_parameters,
        workload_parameters,
        StoreConfig(buffer_pages=128),   # ~0.5 MB of cache over a ~2 MB DB.
        initial_placement="sequential")

    database = benchmark.setup()
    print("Generated:", database.statistics().describe())
    print()

    result = benchmark.run()
    print(result.describe())
    print()
    print(render_table(
        ["kind", "n", "objects/txn", "reads/txn", "IOs/txn", "t_sim/txn (s)"],
        result.report.warm.kind_rows(),
        title="Warm-run metrics per transaction type",
        precision=3))


if __name__ == "__main__":
    main()
