"""Compare OCB bench result documents, one row per workload and metric.

    python3 benchmarks/ocb_bench/compare.py --base A1.json A2.json A3.json \\
        --head B1.json B2.json B3.json

Each document is one ``run.py --out`` file; ``baseline.json`` counts as
its three runs.  For every workload and every
``end_to_end`` metric of BENCHMARK.json the medians of the two sides are
compared against the metric's bound.  A row reads

* ``unresolved`` when either side's spread (distance between the
  quartiles, as a share of the median) is wider than the bound, unless
  every head value beats every base value;
* ``worse`` / ``better`` when the head median moved by more than the
  bound in the metric's bad / good direction;
* ``unchanged`` otherwise.

A side's spread is taken over its documents when it has two or more,
else over the rounds inside its one document.  Failed operations and
failed correctness checks get rows of their own.  The exit status is 2
when any row reads ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent.parent


def _spread(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _side(documents: Sequence[dict], workload: str, metric: str
          ) -> tuple:
    """(values, spread) of one metric on one side."""
    summaries = [doc["workloads"][workload] for doc in documents]
    values = [s["metrics"][metric] for s in summaries]
    if len(values) >= 2:
        return values, _spread(values)
    return values, _spread([row[metric] for row in summaries[0]["rounds"]])


def compare(base: Sequence[dict], head: Sequence[dict],
            declared: Sequence[dict]) -> List[Dict[str, object]]:
    """One row per (workload, metric) present on both sides."""
    rows: List[Dict[str, object]] = []
    workloads = [w for w in base[0]["workloads"]
                 if all(w in doc["workloads"] for doc in (*base, *head))]
    for workload in workloads:
        for spec in declared:
            metric, bound = spec["name"], spec["bound"]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            base_values, base_spread = _side(base, workload, metric)
            head_values, head_spread = _side(head, workload, metric)
            base_median = statistics.median(base_values)
            head_median = statistics.median(head_values)
            change = sign * (head_median - base_median) / base_median \
                if base_median else 0.0
            spread = max(base_spread, head_spread)
            if spread > bound:
                all_better = max(sign * v for v in head_values) < \
                    min(sign * v for v in base_values)
                verdict = "better" if all_better else "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "unchanged"
            rows.append({"workload": workload, "metric": metric,
                         "base": base_median, "head": head_median,
                         "change": change, "spread": spread,
                         "bound": bound, "verdict": verdict})
        failed = [max(doc["workloads"][workload]["failed"] for doc in side)
                  for side in (base, head)]
        correct = all(doc["workloads"][workload]["correct"] for doc in head)
        rows.append({"workload": workload, "metric": "failed_ops",
                     "base": failed[0], "head": failed[1], "change": 0.0,
                     "spread": 0.0, "bound": 0.0,
                     "verdict": "worse" if failed[1] > failed[0]
                     or not correct else "unchanged"})
    return rows


def _load(paths: Sequence[str]) -> List[dict]:
    """Result documents; a baseline file contributes each of its ``runs``."""
    documents: List[dict] = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        documents.extend(data["runs"] if "runs" in data else [data])
    return documents


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(_load(args.base), _load(args.head), spec["end_to_end"])
    print(f"{'workload':15s} {'metric':12s} {'base':>12s} {'head':>12s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        print(f"{row['workload']:15s} {row['metric']:12s} "
              f"{row['base']:12.5g} {row['head']:12.5g} "
              f"{row['change']:+8.1%} {row['spread']:7.1%} "
              f"{row['bound']:6.0%}  {row['verdict']}")
    return 2 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
