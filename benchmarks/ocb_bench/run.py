"""OCB bench: one seeded command for end-to-end and per-layer numbers.

Run from the root of a checkout::

    python3 benchmarks/ocb_bench/run.py --seed 19980323 --out R.json
    python3 benchmarks/ocb_bench/run.py --workload ocb_txn --seed 7 \\
        --seconds 10 --trace 1 --spans T.jsonl

Each workload runs ``ROUNDS`` rounds; with several workloads the rounds
interleave (round r of every workload before round r+1 of any).  Every
round runs in a fresh child process, one at a time, and ``--seconds`` is
split evenly over a workload's rounds.  The metrics declared in
``BENCHMARK.json`` are printed one per line with their unit; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 1 when a
correctness check fails, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

ROUNDS = 5
#: A round that has not finished after this many seconds is killed.
ROUND_TIMEOUT_S = 120
WORKLOAD_NAMES = ("ocb_txn", "graph_walk", "write_mix", "dstc_recluster")


def _cannot_run(reason: str) -> None:
    print(f"ocb_bench: {reason}", file=sys.stderr)
    raise SystemExit(2)


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _cannot_run(f"no program sources at {SRC}")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        _cannot_run(f"repro imported from {repro.__file__}, not from {SRC}")


def declared_metrics(trace: bool) -> Dict[str, dict]:
    """The metrics BENCHMARK.json declares for a run, keyed by name."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def _run_child(spec: dict) -> dict:
    """One round in a fresh interpreter; waits for it to exit."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--round",
         json.dumps(spec)],
        stdout=subprocess.PIPE, timeout=ROUND_TIMEOUT_S, check=False,
        text=True)
    if proc.returncode != 0:
        _cannot_run(f"round {spec} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _filesystem(path: Path) -> str:
    """The type of the file system holding *path* (Linux only)."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                mount = fields[1]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def host_info(workdir: Path) -> dict:
    from repro.obs.monitor import system_info
    info = system_info()
    kind = _filesystem(workdir)
    return {"cpu_count": info["cpu_count"], "python": info["python"],
            "platform": info["platform"], "git_rev": info["git_rev"],
            "db_filesystem": kind, "tmpfs": kind == "tmpfs"}


def run(workloads: List[str], seed: int, seconds: float, trace: bool,
        spans: str = None) -> dict:
    """All rounds of *workloads*, interleaved; returns the document."""
    import workloads as bench
    workdir = Path(tempfile.mkdtemp(prefix=".ocb_bench-", dir=ROOT))
    if spans:
        Path(spans).write_text("", encoding="utf-8")
    results: Dict[str, List[dict]] = {name: [] for name in workloads}
    try:
        for round_index in range(ROUNDS):
            for name in workloads:
                results[name].append(_run_child({
                    "name": name, "seed": seed, "round_index": round_index,
                    "seconds": seconds / ROUNDS / (2 if trace else 1),
                    "trace": trace, "workdir": str(workdir),
                    "spans_path": spans}))
        host = host_info(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "schema": "ocb-bench/1", "host": host,
        "config": {"seed": seed, "seconds": seconds, "rounds": ROUNDS,
                   "trace": trace},
        "workloads": {name: bench.aggregate(name, results[name])
                      for name in workloads},
    }


def report(document: dict, declared: Dict[str, dict]) -> dict:
    """Print each declared metric with its unit; return the result line."""
    trace = document["config"]["trace"]
    lines: Dict[str, dict] = {}
    for name, summary in document["workloads"].items():
        values = summary["layers"] if trace else summary["metrics"]
        lines[name] = {metric: {"value": values[metric], "unit": spec["unit"]}
                       for metric, spec in declared.items()}
        for metric, entry in lines[name].items():
            print(f"{name:15s} {metric:34s} {entry['value']:14.6g} "
                  f"{entry['unit']}")
        failing = [c for c, ok in summary["checks"].items() if not ok]
        print(f"{name:15s} checks: {'ok' if not failing else failing} "
              f"({summary['attempted']} ops, {summary['failed']} failed; "
              f"{summary['host_fast_ops']} of {summary['measured_ops']} "
              f"measured ops timed on a fast host)")
        for error in summary["errors"][:1]:
            print(error, file=sys.stderr)
    workloads = document["workloads"].values()
    metrics = next(iter(lines.values())) if len(lines) == 1 else lines
    return {"correct": all(s["correct"] for s in workloads),
            "attempted": sum(s["attempted"] for s in workloads),
            "failed": sum(s["failed"] for s in workloads),
            "metrics": metrics}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=WORKLOAD_NAMES,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=19980323)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured seconds per workload, over all rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: re-run the measured ops traced and report "
                             "the per-layer metrics")
    parser.add_argument("--spans", help="with --trace 1, write every span "
                                        "to this JSONL file")
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--round", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _use_checkout_sources()
    if args.round:
        import workloads as bench
        print(json.dumps(bench.run_round(**json.loads(args.round))))
        return 0
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    document = run(args.workload or list(WORKLOAD_NAMES), args.seed,
                   args.seconds, trace, args.spans)
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n",
                                  encoding="utf-8")
    line = report(document, declared)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
