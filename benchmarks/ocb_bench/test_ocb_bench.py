"""Tests of the OCB bench itself, on tiny sizes (well under 15 s)."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import run
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def _round(tmp_path, name, trace=False, round_index=0, **kwargs):
    return workloads.run_round(name, seed=5, round_index=round_index,
                               seconds=5.0, trace=trace,
                               sizes=workloads.TINY[name],
                               workdir=str(tmp_path), **kwargs)


def _document(tmp_path, trace):
    return {"config": {"trace": trace}, "workloads": {
        name: workloads.aggregate(name, [
            _round(tmp_path, name, trace, round_index)
            for round_index in range(2)])
        for name in run.WORKLOAD_NAMES}}


@pytest.mark.parametrize("trace", [False, True])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace):
    document = _document(tmp_path, trace)
    line = run.report(document, run.declared_metrics(trace))
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in declared}
    assert line["correct"], document
    assert line["failed"] == 0 and line["attempted"] > 0
    for name in run.WORKLOAD_NAMES:
        metrics = line["metrics"][name]
        assert {k: v["unit"] for k, v in metrics.items()} == expected
        assert all(isinstance(v["value"], float) for v in metrics.values())
    if not trace:
        for name in run.WORKLOAD_NAMES:
            assert all(line["metrics"][name][m]["value"] > 0
                       for m in expected), name


class _DropOneWrite:
    """Engine proxy that silently loses the first record of the
    *drop_at*-th batched write (``None``: loses nothing, counts calls)."""

    def __init__(self, engine, drop_at=None):
        self._engine = engine
        self.drop_at = drop_at
        self.calls = 0

    def write_many(self, records):
        self.calls += 1
        if self.calls == self.drop_at:
            records = records[1:]
        self._engine.write_many(records)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def test_dropped_write_fails_the_read_back_check(tmp_path):
    proxies = []

    def wrap(engine, drop_at=None):
        proxies.append(_DropOneWrite(engine, drop_at))
        return proxies[-1]

    assert _round(tmp_path, "write_mix", wrap_engine=wrap)["checks"] == \
        {"read_back": True, "digest": True}
    # Lose a record of the last batch, so no later write repairs it.
    last = proxies[0].calls
    result = _round(tmp_path, "write_mix",
                    wrap_engine=lambda engine: wrap(engine, last))
    assert proxies[1].calls == last
    assert result["checks"]["read_back"] is False


class _FailingReads:
    """Engine proxy whose every 40th point read raises."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    def read_object(self, oid, lazy=False):
        self.calls += 1
        if self.calls % 40 == 0:
            raise RuntimeError("injected read failure")
        return self._engine.read_object(oid, lazy=lazy)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def test_raising_engine_shows_up_in_error_rate(tmp_path):
    result = _round(tmp_path, "ocb_txn", wrap_engine=_FailingReads)
    sizes = workloads.TINY["ocb_txn"]
    assert result["attempted"] == sizes.cold_ops + sizes.max_warm_ops
    assert result["failed"] > 0
    assert "injected read failure" in result["errors"][0]
    summary = workloads.aggregate("ocb_txn", [result])
    assert summary["metrics"]["error_rate"] == \
        result["failed"] / result["attempted"]


@pytest.mark.parametrize("name", ["ocb_txn", "dstc_recluster"])
def test_traced_self_times_sum_to_op_wall_time(tmp_path, name):
    result = _round(tmp_path, name, trace=True)
    traced = result["layers"]
    assert traced["trace.self_ns"] == traced["trace.root_ns"]
    assert 0.95 <= traced["trace.coverage"] <= 1.0
    shares = sum(traced[f"{layer}.self_share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(100.0)
    # Tracing is undone: the program's own functions are back in place.
    import repro.core.scenario
    import repro.core.transactions
    assert repro.core.scenario.run_transaction is \
        repro.core.transactions.run_transaction


def test_same_seed_gives_same_inputs():
    sizes = workloads.TINY["ocb_txn"]
    first = workloads.build_database(sizes, 11).to_records()
    assert first == workloads.build_database(sizes, 11).to_records()
    assert first != workloads.build_database(sizes, 12).to_records()


def _synthetic(ops_per_s):
    rounds = [{m["name"]: 10.0 for m in DECLARED["end_to_end"]}
              for _ in range(5)]
    for index, row in enumerate(rounds):
        row["ops_per_s"] = ops_per_s * (1 + 0.002 * index)
    metrics = dict(rounds[2])
    return {"workloads": {"ocb_txn": {
        "metrics": metrics, "rounds": rounds, "failed": 0,
        "correct": True}}}


@pytest.mark.parametrize("drop, verdict", [(0.20, "worse"),
                                           (0.05, "unchanged")])
def test_compare_flags_a_20_percent_drop_and_passes_5(drop, verdict):
    base = [_synthetic(1000.0), _synthetic(1001.0), _synthetic(999.0)]
    head = [_synthetic(1000.0 * (1 - drop)) for _ in range(3)]
    rows = {row["metric"]: row for row in
            compare.compare(base, head, DECLARED["end_to_end"])}
    assert rows["ops_per_s"]["verdict"] == verdict
    assert all(row["verdict"] == "unchanged"
               for metric, row in rows.items() if metric != "ops_per_s")
    unresolved = copy.deepcopy(head)
    unresolved[0]["workloads"]["ocb_txn"]["metrics"]["ops_per_s"] *= 2
    rows = compare.compare(base, unresolved, DECLARED["end_to_end"])
    assert rows[0]["verdict"] == "unresolved"


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(HERE.parent.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "ocb_bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmarks/ocb_bench/run.py", "--workload",
         "ocb_txn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 2
    assert "{" not in proc.stdout
