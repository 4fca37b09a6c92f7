"""Cross-backend comparison table rendering."""

from __future__ import annotations

from repro.core.metrics import LatencyPercentiles
from repro.core.scenario import OpClassStats, ScenarioCollector, \
    ScenarioPhase
from repro.core.transactions import TransactionKind
from repro.stats import BoundedSample
from repro.reporting import render_backend_comparison, summarize_backend_run
from repro.reporting.comparison import BackendRunSummary


def _warm_with(wall_samples):
    stats = OpClassStats(op_class="set")
    for wall in wall_samples:
        stats.add(objects=10, io_reads=2, io_writes=0, sim_time=0.0,
                  wall_seconds=wall)
    # A generic operation in the phase stays out of the transaction row.
    scan = OpClassStats(op_class="sequential_scan")
    scan.add(objects=99, io_reads=9, io_writes=0, sim_time=0.0,
             wall_seconds=1.0)
    return ScenarioPhase(name="warm", per_class={
        "set": stats, "sequential_scan": scan})


class TestSummarize:
    def test_summary_fields(self):
        warm = _warm_with([0.001, 0.002, 0.003, 0.004])
        summary = summarize_backend_run("sqlite", warm)
        assert summary.backend == "sqlite"
        assert summary.transactions == 4
        assert summary.visits_per_transaction == 10.0
        assert summary.reads_per_transaction == 2.0
        assert summary.wall.count == 4
        assert summary.wall.p50 == 0.0025
        assert summary.wall_total_seconds == 0.01

    def test_empty_report_is_all_zero(self):
        summary = summarize_backend_run("memory", _warm_with([]))
        assert summary.transactions == 0
        assert summary.wall == LatencyPercentiles(0, 0.0, 0.0, 0.0)


class TestRender:
    def test_table_contains_every_backend_and_percentiles(self):
        summaries = [
            summarize_backend_run("memory", _warm_with([0.001] * 5)),
            summarize_backend_run("simulated", _warm_with([0.010] * 5)),
            summarize_backend_run("sqlite", _warm_with([0.005] * 5)),
        ]
        table = render_backend_comparison(summaries)
        for name in ("memory", "simulated", "sqlite"):
            assert name in table
        for header in ("P50 (ms)", "P95 (ms)", "P99 (ms)", "reads/txn"):
            assert header in table

    def test_custom_title(self):
        table = render_backend_comparison(
            [summarize_backend_run("memory", _warm_with([0.001]))],
            title="My comparison")
        assert table.startswith("My comparison")

    def test_milliseconds_scaling(self):
        table = render_backend_comparison(
            [summarize_backend_run("memory", _warm_with([0.002] * 3))])
        assert "2.000" in table  # 0.002 s rendered as 2.000 ms.


class TestLatencyPercentiles:
    def test_from_samples(self):
        samples = [float(i) for i in range(1, 101)]
        wall = LatencyPercentiles.from_samples(BoundedSample(samples))
        assert wall.count == 100
        assert wall.p50 == 50.5
        assert wall.p95 == 95.05
        assert wall.p99 == 99.01

    def test_empty_is_zero(self):
        wall = LatencyPercentiles.from_samples(BoundedSample([]))
        assert wall == LatencyPercentiles(0, 0.0, 0.0, 0.0)

    def test_describe_format(self):
        wall = LatencyPercentiles.from_samples(
            BoundedSample([0.001, 0.002, 0.003]))
        text = wall.describe()
        assert "P50" in text and "P95" in text and "P99" in text
        assert "ms" in text

    def test_collector_accumulates_samples(self, rng):
        from repro.core.transactions import TransactionResult
        from repro.store.storage import StoreSnapshot
        from repro.store.buffer import BufferStats
        from repro.store.disk import DiskStats
        from repro.store.swizzle import SwizzleStats
        collector = ScenarioCollector("warm")
        empty = StoreSnapshot(DiskStats(), BufferStats(), SwizzleStats(), 0,
                              0.0)
        for wall in (0.01, 0.02, 0.03):
            result = TransactionResult(
                kind=TransactionKind.SET, root=1, visits=1,
                distinct_objects=1, max_depth_reached=0, reverse=False,
                ref_type=None, truncated=False)
            collector.record_transaction(result, empty, wall)
        report = collector.phase
        assert report.wall_percentiles().count == 3
        assert report.wall_percentiles().p50 == 0.02
