"""Metrics aggregation tests: the per-class aggregate a phase folds every
transaction into, and the per-transaction-kind view the paper's tables
read from it."""

from __future__ import annotations

import pickle

import pytest

from repro.core.scenario import GenericOperation, OpClassStats, \
    OperationResult, ScenarioCollector, ScenarioPhase
from repro.core.transactions import TransactionKind, TransactionResult
from repro.store.buffer import BufferStats
from repro.store.disk import DiskStats
from repro.store.storage import StoreSnapshot
from repro.store.swizzle import SwizzleStats


def result(kind=TransactionKind.SET, visits=10, distinct=8, truncated=False):
    return TransactionResult(kind=kind, root=1, visits=visits,
                             distinct_objects=distinct, max_depth_reached=2,
                             reverse=False, ref_type=None, truncated=truncated)


def delta(reads=4, writes=1, hits=6, misses=4, accesses=10, sim=0.05):
    return StoreSnapshot(disk=DiskStats(reads=reads, writes=writes),
                         buffer=BufferStats(hits=hits, misses=misses),
                         swizzle=SwizzleStats(),
                         object_accesses=accesses,
                         sim_time=sim)


def kind_stats(*transactions) -> OpClassStats:
    """One kind's aggregate after recording (result, delta, wall)s."""
    collector = ScenarioCollector("warm")
    for entry in transactions:
        collector.record_transaction(*entry)
    (stats,) = collector.per_class.values()
    return stats


class TestKindStats:
    def test_add_accumulates(self):
        stats = kind_stats((result(), delta(), 0.01),
                           (result(visits=20), delta(reads=6), 0.02))
        assert stats.count == 2
        assert stats.objects == 30
        assert stats.distinct_objects == 16
        assert stats.io_reads == 10
        assert (stats.buffer_hits, stats.buffer_misses) == (12, 8)
        assert stats.wall_time == pytest.approx(0.03)

    def test_per_transaction_means(self):
        stats = kind_stats((result(visits=10), delta(reads=4, writes=2), 0.0),
                           (result(visits=20), delta(reads=8, writes=0), 0.0))
        assert stats.reads_per_op == 6.0
        assert stats.ios_per_op == 7.0
        assert stats.objects_per_op == 15.0

    def test_means_zero_when_empty(self):
        stats = OpClassStats(op_class="set")
        assert stats.ios_per_op == 0.0
        assert stats.objects_per_op == 0.0
        assert stats.hit_ratio == 0.0

    def test_hit_ratio(self):
        stats = kind_stats((result(), delta(hits=9, misses=1), 0.0))
        assert stats.hit_ratio == pytest.approx(0.9)

    def test_truncation_counted(self):
        stats = kind_stats((result(truncated=True), delta(), 0.0),
                           (result(), delta(), 0.0))
        assert stats.truncated == 1

    def test_merge(self):
        a = kind_stats((result(), delta(), 0.01))
        b = kind_stats((result(visits=30, truncated=True), delta(reads=10),
                        0.02))
        a.merge(b)
        assert a.count == 2
        assert a.objects == 40
        assert a.io_reads == 14
        assert a.distinct_objects == 16
        assert (a.buffer_hits, a.buffer_misses, a.truncated) == (12, 8, 1)

    def test_generic_operations_add_no_transaction_fields(self):
        collector = ScenarioCollector("warm")
        collector.record_operation(OperationResult(
            GenericOperation.RANGE_LOOKUP, objects_touched=5, io_reads=2,
            io_writes=0, sim_time=0.01, wall_time=0.001))
        stats = collector.per_class["range_lookup"]
        assert (stats.count, stats.objects, stats.io_reads) == (1, 5, 2)
        assert (stats.distinct_objects, stats.buffer_hits,
                stats.buffer_misses, stats.truncated) == (0, 0, 0, 0)


class TestPhaseReport:
    def build(self) -> ScenarioPhase:
        collector = ScenarioCollector("warm")
        collector.record_transaction(result(TransactionKind.SET, visits=10),
                                     delta(reads=5), 0.0)
        collector.record_transaction(
            result(TransactionKind.SIMPLE, visits=4), delta(reads=3), 0.0)
        collector.record_operation(OperationResult(
            GenericOperation.SEQUENTIAL_SCAN, objects_touched=50,
            io_reads=9, io_writes=0, sim_time=0.0, wall_time=0.0))
        collector.record_transaction(result(TransactionKind.SET, visits=20),
                                     delta(reads=7), 0.0)
        return collector.phase

    def test_per_kind_split(self):
        report = self.build().transactions()
        assert report.stats_for("set").count == 2
        assert report.stats_for("simple").count == 1
        assert report.stats_for("hierarchy").count == 0
        assert "sequential_scan" not in report.per_class

    def test_totals(self):
        phase = self.build()
        report = phase.transactions()
        assert phase.operation_count == 4
        assert report.operation_count == 3
        assert report.totals.objects == 34
        assert report.totals.io_reads == 15
        assert report.wall_percentiles().count == 3

    def test_rows_include_all_row(self):
        rows = self.build().kind_rows()
        assert rows[-1] == ("all", 3, 34 / 3, 5.0, 6.0, pytest.approx(0.05))
        # Kind order; kinds that never ran and generic operations have
        # no row.
        assert [row[0] for row in rows] == ["set", "simple", "all"]

    def test_merge_reports(self):
        a, b = self.build(), self.build()
        a.merge(b)
        assert a.transactions().operation_count == 6
        assert a.stats_for("set").count == 4
        assert a.stats_for("set").buffer_hits == 24

    def test_merge_into_empty(self):
        empty = ScenarioPhase(name="cold")
        empty.merge(self.build())
        assert empty.transactions().operation_count == 3


class TestSampleMemory:
    def test_pickled_phase_is_bounded_in_the_transaction_count(self):
        """Past the sample fold threshold a phase stops growing with
        every recorded transaction: workers pickle it home."""
        zero = StoreSnapshot(DiskStats(), BufferStats(), SwizzleStats(), 0,
                             0.0)
        collector = ScenarioCollector("warm")
        sizes = []
        for _ in range(2):
            for i in range(10_000):
                collector.record_transaction(result(), zero,
                                             1e-4 * (1 + i % 97))
            sizes.append(len(pickle.dumps(collector.phase)))
        assert sizes[1] - sizes[0] < 4096, sizes
