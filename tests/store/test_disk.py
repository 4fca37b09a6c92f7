"""Simulated disk accounting tests."""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.store.costs import CostModel, SimClock
from repro.store.disk import DiskStats, SimulatedDisk


@pytest.fixture
def disk():
    return SimulatedDisk(page_size=128)


class TestReadWrite:
    def test_unwritten_page_reads_zero(self, disk):
        assert disk.read_page(5) == b"\x00" * 128
        assert disk.peek(6) == b"\x00" * 128

    def test_written_page_is_returned_as_stored(self, disk):
        payload = bytes(range(128))
        disk.poke(2, payload)
        assert disk.read_page(2) is disk.peek(2)

    def test_write_then_read(self, disk):
        payload = bytes(range(128))
        disk.write_page(3, payload)
        assert disk.read_page(3) == payload

    def test_write_validates_length(self, disk):
        with pytest.raises(StorageError):
            disk.write_page(0, b"short")

    def test_negative_page_id_rejected(self, disk):
        with pytest.raises(StorageError):
            disk.read_page(-1)
        with pytest.raises(StorageError):
            disk.write_page(-2, b"\x00" * 128)

    def test_bad_page_size_rejected(self):
        with pytest.raises(StorageError):
            SimulatedDisk(page_size=0)


class TestAccounting:
    def test_reads_and_writes_counted(self, disk):
        disk.write_page(0, b"\x01" * 128)
        disk.read_page(0)
        disk.read_page(1)
        assert disk.stats.writes == 1
        assert disk.stats.reads == 2
        assert disk.stats.total == 3

    def test_peek_poke_not_counted(self, disk):
        disk.poke(0, b"\x01" * 128)
        assert disk.peek(0) == b"\x01" * 128
        assert disk.stats.total == 0

    def test_clock_advances_on_io(self):
        clock = SimClock()
        cost = CostModel(io_read_time=0.5, io_write_time=1.0)
        disk = SimulatedDisk(64, cost, clock)
        disk.read_page(0)
        assert clock.now == pytest.approx(0.5)
        disk.write_page(0, b"\x00" * 64)
        assert clock.now == pytest.approx(1.5)

    def test_reset_stats(self, disk):
        disk.read_page(0)
        disk.reset_stats()
        assert disk.stats.total == 0

    def test_stats_snapshot_and_subtract(self, disk):
        disk.read_page(0)
        first = disk.stats.snapshot()
        disk.read_page(1)
        disk.write_page(1, b"\x00" * 128)
        delta = disk.stats.snapshot() - first
        assert delta.reads == 1
        assert delta.writes == 1

    def test_snapshot_is_decoupled(self, disk):
        snap = disk.stats.snapshot()
        disk.read_page(0)
        assert snap.reads == 0


class TestIntrospection:
    def test_page_count(self, disk):
        assert disk.page_count == 0
        disk.poke(4, b"\x00" * 128)
        disk.poke(2, b"\x00" * 128)
        assert disk.page_count == 2

    def test_page_ids_sorted(self, disk):
        for pid in (5, 1, 3):
            disk.poke(pid, b"\x00" * 128)
        assert list(disk.page_ids()) == [1, 3, 5]

    def test_drop_all(self, disk):
        disk.poke(0, b"\x01" * 128)
        disk.drop_all()
        assert disk.page_count == 0
        assert disk.peek(0) == b"\x00" * 128
