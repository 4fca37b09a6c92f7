"""Buffer pool tests: hits/misses, eviction policies, write-back."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, StorageError
from repro.store.buffer import BufferPool, ReplacementPolicy
from repro.store.disk import SimulatedDisk

PAGE = 64


def make_pool(capacity=3, policy=ReplacementPolicy.LRU, on_evict=None):
    disk = SimulatedDisk(page_size=PAGE)
    return BufferPool(disk, capacity, policy, on_evict=on_evict), disk


class TestBasics:
    def test_first_access_is_miss(self):
        pool, _ = make_pool()
        assert pool.access(0) is False
        assert pool.stats.misses == 1

    def test_second_access_is_hit(self):
        pool, _ = make_pool()
        pool.access(0)
        assert pool.access(0) is True
        assert pool.stats.hits == 1

    def test_capacity_never_exceeded(self):
        pool, _ = make_pool(capacity=3)
        for pid in range(10):
            pool.access(pid)
            assert len(pool) <= 3

    def test_miss_reads_disk(self):
        pool, disk = make_pool()
        pool.access(7)
        assert disk.stats.reads == 1

    def test_hit_does_not_read_disk(self):
        pool, disk = make_pool()
        pool.access(7)
        pool.access(7)
        assert disk.stats.reads == 1

    def test_accesses_and_hit_ratio(self):
        pool, _ = make_pool()
        pool.access(0)
        pool.access(0)
        pool.access(1)
        assert pool.stats.accesses == 3
        assert pool.stats.hit_ratio == pytest.approx(1 / 3)

    def test_rejects_zero_capacity(self):
        disk = SimulatedDisk(page_size=PAGE)
        with pytest.raises(ParameterError):
            BufferPool(disk, 0)

    def test_hit_on_absent_page_accounts_nothing(self):
        pool, disk = make_pool()
        assert pool.hit(3) is None
        assert pool.stats.accesses == 0
        assert disk.stats.reads == 0

    def test_fault_then_hit_return_the_page(self):
        pool, disk = make_pool()
        disk.poke(3, b"\x07" * PAGE)
        assert pool.fault(3) == b"\x07" * PAGE
        assert pool.hit(3) == b"\x07" * PAGE
        assert (pool.stats.misses, pool.stats.hits) == (1, 1)

    def test_contains_and_resident(self):
        pool, _ = make_pool()
        pool.access(4)
        assert 4 in pool
        assert pool.is_resident(4)
        assert pool.resident_pages() == {4}


class TestLRU:
    def test_evicts_least_recently_used(self):
        pool, _ = make_pool(capacity=2, policy=ReplacementPolicy.LRU)
        pool.access(0)
        pool.access(1)
        pool.access(0)      # 1 is now the LRU victim.
        pool.access(2)
        assert pool.resident_pages() == {0, 2}

    def test_eviction_counter(self):
        pool, _ = make_pool(capacity=1)
        pool.access(0)
        pool.access(1)
        assert pool.stats.evictions == 1


class TestFIFO:
    def test_evicts_in_load_order(self):
        pool, _ = make_pool(capacity=2, policy=ReplacementPolicy.FIFO)
        pool.access(0)
        pool.access(1)
        pool.access(0)      # Touch does NOT save 0 under FIFO.
        pool.access(2)
        assert pool.resident_pages() == {1, 2}


class TestMRU:
    def test_evicts_most_recently_used(self):
        pool, _ = make_pool(capacity=2, policy=ReplacementPolicy.MRU)
        pool.access(0)
        pool.access(1)      # 1 is MRU.
        pool.access(2)
        assert pool.resident_pages() == {0, 2}


class TestClock:
    def test_second_chance(self):
        pool, _ = make_pool(capacity=2, policy=ReplacementPolicy.CLOCK)
        pool.access(0)
        pool.access(1)
        pool.access(0)      # Reference bit of 0 set again.
        pool.access(2)      # Sweep clears bits; evicts an unreferenced frame.
        assert len(pool) == 2
        assert 2 in pool

    def test_all_referenced_falls_back(self):
        pool, _ = make_pool(capacity=3, policy=ReplacementPolicy.CLOCK)
        for pid in range(3):
            pool.access(pid)
        for pid in range(3):
            pool.access(pid)  # Everything referenced.
        pool.access(99)
        assert 99 in pool
        assert len(pool) == 3


class TestDirtyWriteback:
    def test_dirty_page_written_on_eviction(self):
        pool, disk = make_pool(capacity=1)
        pool.access(0, dirty=True)
        pool.access(1)
        assert disk.stats.writes == 1
        assert pool.stats.dirty_writebacks == 1

    def test_clean_page_not_written(self):
        pool, disk = make_pool(capacity=1)
        pool.access(0)
        pool.access(1)
        assert disk.stats.writes == 0

    def test_flush_writes_only_dirty(self):
        pool, disk = make_pool(capacity=3)
        pool.access(0, dirty=True)
        pool.access(1)
        pool.access(2, dirty=True)
        assert pool.flush() == 2
        assert disk.stats.writes == 2
        assert pool.flush() == 0  # Now clean.

    def test_patch_marks_dirty_and_applies(self):
        pool, disk = make_pool()
        pool.patch(0, 4, b"\xAB\xCD")
        data = pool.peek_data(0)
        assert data[4:6] == b"\xAB\xCD"
        pool.flush()
        assert disk.peek(0)[4:6] == b"\xAB\xCD"

    def test_patch_bounds_checked(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError):
            pool.patch(0, PAGE - 1, b"\x00\x00")

    def test_update_data_validates_length(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError):
            pool.update_data(0, b"short")

    def test_clear_flushes_by_default(self):
        pool, disk = make_pool()
        pool.access(0, dirty=True)
        pool.clear()
        assert disk.stats.writes == 1
        assert len(pool) == 0

    def test_clear_can_discard(self):
        pool, disk = make_pool()
        pool.access(0, dirty=True)
        pool.clear(write_dirty=False)
        assert disk.stats.writes == 0


class TestInstallPage:
    def test_install_avoids_disk_read(self):
        pool, disk = make_pool()
        pool.install_page(9)
        assert disk.stats.reads == 0
        assert 9 in pool

    def test_install_existing_rejected(self):
        pool, _ = make_pool()
        pool.access(1)
        with pytest.raises(StorageError):
            pool.install_page(1)

    def test_install_respects_capacity(self):
        pool, _ = make_pool(capacity=2)
        pool.access(0)
        pool.access(1)
        pool.install_page(2)
        assert len(pool) == 2

    def test_install_with_data(self):
        pool, _ = make_pool()
        payload = b"\x07" * PAGE
        pool.install_page(3, payload)
        assert pool.peek_data(3) == payload

    def test_install_validates_length(self):
        pool, _ = make_pool()
        with pytest.raises(StorageError):
            pool.install_page(3, b"nope")


class TestEvictionCallback:
    def test_callback_invoked_with_page_id(self):
        evicted = []
        pool, _ = make_pool(capacity=1, on_evict=evicted.append)
        pool.access(0)
        pool.access(1)
        assert evicted == [0]

    def test_clear_invokes_callback(self):
        evicted = []
        pool, _ = make_pool(capacity=3, on_evict=evicted.append)
        pool.access(0)
        pool.access(1)
        pool.clear()
        assert sorted(evicted) == [0, 1]


class TestStatsInvariants:
    @settings(max_examples=50, deadline=None)
    @given(accesses=st.lists(st.integers(min_value=0, max_value=9),
                             min_size=1, max_size=200),
           capacity=st.integers(min_value=1, max_value=5),
           policy=st.sampled_from(list(ReplacementPolicy)))
    def test_hits_plus_misses_equals_accesses(self, accesses, capacity, policy):
        pool, _ = make_pool(capacity=capacity, policy=policy)
        for pid in accesses:
            pool.access(pid)
        assert pool.stats.hits + pool.stats.misses == len(accesses)
        assert len(pool) <= capacity
        assert pool.stats.evictions == pool.stats.misses - len(pool)
