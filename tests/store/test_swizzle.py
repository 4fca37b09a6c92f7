"""Swizzle table tests."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store.costs import CostModel, SimClock
from repro.store.swizzle import SwizzleStats, SwizzleTable


class _ReferenceSwizzleTable:
    """Oracle: the scan algorithm the pin count replaced.

    An evicted page's objects stay swizzled while any other resident
    bucket holds them, found by scanning every bucket.  Same interface,
    counters and clock charges as :class:`SwizzleTable`.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.clock = clock or SimClock()
        self.stats = SwizzleStats()
        self._addresses: Dict[int, int] = {}
        self._by_page: Dict[int, Set[int]] = {}
        self._next_address = 0x1000_0000

    def swizzle_in(self, page_id: int, oids: Iterable[int]) -> int:
        bucket = self._by_page.setdefault(page_id, set())
        count = 0
        for oid in oids:
            if oid in self._addresses:
                bucket.add(oid)
                continue
            self._addresses[oid] = self._next_address
            self._next_address += 0x10
            bucket.add(oid)
            count += 1
        if count:
            self.stats.swizzled += count
            self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def unswizzle_page(self, page_id: int) -> int:
        bucket = self._by_page.pop(page_id, None)
        if not bucket:
            return 0
        count = 0
        for oid in bucket:
            if any(oid in other for other in self._by_page.values()):
                continue
            self._addresses.pop(oid, None)
            count += 1
        if count:
            self.stats.unswizzled += count
            self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def address_of(self, oid: int) -> Optional[int]:
        return self._addresses.get(oid)

    def is_swizzled(self, oid: int) -> bool:
        return oid in self._addresses

    @property
    def resident_count(self) -> int:
        return len(self._addresses)

    def clear(self) -> None:
        self._addresses.clear()
        self._by_page.clear()

    def reset_stats(self) -> None:
        self.stats = SwizzleStats()


@pytest.fixture
def table():
    return SwizzleTable()


class TestSwizzleIn:
    def test_assigns_addresses(self, table):
        count = table.swizzle_in(0, [1, 2, 3])
        assert count == 3
        assert table.is_swizzled(2)
        assert table.resident_count == 3

    def test_addresses_are_distinct(self, table):
        table.swizzle_in(0, [1, 2, 3])
        addresses = {table.address_of(oid) for oid in (1, 2, 3)}
        assert len(addresses) == 3

    def test_already_swizzled_not_recounted(self, table):
        table.swizzle_in(0, [1, 2])
        count = table.swizzle_in(1, [2, 3])
        assert count == 1
        assert table.stats.swizzled == 3

    def test_address_stable_across_pages(self, table):
        table.swizzle_in(0, [5])
        first = table.address_of(5)
        table.swizzle_in(1, [5])
        assert table.address_of(5) == first


class TestUnswizzle:
    def test_page_eviction_clears_objects(self, table):
        table.swizzle_in(0, [1, 2])
        removed = table.unswizzle_page(0)
        assert removed == 2
        assert not table.is_swizzled(1)
        assert table.address_of(1) is None

    def test_object_spanning_pages_survives(self, table):
        table.swizzle_in(0, [1])
        table.swizzle_in(1, [1, 2])
        table.unswizzle_page(0)
        assert table.is_swizzled(1)  # Still on resident page 1.
        table.unswizzle_page(1)
        assert not table.is_swizzled(1)

    def test_unknown_page_is_noop(self, table):
        assert table.unswizzle_page(42) == 0


class TestAccounting:
    def test_clock_charged(self):
        clock = SimClock()
        table = SwizzleTable(CostModel(swizzle_time=0.001), clock)
        table.swizzle_in(0, [1, 2, 3])
        assert clock.now == pytest.approx(0.003)
        table.unswizzle_page(0)
        assert clock.now == pytest.approx(0.006)

    def test_stats_subtraction(self, table):
        table.swizzle_in(0, [1])
        snap = table.stats.snapshot()
        table.swizzle_in(1, [2, 3])
        delta = table.stats.snapshot() - snap
        assert delta.swizzled == 2

    def test_clear_and_reset(self, table):
        table.swizzle_in(0, [1])
        table.clear()
        assert table.resident_count == 0
        table.reset_stats()
        assert table.stats.swizzled == 0


_OIDS = st.lists(st.integers(min_value=1, max_value=12), max_size=8)
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("swizzle_in"), st.integers(min_value=0, max_value=5),
              _OIDS, st.sampled_from([list, tuple, iter])),
    st.tuples(st.just("unswizzle_page"),
              st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("reset_stats")),
), max_size=60)


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS)
def test_matches_reference_table(steps):
    """Pin counting answers exactly like the scan over resident buckets."""
    table = SwizzleTable(CostModel(swizzle_time=0.001), SimClock())
    oracle = _ReferenceSwizzleTable(CostModel(swizzle_time=0.001), SimClock())
    seen: Set[int] = set()
    for step in steps:
        name, args = step[0], step[1:]
        if name == "swizzle_in":
            page_id, oids, container = args
            seen.update(oids)
            got = table.swizzle_in(page_id, container(oids))
            want = oracle.swizzle_in(page_id, container(oids))
        else:
            got = getattr(table, name)(*args)
            want = getattr(oracle, name)(*args)
        assert got == want, step
        assert table.stats == oracle.stats, step
        assert table.clock.now == oracle.clock.now, step
        assert table.resident_count == oracle.resident_count, step
        for oid in seen:
            assert table.is_swizzled(oid) == oracle.is_swizzled(oid), \
                (step, oid)
            assert table.address_of(oid) == oracle.address_of(oid), \
                (step, oid)
