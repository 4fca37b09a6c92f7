"""Pointer-swizzling table, mirroring Texas' page-grain swizzling.

Texas converts disk addresses to virtual-memory addresses when a page is
faulted in, and back when the page is evicted.  The reproduction keeps an
explicit table mapping object ids to synthetic "virtual addresses" for the
objects whose pages are resident; the counters feed the cost model (each
(un)swizzle charges :attr:`CostModel.swizzle_time`) and give the benchmark
an additional metric that real persistent stores care about.

An object may straddle several pages, and it stays swizzled while any of
them is resident.  The table tracks that with a per-object **pin count**:
the number of resident pages whose bucket holds the object.  The invariant

    ``oid`` has an address  ⇔  ``pins[oid] > 0``  ⇔  a resident bucket holds it

is kept by every method, so a page fault or an eviction costs
O(objects on the page), whatever the number of resident pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set

from repro.store.costs import CostModel, SimClock

__all__ = ["SwizzleStats", "SwizzleTable"]


@dataclass
class SwizzleStats:
    """Counters of pointer (un)swizzling work."""

    swizzled: int = 0
    unswizzled: int = 0

    def snapshot(self) -> "SwizzleStats":
        """Immutable copy of the counters."""
        return SwizzleStats(self.swizzled, self.unswizzled)

    def __sub__(self, other: "SwizzleStats") -> "SwizzleStats":
        return SwizzleStats(self.swizzled - other.swizzled,
                            self.unswizzled - other.unswizzled)


class SwizzleTable:
    """Tracks which objects currently have in-memory (swizzled) pointers.

    ``_by_page`` holds, per resident page, the objects it swizzled in;
    ``_pins`` counts, per object, the buckets holding it.  An object gets
    its address on its first pin and loses it with its last, so
    :meth:`swizzle_in` and :meth:`unswizzle_page` cost O(objects on the
    page) each.
    """

    def __init__(self, cost_model: Optional[CostModel] = None,
                 clock: Optional[SimClock] = None) -> None:
        self.cost_model = cost_model or CostModel()
        self.clock = clock or SimClock()
        self.stats = SwizzleStats()
        self._addresses: Dict[int, int] = {}
        self._by_page: Dict[int, Set[int]] = {}
        self._pins: Dict[int, int] = {}
        self._next_address = 0x1000_0000  # Synthetic VM base, Texas-style.

    def swizzle_in(self, page_id: int, oids: Iterable[int]) -> int:
        """Swizzle the objects of a freshly loaded page; return count."""
        bucket = self._by_page.setdefault(page_id, set())
        pins = self._pins
        count = 0
        for oid in oids:
            if oid in bucket:
                continue
            bucket.add(oid)
            pinned = pins.get(oid, 0)
            pins[oid] = pinned + 1
            if not pinned:
                self._addresses[oid] = self._next_address
                self._next_address += 0x10
                count += 1
        if count:
            self.stats.swizzled += count
            self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def unswizzle_page(self, page_id: int) -> int:
        """Drop the mappings contributed by an evicted page; return count."""
        bucket = self._by_page.pop(page_id, None)
        if not bucket:
            return 0
        pins = self._pins
        count = 0
        for oid in bucket:
            pinned = pins[oid] - 1
            if pinned:
                pins[oid] = pinned  # Still on another resident page.
                continue
            del pins[oid]
            del self._addresses[oid]
            count += 1
        if count:
            self.stats.unswizzled += count
            self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def address_of(self, oid: int) -> Optional[int]:
        """Synthetic virtual address of *oid*, or ``None`` if unswizzled."""
        return self._addresses.get(oid)

    def is_swizzled(self, oid: int) -> bool:
        """Whether *oid* currently has an in-memory address."""
        return oid in self._addresses

    @property
    def resident_count(self) -> int:
        """Number of objects currently swizzled."""
        return len(self._addresses)

    def clear(self) -> None:
        """Forget every mapping (store rebuild)."""
        self._addresses.clear()
        self._by_page.clear()
        self._pins.clear()

    def reset_stats(self) -> None:
        """Zero the counters."""
        self.stats = SwizzleStats()
