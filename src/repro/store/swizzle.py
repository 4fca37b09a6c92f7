"""Pointer-swizzling table, mirroring Texas' page-grain swizzling.

Texas converts disk addresses to virtual-memory addresses when a page is
faulted in, and back when the page is evicted.  The reproduction keeps an
explicit table mapping object ids to synthetic "virtual addresses" for the
objects whose pages are resident; the counters feed the cost model (each
(un)swizzle charges :attr:`CostModel.swizzle_time`) and give the benchmark
an additional metric that real persistent stores care about.

An object may straddle several pages, and it stays swizzled while any of
them is resident.  ``_addresses`` is the swizzled set itself: an object
has an address exactly while some resident page's bucket holds it.
Most objects sit on one page, so the table keeps a **pin count** — the
number of resident buckets holding the object — only for objects held
by two or more of them.  The invariant

    ``oid`` in ``_addresses``  ⇔  a resident bucket holds it
    ``oid`` in ``_shared``     ⇔  two or more resident buckets hold it,
                                  and ``_shared[oid]`` is how many

is kept by every method, so a page fault or an eviction is one loop over
the page's objects, whatever the number of resident pages.
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
    ``_addresses`` maps every object some bucket holds to its address;
    ``_shared`` counts the buckets holding an object, for the objects
    that two or more buckets hold.  An object gets its address when the
    first bucket takes it and loses it when the last one goes, so
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
        self._shared: Dict[int, int] = {}
        self._next_address = 0x1000_0000  # Synthetic VM base, Texas-style.

    def swizzle_in(self, page_id: int, oids: Iterable[int]) -> int:
        """Swizzle the objects of a freshly loaded page; return count."""
        held = self._by_page.get(page_id, ())
        if not held and isinstance(oids, (set, frozenset)):
            self._by_page[page_id] = set(oids)
        else:
            # Keep first-seen order and drop what the bucket already has.
            oids = [oid for oid in dict.fromkeys(oids) if oid not in held]
            self._by_page.setdefault(page_id, set()).update(oids)
        addresses = self._addresses
        shared = self._shared
        first = address = self._next_address
        for oid in oids:
            if oid in addresses:
                shared[oid] = shared.get(oid, 1) + 1
            else:
                addresses[oid] = address
                address += 0x10
        count = (address - first) // 0x10
        if count:
            self._next_address = address
            self.stats.swizzled += count
            self.clock.advance(count * self.cost_model.swizzle_time)
        return count

    def unswizzle_page(self, page_id: int) -> int:
        """Drop the mappings contributed by an evicted page; return count."""
        bucket = self._by_page.pop(page_id, None)
        if not bucket:
            return 0
        addresses = self._addresses
        shared = self._shared
        count = 0
        for oid in bucket:
            held = shared.get(oid)
            if held is None:
                del addresses[oid]
                count += 1
            elif held == 2:
                del shared[oid]  # Now on one resident page only.
            else:
                shared[oid] = held - 1
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
        self._shared.clear()

    def reset_stats(self) -> None:
        """Zero the counters."""
        self.stats = SwizzleStats()
