"""Buffer pool (page cache) with pluggable replacement policies.

Texas maps disk pages into virtual memory; the effective cache is the OS
page cache over an 8 MB machine.  We model that as a fixed-capacity buffer
pool in front of the :class:`~repro.store.disk.SimulatedDisk`.  Clustering
quality shows up exactly here: a well-clustered database turns most page
accesses into buffer hits.

Supported replacement policies:

* ``LRU``   — least recently used (default; closest to an OS page cache),
* ``FIFO``  — eviction in load order,
* ``CLOCK`` — second-chance approximation of LRU,
* ``MRU``   — most recently used (useful to show pathological behaviour on
  sequential scans, a classic textbook contrast).

The pool exposes an *eviction callback* so the object store can invalidate
its decoded-object (swizzled) cache when a page leaves memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, Iterable, Optional, Set

from repro.errors import ParameterError, StorageError
from repro.store.disk import SimulatedDisk

__all__ = ["ReplacementPolicy", "BufferStats", "Frame", "BufferPool"]


class ReplacementPolicy(str, Enum):
    """Replacement policy names accepted by :class:`BufferPool`."""

    LRU = "lru"
    FIFO = "fifo"
    CLOCK = "clock"
    MRU = "mru"


@dataclass
class BufferStats:
    """Hit/miss/eviction counters for a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total page accesses served."""
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Fraction of accesses served from memory (0.0 when idle)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "BufferStats":
        """Immutable copy of the counters."""
        return BufferStats(self.hits, self.misses, self.evictions,
                           self.dirty_writebacks)

    def __sub__(self, other: "BufferStats") -> "BufferStats":
        return BufferStats(self.hits - other.hits,
                           self.misses - other.misses,
                           self.evictions - other.evictions,
                           self.dirty_writebacks - other.dirty_writebacks)


@dataclass
class Frame:
    """One resident page."""

    page_id: int
    data: bytes
    dirty: bool = False
    referenced: bool = True  # CLOCK's second-chance bit.


EvictionCallback = Callable[[int], None]


class BufferPool:
    """Fixed-capacity page cache in front of a simulated disk."""

    def __init__(self, disk: SimulatedDisk, capacity: int,
                 policy: "ReplacementPolicy | str" = ReplacementPolicy.LRU,
                 on_evict: Optional[EvictionCallback] = None) -> None:
        if capacity < 1:
            raise ParameterError(f"buffer capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self.policy = ReplacementPolicy(policy)
        self.stats = BufferStats()
        self._frames: "OrderedDict[int, Frame]" = OrderedDict()
        self._on_evict = on_evict
        self._clock_hand = 0
        # Frames stay in load order; LRU and MRU move a hit to the end.
        self._reorder_on_hit = self.policy in (ReplacementPolicy.LRU,
                                               ReplacementPolicy.MRU)
        # The victim is the first frame (LRU, FIFO) or the last (MRU).
        self._evict_last = self.policy is ReplacementPolicy.MRU

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #

    def access(self, page_id: int, dirty: bool = False) -> bool:
        """Touch *page_id*; return ``True`` on a hit, ``False`` on a fault.

        A fault reads the page from disk (one accounted I/O) and may evict
        a victim frame (one more accounted I/O if the victim was dirty).
        """
        if self.hit(page_id) is None:
            self.fault(page_id, dirty)
            return False
        if dirty:
            self._frames[page_id].dirty = True
        return True

    def hit(self, page_id: int) -> Optional[bytes]:
        """Touch a resident page and return its bytes.

        Returns ``None``, with nothing accounted, when the page is not
        resident; the caller then loads it with :meth:`fault`.
        """
        frame = self._frames.get(page_id)
        if frame is None:
            return None
        self.stats.hits += 1
        frame.referenced = True
        if self._reorder_on_hit:
            self._frames.move_to_end(page_id)
        return frame.data

    def fault(self, page_id: int, dirty: bool = False) -> bytes:
        """Load a page that is not resident and return its bytes.

        One miss and one disk read, after evicting a victim if the pool
        is full.
        """
        self.stats.misses += 1
        if len(self._frames) >= self.capacity:
            self._evict_one()
        data = self.disk.read_page(page_id)
        self._frames[page_id] = Frame(page_id, data, dirty=dirty)
        return data

    def get_data(self, page_id: int) -> bytes:
        """Return the bytes of a page, faulting it in if necessary."""
        data = self.hit(page_id)
        return data if data is not None else self.fault(page_id)

    def update_data(self, page_id: int, data: bytes) -> None:
        """Replace the in-memory bytes of a page and mark it dirty.

        The page is faulted in first if it is not resident, so the usual
        read-modify-write accounting applies.
        """
        if len(data) != self.disk.page_size:
            raise StorageError(
                f"page data must be {self.disk.page_size} bytes, got {len(data)}")
        self.access(page_id, dirty=True)
        frame = self._frames[page_id]
        frame.data = bytes(data)
        frame.dirty = True

    def peek_data(self, page_id: int) -> Optional[bytes]:
        """Bytes of a *resident* page without accounting, else ``None``."""
        frame = self._frames.get(page_id)
        return frame.data if frame is not None else None

    def patch(self, page_id: int, start: int, replacement: bytes) -> None:
        """Read-modify-write a byte range of a page (one accounted access)."""
        if start < 0 or start + len(replacement) > self.disk.page_size:
            raise StorageError(
                f"patch [{start}, {start + len(replacement)}) outside page "
                f"of size {self.disk.page_size}")
        self.access(page_id, dirty=True)
        frame = self._frames[page_id]
        data = bytearray(frame.data)
        data[start:start + len(replacement)] = replacement
        frame.data = bytes(data)
        frame.dirty = True

    def install_page(self, page_id: int, data: Optional[bytes] = None,
                     dirty: bool = True) -> None:
        """Materialise a *fresh* page frame without reading the disk.

        Used when appending to the store: a brand-new page has no prior
        content, so a real system allocates it without an I/O.  Eviction of
        another frame may still occur (with its usual accounting).
        """
        if page_id in self._frames:
            raise StorageError(f"page {page_id} is already resident")
        if data is None:
            data = b"\x00" * self.disk.page_size
        elif len(data) != self.disk.page_size:
            raise StorageError(
                f"page data must be {self.disk.page_size} bytes, got {len(data)}")
        if len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_id] = Frame(page_id, bytes(data), dirty=dirty)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def flush(self) -> int:
        """Write every dirty frame back to disk; return the number written."""
        written = 0
        for frame in self._frames.values():
            if frame.dirty:
                self.disk.write_page(frame.page_id, frame.data)
                frame.dirty = False
                written += 1
        return written

    def clear(self, write_dirty: bool = True) -> None:
        """Empty the pool (optionally flushing dirty frames first)."""
        if write_dirty:
            self.flush()
        evicted = list(self._frames)
        self._frames.clear()
        self._clock_hand = 0
        if self._on_evict is not None:
            for page_id in evicted:
                self._on_evict(page_id)

    def reset_stats(self) -> None:
        """Zero the hit/miss counters without touching resident pages."""
        self.stats = BufferStats()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def resident_pages(self) -> Set[int]:
        """Ids of the pages currently in memory."""
        return set(self._frames)

    def is_resident(self, page_id: int) -> bool:
        """Whether *page_id* is currently cached (no accounting)."""
        return page_id in self._frames

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    # ------------------------------------------------------------------ #
    # Eviction
    # ------------------------------------------------------------------ #

    def _evict_one(self) -> None:
        if self.policy is ReplacementPolicy.CLOCK:
            victim_id = self._clock_victim()
            frame = self._frames.pop(victim_id)
        else:
            victim_id, frame = self._frames.popitem(last=self._evict_last)
        self.stats.evictions += 1
        if frame.dirty:
            self.stats.dirty_writebacks += 1
            self.disk.write_page(frame.page_id, frame.data)
        if self._on_evict is not None:
            self._on_evict(victim_id)

    def _clock_victim(self) -> int:
        # Sweep frames in insertion order, clearing reference bits, until
        # an unreferenced frame is found.
        keys = list(self._frames)
        n = len(keys)
        for _ in range(2 * n):
            key = keys[self._clock_hand % n]
            frame = self._frames[key]
            self._clock_hand = (self._clock_hand + 1) % n
            if frame.referenced:
                frame.referenced = False
            else:
                return key
        return keys[0]  # Every frame referenced twice in a row; fall back.
