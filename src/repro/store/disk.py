"""Simulated page-addressed disk with I/O accounting.

The disk is the authoritative byte store: a mapping from page id to a
``page_size``-byte block.  Every *accounted* access (``read_page`` /
``write_page``) bumps the statistics and advances the shared
:class:`~repro.store.costs.SimClock`; *administrative* access (``peek`` /
``poke``) is free and is used for bulk loading and for store-internal
bookkeeping that a real system would do through the same mapped memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.errors import StorageError
from repro.store.costs import DEFAULT_PAGE_SIZE, CostModel, SimClock

__all__ = ["DiskStats", "SimulatedDisk"]


@dataclass
class DiskStats:
    """Counters for accounted page I/O."""

    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        """Total accounted I/O operations."""
        return self.reads + self.writes

    def snapshot(self) -> "DiskStats":
        """Immutable copy of the current counters."""
        return DiskStats(self.reads, self.writes)

    def __sub__(self, other: "DiskStats") -> "DiskStats":
        return DiskStats(self.reads - other.reads, self.writes - other.writes)


class SimulatedDisk:
    """A page-granular byte store with read/write accounting.

    Pages not yet written read back as all-zero blocks, like a freshly
    formatted volume.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 cost_model: Optional[CostModel] = None,
                 clock: Optional[SimClock] = None) -> None:
        if page_size <= 0:
            raise StorageError(f"page_size must be > 0, got {page_size}")
        self.page_size = page_size
        self.cost_model = cost_model or CostModel()
        self.clock = clock or SimClock()
        self.stats = DiskStats()
        self._pages: Dict[int, bytes] = {}

    # ------------------------------------------------------------------ #
    # Accounted I/O
    # ------------------------------------------------------------------ #

    def read_page(self, page_id: int) -> bytes:
        """Read one page, charging one I/O."""
        self._check_page_id(page_id)
        self.stats.reads += 1
        self.clock.advance(self.cost_model.io_read_time)
        data = self._pages.get(page_id)
        return data if data is not None else bytes(self.page_size)

    def write_page(self, page_id: int, data: bytes) -> None:
        """Write one page, charging one I/O."""
        self._check_page_id(page_id)
        self._check_data(data)
        self.stats.writes += 1
        self.clock.advance(self.cost_model.io_write_time)
        self._pages[page_id] = bytes(data)

    # ------------------------------------------------------------------ #
    # Administrative (unaccounted) access
    # ------------------------------------------------------------------ #

    def peek(self, page_id: int) -> bytes:
        """Read one page without accounting (bulk load / introspection)."""
        self._check_page_id(page_id)
        data = self._pages.get(page_id)
        return data if data is not None else bytes(self.page_size)

    def poke(self, page_id: int, data: bytes) -> None:
        """Write one page without accounting (bulk load / rebuild)."""
        self._check_page_id(page_id)
        self._check_data(data)
        self._pages[page_id] = bytes(data)

    def drop_all(self) -> None:
        """Discard every page (used when the store is rebuilt)."""
        self._pages.clear()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def page_count(self) -> int:
        """Number of pages that have ever been materialised."""
        return len(self._pages)

    def page_ids(self) -> Iterator[int]:
        """Iterate over materialised page ids, ascending."""
        return iter(sorted(self._pages))

    def reset_stats(self) -> None:
        """Zero the I/O counters (the clock is left untouched)."""
        self.stats = DiskStats()

    # ------------------------------------------------------------------ #
    # Validation helpers
    # ------------------------------------------------------------------ #

    @staticmethod
    def _check_page_id(page_id: int) -> None:
        if page_id < 0:
            raise StorageError(f"page id must be >= 0, got {page_id}")

    def _check_data(self, data: bytes) -> None:
        if len(data) != self.page_size:
            raise StorageError(
                f"page data must be exactly {self.page_size} bytes, "
                f"got {len(data)}")
