"""The object store: the reproduction's stand-in for Texas.

An :class:`ObjectStore` persists :class:`~repro.store.serializer.StoredObject`
records in a contiguous byte *segment* that is split into fixed-size disk
pages.  Objects are packed back to back (an object may straddle a page
boundary, exactly as in a memory-mapped store), a **directory** maps object
ids to ``(offset, length)``, and every object access goes through the
buffer pool, so page faults, write backs and pointer swizzling are all
accounted on the shared clock.

The store supports the full lifecycle the benchmarks need:

* :meth:`bulk_load` — initial placement of a generated database,
* :meth:`read_object` / :meth:`write_object` — workload access paths,
* :meth:`insert_object` / :meth:`delete_object` — OO1-insert-style updates,
* :meth:`reorganize` — physical re-clustering, with its I/O overhead
  measured separately (the paper's "clustering I/O overhead" metric).

Decoded records are cached (the analogue of Texas' swizzled in-memory
objects) for as long as their pages are resident; eviction invalidates
them through the buffer pool's eviction callback.  Most objects sit on
one page, and reading one touches that page once: a hit returns the
cached record or decodes a slice of the resident page, a miss faults
the page in, swizzles its objects and decodes the slice.  Only an
object that straddles a page boundary is assembled page by page.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.backends.base import Backend
from repro.errors import ParameterError, StorageError, UnknownObject
from repro.store.buffer import BufferPool, BufferStats, ReplacementPolicy
from repro.store.costs import DEFAULT_PAGE_SIZE, CostModel, SimClock
from repro.store.disk import DiskStats, SimulatedDisk
from repro.store.serializer import StoredObject, decode_object, \
    encode_object
from repro.store.swizzle import SwizzleStats, SwizzleTable

# benchmarks/ocb_bench/layers.py looks this name up to trace it.
decode_object_lazy = decode_object

__all__ = ["StoreConfig", "StoreSnapshot", "ReorganizationStats",
           "ObjectStore", "stage_bulk_load"]


def stage_bulk_load(records: Iterable[StoredObject],
                    order: Optional[Sequence[int]] = None
                    ) -> List[StoredObject]:
    """Validate and order records for a bulk load (shared by all engines).

    Rejects duplicate oids; when *order* is given it must be a
    permutation of the record oids and the returned sequence follows it.
    """
    by_oid: Dict[int, StoredObject] = {}
    sequence: List[StoredObject] = []
    for record in records:
        if record.oid in by_oid:
            raise StorageError(f"duplicate oid {record.oid} in bulk load")
        by_oid[record.oid] = record
        sequence.append(record)
    if order is not None:
        if set(order) != set(by_oid) or len(order) != len(by_oid):
            raise StorageError(
                "bulk_load order must be a permutation of the record oids")
        sequence = [by_oid[oid] for oid in order]
    return sequence


@dataclass(frozen=True)
class StoreConfig:
    """Everything needed to build identical stores across experiments.

    The last two fields are *real-engine* knobs: engines that journal to
    a shared file (SQLite today) honour them, the simulated store — which
    has no journal and no concurrent writers — ignores them.  ``None``
    leaves the engine's own default in place.
    """

    page_size: int = DEFAULT_PAGE_SIZE
    buffer_pages: int = 128
    policy: ReplacementPolicy = ReplacementPolicy.LRU
    cost_model: CostModel = field(default_factory=CostModel)
    track_swizzling: bool = True
    #: Journal mode for journaling engines (e.g. ``"WAL"``, ``"MEMORY"``).
    #: Multi-process runs on a shared file require ``"WAL"``.
    journal_mode: Optional[str] = None
    #: Total budget (milliseconds) an engine may spend retrying an
    #: operation that finds the storage locked by another connection.
    busy_timeout_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if self.page_size <= 0:
            raise ParameterError(f"page_size must be > 0, got {self.page_size}")
        if self.buffer_pages < 1:
            raise ParameterError(
                f"buffer_pages must be >= 1, got {self.buffer_pages}")
        if self.busy_timeout_ms is not None and self.busy_timeout_ms < 0:
            raise ParameterError(
                f"busy_timeout_ms must be >= 0, got {self.busy_timeout_ms}")

    def build(self) -> "ObjectStore":
        """Construct a fresh, empty store with this configuration."""
        return ObjectStore(page_size=self.page_size,
                           buffer_pages=self.buffer_pages,
                           policy=self.policy,
                           cost_model=self.cost_model,
                           track_swizzling=self.track_swizzling)


@dataclass(frozen=True)
class StoreSnapshot:
    """Immutable statistics snapshot; subtract two to measure a phase."""

    disk: DiskStats
    buffer: BufferStats
    swizzle: SwizzleStats
    object_accesses: int
    sim_time: float

    def __sub__(self, other: "StoreSnapshot") -> "StoreSnapshot":
        return StoreSnapshot(self.disk - other.disk,
                             self.buffer - other.buffer,
                             self.swizzle - other.swizzle,
                             self.object_accesses - other.object_accesses,
                             self.sim_time - other.sim_time)

    @property
    def io_reads(self) -> int:
        """Accounted page reads."""
        return self.disk.reads

    @property
    def io_writes(self) -> int:
        """Accounted page writes."""
        return self.disk.writes

    @property
    def total_ios(self) -> int:
        """All accounted page I/O."""
        return self.disk.total


@dataclass(frozen=True)
class ReorganizationStats:
    """I/O overhead of one physical reorganization (clustering cost)."""

    pages_read: int
    pages_written: int
    objects_moved: int
    sim_time: float

    @property
    def total_ios(self) -> int:
        """Reads plus writes charged to the reorganization."""
        return self.pages_read + self.pages_written


class ObjectStore(Backend):
    """Paged, buffered, swizzling persistent object store.

    The ``simulated`` engine: the only one that simulates costs and the
    only one that can physically re-cluster (:meth:`reorganize`).  The
    batch methods are the :class:`~repro.backends.base.Backend` loop
    fallbacks, so a batch is charged exactly as a per-object loop is.
    """

    name = "simulated"
    supports_clustering = True
    #: The paged store has no structure-only read path.
    decodes_avoided = 0

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE,
                 buffer_pages: int = 128,
                 policy: "ReplacementPolicy | str" = ReplacementPolicy.LRU,
                 cost_model: Optional[CostModel] = None,
                 clock: Optional[SimClock] = None,
                 track_swizzling: bool = True) -> None:
        # Backend.__init__ is not called: the store owns its own clock,
        # cost model and counters, all wired into the disk and buffer.
        self.cost_model = cost_model or CostModel()
        self.clock = clock or SimClock()
        self.disk = SimulatedDisk(page_size, self.cost_model, self.clock)
        self.buffer = BufferPool(self.disk, buffer_pages, policy,
                                 on_evict=self._on_page_evicted)
        self.swizzle = SwizzleTable(self.cost_model, self.clock) \
            if track_swizzling else None
        self.page_size = page_size
        self.object_accesses = 0
        #: Records fully decoded from their byte form (read path misses).
        self.records_decoded = 0
        self._directory: Dict[int, Tuple[int, int]] = {}
        self._page_objects: Dict[int, Set[int]] = {}
        self._live: Dict[int, StoredObject] = {}
        self._end_offset = 0
        self._hole_bytes = 0

    # ------------------------------------------------------------------ #
    # Loading
    # ------------------------------------------------------------------ #

    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        """Place *records* on disk (unaccounted), optionally in *order*.

        Returns the number of pages materialised.  The store must be empty.
        """
        if self._directory:
            raise StorageError("bulk_load requires an empty store")
        sequence = stage_bulk_load(records, order)

        segment = bytearray()
        for record in sequence:
            data = encode_object(record)
            self._directory[record.oid] = (len(segment), len(data))
            segment += data
        self._end_offset = len(segment)
        self._rebuild_page_index()
        return self._write_segment(segment)

    def _write_segment(self, segment: bytearray) -> int:
        ps = self.page_size
        pages = (len(segment) + ps - 1) // ps
        for pid in range(pages):
            chunk = bytes(segment[pid * ps:(pid + 1) * ps])
            if len(chunk) < ps:
                chunk += b"\x00" * (ps - len(chunk))
            self.disk.poke(pid, chunk)
        return pages

    def _rebuild_page_index(self) -> None:
        ps = self.page_size
        self._page_objects = {}
        for oid, (offset, length) in self._directory.items():
            for pid in range(offset // ps, (offset + length - 1) // ps + 1):
                self._page_objects.setdefault(pid, set()).add(oid)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def read_object(self, oid: int) -> StoredObject:
        """Fetch one object, faulting in pages and swizzling as needed."""
        try:
            offset, length = self._directory[oid]
        except KeyError:
            raise UnknownObject(oid) from None
        self.object_accesses += 1
        self.clock.advance(self.cost_model.cpu_object_time)
        ps = self.page_size
        start = offset % ps
        end = start + length
        if end > ps:
            return self._read_straddler(oid, offset, length)
        pid = offset // ps
        page = self.buffer.hit(pid)
        if page is None:
            page = self._fault(pid)
        else:
            cached = self._live.get(oid)
            if cached is not None:
                return cached
        self.records_decoded += 1
        record = self._live[oid] = decode_object(page[start:end])
        return record

    def _read_straddler(self, oid: int, offset: int,
                        length: int) -> StoredObject:
        """:meth:`read_object` for an object on two or more pages."""
        cached = self._live.get(oid)
        if cached is not None:
            pages = self._page_range((offset, length))
            buffer = self.buffer
            if all(map(buffer.is_resident, pages)):
                # Still touch the pages so the cache sees the access.
                for pid in pages:
                    buffer.hit(pid)
                return cached
        self.records_decoded += 1
        record = self._live[oid] = decode_object(
            self._fetch_bytes(offset, length))
        return record

    def _fetch_bytes(self, offset: int, length: int) -> bytes:
        """Assemble a byte range page by page through the buffer pool."""
        ps = self.page_size
        chunks: List[bytes] = []
        for pid in range(offset // ps, (offset + length - 1) // ps + 1):
            page = self.buffer.hit(pid)
            if page is None:
                page = self._fault(pid)
            lo = max(offset, pid * ps) - pid * ps
            hi = min(offset + length, (pid + 1) * ps) - pid * ps
            chunks.append(page[lo:hi])
        return b"".join(chunks)

    def _fault(self, pid: int) -> bytes:
        """Load page *pid* into the buffer and swizzle its objects."""
        page = self.buffer.fault(pid)
        if self.swizzle is not None:
            self.swizzle.swizzle_in(pid, self._page_objects.get(pid, ()))
        return page

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def write_object(self, record: StoredObject) -> None:
        """Update an existing object in place (relocating if it grew)."""
        try:
            offset, length = self._directory[record.oid]
        except KeyError:
            raise UnknownObject(record.oid) from None
        data = encode_object(record)
        self.object_accesses += 1
        self.clock.advance(self.cost_model.cpu_object_time)
        if len(data) == length:
            self._patch_bytes(offset, data)
            self._live[record.oid] = record
        else:
            # Texas-style stores relocate objects whose size changes.
            self._remove_entry(record.oid)
            self._append(record, data)

    def insert_object(self, record: StoredObject) -> None:
        """Append a brand-new object to the store."""
        if record.oid in self._directory:
            raise StorageError(f"oid {record.oid} already exists")
        self.object_accesses += 1
        self.clock.advance(self.cost_model.cpu_object_time)
        self._append(record, encode_object(record))

    def delete_object(self, oid: int) -> None:
        """Remove an object, leaving a hole until the next reorganization."""
        if oid not in self._directory:
            raise UnknownObject(oid)
        self.object_accesses += 1
        self.clock.advance(self.cost_model.cpu_object_time)
        self._remove_entry(oid)

    def flush(self) -> int:
        """Write back all dirty pages; return the number written."""
        return self.buffer.flush()

    def _append(self, record: StoredObject, data: bytes) -> None:
        ps = self.page_size
        offset = self._end_offset
        self._directory[record.oid] = (offset, len(data))
        first, last = offset // ps, (offset + len(data) - 1) // ps
        for pid in range(first, last + 1):
            self._page_objects.setdefault(pid, set()).add(record.oid)
            if not self.buffer.is_resident(pid) and pid * ps >= offset:
                # Page is brand new: allocate a frame without a disk read.
                self.buffer.install_page(pid)
        self._patch_bytes(offset, data)
        self._end_offset = offset + len(data)
        self._live[record.oid] = record

    def _patch_bytes(self, offset: int, data: bytes) -> None:
        ps = self.page_size
        pos = 0
        while pos < len(data):
            pid = (offset + pos) // ps
            page_start = (offset + pos) % ps
            span = min(ps - page_start, len(data) - pos)
            self.buffer.patch(pid, page_start, data[pos:pos + span])
            pos += span

    def _remove_entry(self, oid: int) -> None:
        offset, length = self._directory.pop(oid)
        self._hole_bytes += length
        self._live.pop(oid, None)
        ps = self.page_size
        for pid in range(offset // ps, (offset + length - 1) // ps + 1):
            bucket = self._page_objects.get(pid)
            if bucket is not None:
                bucket.discard(oid)
                if not bucket:
                    del self._page_objects[pid]

    # ------------------------------------------------------------------ #
    # Reorganization (the clustering phase 5 entry point)
    # ------------------------------------------------------------------ #

    def reorganize(self, new_order: Sequence[int],
                   io_mode: str = "touched",
                   aligned_groups: Optional[Sequence[Sequence[int]]] = None
                   ) -> ReorganizationStats:
        """Rewrite the store so objects appear in *new_order*.

        ``aligned_groups`` lists clustering units that must start on a page
        boundary (unless the whole unit fits in the current page's free
        tail).  Grouped objects are placed first, in group order; the
        remaining objects follow in their *new_order* relative order.
        Units map 1:1 onto pages this way, which is how DSTC's physical
        phase lays units out on disk.

        ``io_mode`` selects how the clustering I/O overhead is charged:

        * ``"touched"`` — pages holding objects whose position changed are
          read, pages receiving them are written (DSTC's incremental
          physical phase, triggered "when the system is idle"),
        * ``"full"``    — a complete segment sweep (read everything, write
          everything), an upper bound.
        """
        if io_mode not in ("touched", "full"):
            raise ParameterError(f"io_mode must be 'touched' or 'full', "
                                 f"got {io_mode!r}")
        if set(new_order) != set(self._directory) or \
                len(new_order) != len(self._directory):
            raise StorageError(
                "reorganize order must be a permutation of the stored oids")

        self.buffer.flush()
        start_time = self.clock.now
        ps = self.page_size
        old_directory = dict(self._directory)

        # Decode every record from the (flushed, authoritative) disk image.
        records: Dict[int, StoredObject] = {}
        for oid, (offset, length) in old_directory.items():
            records[oid] = decode_object(self._peek_bytes(offset, length))

        # Build the new segment: aligned groups first, remainder after.
        grouped: Set[int] = set()
        groups: List[Sequence[int]] = []
        if aligned_groups:
            for group in aligned_groups:
                for oid in group:
                    if oid not in self._directory:
                        raise StorageError(
                            f"aligned group references unknown oid {oid}")
                    if oid in grouped:
                        raise StorageError(
                            f"oid {oid} appears in more than one group")
                    grouped.add(oid)
                groups.append(group)

        segment = bytearray()
        new_directory: Dict[int, Tuple[int, int]] = {}

        def place(oid: int) -> None:
            data = encode_object(records[oid])
            new_directory[oid] = (len(segment), len(data))
            segment.extend(data)

        for group in groups:
            group_bytes = sum(records[oid].size for oid in group)
            tail = len(segment) % ps
            if tail and group_bytes > ps - tail:
                segment.extend(b"\x00" * (ps - tail))  # Pad to boundary.
            for oid in group:
                place(oid)
        for oid in new_order:
            if oid not in grouped:
                place(oid)

        moved = [oid for oid in new_order
                 if new_directory[oid][0] != old_directory[oid][0]]
        if io_mode == "full":
            read_pages = {pid for offset, length in old_directory.values()
                          for pid in range(offset // ps,
                                           (offset + length - 1) // ps + 1)}
            written_pages = {pid for offset, length in new_directory.values()
                             for pid in range(offset // ps,
                                              (offset + length - 1) // ps + 1)}
        else:
            read_pages = {pid for oid in moved
                          for pid in self._page_range(old_directory[oid])}
            written_pages = {pid for oid in moved
                             for pid in self._page_range(new_directory[oid])}

        # Charge the overhead on the shared clock / disk counters.
        for _ in read_pages:
            self.disk.stats.reads += 1
            self.clock.advance(self.cost_model.io_read_time)
        for _ in written_pages:
            self.disk.stats.writes += 1
            self.clock.advance(self.cost_model.io_write_time)

        # Swap in the new image and drop every cache (addresses changed).
        self.disk.drop_all()
        self._directory = new_directory
        self._end_offset = len(segment)
        self._hole_bytes = 0
        self._write_segment(segment)
        self.buffer.clear(write_dirty=False)
        self._live.clear()
        if self.swizzle is not None:
            self.swizzle.clear()
        self._rebuild_page_index()

        return ReorganizationStats(pages_read=len(read_pages),
                                   pages_written=len(written_pages),
                                   objects_moved=len(moved),
                                   sim_time=self.clock.now - start_time)

    def _page_range(self, entry: Tuple[int, int]) -> range:
        offset, length = entry
        ps = self.page_size
        return range(offset // ps, (offset + length - 1) // ps + 1)

    def _peek_bytes(self, offset: int, length: int) -> bytes:
        ps = self.page_size
        first, last = offset // ps, (offset + length - 1) // ps
        chunks = []
        for pid in range(first, last + 1):
            page = self.buffer.peek_data(pid)
            if page is None:
                page = self.disk.peek(pid)
            lo = max(offset, pid * ps) - pid * ps
            hi = min(offset + length, (pid + 1) * ps) - pid * ps
            chunks.append(page[lo:hi])
        return b"".join(chunks)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def snapshot(self) -> StoreSnapshot:
        """Immutable copy of all counters; subtract snapshots per phase."""
        swizzle = self.swizzle.stats.snapshot() if self.swizzle is not None \
            else SwizzleStats()
        return StoreSnapshot(disk=self.disk.stats.snapshot(),
                             buffer=self.buffer.stats.snapshot(),
                             swizzle=swizzle,
                             object_accesses=self.object_accesses,
                             sim_time=self.clock.now)

    def reset_stats(self) -> None:
        """Zero every counter (resident pages stay in memory)."""
        self.disk.reset_stats()
        self.buffer.reset_stats()
        if self.swizzle is not None:
            self.swizzle.reset_stats()
        self.object_accesses = 0
        self.records_decoded = 0

    def drop_caches(self) -> bool:
        """Empty the buffer pool and decoded cache (a "cold" restart)."""
        self.buffer.clear(write_dirty=True)
        self._live.clear()
        if self.swizzle is not None:
            self.swizzle.clear()
        return True

    def stats(self) -> Dict[str, object]:
        """Configuration, sizes and the headline counters."""
        snap = self.snapshot()
        return {
            "page_size": self.page_size,
            "pages": self.page_count,
            "objects": self.object_count,
            "io_reads": snap.io_reads,
            "io_writes": snap.io_writes,
            "buffer_hit_ratio": snap.buffer.hit_ratio,
            "records_decoded": self.records_decoded,
            "decodes_avoided": self.decodes_avoided,
            "sim_time": snap.sim_time,
        }

    def close(self) -> None:
        """Write back dirty pages (the store holds no other resource)."""
        self.flush()

    def pages_of(self, oid: int) -> Tuple[int, ...]:
        """Page ids an object occupies."""
        try:
            entry = self._directory[oid]
        except KeyError:
            raise UnknownObject(oid) from None
        return tuple(self._page_range(entry))

    def location_of(self, oid: int) -> Tuple[int, int]:
        """The ``(offset, length)`` directory entry of an object."""
        try:
            return self._directory[oid]
        except KeyError:
            raise UnknownObject(oid) from None

    def current_order(self) -> List[int]:
        """Object ids sorted by physical position."""
        return sorted(self._directory, key=lambda oid: self._directory[oid][0])

    def iter_oids(self) -> Iterator[int]:
        """Iterate over stored object ids (unspecified order)."""
        return iter(self._directory)

    @property
    def object_count(self) -> int:
        """Number of live objects."""
        return len(self._directory)

    @property
    def used_bytes(self) -> int:
        """Bytes occupied by live objects (excludes holes)."""
        return self._end_offset - self._hole_bytes

    @property
    def segment_bytes(self) -> int:
        """Total segment extent including holes."""
        return self._end_offset

    @property
    def page_count(self) -> int:
        """Pages spanned by the segment."""
        return (self._end_offset + self.page_size - 1) // self.page_size

    def __contains__(self, oid: int) -> bool:
        return oid in self._directory

    # ------------------------------------------------------------------ #
    # Eviction plumbing
    # ------------------------------------------------------------------ #

    def _on_page_evicted(self, page_id: int) -> None:
        live = self._live
        for oid in self._page_objects.get(page_id, ()):
            live.pop(oid, None)
        if self.swizzle is not None:
            self.swizzle.unswizzle_page(page_id)
