"""In-memory dict backend — the wall-clock upper bound.

Stores records in a plain ``dict`` with no serialization, paging or
caching, so its latencies are the floor any real engine is measured
against: the difference between a backend's percentiles and the memory
backend's is the cost of that engine's storage machinery.

Records pass through :func:`~repro.store.serializer.encode_object` once
at ingest purely as *validation* (oversized reference lists are rejected
exactly like everywhere else), then the decoded record object itself is
kept; reads hand back defensive-copy-free references, which is precisely
what an "ideal" object cache would do.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence

from repro.backends.base import Backend
from repro.errors import StorageError, UnknownObject
from repro.store.serializer import StoredObject, encode_object
from repro.store.storage import stage_bulk_load

__all__ = ["MemoryBackend"]


class MemoryBackend(Backend):
    """Dict-of-records engine; everything is O(1) and unaccounted."""

    name = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._objects: Dict[int, StoredObject] = {}
        self._bytes = 0

    # -- lifecycle ------------------------------------------------------ #

    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        if self._objects:
            raise StorageError("bulk_load requires an empty backend")
        sequence = stage_bulk_load(records, order)
        for record in sequence:
            self._bytes += len(encode_object(record))  # Validation + sizing.
        self._objects = {record.oid: record for record in sequence}
        return len(self._objects)

    def read_object(self, oid: int) -> StoredObject:
        try:
            record = self._objects[oid]
        except KeyError:
            raise UnknownObject(oid) from None
        self.object_accesses += 1
        return record

    def write_object(self, record: StoredObject) -> None:
        if record.oid not in self._objects:
            raise UnknownObject(record.oid)
        self.object_accesses += 1
        self._bytes += len(encode_object(record)) - \
            self._objects[record.oid].size
        self._objects[record.oid] = record

    def insert_object(self, record: StoredObject) -> None:
        if record.oid in self._objects:
            raise StorageError(f"oid {record.oid} already exists")
        self.object_accesses += 1
        self._bytes += len(encode_object(record))
        self._objects[record.oid] = record

    def delete_object(self, oid: int) -> None:
        try:
            record = self._objects.pop(oid)
        except KeyError:
            raise UnknownObject(oid) from None
        self.object_accesses += 1
        self._bytes -= record.size

    def drop_caches(self) -> bool:
        """No cache to drop — the dict *is* the store.  Reports ``False``
        so harnesses know a "cold" run on this engine never starts cold."""
        return False

    def stats(self) -> Dict[str, object]:
        return {"objects": len(self._objects),
                "encoded_bytes": self._bytes,
                "object_accesses": self.object_accesses,
                "records_decoded": self.records_decoded,
                "decodes_avoided": self.decodes_avoided}

    def close(self) -> None:
        self._objects.clear()
        self._bytes = 0

    # -- accounting surface --------------------------------------------- #

    @property
    def object_count(self) -> int:
        return len(self._objects)

    def iter_oids(self) -> Iterator[int]:
        return iter(self._objects)

    def current_order(self) -> list:
        """Insertion order — dicts preserve it, so this *is* the placement."""
        return list(self._objects)

    def __contains__(self, oid: int) -> bool:
        return oid in self._objects
