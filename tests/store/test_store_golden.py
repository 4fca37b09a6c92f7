"""Golden accounting for the paged object store.

A seeded stream of reads, same-size writes, growing writes, inserts,
deletes, cache drops and reorganizations runs on 256-byte pages, so
many objects straddle a page boundary, under each replacement policy.
Every counter the store reports — disk reads and writes, buffer hits,
misses, evictions and write-backs, swizzled and unswizzled objects,
object accesses, records decoded, the exact simulated time and the
synthetic swizzle addresses — must match the values pinned below.  A
change to the read, fault or eviction path that alters any of them
shows up here, whatever the reason.
"""

from __future__ import annotations

import random

import pytest

from repro.store.buffer import BufferStats, ReplacementPolicy
from repro.store.disk import DiskStats
from repro.store.serializer import StoredObject
from repro.store.storage import ObjectStore, StoreSnapshot
from repro.store.swizzle import SwizzleStats

PAGE = 256
BUFFER_PAGES = 8
OBJECTS = 80
STEPS = 3000


def _record(rng: random.Random, oid: int, filler: int) -> StoredObject:
    refs = tuple(rng.randint(1, OBJECTS) if rng.random() < 0.8 else None
                 for _ in range(rng.randint(0, 3)))
    back_refs = tuple((rng.randint(1, OBJECTS), rng.randint(0, 2))
                      for _ in range(rng.randint(0, 2)))
    return StoredObject(oid=oid, cid=1 + oid % 4, refs=refs,
                        back_refs=back_refs, filler=filler)


def _run(policy: ReplacementPolicy):
    """Drive the stream; return the store and its address checksum."""
    rng = random.Random(19980323)
    store = ObjectStore(page_size=PAGE, buffer_pages=BUFFER_PAGES,
                        policy=policy)
    contents = {oid: _record(rng, oid, rng.randint(0, 60))
                for oid in range(1, OBJECTS + 1)}
    store.bulk_load(contents.values())
    next_oid = OBJECTS + 1
    checksum = 0
    for step in range(STEPS):
        live = sorted(contents)
        # Skewed towards a hot set, so the buffer also serves hits.
        oid = live[min(int(rng.expovariate(0.15)), len(live) - 1)]
        roll = rng.random()
        if roll < 0.60:
            assert store.read_object(oid) == contents[oid]
        elif roll < 0.72:
            old = contents[oid]
            # Same size: new targets in the old number of slots.
            refs = tuple(rng.randint(1, OBJECTS) for _ in old.refs)
            record = StoredObject(oid=oid, cid=old.cid, refs=refs,
                                  back_refs=old.back_refs, filler=old.filler)
            contents[oid] = record
            store.write_object(record)
        elif roll < 0.80:
            old = contents[oid]
            record = _record(rng, oid, old.filler + rng.randint(1, 40))
            contents[oid] = record
            store.write_object(record)
        elif roll < 0.88:
            record = _record(rng, next_oid, rng.randint(0, 60))
            next_oid += 1
            contents[record.oid] = record
            store.insert_object(record)
        elif roll < 0.95:
            if len(contents) > 10:
                del contents[oid]
                store.delete_object(oid)
        elif roll < 0.99:
            store.drop_caches()
        else:
            rng.shuffle(live)
            store.reorganize(live)
        if step % 50 == 0:
            checksum = (checksum * 31 + sum(
                (o * 7919) ^ (store.swizzle.address_of(o) or 0)
                for o in range(1, next_oid))) % (1 << 61)
    return store, checksum


#: Values captured before the read and fault paths were rewritten.
GOLDEN = {
    ReplacementPolicy.LRU: (
        StoreSnapshot(DiskStats(2748, 1546),
                      BufferStats(1779, 1769, 994, 332),
                      SwizzleStats(4662, 4656),
                      object_accesses=2849,
                      sim_time=46.10761599999899),
        1184, 2849, 1912825761981449673),
    ReplacementPolicy.FIFO: (
        StoreSnapshot(DiskStats(2805, 1579),
                      BufferStats(1722, 1826, 1051, 403),
                      SwizzleStats(4729, 4723),
                      object_accesses=2849,
                      sim_time=47.07388399999884),
        1229, 2849, 1510903054895713401),
    ReplacementPolicy.CLOCK: (
        StoreSnapshot(DiskStats(2779, 1571),
                      BufferStats(1748, 1800, 1025, 380),
                      SwizzleStats(4678, 4672),
                      object_accesses=2849,
                      sim_time=46.71767999999895),
        1234, 2849, 635910203487776489),
    ReplacementPolicy.MRU: (
        StoreSnapshot(DiskStats(3064, 1712),
                      BufferStats(1463, 2085, 1310, 556),
                      SwizzleStats(5172, 5166),
                      object_accesses=2849,
                      sim_time=51.26165599999867),
        1325, 2849, 1638000881389729241),

}


@pytest.mark.parametrize("policy", list(GOLDEN))
def test_store_accounting_matches_golden(policy):
    store, checksum = _run(policy)
    snapshot, records_decoded, object_accesses, want_checksum = \
        GOLDEN[policy]
    assert store.snapshot() == snapshot
    assert store.records_decoded == records_decoded
    assert store.object_accesses == object_accesses
    assert checksum == want_checksum
