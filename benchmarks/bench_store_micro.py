"""Micro-benchmarks of the Texas-like store substrate.

Not a paper artefact — these keep the substrate honest (the shapes the
macro benches rely on: cache hits are orders of magnitude cheaper than
faults, bulk load scales linearly, reorganization is O(database)).
"""

from __future__ import annotations

import pytest

from repro.rand.lewis_payne import LewisPayne
from repro.store.serializer import (
    StoredObject,
    decode_object,
    decode_refs,
    encode_object,
)
from repro.store.storage import ObjectStore

# When the pytest-benchmark plugin is unavailable, every test here is
# skipped cleanly by conftest.pytest_collection_modifyitems (they all
# use the ``benchmark`` fixture).


def make_records(count, filler=60):
    return [StoredObject(oid=i + 1, cid=1 + i % 5,
                         refs=(i % count + 1, (i * 7) % count + 1),
                         filler=filler)
            for i in range(count)]


def loaded_store(count=2000, buffer_pages=64, filler=60):
    store = ObjectStore(page_size=4096, buffer_pages=buffer_pages)
    store.bulk_load(make_records(count, filler))
    store.reset_stats()
    return store


def test_encode_decode_roundtrip(benchmark):
    record = StoredObject(oid=123, cid=7, refs=(1, None, 3, 4),
                          back_refs=((9, 0), (10, 1)), filler=100)

    def roundtrip():
        return decode_object(encode_object(record))

    assert benchmark(roundtrip) == record


#: A record shaped like the paper's Table 1 defaults: MAXNREF = 10
#: forward references, about as many back references, ~280 filler bytes.
TABLE1_RECORD = StoredObject(
    oid=4321, cid=12, refs=tuple(range(101, 111)),
    back_refs=tuple((17 + 23 * i, i) for i in range(9)), filler=280)


def test_decode_object_table1_record(benchmark):
    data = encode_object(TABLE1_RECORD)
    assert benchmark(decode_object, data) == TABLE1_RECORD


def test_decode_refs_table1_record(benchmark):
    data = encode_object(TABLE1_RECORD)
    assert benchmark(decode_refs, data) == TABLE1_RECORD.refs


def test_encode_object_table1_record(benchmark):
    encoded = benchmark(encode_object, TABLE1_RECORD)
    assert len(encoded) == TABLE1_RECORD.size


def test_read_resident_object(benchmark):
    store = loaded_store()
    store.read_object(1)  # Fault it in once.

    benchmark(lambda: store.read_object(1))
    assert store.snapshot().buffer.hit_ratio > 0.99


def test_read_cold_objects(benchmark):
    store = loaded_store(buffer_pages=1)
    rng = LewisPayne(1)
    oids = [rng.randint(1, 2000) for _ in range(64)]

    def sweep():
        for oid in oids:
            store.read_object(oid)

    benchmark(sweep)
    assert store.snapshot().buffer.misses > 0


def test_read_with_full_buffer_evictions(benchmark):
    # About 13 objects per page over ~310 pages against a 170-page buffer
    # (the dstc_recluster shape): every fault evicts from a full resident
    # set, so the cost of unswizzling the victim page shows up here.
    store = loaded_store(count=4000, buffer_pages=170, filler=280)
    for oid in range(1, 4001):
        store.read_object(oid)  # Fill the buffer.
    assert len(store.buffer) == 170
    rng = LewisPayne(5)
    oids = [rng.randint(1, 4000) for _ in range(256)]

    def sweep():
        for oid in oids:
            store.read_object(oid)

    benchmark(sweep)
    assert store.snapshot().buffer.evictions > 0


def test_bulk_load_2000_objects(benchmark):
    records = make_records(2000)

    def load():
        store = ObjectStore(page_size=4096, buffer_pages=64)
        store.bulk_load(records)
        return store

    store = benchmark(load)
    assert store.object_count == 2000


def test_reorganize_2000_objects(benchmark):
    records = make_records(2000)
    order = [r.oid for r in records]
    LewisPayne(3).shuffle(order)

    def reorganize():
        store = ObjectStore(page_size=4096, buffer_pages=64)
        store.bulk_load(records)
        return store.reorganize(order)

    stats = benchmark.pedantic(reorganize, rounds=3, iterations=1)
    assert stats.objects_moved > 0


def test_insert_throughput(benchmark):
    counter = [100_000]

    store = loaded_store()

    def insert():
        counter[0] += 1
        store.insert_object(StoredObject(oid=counter[0], cid=1, filler=60))

    benchmark(insert)
    assert store.object_count > 2000
