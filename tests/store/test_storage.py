"""Object store tests: load, read/write, insert/delete, reorganize."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError, StorageError, UnknownObject
from repro.store.serializer import StoredObject
from repro.store.storage import ObjectStore, StoreConfig
from test_swizzle import _ReferenceSwizzleTable

PAGE = 256


def make_records(count=20, filler=40, nrefs=2):
    records = []
    for oid in range(1, count + 1):
        refs = tuple((oid % count) + 1 for _ in range(nrefs))
        records.append(StoredObject(oid=oid, cid=1 + oid % 3, refs=refs,
                                    filler=filler))
    return records


def make_store(buffer_pages=8, page_size=PAGE, **kwargs):
    return ObjectStore(page_size=page_size, buffer_pages=buffer_pages,
                       **kwargs)


class TestStoreConfig:
    def test_build(self):
        store = StoreConfig(page_size=512, buffer_pages=4).build()
        assert store.page_size == 512
        assert store.buffer.capacity == 4

    def test_validation(self):
        with pytest.raises(ParameterError):
            StoreConfig(page_size=0)
        with pytest.raises(ParameterError):
            StoreConfig(buffer_pages=0)


class TestBulkLoad:
    def test_load_and_read_back(self):
        store = make_store()
        records = make_records(10)
        store.bulk_load(records)
        for record in records:
            assert store.read_object(record.oid) == record

    def test_custom_order_controls_layout(self):
        store = make_store()
        records = make_records(10)
        order = [oid for oid in range(10, 0, -1)]
        store.bulk_load(records, order=order)
        assert store.current_order() == order

    def test_rejects_duplicate_oids(self):
        store = make_store()
        record = make_records(1)[0]
        with pytest.raises(StorageError):
            store.bulk_load([record, record])

    def test_rejects_bad_order(self):
        store = make_store()
        with pytest.raises(StorageError):
            store.bulk_load(make_records(3), order=[1, 2, 99])

    def test_rejects_second_load(self):
        store = make_store()
        store.bulk_load(make_records(3))
        with pytest.raises(StorageError):
            store.bulk_load(make_records(3))

    def test_page_count_matches_bytes(self):
        store = make_store()
        records = make_records(10)
        store.bulk_load(records)
        total = sum(r.size for r in records)
        assert store.page_count == (total + PAGE - 1) // PAGE
        assert store.used_bytes == total


class TestReadPath:
    def test_unknown_oid(self):
        store = make_store()
        store.bulk_load(make_records(3))
        with pytest.raises(UnknownObject):
            store.read_object(99)

    def test_read_counts_buffer_traffic(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.reset_stats()
        store.read_object(1)
        snap = store.snapshot()
        assert snap.buffer.misses >= 1
        assert snap.io_reads >= 1
        assert snap.object_accesses == 1

    def test_second_read_hits_cache(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.reset_stats()
        store.read_object(1)
        before = store.snapshot()
        store.read_object(1)
        delta = store.snapshot() - before
        assert delta.io_reads == 0
        assert delta.buffer.hits >= 1

    def test_object_spanning_pages(self):
        store = make_store(page_size=64)
        big = StoredObject(oid=1, cid=1, filler=200)  # > 3 pages.
        store.bulk_load([big])
        store.reset_stats()
        record = store.read_object(1)
        assert record == big
        assert store.snapshot().io_reads >= 3

    def test_capacity_one_buffer_still_correct(self):
        store = make_store(buffer_pages=1, page_size=64)
        big = StoredObject(oid=1, cid=1, filler=300)
        small = StoredObject(oid=2, cid=1, filler=10)
        store.bulk_load([big, small])
        assert store.read_object(1) == big
        assert store.read_object(2) == small

    def test_eviction_invalidates_decoded_cache(self):
        store = make_store(buffer_pages=1, page_size=64)
        records = [StoredObject(oid=i, cid=1, filler=60) for i in (1, 2, 3)]
        store.bulk_load(records)
        store.reset_stats()
        assert store.read_object(1) == records[0]
        store.read_object(3)  # Evicts page of oid 1.
        assert store.read_object(1) == records[0]  # Decoded again, correct.

    def test_swizzling_tracked_on_load(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.reset_stats()
        store.read_object(1)
        assert store.swizzle is not None
        assert store.swizzle.stats.swizzled > 0

    def test_swizzling_can_be_disabled(self):
        store = make_store(track_swizzling=False)
        store.bulk_load(make_records(5))
        store.read_object(1)
        assert store.swizzle is None


class TestWritePath:
    def test_same_size_update_in_place(self):
        store = make_store()
        records = make_records(5)
        store.bulk_load(records)
        offset_before = store.location_of(3)
        updated = records[2].with_refs((1, 1))
        store.write_object(updated)
        assert store.read_object(3) == updated
        assert store.location_of(3) == offset_before

    def test_update_survives_cache_drop(self):
        store = make_store()
        records = make_records(5)
        store.bulk_load(records)
        updated = records[2].with_refs((1, 1))
        store.write_object(updated)
        store.drop_caches()
        assert store.read_object(3) == updated

    def test_grown_object_is_relocated(self):
        store = make_store()
        records = make_records(5)
        store.bulk_load(records)
        old_offset, old_length = store.location_of(2)
        grown = StoredObject(oid=2, cid=records[1].cid,
                             refs=records[1].refs, filler=500)
        store.write_object(grown)
        new_offset, new_length = store.location_of(2)
        assert new_length > old_length
        assert new_offset != old_offset
        assert store.read_object(2) == grown

    def test_write_unknown_oid(self):
        store = make_store()
        store.bulk_load(make_records(3))
        with pytest.raises(UnknownObject):
            store.write_object(StoredObject(oid=50, cid=1))


class TestInsertDelete:
    def test_insert_appends(self):
        store = make_store()
        store.bulk_load(make_records(5))
        new = StoredObject(oid=100, cid=9, filler=20)
        store.insert_object(new)
        assert store.read_object(100) == new
        assert store.object_count == 6
        assert store.current_order()[-1] == 100

    def test_insert_duplicate_rejected(self):
        store = make_store()
        store.bulk_load(make_records(5))
        with pytest.raises(StorageError):
            store.insert_object(StoredObject(oid=3, cid=1))

    def test_insert_into_empty_store(self):
        store = make_store()
        store.insert_object(StoredObject(oid=1, cid=1, filler=10))
        assert store.read_object(1).filler == 10

    def test_insert_persists_after_flush_and_drop(self):
        store = make_store()
        store.bulk_load(make_records(5))
        store.insert_object(StoredObject(oid=77, cid=2, filler=33))
        store.flush()
        store.drop_caches()
        assert store.read_object(77).filler == 33

    def test_delete_removes(self):
        store = make_store()
        store.bulk_load(make_records(5))
        store.delete_object(4)
        assert 4 not in store
        with pytest.raises(UnknownObject):
            store.read_object(4)
        assert store.object_count == 4

    def test_delete_unknown(self):
        store = make_store()
        store.bulk_load(make_records(3))
        with pytest.raises(UnknownObject):
            store.delete_object(42)

    def test_delete_leaves_hole_until_reorganize(self):
        store = make_store()
        records = make_records(6)
        store.bulk_load(records)
        used_before = store.used_bytes
        store.delete_object(2)
        assert store.used_bytes == used_before - records[1].size
        store.reorganize(store.current_order())
        assert store.used_bytes == used_before - records[1].size
        assert store.segment_bytes == store.used_bytes


class TestReorganize:
    def test_order_is_applied(self):
        store = make_store()
        records = make_records(8)
        store.bulk_load(records)
        new_order = [oid for oid in range(8, 0, -1)]
        store.reorganize(new_order)
        assert store.current_order() == new_order
        for record in records:
            assert store.read_object(record.oid) == record

    def test_rejects_non_permutation(self):
        store = make_store()
        store.bulk_load(make_records(4))
        with pytest.raises(StorageError):
            store.reorganize([1, 2, 3])
        with pytest.raises(StorageError):
            store.reorganize([1, 2, 3, 3])

    def test_touched_mode_charges_moved_pages_only(self):
        store = make_store()
        store.bulk_load(make_records(8))
        stats = store.reorganize(store.current_order(), io_mode="touched")
        assert stats.objects_moved == 0
        assert stats.total_ios == 0

    def test_full_mode_charges_everything(self):
        store = make_store()
        store.bulk_load(make_records(8))
        stats = store.reorganize(store.current_order(), io_mode="full")
        assert stats.pages_read == store.page_count
        assert stats.pages_written == store.page_count

    def test_bad_io_mode(self):
        store = make_store()
        store.bulk_load(make_records(4))
        with pytest.raises(ParameterError):
            store.reorganize(store.current_order(), io_mode="bogus")

    def test_dirty_data_survives_reorganize(self):
        store = make_store()
        records = make_records(6)
        store.bulk_load(records)
        updated = records[0].with_refs((5, 5))
        store.write_object(updated)  # Dirty in buffer only.
        store.reorganize(list(reversed(store.current_order())))
        assert store.read_object(1) == updated

    def test_aligned_groups_start_on_page_boundaries(self):
        store = make_store(page_size=128)
        records = [StoredObject(oid=i, cid=1, filler=70) for i in range(1, 9)]
        store.bulk_load(records)
        groups = [[3, 4], [7, 8]]  # Each ~2 records > one 128B page.
        order = [3, 4, 7, 8, 1, 2, 5, 6]
        store.reorganize(order, aligned_groups=groups)
        for group in groups:
            offset, _length = store.location_of(group[0])
            assert offset % 128 == 0

    def test_small_group_shares_page_tail(self):
        store = make_store(page_size=4096)
        records = [StoredObject(oid=i, cid=1, filler=10) for i in range(1, 7)]
        store.bulk_load(records)
        groups = [[1, 2], [3, 4]]
        store.reorganize([1, 2, 3, 4, 5, 6], aligned_groups=groups)
        # Both groups fit in the first page; no padding needed.
        assert store.pages_of(3) == (0,)

    def test_aligned_groups_validate_membership(self):
        store = make_store()
        store.bulk_load(make_records(4))
        with pytest.raises(StorageError):
            store.reorganize([1, 2, 3, 4], aligned_groups=[[1, 99]])
        with pytest.raises(StorageError):
            store.reorganize([1, 2, 3, 4], aligned_groups=[[1, 2], [2, 3]])


class TestSnapshots:
    def test_snapshot_delta(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.reset_stats()
        a = store.snapshot()
        store.read_object(1)
        b = store.snapshot()
        delta = b - a
        assert delta.object_accesses == 1
        assert delta.sim_time > 0.0

    def test_reset_stats(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.read_object(1)
        store.reset_stats()
        snap = store.snapshot()
        assert snap.object_accesses == 0
        assert snap.total_ios == 0

    def test_drop_caches_forces_cold_reads(self):
        store = make_store()
        store.bulk_load(make_records(10))
        store.read_object(1)
        store.drop_caches()
        store.reset_stats()
        store.read_object(1)
        assert store.snapshot().buffer.misses >= 1

    def test_pages_of_and_location(self):
        store = make_store()
        store.bulk_load(make_records(10))
        pages = store.pages_of(5)
        offset, length = store.location_of(5)
        assert pages[0] == offset // PAGE
        with pytest.raises(UnknownObject):
            store.pages_of(999)


@settings(max_examples=25, deadline=None)
@given(
    fillers=st.lists(st.integers(min_value=0, max_value=300),
                     min_size=1, max_size=30),
    buffer_pages=st.integers(min_value=1, max_value=8),
    seed=st.randoms(use_true_random=False),
)
def test_read_after_load_property(fillers, buffer_pages, seed):
    """Whatever the sizes and cache pressure, reads return what was loaded."""
    records = [StoredObject(oid=i + 1, cid=1, filler=f)
               for i, f in enumerate(fillers)]
    store = ObjectStore(page_size=128, buffer_pages=buffer_pages)
    store.bulk_load(records)
    indices = list(range(len(records)))
    seed.shuffle(indices)
    for index in indices:
        assert store.read_object(records[index].oid) == records[index]


_STORE_STEPS = st.lists(st.tuples(
    st.sampled_from(["read", "insert", "write", "delete", "drop_caches",
                     "reorganize"]),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=300),
), max_size=40)


@settings(max_examples=60, deadline=None)
@given(fillers=st.lists(st.integers(min_value=0, max_value=300),
                        min_size=1, max_size=12),
       buffer_pages=st.integers(min_value=1, max_value=3),
       steps=_STORE_STEPS)
def test_swizzling_matches_reference_table(fillers, buffer_pages, steps):
    """The store behaves the same on the scan-based reference table."""
    records = [StoredObject(oid=i + 1, cid=1, refs=(1,), filler=f)
               for i, f in enumerate(fillers)]
    contents = {record.oid: record for record in records}
    store = ObjectStore(page_size=128, buffer_pages=buffer_pages)
    reference = ObjectStore(page_size=128, buffer_pages=buffer_pages)
    reference.swizzle = _ReferenceSwizzleTable(reference.cost_model,
                                               reference.clock)
    store.bulk_load(records)
    reference.bulk_load(records)
    next_oid = len(records) + 1
    for name, pick, filler in steps:
        live = sorted(contents)
        oid = live[pick % len(live)] if live else None
        if name == "insert":
            # Appended pages come in through install_page, never swizzled.
            record = StoredObject(oid=next_oid, cid=2, filler=filler)
            next_oid += 1
            contents[record.oid] = record
            store.insert_object(record)
            reference.insert_object(record)
        elif name == "drop_caches":
            store.drop_caches()
            reference.drop_caches()
        elif name == "reorganize":
            random.Random(pick).shuffle(live)
            store.reorganize(live)
            reference.reorganize(live)
        elif oid is None:
            continue
        elif name == "read":
            assert store.read_object(oid) == contents[oid]
            assert reference.read_object(oid) == contents[oid]
        elif name == "write":
            # Odd picks keep the size (patched in place); even picks take
            # the drawn filler, and a new size relocates the object.
            old = contents[oid]
            record = StoredObject(oid=oid, cid=old.cid, refs=(oid,),
                                  filler=old.filler if pick % 2 else filler)
            contents[oid] = record
            store.write_object(record)
            reference.write_object(record)
        else:
            del contents[oid]
            store.delete_object(oid)
            reference.delete_object(oid)
        assert store.snapshot() == reference.snapshot(), name
        assert {o for o in range(1, next_oid) if store.swizzle.is_swizzled(o)} \
            == {o for o in range(1, next_oid)
                if reference.swizzle.is_swizzled(o)}, name


@settings(max_examples=25, deadline=None)
@given(order_seed=st.randoms(use_true_random=False))
def test_reorganize_preserves_content_property(order_seed):
    records = make_records(15, filler=30)
    store = ObjectStore(page_size=128, buffer_pages=4)
    store.bulk_load(records)
    order = [r.oid for r in records]
    order_seed.shuffle(order)
    store.reorganize(order)
    assert store.current_order() == order
    for record in records:
        assert store.read_object(record.oid) == record
