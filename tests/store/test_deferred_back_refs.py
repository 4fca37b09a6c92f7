"""A decoded record whose reference vectors are still in its blob.

:func:`decode_object` defers the ref and back-ref vectors of a record
decoded from a whole ``bytes`` blob until ``refs`` or ``back_refs`` is
first read.  Such a record must be indistinguishable from an eagerly
built :class:`StoredObject` wherever a reader looks: equality, copies,
pickling, ``repr``, re-encoding.  A record decoded from a mutable or
shared buffer is unpacked at once, so a later write to that buffer
cannot change it.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import serializer
from repro.store.serializer import (
    HEADER_SIZE,
    REF_SIZE,
    StoredObject,
    decode_object,
    encode_object,
)
from repro.store.storage import ObjectStore
from test_serializer import record_strategy

REFS = (3, None, 5)
BACK_REFS = ((7, 0), (8, 2))


def make_record(**overrides):
    defaults = dict(oid=1, cid=2, refs=REFS, back_refs=BACK_REFS,
                    filler=10)
    defaults.update(overrides)
    return StoredObject(**defaults)


BLOB = encode_object(make_record())


def _spy(monkeypatch, name):
    """Count the calls to the serializer kernel *name*."""
    calls = []
    kernel = getattr(serializer, name)

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(serializer, name, spy)
    return calls


@pytest.fixture
def unpacks(monkeypatch):
    return _spy(monkeypatch, "_unpack_back_refs")


@pytest.fixture
def ref_unpacks(monkeypatch):
    return _spy(monkeypatch, "_unpack_refs")


class TestFirstRead:
    def test_decode_defers_and_the_first_read_unpacks_once(self, unpacks):
        record = decode_object(BLOB)
        assert type(record) is StoredObject
        assert (record.oid, record.cid, record.refs, record.filler) == \
            (1, 2, (3, None, 5), 10)
        assert len(unpacks) == 0
        assert record.back_refs == BACK_REFS
        assert len(unpacks) == 1
        assert record.back_refs is record.back_refs
        assert len(unpacks) == 1

    def test_decode_defers_refs_and_the_first_read_unpacks_once(
            self, ref_unpacks, unpacks):
        record = decode_object(BLOB)
        assert len(ref_unpacks) == 0
        assert record.refs == REFS
        assert len(ref_unpacks) == 1
        assert record.refs is record.refs
        assert len(ref_unpacks) == 1
        # The two vectors are unpacked independently.
        assert len(unpacks) == 0

    def test_empty_back_refs_need_no_unpack(self, unpacks):
        record = decode_object(encode_object(make_record(back_refs=())))
        assert record.back_refs == ()
        assert len(unpacks) == 0

    def test_assigning_back_refs_replaces_the_pending_vector(self, unpacks):
        record = decode_object(BLOB)
        record.back_refs = [(9, 1)]
        assert record.back_refs == ((9, 1),)
        assert len(unpacks) == 0

    def test_assigning_refs_replaces_the_pending_vector(self, ref_unpacks):
        record = decode_object(BLOB)
        record.refs = [9, None]
        assert record.refs == (9, None)
        assert len(ref_unpacks) == 0


class TestContract:
    @pytest.mark.parametrize("other", [
        lambda: make_record(),
        lambda: decode_object(BLOB),
    ], ids=["eager", "decoded"])
    def test_equality_both_ways(self, other):
        assert decode_object(BLOB) == other()
        assert other() == decode_object(BLOB)
        for changed in (make_record(back_refs=((7, 0),)),
                        make_record(refs=(3, None, 6))):
            assert decode_object(BLOB) != changed
            assert changed != decode_object(BLOB)

    def test_replace_before_the_first_read(self):
        changed = dataclasses.replace(decode_object(BLOB), cid=9)
        assert changed == make_record(cid=9)

    def test_copy_before_the_first_read(self):
        record = decode_object(BLOB)
        duplicate = copy.copy(record)
        assert (duplicate.refs, duplicate.back_refs) == (REFS, BACK_REFS)
        assert (record.refs, record.back_refs) == (REFS, BACK_REFS)
        assert duplicate == record == make_record()

    def test_pickle_before_the_first_read(self):
        restored = pickle.loads(pickle.dumps(decode_object(BLOB)))
        assert type(restored) is StoredObject
        assert restored == make_record()
        assert (restored.refs, restored.back_refs) == (REFS, BACK_REFS)

    def test_repr_before_the_first_read(self):
        assert repr(decode_object(BLOB)) == repr(make_record())

    def test_with_refs(self, ref_unpacks):
        changed = decode_object(BLOB).with_refs((4, 4, 4))
        assert changed == make_record(refs=(4, 4, 4))
        assert len(ref_unpacks) == 0

    def test_with_back_refs(self, unpacks):
        changed = decode_object(BLOB).with_back_refs(((1, 1),))
        assert changed == make_record(back_refs=((1, 1),))
        assert len(unpacks) == 0

    def test_encode_without_a_prior_read(self):
        assert encode_object(decode_object(BLOB)) == BLOB


class TestSnapshot:
    """A record never aliases a buffer that can change after decoding."""

    BACK = HEADER_SIZE + 3 * REF_SIZE

    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(
        bytearray(b))], ids=["bytearray", "memoryview"])
    def test_mutable_buffers_are_decoded_eagerly(self, wrap, unpacks,
                                                 ref_unpacks):
        buffer = wrap(BLOB)
        record = decode_object(buffer)
        assert (len(ref_unpacks), len(unpacks)) == (1, 1)
        buffer[HEADER_SIZE:HEADER_SIZE + 8] = (99).to_bytes(8, "little")
        buffer[self.BACK:self.BACK + 8] = (99).to_bytes(8, "little")
        assert record.refs == REFS
        assert record.back_refs == BACK_REFS

    def test_an_offset_into_a_shared_buffer_is_decoded_eagerly(
            self, unpacks, ref_unpacks):
        record = decode_object(b"\x00\x00\x00" + BLOB, 3)
        assert (len(ref_unpacks), len(unpacks)) == (1, 1)
        assert record == make_record()

    def test_a_store_write_on_the_same_page_leaves_a_read_record(self):
        store = ObjectStore(page_size=512, buffer_pages=4)
        records = [make_record(oid=1), make_record(oid=2, back_refs=((5, 1),))]
        store.bulk_load(records)
        placement = dict(store._directory)
        assert store._page_range(placement[1]) == \
            store._page_range(placement[2])
        first = store.read_object(1)
        # Same size, so the write patches the shared page in place.
        store.write_object(records[1].with_back_refs(((6, 6),)))
        assert store._directory == placement
        assert first.back_refs == BACK_REFS
        assert store.read_object(1) == records[0]
        assert store.read_object(2).back_refs == ((6, 6),)
        # Nor does a rewrite of the record itself, read fresh from disk.
        store.drop_caches()
        first = store.read_object(1)
        store.write_object(records[0].with_refs((4, 4, 4)))
        assert store._directory == placement
        assert first.refs == REFS
        assert store.read_object(1).refs == (4, 4, 4)


@settings(max_examples=100, deadline=None)
@given(records=st.lists(record_strategy, min_size=1, max_size=8))
def test_back_refs_read_after_a_whole_batch_decodes(records):
    decoded = [decode_object(encode_object(record)) for record in records]
    for record, copy_ in zip(records, decoded):
        assert copy_.refs == record.refs
        assert copy_.back_refs == record.back_refs
        assert copy_ == record
