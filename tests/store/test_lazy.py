"""Lazy zero-copy record equivalence: LazyStoredObject == StoredObject.

The fast paths only hold if the lazy view is indistinguishable from the
eager record everywhere a reader looks — every property, every derived
accessor, at every buffer offset.  Hypothesis pins the equivalence over
the same record space the round-trip suite draws from.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.store.serializer import (
    HEADER_SIZE,
    LazyStoredObject,
    StoredObject,
    decode_object,
    decode_object_lazy,
    decode_ref_slots,
    decode_refs,
    encode_object,
)


def make_record(**overrides):
    defaults = dict(oid=1, cid=2, refs=(3, None, 5),
                    back_refs=((7, 0), (8, 2)), filler=10)
    defaults.update(overrides)
    return StoredObject(**defaults)


record_strategy = st.builds(
    StoredObject,
    oid=st.integers(min_value=1, max_value=2**63 - 1),
    cid=st.integers(min_value=0, max_value=2**31 - 1),
    refs=st.lists(st.one_of(st.none(),
                            st.integers(min_value=1, max_value=2**62)),
                  max_size=20).map(tuple),
    back_refs=st.lists(st.tuples(st.integers(min_value=1, max_value=2**62),
                                 st.integers(min_value=0, max_value=60000)),
                       max_size=20).map(tuple),
    filler=st.integers(min_value=0, max_value=4096),
)


class TestLazyView:
    def test_header_fields_parse_eagerly(self):
        lazy = decode_object_lazy(encode_object(make_record()))
        assert (lazy.oid, lazy.cid, lazy.filler) == (1, 2, 10)
        assert not lazy.materialized

    def test_refs_materialize_on_first_access_and_cache(self):
        lazy = decode_object_lazy(encode_object(make_record()))
        assert lazy.refs == (3, None, 5)
        assert lazy.materialized
        assert lazy.refs is lazy.refs  # cached, not re-unpacked

    def test_back_refs_materialize_independently_of_refs(self):
        lazy = decode_object_lazy(encode_object(make_record()))
        assert lazy.back_refs == ((7, 0), (8, 2))
        assert lazy._refs is None  # refs still unread

    def test_size_needs_no_materialization(self):
        record = make_record()
        lazy = decode_object_lazy(encode_object(record))
        assert lazy.size == record.size
        assert not lazy.materialized

    def test_materialize_returns_the_eager_record(self):
        record = make_record()
        materialized = decode_object_lazy(encode_object(record)).materialize()
        assert isinstance(materialized, StoredObject)
        assert materialized == record

    def test_with_refs_round_trips_through_materialization(self):
        lazy = decode_object_lazy(encode_object(make_record()))
        changed = lazy.with_refs((9, 9))
        assert isinstance(changed, StoredObject)
        assert changed.refs == (9, 9)
        assert changed.back_refs == ((7, 0), (8, 2))

    def test_memoryview_buffer_is_zero_copy(self):
        data = bytearray(encode_object(make_record()))
        lazy = LazyStoredObject(memoryview(data))
        assert lazy.refs == (3, None, 5)

    def test_equality_is_symmetric_across_classes(self):
        record = make_record()
        lazy = decode_object_lazy(encode_object(record))
        assert lazy == record
        assert record == lazy  # dataclass __eq__ reflects via NotImplemented
        assert lazy == decode_object_lazy(encode_object(record))

    def test_inequality_on_differing_refs(self):
        lazy = decode_object_lazy(encode_object(make_record()))
        assert lazy != make_record(refs=(3, None, 6))


class TestLazyCorruption:
    def test_bad_magic_fails_at_construction(self):
        data = bytearray(encode_object(make_record()))
        data[0] ^= 0xFF
        with pytest.raises(StorageError, match="magic"):
            decode_object_lazy(bytes(data))

    def test_truncated_header_fails_at_construction(self):
        with pytest.raises(StorageError, match="truncated"):
            decode_object_lazy(encode_object(make_record())[:HEADER_SIZE - 3])

    def test_truncated_body_fails_at_construction(self):
        """Corruption surfaces at read time, not at first property access."""
        with pytest.raises(StorageError, match="truncated"):
            decode_object_lazy(encode_object(make_record())[:-4])


class TestDecodeRefs:
    def test_matches_non_null_refs(self):
        record = make_record()
        assert decode_refs(encode_object(record)) == record.non_null_refs()

    def test_empty_vector(self):
        assert decode_refs(encode_object(StoredObject(oid=4, cid=1))) == ()

    def test_offset(self):
        record = make_record()
        data = b"\xAA" * 7 + encode_object(record)
        assert decode_refs(data, offset=7) == (3, 5)
        assert decode_ref_slots(data, offset=7) == (3, None, 5)

    def test_bad_magic(self):
        data = bytearray(encode_object(make_record()))
        data[0] ^= 0xFF
        with pytest.raises(StorageError, match="magic"):
            decode_refs(bytes(data))
        with pytest.raises(StorageError, match="magic"):
            decode_ref_slots(bytes(data))

    def test_body_shorter_than_ref_vector(self):
        record = StoredObject(oid=1, cid=1, refs=(2, 3, 4))
        with pytest.raises(StorageError, match="truncated"):
            decode_refs(encode_object(record)[:HEADER_SIZE + 5])
        with pytest.raises(StorageError, match="truncated"):
            decode_ref_slots(encode_object(record)[:HEADER_SIZE + 5])


@settings(max_examples=200, deadline=None)
@given(record=record_strategy)
def test_lazy_equals_eager_on_every_surface(record):
    encoded = encode_object(record)
    eager = decode_object(encoded)
    lazy = decode_object_lazy(encoded)
    assert lazy.oid == eager.oid
    assert lazy.cid == eager.cid
    assert lazy.filler == eager.filler
    assert lazy.size == eager.size == len(encoded)
    assert lazy.refs == eager.refs
    assert lazy.back_refs == eager.back_refs
    assert lazy.non_null_refs() == eager.non_null_refs()
    assert lazy == eager and eager == lazy
    assert lazy.materialize() == eager
    assert decode_refs(encoded) == eager.non_null_refs()
    assert decode_ref_slots(encoded) == eager.refs


@settings(max_examples=50, deadline=None)
@given(record=record_strategy,
       prefix=st.integers(min_value=0, max_value=64))
def test_lazy_decodes_at_any_offset(record, prefix):
    data = b"\x5C" * prefix + encode_object(record)
    lazy = decode_object_lazy(data, offset=prefix)
    assert lazy == decode_object(data, offset=prefix)
    assert decode_refs(data, offset=prefix) == record.non_null_refs()
