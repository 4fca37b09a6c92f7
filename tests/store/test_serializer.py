"""Serializer round-trip and validation tests."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.store.serializer import (
    BACKREF_SIZE,
    HEADER_SIZE,
    MAGIC,
    REF_SIZE,
    StoredObject,
    decode_object,
    decode_refs,
    encode_object,
    encoded_size,
)


def make_record(**overrides):
    defaults = dict(oid=1, cid=2, refs=(3, None, 5),
                    back_refs=((7, 0), (8, 2)), filler=10)
    defaults.update(overrides)
    return StoredObject(**defaults)


class TestStoredObject:
    def test_size_matches_encoded_length(self):
        record = make_record()
        assert record.size == len(encode_object(record))

    def test_encoded_size_formula(self):
        assert encoded_size(3, 2, 10) == \
            HEADER_SIZE + 3 * REF_SIZE + 2 * BACKREF_SIZE + 10

    def test_non_null_refs(self):
        assert make_record().non_null_refs() == (3, 5)

    def test_with_refs_copies(self):
        original = make_record()
        changed = original.with_refs((9, 9, 9))
        assert changed.refs == (9, 9, 9)
        assert original.refs == (3, None, 5)
        assert changed.back_refs == original.back_refs

    def test_with_back_refs_copies(self):
        original = make_record()
        changed = original.with_back_refs(((1, 1),))
        assert changed.back_refs == ((1, 1),)
        assert original.back_refs == ((7, 0), (8, 2))

    def test_rejects_bad_oid(self):
        with pytest.raises(StorageError):
            StoredObject(oid=0, cid=1)

    def test_rejects_negative_filler(self):
        with pytest.raises(StorageError):
            StoredObject(oid=1, cid=1, filler=-1)

    def test_refs_normalised_to_tuple(self):
        record = StoredObject(oid=1, cid=1, refs=[2, None])
        assert record.refs == (2, None)

    def test_empty_record(self):
        record = StoredObject(oid=1, cid=0)
        assert record.size == HEADER_SIZE


class TestRoundTrip:
    def test_basic(self):
        record = make_record()
        assert decode_object(encode_object(record)) == record
        assert decode_refs(encode_object(record)) == record.non_null_refs()

    def test_no_refs(self):
        record = StoredObject(oid=9, cid=3, filler=100)
        assert decode_object(encode_object(record)) == record
        assert decode_refs(encode_object(record)) == ()

    def test_null_refs_preserved(self):
        for refs in ((None, None, 4), (4, None), (None,)):
            record = StoredObject(oid=9, cid=3, refs=refs)
            decoded = decode_object(encode_object(record))
            assert decoded.refs == refs

    def test_offset_decoding(self):
        record = make_record()
        data = b"\xAA" * 13 + encode_object(record)
        assert decode_object(data, offset=13) == record
        assert decode_refs(data, offset=13) == (3, 5)

    def test_concatenated_records(self):
        a = make_record(oid=1)
        b = make_record(oid=2, filler=3)
        blob = encode_object(a) + encode_object(b)
        assert decode_object(blob, 0) == a
        assert decode_object(blob, a.size) == b

    def test_large_oid(self):
        record = StoredObject(oid=2**60, cid=7)
        assert decode_object(encode_object(record)).oid == 2**60


DECODERS = (decode_object, decode_refs)


class TestCorruption:
    """Every check runs when the record is read, not on a later field
    access: these sources are whole ``bytes`` blobs, the kind
    :func:`decode_object` leaves the reference vectors in."""

    def test_bad_magic(self):
        data = bytearray(encode_object(make_record()))
        data[0] ^= 0xFF
        for decode in DECODERS:
            with pytest.raises(StorageError, match="magic"):
                decode(bytes(data))

    def test_truncated_header(self):
        data = encode_object(make_record())[:HEADER_SIZE - 3]
        for decode in DECODERS:
            with pytest.raises(StorageError):
                decode(data)

    def test_truncated_body(self):
        data = encode_object(make_record())[:-4]
        with pytest.raises(StorageError, match="truncated"):
            decode_object(data)
        # The structure-only decoders check only the ref vector's length.
        data = encode_object(make_record())[:HEADER_SIZE + 5]
        for decode in DECODERS:
            with pytest.raises(StorageError, match="truncated"):
                decode(data)

    def test_too_many_refs_rejected_on_encode(self):
        record = StoredObject(oid=1, cid=1)
        object.__setattr__(record, "refs", (2,) * 70000)
        with pytest.raises(StorageError):
            encode_object(record)


@settings(max_examples=200, deadline=None)
@given(
    oid=st.integers(min_value=1, max_value=2**63 - 1),
    cid=st.integers(min_value=0, max_value=2**31 - 1),
    refs=st.lists(st.one_of(st.none(),
                            st.integers(min_value=1, max_value=2**62)),
                  max_size=20),
    back_refs=st.lists(st.tuples(st.integers(min_value=1, max_value=2**62),
                                 st.integers(min_value=0, max_value=60000)),
                       max_size=20),
    filler=st.integers(min_value=0, max_value=4096),
)
def test_roundtrip_property(oid, cid, refs, back_refs, filler):
    record = StoredObject(oid=oid, cid=cid, refs=tuple(refs),
                          back_refs=tuple(back_refs), filler=filler)
    encoded = encode_object(record)
    assert len(encoded) == record.size
    assert decode_object(encoded) == record
    # Each surface, read first on a record whose vectors are still in
    # the blob.
    assert record == decode_object(encoded)
    assert decode_object(encoded).size == record.size
    assert decode_object(encoded).non_null_refs() == record.non_null_refs()
    assert decode_object(encoded).refs == record.refs
    assert decode_object(encoded).back_refs == record.back_refs
    assert decode_refs(encoded) == record.non_null_refs()


# ---------------------------------------------------------------------- #
# Differential test against the generator-based reference kernels
# ---------------------------------------------------------------------- #

_HEADER = struct.Struct("<HQIHHI")


def _reference_encode(record):
    nref = len(record.refs)
    nback = len(record.back_refs)
    parts = [_HEADER.pack(MAGIC, record.oid, record.cid, nref, nback,
                          record.filler)]
    if nref:
        parts.append(struct.pack(
            f"<{nref}q", *(0 if ref is None else ref for ref in record.refs)))
    if nback:
        parts.append(struct.pack(
            "<" + "QH" * nback,
            *(value for pair in record.back_refs for value in pair)))
    parts.append(b"\x00" * record.filler)
    return b"".join(parts)


def _reference_decode(data, offset=0):
    _magic, oid, cid, nref, nback, filler = _HEADER.unpack_from(data, offset)
    pos = offset + HEADER_SIZE
    refs = tuple(None if value == 0 else value
                 for value in struct.unpack_from(f"<{nref}q", data, pos))
    flat = struct.unpack_from("<" + "QH" * nback, data,
                              pos + nref * REF_SIZE)
    return StoredObject(oid=oid, cid=cid, refs=refs,
                        back_refs=tuple(zip(flat[0::2], flat[1::2])),
                        filler=filler)


def _reference_decode_refs(data, offset=0):
    nref = _HEADER.unpack_from(data, offset)[3]
    raw = struct.unpack_from(f"<{nref}q", data, offset + HEADER_SIZE)
    return tuple(ref for ref in raw if ref)


record_strategy = st.builds(
    StoredObject,
    oid=st.integers(min_value=1, max_value=2**64 - 1),
    cid=st.integers(min_value=0, max_value=2**32 - 1),
    refs=st.lists(st.one_of(st.none(), st.integers(min_value=1,
                                                   max_value=2**63 - 1)),
                  max_size=16).map(tuple),
    back_refs=st.lists(st.tuples(st.integers(min_value=0,
                                             max_value=2**64 - 1),
                                 st.integers(min_value=0,
                                             max_value=2**16 - 1)),
                       max_size=16).map(tuple),
    filler=st.integers(min_value=0, max_value=512))


@settings(max_examples=300, deadline=None)
@given(records=st.lists(record_strategy, min_size=1, max_size=4),
       prefix=st.binary(max_size=9),
       as_view=st.booleans())
def test_kernels_match_the_reference(records, prefix, as_view):
    blobs = []
    for record in records:
        encoded = encode_object(record)
        assert encoded == _reference_encode(record)
        blobs.append(encoded)
    data = prefix + b"".join(blobs)
    buffer = memoryview(data) if as_view else data
    offset = len(prefix)
    for record, blob in zip(records, blobs):
        decoded = decode_object(buffer, offset)
        assert decoded == _reference_decode(data, offset) == record
        assert type(decoded) is StoredObject
        assert type(decoded.refs) is tuple
        assert all(ref is None or type(ref) is int for ref in decoded.refs)
        assert type(decoded.back_refs) is tuple
        assert all(type(pair) is tuple and len(pair) == 2
                   for pair in decoded.back_refs)
        refs = decode_refs(buffer, offset)
        assert type(refs) is tuple
        assert refs == _reference_decode_refs(data, offset)
        offset += len(blob)


class TestOidZero:
    def _oid_zero_record(self):
        data = bytearray(encode_object(make_record()))
        data[2:10] = bytes(8)  # The u64 oid follows the u16 magic.
        return bytes(data)

    def test_decode_object_rejects_oid_zero(self):
        with pytest.raises(StorageError, match="oid must be >= 1"):
            decode_object(self._oid_zero_record())
