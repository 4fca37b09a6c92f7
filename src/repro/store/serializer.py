"""Byte-level serialization of stored objects.

Texas stores C++ objects on disk in their in-memory format; our equivalent
is a compact, deterministic binary record.  An OCB object (Fig. 1 of the
paper) carries:

* ``ClassPtr``  — the class id,
* ``ORef``      — ``MAXNREF`` forward references (possibly NULL),
* ``BackRef``   — reverse references, stored as *(source oid, ref index)*
  pairs so that reverse hierarchy traversals can recover the reference type
  from the source class,
* ``Filler``    — ``InstanceSize`` payload bytes (zeroed), which is what
  makes instance sizes vary from class to class.

Record layout (little endian)::

    magic     u16   0x0CB1
    oid       u64
    cid       u32
    nref      u16
    nback     u16
    filler    u32
    refs      nref  × i64   (0 encodes NULL; oids start at 1)
    backrefs  nback × (u64, u16)
    payload   filler × u8   (zeros)

The serializer is pure and stateless: ``decode(encode(r)) == r`` for every
valid record, a property the test-suite checks with Hypothesis.

Two kinds of decoder share the wire format:

* :func:`decode_object` returns a :class:`StoredObject`.  It unpacks the
  header in one precompiled ``struct`` call and runs every check there —
  magic, body length and ``oid >= 1`` — so a corrupt record fails at read
  time.  The record is built directly rather than through
  ``__post_init__``: the wire format already guarantees non-negative
  ``cid`` / ``filler``.  When the source is a whole immutable ``bytes``
  blob (what SQLite and the paged store hand back), both reference
  vectors stay in it: the record keeps the blob itself in place of each
  vector and unpacks a vector (its position and count read from the
  blob's header) on the first read of ``refs`` or ``back_refs``.  No
  marker container is built, so a decoded record is one object for the
  cyclic garbage collector: a traversal holding a prefetched subtree of
  records does not make it run more often.  The leaves of a traversal
  never read their ``refs``, and a forward traversal (Table 2's default
  mix) never reads ``back_refs``.  A ``bytearray``, a ``memoryview`` or
  an offset into a larger buffer is decoded in full, so a later write to
  that buffer cannot change a record already returned.  No step runs a per-element
  Python loop unless the ref vector holds a NULL;
* :func:`decode_refs` skips record construction entirely and returns just
  the non-null reference vector — the structure-only decode batched
  frontier expansion (``traverse_refs_many``) runs on.

:func:`encode_object` is the mirror image: the ref vector goes out in one
precompiled ``pack`` and each back-ref pair through ``Struct.pack``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import starmap
from typing import Optional, Tuple

from repro.errors import StorageError

__all__ = ["StoredObject", "encode_object", "decode_object", "decode_refs",
           "encoded_size",
           "HEADER_SIZE", "REF_SIZE", "BACKREF_SIZE", "MAGIC"]

MAGIC = 0x0CB1

_HEADER = struct.Struct("<HQIHHI")
_REF = struct.Struct("<q")
_BACKREF = struct.Struct("<QH")

HEADER_SIZE = _HEADER.size       # 22 bytes
#: A header's ``nref`` and ``nback``, which follow magic, oid and cid.
_COUNTS = struct.Struct("<HH")
_COUNTS_AT = struct.calcsize("<HQI")
REF_SIZE = _REF.size             # 8 bytes
BACKREF_SIZE = _BACKREF.size     # 10 bytes


@lru_cache(maxsize=256)
def _ref_vector(nref: int) -> struct.Struct:
    """The precompiled struct of an *nref*-long ref vector."""
    return struct.Struct(f"<{nref}q")


@dataclass
class StoredObject:
    """An object as persisted by the store (and as generated by OCB).

    ``refs[i] is None`` encodes the paper's NIL reference.  ``back_refs``
    are *(source oid, reference index)* pairs.  ``filler`` is the number of
    payload bytes — the OCB ``InstanceSize``.

    ``refs`` and ``back_refs`` are properties (installed below the class)
    over the ``_refs`` and ``_back_refs`` attributes.  A record
    :func:`decode_object` built from a ``bytes`` blob holds the blob
    there — ``bytes`` marks "still in the blob" — and the first read
    replaces it with the unpacked tuple.
    Equality, ``repr``, ``dataclasses.replace``, copies and pickling all
    read through the properties, so a deferred record behaves exactly like
    an eager one.
    """

    oid: int
    cid: int
    refs: Tuple[Optional[int], ...] = ()
    back_refs: Tuple[Tuple[int, int], ...] = ()
    filler: int = 0

    def __post_init__(self) -> None:
        if self.oid < 1:
            raise StorageError(f"oid must be >= 1, got {self.oid}")
        if self.cid < 0:
            raise StorageError(f"cid must be >= 0, got {self.cid}")
        if self.filler < 0:
            raise StorageError(f"filler must be >= 0, got {self.filler}")
        self._back_refs = tuple(tuple(pair) for pair in self._back_refs)

    @property
    def size(self) -> int:
        """Encoded size in bytes."""
        return encoded_size(len(self.refs), len(self.back_refs), self.filler)

    def non_null_refs(self) -> Tuple[int, ...]:
        """Forward references with NULLs removed."""
        return tuple(r for r in self.refs if r is not None)

    def with_refs(self, refs: Tuple[Optional[int], ...]) -> "StoredObject":
        """Return a copy with replaced forward references."""
        return StoredObject(self.oid, self.cid, tuple(refs),
                            self.back_refs, self.filler)

    def with_back_refs(
            self, back_refs: Tuple[Tuple[int, int], ...]) -> "StoredObject":
        """Return a copy with replaced reverse references."""
        return StoredObject(self.oid, self.cid, self.refs,
                            tuple(back_refs), self.filler)


def _get_refs(record: StoredObject) -> Tuple[Optional[int], ...]:
    refs = record._refs
    if refs.__class__ is bytes:
        nref, _ = _COUNTS.unpack_from(refs, _COUNTS_AT)
        refs = record._refs = _unpack_refs(refs, HEADER_SIZE, nref)
    return refs


def _set_refs(record: StoredObject, refs) -> None:
    # Bytes would read as "still in the blob"; store a tuple instead.
    record._refs = tuple(refs)


def _get_back_refs(record: StoredObject) -> Tuple[Tuple[int, int], ...]:
    back_refs = record._back_refs
    if back_refs.__class__ is bytes:
        nref, nback = _COUNTS.unpack_from(back_refs, _COUNTS_AT)
        back_refs = record._back_refs = _unpack_back_refs(
            back_refs, HEADER_SIZE + nref * REF_SIZE, nback)
    return back_refs


def _set_back_refs(record: StoredObject, back_refs) -> None:
    record._back_refs = tuple(back_refs)


# Installed after ``@dataclass`` so the fields keep their defaults and
# their places in ``__init__``/``__eq__``/``__repr__``, while only reads of
# ``refs`` and ``back_refs`` pay for the descriptor: the other fields stay
# plain instance attributes (a class-level ``__getattr__`` would slow them
# all).
StoredObject.refs = property(  # type: ignore[assignment]
    _get_refs, _set_refs,
    doc="Forward references, unpacked from the blob on first read.")
StoredObject.back_refs = property(  # type: ignore[assignment]
    _get_back_refs, _set_back_refs,
    doc="Reverse references, unpacked from the blob on first read.")


def encoded_size(nref: int, nback: int, filler: int) -> int:
    """Size in bytes of a record with the given shape."""
    return HEADER_SIZE + nref * REF_SIZE + nback * BACKREF_SIZE + filler


def encode_object(record: StoredObject) -> bytes:
    """Serialize *record* to its canonical byte form."""
    refs = record.refs
    back_refs = record.back_refs
    nref = len(refs)
    nback = len(back_refs)
    if nref > 0xFFFF:
        raise StorageError(f"too many references ({nref}) for object {record.oid}")
    if nback > 0xFFFF:
        raise StorageError(
            f"too many back references ({nback}) for object {record.oid}")
    if None in refs:
        refs = [0 if ref is None else ref for ref in refs]
    return b"".join((
        _HEADER.pack(MAGIC, record.oid, record.cid, nref, nback,
                     record.filler),
        _ref_vector(nref).pack(*refs),
        b"".join(starmap(_BACKREF.pack, back_refs)),
        bytes(record.filler)))


def _unpack_refs(data, pos: int, nref: int) -> Tuple[Optional[int], ...]:
    """Bulk-unpack *nref* forward references (0 decodes to NULL).

    The tuple ``struct`` returns is used as is unless it holds a NULL.
    """
    refs = _ref_vector(nref).unpack_from(data, pos)
    if 0 in refs:
        return tuple([None if ref == 0 else ref for ref in refs])
    return refs


def _unpack_back_refs(data, pos: int, nback: int) -> Tuple[Tuple[int, int], ...]:
    """Bulk-unpack *nback* (source oid, ref index) pairs."""
    if not nback:
        return ()
    return tuple(_BACKREF.iter_unpack(
        memoryview(data)[pos:pos + nback * BACKREF_SIZE]))


def decode_object(data, offset: int = 0) -> StoredObject:
    """Deserialize one record from *data* starting at *offset*.

    Both reference vectors of a whole ``bytes`` *data* stay in it until
    first read (see :class:`StoredObject`); any other source is decoded in
    full.  The header, magic, length and oid checks run here either way.
    """
    try:
        magic, oid, cid, nref, nback, filler = _HEADER.unpack_from(data, offset)
    except struct.error as exc:
        raise StorageError(f"truncated object header at offset {offset}") from exc
    if magic != MAGIC:
        raise StorageError(
            f"bad magic 0x{magic:04X} at offset {offset} (corrupt store?)")
    pos = offset + HEADER_SIZE
    back = pos + nref * REF_SIZE
    if back + nback * BACKREF_SIZE + filler > len(data):
        raise StorageError(
            f"truncated object body for oid {oid} at offset {offset}")
    if oid < 1:
        raise StorageError(f"oid must be >= 1, got {oid} at offset {offset}")
    # Every field is already a validated, normalised value, so the record
    # is built without re-running ``__post_init__``.
    record = object.__new__(StoredObject)
    record.oid = oid
    record.cid = cid
    if offset or data.__class__ is not bytes:
        # Only a whole immutable blob may be kept: a later write to a
        # mutable or shared buffer must not change this record.
        record._refs = _unpack_refs(data, pos, nref)
        record._back_refs = _unpack_back_refs(data, back, nback)
    else:
        record._refs = data
        record._back_refs = data if nback else ()
    record.filler = filler
    return record


def decode_refs(data, offset: int = 0) -> Tuple[int, ...]:
    """Only the non-null forward references of one encoded record.

    The structure-only decode frontier expansion needs: header plus one
    bulk unpack of the reference vector — no record object, no back-ref
    unpack, no payload.  Corruption checks match :func:`decode_object`
    (bad magic and a body shorter than the reference vector both raise),
    but the back-ref/payload tail is deliberately not length-checked:
    this path never reads it.
    """
    try:
        magic, oid, _cid, nref, _nback, _filler = _HEADER.unpack_from(
            data, offset)
    except struct.error as exc:
        raise StorageError(f"truncated object header at offset {offset}") from exc
    if magic != MAGIC:
        raise StorageError(
            f"bad magic 0x{magic:04X} at offset {offset} (corrupt store?)")
    try:
        refs = _ref_vector(nref).unpack_from(data, offset + HEADER_SIZE)
    except struct.error as exc:
        raise StorageError(
            f"truncated object body for oid {oid} at offset {offset}") from exc
    if 0 in refs:
        return tuple([ref for ref in refs if ref])
    return refs
