"""The generated OCB database: schema + object graph.

:class:`OCBDatabase` is the in-memory result of the Fig. 2 generation
algorithm.  It owns the :class:`~repro.core.schema.Schema`, the objects
(:class:`OCBObject` — ``ClassPtr``, ``ORef``, ``BackRef``), and the helpers
the workload and the store need: conversion to
:class:`~repro.store.serializer.StoredObject` records, per-class catalogs,
reference-type lookups, and structural validation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.parameters import DatabaseParameters
from repro.core.schema import Schema
from repro.errors import GenerationError
from repro.store.serializer import StoredObject, encoded_size

__all__ = ["OCBObject", "DatabaseStatistics", "OCBDatabase"]


@dataclass
class OCBObject:
    """One instance (Fig. 1's OBJECT): ClassPtr + ORef + BackRef."""

    oid: int
    cid: int
    oref: List[Optional[int]] = field(default_factory=list)
    back_refs: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def live_references(self) -> List[int]:
        """Non-NIL forward references."""
        return [target for target in self.oref if target is not None]


@dataclass(frozen=True)
class DatabaseStatistics:
    """Structural summary of a generated database."""

    num_classes: int
    num_objects: int
    total_bytes: int
    average_object_bytes: float
    live_references: int
    nil_references: int
    average_fanout: float
    population_by_class: Tuple[Tuple[int, int], ...]

    def describe(self) -> str:
        """One paragraph, printable summary."""
        return (f"{self.num_objects} objects over {self.num_classes} classes, "
                f"{self.total_bytes} bytes "
                f"(avg {self.average_object_bytes:.1f} B/object), "
                f"{self.live_references} live refs "
                f"({self.nil_references} NIL), "
                f"avg fan-out {self.average_fanout:.2f}")


class OCBDatabase:
    """Schema plus instantiated object graph."""

    def __init__(self, schema: Schema, objects: Dict[int, OCBObject],
                 parameters: DatabaseParameters) -> None:
        self.schema = schema
        self.objects = objects
        self.parameters = parameters
        self._class_of: Dict[int, int] = {
            oid: obj.cid for oid, obj in objects.items()}
        self._sorted_oids: Optional[List[int]] = None

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #

    @property
    def num_objects(self) -> int:
        """NO as generated."""
        return len(self.objects)

    def get(self, oid: int) -> OCBObject:
        """Object *oid*."""
        try:
            return self.objects[oid]
        except KeyError:
            raise GenerationError(f"unknown object id {oid}") from None

    def class_of(self, oid: int) -> int:
        """Class id of object *oid* (the store catalog's view)."""
        try:
            return self._class_of[oid]
        except KeyError:
            raise GenerationError(f"unknown object id {oid}") from None

    def catalog(self) -> Dict[int, int]:
        """A copy of the oid -> cid catalog (what a real store would keep)."""
        return dict(self._class_of)

    def tref_table(self) -> Dict[int, Tuple[int, ...]]:
        """cid -> reference-type tuple, for the workload's access context."""
        return {descriptor.cid: tuple(descriptor.tref)
                for descriptor in self.schema}

    def iter_objects(self) -> Iterator[OCBObject]:
        """Objects in oid order (a snapshot: safe to mutate meanwhile)."""
        for oid in list(self.sorted_oids()):
            yield self.objects[oid]

    def sorted_oids(self) -> List[int]:
        """Every live oid, ascending: sorted once, then kept current.  The
        list is live: callers must not mutate it, nor hold it across a
        :meth:`add_object` or :meth:`remove_object`."""
        if self._sorted_oids is None:
            self._sorted_oids = sorted(self.objects)
        return self._sorted_oids

    # ------------------------------------------------------------------ #
    # Mutation (the generic-operations extension)
    # ------------------------------------------------------------------ #

    @property
    def next_oid(self) -> int:
        """Largest live oid + 1: deleting the newest object frees its oid."""
        oids = self.sorted_oids()
        return oids[-1] + 1 if oids else 1

    def add_object(self, obj: OCBObject) -> None:
        """Register a freshly created object (class iterator + catalog).

        The caller is responsible for the object's references and for the
        matching back references on its targets (see
        :meth:`repro.core.scenario.ClientExecutor.op_insert`).
        """
        if obj.oid in self.objects:
            raise GenerationError(f"object id {obj.oid} already exists")
        descriptor = self.schema.get(obj.cid)
        if len(obj.oref) != descriptor.max_nref:
            raise GenerationError(
                f"object {obj.oid} needs {descriptor.max_nref} reference "
                f"slots for class {obj.cid}, got {len(obj.oref)}")
        self.objects[obj.oid] = obj
        self._class_of[obj.oid] = obj.cid
        descriptor.iterator.append(obj.oid)
        if self._sorted_oids is not None:
            bisect.insort(self._sorted_oids, obj.oid)

    def remove_object(self, oid: int) -> OCBObject:
        """Unregister an object; returns it for final bookkeeping.

        References *to* and *from* the object must already have been
        detached by the caller.
        """
        obj = self.get(oid)
        del self.objects[oid]
        del self._class_of[oid]
        if self._sorted_oids is not None:
            del self._sorted_oids[bisect.bisect_left(self._sorted_oids, oid)]
        iterator = self.schema.get(obj.cid).iterator
        try:
            iterator.remove(oid)
        except ValueError:  # pragma: no cover - defensive
            raise GenerationError(
                f"object {oid} missing from class {obj.cid} iterator")
        return obj

    # ------------------------------------------------------------------ #
    # Store integration
    # ------------------------------------------------------------------ #

    def to_record(self, oid: int) -> StoredObject:
        """Serialize one object to its store record.

        ``filler`` is the class's ``InstanceSize``, so physical object
        sizes vary with the inheritance graph exactly as in the paper.
        The single source of record construction — bulk loads and
        content verifiers (the parallel coordinator's spot check of
        pre-existing shared storage) must agree byte for byte.
        """
        obj = self.get(oid)
        return StoredObject(
            oid=obj.oid,
            cid=obj.cid,
            refs=tuple(obj.oref),
            back_refs=tuple(obj.back_refs),
            filler=self.schema.get(obj.cid).instance_size)

    def to_records(self) -> Dict[int, StoredObject]:
        """Serialize the whole graph to store records (see :meth:`to_record`)."""
        return {oid: self.to_record(oid) for oid in self.objects}

    def load_into(self, store: object) -> int:
        """Bulk-load this database into *store* in oid order.

        The one loading idiom every coordinator uses (the kernel's
        ``Session.for_database``, the CLI's ``generate --backend``, the
        parallel coordinator), so load order and record construction
        can never drift between them.  Returns the storage units the
        engine reports.
        """
        records = self.to_records()
        return store.bulk_load(records.values(), order=sorted(records))  # type: ignore[attr-defined]

    def record_sizes(self) -> Dict[int, int]:
        """oid -> on-disk byte size (placement context input)."""
        sizes: Dict[int, int] = {}
        for obj in self.objects.values():
            instance_size = self.schema.get(obj.cid).instance_size
            sizes[obj.oid] = encoded_size(len(obj.oref), len(obj.back_refs),
                                          instance_size)
        return sizes

    def total_bytes(self) -> int:
        """Total serialized size of the database."""
        return sum(self.record_sizes().values())

    # ------------------------------------------------------------------ #
    # Validation & statistics
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check structural invariants; raise GenerationError on violation.

        * every forward reference targets an existing object whose class is
          the referencing slot's CRef class;
        * back references exactly mirror forward references;
        * every object is present in its class's iterator.
        """
        back_expected: Dict[int, List[Tuple[int, int]]] = {
            oid: [] for oid in self.objects}
        for obj in self.objects.values():
            descriptor = self.schema.get(obj.cid)
            if len(obj.oref) != descriptor.max_nref:
                raise GenerationError(
                    f"object {obj.oid} has {len(obj.oref)} reference slots, "
                    f"class {obj.cid} declares {descriptor.max_nref}")
            for index, target in enumerate(obj.oref):
                if target is None:
                    continue
                if target not in self.objects:
                    raise GenerationError(
                        f"object {obj.oid} references missing object {target}")
                expected_class = descriptor.cref[index]
                actual_class = self.class_of(target)
                if expected_class is not None and actual_class != expected_class:
                    raise GenerationError(
                        f"object {obj.oid} slot {index} should point to "
                        f"class {expected_class}, found class {actual_class}")
                back_expected[target].append((obj.oid, index))
        for oid, expected in back_expected.items():
            actual = sorted(self.objects[oid].back_refs)
            if sorted(expected) != actual:
                raise GenerationError(
                    f"object {oid} back references are inconsistent")
        for descriptor in self.schema:
            for oid in descriptor.iterator:
                if self.class_of(oid) != descriptor.cid:
                    raise GenerationError(
                        f"iterator of class {descriptor.cid} lists object "
                        f"{oid} of class {self.class_of(oid)}")

    def statistics(self) -> DatabaseStatistics:
        """Structural summary used by reports and tests."""
        live = 0
        nil = 0
        for obj in self.objects.values():
            for target in obj.oref:
                if target is None:
                    nil += 1
                else:
                    live += 1
        total_bytes = self.total_bytes()
        n = max(self.num_objects, 1)
        population = tuple(
            (descriptor.cid, descriptor.population)
            for descriptor in self.schema)
        return DatabaseStatistics(
            num_classes=self.schema.num_classes,
            num_objects=self.num_objects,
            total_bytes=total_bytes,
            average_object_bytes=total_bytes / n,
            live_references=live,
            nil_references=nil,
            average_fanout=live / n,
            population_by_class=population)
