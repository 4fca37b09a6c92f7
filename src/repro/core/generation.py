"""The OCB database generation algorithm (Fig. 2 of the paper).

Three chief steps, exactly as published:

1. **Schema instantiation** — create NC classes; draw each reference's type
   with DIST1 over [1, NREFT] (or take the a-priori ``fixed_tref``); draw
   each referenced class with DIST2 over [INFCLASS, SUPCLASS] (or take
   ``fixed_cref``); a drawn 0 is a NIL reference.
2. **Consistency check** — for every reference whose type's graph must stay
   acyclic, browse the typed class graph from the referenced class; if the
   referencing class is reachable (or a cycle is found) the reference is
   NULLed.  Then instance sizes are computed over the (now acyclic)
   inheritance graph.
3. **Object instantiation** — draw each object's class with DIST3 over
   [1, NC] and append it to the class iterator; then draw every forward
   reference with DIST4 over [INFREF, SUPREF] (RefZone-relative when
   configured), mapping the drawn id into the target class's iterator;
   reverse references are installed at the same time.

The Lewis–Payne generator supplies all randomness, through four derived
substreams (one per step of the algorithm) so that changing, say, NO does
not perturb the schema draws.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.database import OCBDatabase, OCBObject
from repro.core.parameters import DatabaseParameters
from repro.core.schema import ClassDescriptor, Schema
from repro.errors import GenerationError
from repro.rand.lewis_payne import LewisPayne

__all__ = ["GenerationReport", "generate_database", "generate_schema"]

# Substream keys: one independent Lewis-Payne stream per generation phase.
_STREAM_TYPES = 0x5EED_0001
_STREAM_CLASS_REFS = 0x5EED_0002
_STREAM_OBJECT_CLASSES = 0x5EED_0003
_STREAM_OBJECT_REFS = 0x5EED_0004


@dataclass(frozen=True)
class GenerationReport:
    """Timing and bookkeeping of one database generation (Fig. 4 input)."""

    schema_seconds: float
    consistency_seconds: float
    objects_seconds: float
    references_seconds: float
    removed_references: int

    @property
    def total_seconds(self) -> float:
        """End-to-end generation time."""
        return (self.schema_seconds + self.consistency_seconds +
                self.objects_seconds + self.references_seconds)


def generate_schema(parameters: DatabaseParameters,
                    rng: Optional[LewisPayne] = None) -> Tuple[Schema, int]:
    """Run steps 1 and 2 of Fig. 2; return (schema, removed_reference_count)."""
    root_rng = rng or LewisPayne(parameters.seed)
    type_rng = root_rng.spawn(_STREAM_TYPES)
    class_rng = root_rng.spawn(_STREAM_CLASS_REFS)

    classes = _instantiate_classes(parameters, type_rng, class_rng)
    schema = Schema(classes, parameters.reference_types)  # type: ignore[arg-type]
    removed = _enforce_consistency(schema, parameters)
    schema.compute_instance_sizes()
    return schema, removed


def generate_database(parameters: DatabaseParameters,
                      validate: bool = False
                      ) -> Tuple[OCBDatabase, GenerationReport]:
    """Run the full Fig. 2 algorithm; return the database and its timings."""
    root_rng = LewisPayne(parameters.seed)

    t0 = time.perf_counter()
    type_rng = root_rng.spawn(_STREAM_TYPES)
    class_rng = root_rng.spawn(_STREAM_CLASS_REFS)
    classes = _instantiate_classes(parameters, type_rng, class_rng)
    schema = Schema(classes, parameters.reference_types)  # type: ignore[arg-type]
    t1 = time.perf_counter()

    removed = _enforce_consistency(schema, parameters)
    schema.compute_instance_sizes()
    t2 = time.perf_counter()

    object_rng = root_rng.spawn(_STREAM_OBJECT_CLASSES)
    objects = _instantiate_objects(schema, parameters, object_rng)
    t3 = time.perf_counter()

    ref_rng = root_rng.spawn(_STREAM_OBJECT_REFS)
    _instantiate_references(schema, objects, parameters, ref_rng)
    t4 = time.perf_counter()

    database = OCBDatabase(schema, objects, parameters)
    if validate:
        database.validate()
    report = GenerationReport(
        schema_seconds=t1 - t0,
        consistency_seconds=t2 - t1,
        objects_seconds=t3 - t2,
        references_seconds=t4 - t3,
        removed_references=removed)
    return database, report


# ---------------------------------------------------------------------- #
# Step 1 — schema instantiation
# ---------------------------------------------------------------------- #

def _instantiate_classes(parameters: DatabaseParameters,
                         type_rng: LewisPayne,
                         class_rng: LewisPayne) -> List[ClassDescriptor]:
    classes: List[ClassDescriptor] = []
    for cid in range(1, parameters.num_classes + 1):
        max_nref = parameters.max_nref_for(cid)
        if parameters.fixed_tref is not None:
            tref = list(parameters.fixed_tref[cid - 1])
        else:
            tref = [parameters.dist1.draw(type_rng, 1, parameters.num_ref_types,
                                          center=cid)
                    for _ in range(max_nref)]
        classes.append(ClassDescriptor(
            cid=cid,
            max_nref=max_nref,
            base_size=parameters.base_size_for(cid),
            tref=tref,
            cref=[None] * max_nref))

    for descriptor in classes:
        if parameters.fixed_cref is not None:
            fixed_row = parameters.fixed_cref[descriptor.cid - 1]
            descriptor.cref = [None if target in (None, 0) else int(target)
                               for target in fixed_row]
            continue
        cref: List[Optional[int]] = []
        for _ in range(descriptor.max_nref):
            drawn = parameters.dist2.draw(
                class_rng, parameters.inf_class,
                parameters.sup_class,  # type: ignore[arg-type]
                center=descriptor.cid)
            cref.append(None if drawn == 0 else drawn)
        descriptor.cref = cref
    return classes


# ---------------------------------------------------------------------- #
# Step 2 — consistency check (cycle suppression)
# ---------------------------------------------------------------------- #

def _enforce_consistency(schema: Schema,
                         parameters: DatabaseParameters) -> int:
    """NULL every acyclic-typed reference that closes a cycle.

    Classes and references are processed in the paper's order (class id,
    then reference index), re-checking reachability after each removal,
    which is exactly the incremental behaviour of Fig. 2.  Each acyclic
    type's class graph is built once, as edge counts per class, and loses
    an edge whenever a reference is NULLed.
    """
    graphs: Dict[int, Dict[int, Dict[int, int]]] = {
        spec.type_id: {} for spec in schema.reference_types() if spec.acyclic}
    for descriptor in schema:
        for _, type_id, target in descriptor.references():
            if target is not None and type_id in graphs:
                edges = graphs[type_id].setdefault(descriptor.cid, {})
                edges[target] = edges.get(target, 0) + 1
    removed = 0
    for descriptor in schema:
        for index, type_id, target in list(descriptor.references()):
            graph = graphs.get(type_id)
            if target is None or graph is None:
                continue
            if target == descriptor.cid or _reaches(
                    graph, start=target, goal=descriptor.cid):
                descriptor.cref[index] = None
                removed += 1
                edges = graph[descriptor.cid]
                edges[target] -= 1
                if not edges[target]:
                    del edges[target]
    for spec in schema.reference_types():
        if spec.acyclic and schema.has_cycle(spec.type_id):
            raise GenerationError(
                f"consistency step left a cycle in type {spec.type_id}")
    return removed


def _reaches(graph: Dict[int, Dict[int, int]], start: int,
             goal: int) -> bool:
    """Depth-first reachability in one reference type's class graph."""
    stack = [start]
    seen: Set[int] = set()
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        if node in seen:
            continue
        seen.add(node)
        stack.extend(graph.get(node, ()))
    return False


# ---------------------------------------------------------------------- #
# Step 3 — object instantiation
# ---------------------------------------------------------------------- #

def _instantiate_objects(schema: Schema, parameters: DatabaseParameters,
                         rng: LewisPayne) -> Dict[int, OCBObject]:
    objects: Dict[int, OCBObject] = {}
    class_ids = parameters.dist3.draws(
        rng, 1, parameters.num_classes, range(1, parameters.num_objects + 1))
    for oid, cid in enumerate(class_ids, start=1):
        descriptor = schema.get(cid)
        descriptor.iterator.append(oid)
        objects[oid] = OCBObject(oid=oid, cid=cid,
                                 oref=[None] * descriptor.max_nref)
    return objects


def _instantiate_references(schema: Schema, objects: Dict[int, OCBObject],
                            parameters: DatabaseParameters,
                            rng: LewisPayne) -> None:
    """Fig. 2's final loop: draw ORef targets and install BackRefs.

    The draw ``l = RAND(DIST4, INFREF, SUPREF)`` happens on the object-id
    range; the drawn id is mapped into the target class's iterator with
    ``(l - 1) mod population`` (step 3 of the module docstring).

    Each object draws all its live slots in one ``draws`` call, so the
    stream is consumed in class, iterator and slot order, exactly as one
    draw per slot would; NIL slots and empty target classes draw nothing.
    """
    if not objects:
        return
    draws = parameters.dist4.draws
    for descriptor in schema:
        # The live slots of the class: populations are final after step 3a.
        slots: List[Tuple[int, List[int], int]] = []
        for index, _type_id, target_class in descriptor.references():
            if target_class is None:
                continue
            target_iterator = schema.get(target_class).iterator
            if target_iterator:
                slots.append((index, target_iterator, len(target_iterator)))
        if not slots:
            continue
        for oid in descriptor.iterator:
            low, high = parameters.object_ref_bounds(oid)
            drawn = draws(rng, low, high, [oid] * len(slots))
            oref = objects[oid].oref
            for (index, target_iterator, population), value in zip(slots,
                                                                    drawn):
                target_oid = target_iterator[(value - 1) % population]
                oref[index] = target_oid
                objects[target_oid].back_refs.append((oid, index))
