"""Serializer round-trip property, shared across every backend.

The satellite guarantee: the same object graph bulk-loaded into the
simulated, memory and SQLite engines reads back as the *identical*
graph — every oid, class id, reference slot (including NILs), back
reference and filler byte count survives each engine's storage format.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import (
    MemoryBackend,
    ShardedSQLiteBackend,
    SQLiteBackend,
)
from repro.store.serializer import StoredObject
from repro.store.storage import ObjectStore

BACKEND_FACTORIES = {
    "simulated": lambda: ObjectStore(page_size=512, buffer_pages=8),
    "memory": MemoryBackend,
    "sqlite": lambda: SQLiteBackend(page_size=512, cache_pages=8),
    "sharded-sqlite": lambda: ShardedSQLiteBackend(
        shards=3, page_size=512, cache_pages=8),
}


@st.composite
def object_graphs(draw):
    """A small random object graph with intra-graph references."""
    count = draw(st.integers(min_value=1, max_value=12))
    records = []
    for position in range(count):
        oid = position + 1
        nref = draw(st.integers(min_value=0, max_value=4))
        refs = tuple(
            draw(st.one_of(st.none(),
                           st.integers(min_value=1, max_value=count)))
            for _ in range(nref))
        nback = draw(st.integers(min_value=0, max_value=3))
        back_refs = tuple(
            (draw(st.integers(min_value=1, max_value=count)),
             draw(st.integers(min_value=0, max_value=4)))
            for _ in range(nback))
        filler = draw(st.integers(min_value=0, max_value=150))
        cid = draw(st.integers(min_value=0, max_value=9))
        records.append(StoredObject(oid=oid, cid=cid, refs=refs,
                                    back_refs=back_refs, filler=filler))
    return records


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=object_graphs())
def test_graph_roundtrips_identically(backend_name, graph):
    backend = BACKEND_FACTORIES[backend_name]()
    try:
        backend.bulk_load(list(graph))
        for record in graph:
            assert backend.read_object(record.oid) == record
    finally:
        backend.close()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=object_graphs())
def test_all_backends_agree_on_graph(graph):
    """Cross-engine agreement: every backend returns the same objects."""
    backends = {name: factory() for name, factory
                in BACKEND_FACTORIES.items()}
    try:
        for backend in backends.values():
            backend.bulk_load(list(graph))
        for record in graph:
            views = {name: backend.read_object(record.oid)
                     for name, backend in backends.items()}
            first = next(iter(views.values()))
            assert all(view == first for view in views.values()), views
            assert first == record
    finally:
        for backend in backends.values():
            backend.close()


@pytest.mark.parametrize("backend_name", sorted(BACKEND_FACTORIES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(graph=object_graphs())
def test_traverse_refs_matches_graph(backend_name, graph):
    backend = BACKEND_FACTORIES[backend_name]()
    try:
        backend.bulk_load(list(graph))
        for record in graph:
            assert backend.traverse_refs(record.oid) == \
                record.non_null_refs()
    finally:
        backend.close()
