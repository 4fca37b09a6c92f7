"""Random mutation sequences on the SQLite engines match a dict model.

Every step — insert, delete, ``write_object``, ``write_many`` (repeated
oids included) and a ``write_many`` that fails partway on a missing oid
— is applied to the engine and to a plain ``{oid: StoredObject}`` model;
after each one, ``read_many`` over the model's oids must return the
model's records, on ``sqlite`` and on every shard of ``sharded-sqlite``.
A second test interleaves two WAL connections to one file: each must
read back what the other committed.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ShardedSQLiteBackend, SQLiteBackend
from repro.errors import UnknownObject
from repro.store.serializer import StoredObject

ENGINES = {
    "sqlite": lambda: SQLiteBackend(page_size=512, cache_pages=16),
    "sharded-sqlite": lambda: ShardedSQLiteBackend(
        shards=3, page_size=512, cache_pages=16),
}

SEED_OBJECTS = 10
NREF = 4


def seed_records() -> Dict[int, StoredObject]:
    rng = random.Random(7)
    oids = range(1, SEED_OBJECTS + 1)
    return {oid: StoredObject(
        oid=oid, cid=1, filler=8,
        refs=tuple(rng.choice((None,) + tuple(oids)) for _ in range(NREF)))
        for oid in oids}


def assert_matches_model(backend, model: Dict[int, StoredObject]) -> None:
    assert backend.object_count == len(model)
    assert backend.read_many(sorted(model)) == model


STEPS = ("insert", "write_object", "write_many", "unchanged",
         "null_to_target", "target_to_null", "retarget", "shorten",
         "delete", "partial_write_many")


def _rewired(data, model: Dict[int, StoredObject], step: str,
             oid: int) -> StoredObject:
    """*oid*'s record after the slot surgery *step* names."""
    record = model[oid]
    refs = list(record.refs)
    targets = st.sampled_from(sorted(model))
    filled = [i for i, ref in enumerate(refs) if ref is not None]
    empty = [i for i, ref in enumerate(refs) if ref is None]
    if step == "unchanged":
        # Only the back refs and the payload change.
        return replace(record, back_refs=record.back_refs + ((oid, 0),),
                       filler=record.filler + 1)
    if step == "null_to_target":
        if not empty:
            refs.append(None)
            empty = [len(refs) - 1]
        refs[data.draw(st.sampled_from(empty))] = data.draw(targets)
    elif step == "target_to_null" and filled:
        refs[data.draw(st.sampled_from(filled))] = None
    elif step == "retarget" and filled:
        slot = data.draw(st.sampled_from(filled))
        refs[slot] = data.draw(targets.filter(lambda t: t != refs[slot])
                               if len(model) > 1 else targets)
    elif step == "shorten":
        refs = refs[:data.draw(st.integers(0, max(len(refs) - 1, 0)))]
    else:
        refs = data.draw(st.lists(st.none() | targets, max_size=NREF + 2))
    return record.with_refs(tuple(refs))


@pytest.mark.parametrize("name", sorted(ENGINES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_random_mutations_match_the_model(name, data):
    model = seed_records()
    backend = ENGINES[name]()
    backend.bulk_load(model.values(), order=sorted(model))
    try:
        assert_matches_model(backend, model)
        for _ in range(data.draw(st.integers(1, 20), label="steps")):
            step = data.draw(st.sampled_from(STEPS), label="step")
            pick = st.sampled_from(sorted(model))
            if step == "insert":
                oid = max(model) + 1
                refs = data.draw(st.lists(st.none() | pick, max_size=NREF))
                model[oid] = StoredObject(oid=oid, cid=2, refs=tuple(refs),
                                          filler=4)
                backend.insert_object(model[oid])
            elif step == "delete":
                if len(model) > 1:
                    oid = data.draw(pick)
                    del model[oid]
                    backend.delete_object(oid)
            elif step in ("write_many", "partial_write_many"):
                oids = data.draw(st.lists(pick, min_size=1, max_size=4))
                batch = [_rewired(data, model, data.draw(
                    st.sampled_from(STEPS[3:8])), oid) for oid in oids]
                if step == "write_many":
                    backend.write_many(batch)
                    # Repeated oids: the last record is the one stored.
                    model.update((record.oid, record) for record in batch)
                else:
                    ghost = StoredObject(oid=max(model) + 1, cid=1,
                                         refs=(oids[0],), filler=2)
                    batch.insert(data.draw(st.integers(0, len(batch))),
                                 ghost)
                    with pytest.raises(UnknownObject):
                        backend.write_many(batch)
                    # How much of a failed batch landed is the engine's
                    # business (sharded stops at the failing shard); each
                    # row holds either its old or its new record.
                    landed = backend.read_many(oids)
                    for oid in oids:
                        assert landed[oid] in [model[oid]] + [
                            r for r in batch if r.oid == oid]
                    model.update(landed)
            else:
                oid = data.draw(pick)
                model[oid] = _rewired(data, model, step, oid)
                backend.write_object(model[oid])
            backend.flush()
            assert_matches_model(backend, model)
    finally:
        backend.close()


def test_interleaved_connections_read_each_others_commits(tmp_path):
    """Two WAL connections to one file take turns writing; after each
    commit both read the writer's refs, not a stale page cache."""
    first = SQLiteBackend(path=str(tmp_path / "shared.db"), page_size=512,
                          cache_pages=16, journal_mode="WAL",
                          synchronous="NORMAL")
    records = seed_records()
    first.bulk_load(records.values(), order=sorted(records))
    second = first.connect_worker()
    rng = random.Random(11)
    try:
        for step in range(40):
            writer = (first, second)[step % 2]
            refs = tuple(rng.choice((None, 2, 3, 4)) for _ in
                         range(rng.randint(0, NREF + 1)))
            writer.write_many([records[1].with_refs(refs), records[2]])
            writer.flush()
            for reader in (first, second):
                assert reader.read_object(1).refs == refs
                assert reader.traverse_refs_many([1]) == \
                    {1: tuple(ref for ref in refs if ref is not None)}
    finally:
        second.close()
        first.close()
