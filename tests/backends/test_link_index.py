"""The SQLite ``links`` table stays in lockstep with the stored blobs.

No traversal reads ``links`` (``traverse_refs_many`` decodes the blob),
so a write path that mis-maintains it would pass every read-back check.
These tests read the table itself: after every step of random mutation
sequences, after a ``write_mix``-shaped executor run and after
interleaved writers on one WAL file, :meth:`link_index_drift` — the
symmetric difference of ``links`` and the non-NULL slots of every
decoded blob — must be empty, on ``SQLiteBackend(ref_index=True)`` and
on every shard of ``sharded-sqlite``.  The round-trip cost of the
diffed write path is pinned alongside.
"""

from __future__ import annotations

import copy
import random
import threading
from dataclasses import replace
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import ShardedSQLiteBackend, SQLiteBackend
from repro.core.scenario import (
    MixEntry,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
)
from repro.errors import UnknownObject
from repro.store.serializer import StoredObject

ENGINES = {
    "sqlite": lambda: SQLiteBackend(page_size=512, cache_pages=16,
                                    ref_index=True),
    "sharded-sqlite": lambda: ShardedSQLiteBackend(
        shards=3, page_size=512, cache_pages=16, ref_index=True),
}

#: The ``write_mix`` benchmark workload's op shares.
WRITE_MIX = WorkloadMix(name="write_mix", entries=(
    MixEntry("insert", weight=0.25),
    MixEntry("update", weight=0.50),
    MixEntry("delete", weight=0.10),
    MixEntry("simple", weight=0.15, depth=2)))

SEED_OBJECTS = 10
NREF = 4


def assert_links_match(backend) -> None:
    assert backend.link_index_drift() == set()


def seed_records() -> Dict[int, StoredObject]:
    rng = random.Random(7)
    oids = range(1, SEED_OBJECTS + 1)
    return {oid: StoredObject(
        oid=oid, cid=1, filler=8,
        refs=tuple(rng.choice((None,) + tuple(oids)) for _ in range(NREF)))
        for oid in oids}


def loaded(name: str, records: Dict[int, StoredObject]):
    backend = ENGINES[name]()
    backend.bulk_load(records.values(), order=sorted(records))
    assert_links_match(backend)
    return backend


# ---------------------------------------------------------------------- #
# Random mutation sequences
# ---------------------------------------------------------------------- #

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
        # Only the back refs and the payload change: no link statement.
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
def test_random_mutations_keep_links_matching_blobs(name, data):
    model = seed_records()
    backend = loaded(name, model)
    try:
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
                    # business (sharded stops at the failing shard); the
                    # links must match whatever did.
                    model.update(backend.read_many(oids))
            else:
                oid = data.draw(pick)
                model[oid] = _rewired(data, model, step, oid)
                backend.write_object(model[oid])
            backend.flush()
            assert_links_match(backend)
        stored = backend.read_many(sorted(model))
        assert {oid: r.refs for oid, r in stored.items()} == \
            {oid: r.refs for oid, r in model.items()}
    finally:
        backend.close()


def test_drift_reports_diverging_rows():
    """A stale row shows up twice: the blob's slot and the stray row."""
    backend = loaded("sqlite", seed_records())
    record = next(r for r in seed_records().values()
                  if any(ref is not None for ref in r.refs))
    slot = next(i for i, ref in enumerate(record.refs) if ref is not None)
    backend._conn.execute("UPDATE links SET dst = ? WHERE src = ? AND "
                          "idx = ?", (999, record.oid, slot))
    assert backend.link_index_drift() == {
        (record.oid, slot, record.refs[slot]), (record.oid, slot, 999)}
    backend.close()


def test_engine_without_index_reports_no_drift():
    backend = SQLiteBackend(page_size=512, cache_pages=16)
    records = seed_records()
    backend.bulk_load(records.values(), order=sorted(records))
    assert backend.link_index_drift() == set()
    backend.close()


# ---------------------------------------------------------------------- #
# Executor level
# ---------------------------------------------------------------------- #

def _write_mix_runner(database, engine, warm_ops: int = 0):
    """A one-client ``write_mix`` runner; its executor mutates a private
    copy of *database* (the session fixture stays untouched)."""
    scenario = Scenario(mix=WRITE_MIX, clients=1, cold_ops=0,
                        warm_ops=warm_ops, seed=2718)
    return ScenarioRunner(copy.deepcopy(database), scenario, store=engine)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_write_mix_run_keeps_links_matching_blobs(name, small_database):
    engine = ENGINES[name]()
    report = _write_mix_runner(small_database, engine, warm_ops=300).run()
    writes = report.clients[0].warm.per_class
    assert {"insert", "update", "delete"} <= set(writes)
    assert_links_match(engine)
    engine.close()


def _executor(small_database):
    engine = ENGINES["sqlite"]()
    runner = _write_mix_runner(small_database, engine)
    runner._resolve_engine()
    (executor,) = runner.build_executors(engine)
    return engine, executor


def _statements(engine) -> List[str]:
    issued: List[str] = []
    engine._conn.set_trace_callback(issued.append)
    return issued


class TestRoundTrips:
    def test_single_slot_update_costs_three(self, small_database):
        """Stored-refs SELECT + objects UPDATE + one link statement; an
        update that redraws the same target costs no link statement."""
        engine, executor = _executor(small_database)
        retargeted = 0
        for oid in sorted(small_database.objects)[:60]:
            before = list(executor.view.get(oid).oref)
            trips = engine.sql_round_trips
            executor.op_update(oid)
            changed = executor.view.get(oid).oref != before
            retargeted += changed
            assert engine.sql_round_trips - trips == (3 if changed else 2)
        assert retargeted > 10
        assert_links_match(engine)
        engine.close()

    def test_insert_rewrites_targets_without_link_statements(
            self, small_database):
        engine, executor = _executor(small_database)
        issued = _statements(engine)
        for _ in range(20):
            issued.clear()
            trips = engine.sql_round_trips
            executor.op_insert()
            links = [sql for sql in issued if "links" in sql]
            # Only insert_object's own link rows; the dirty targets
            # changed their back refs alone.
            assert all(sql.startswith("INSERT INTO links") for sql in links)
            expected = 4 if links else 1
            assert engine.sql_round_trips - trips == expected
        assert_links_match(engine)
        engine.close()

    def test_unchanged_write_many_issues_no_link_statement(self):
        backend = loaded("sqlite", seed_records())
        issued = _statements(backend)
        batch = [replace(r, filler=r.filler + 3)
                 for r in seed_records().values()]
        trips = backend.sql_round_trips
        backend.write_many(batch)
        assert backend.sql_round_trips - trips == 2
        assert not [sql for sql in issued if "links" in sql]
        backend.close()

    def test_stored_refs_read_is_chunked(self):
        """A batch wider than the IN-clause ceiling reads in chunks."""
        records = {oid: StoredObject(oid=oid, cid=1, refs=(oid,), filler=1)
                   for oid in range(1, 702)}
        backend = loaded("sqlite", records)
        batch = [r.with_refs((None,)) for r in records.values()]
        trips = backend.sql_round_trips
        backend.write_many(batch)
        # Two SELECT chunks + UPDATE + one DELETE batch.
        assert backend.sql_round_trips - trips == 4
        assert_links_match(backend)
        backend.close()


# ---------------------------------------------------------------------- #
# Two connections on one WAL file
# ---------------------------------------------------------------------- #

def _wal_engine(tmp_path) -> SQLiteBackend:
    backend = SQLiteBackend(path=str(tmp_path / "links.db"), page_size=512,
                            cache_pages=16, journal_mode="WAL",
                            synchronous="NORMAL", ref_index=True)
    records = seed_records()
    backend.bulk_load(records.values(), order=sorted(records))
    return backend


def test_interleaved_connections_diff_against_committed_rows(tmp_path):
    """Each writer diffs against what the other committed, not against
    a stale page cache of its own."""
    first = _wal_engine(tmp_path)
    second = first.connect_worker()
    rng = random.Random(11)
    record = seed_records()[1]
    try:
        for step in range(40):
            writer = (first, second)[step % 2]
            refs = tuple(rng.choice((None, 2, 3, 4)) for _ in
                         range(rng.randint(0, NREF + 1)))
            writer.write_many([record.with_refs(refs),
                               seed_records()[2]])
            writer.flush()
            assert_links_match(first)
            assert_links_match(second)
    finally:
        second.close()
        first.close()


def test_sibling_cannot_commit_between_read_and_update(tmp_path):
    """A sibling's write_many, started in another thread just before
    this connection's UPDATE runs, must wait for this transaction.

    Had the stored-refs read been taken outside the write lock, the
    sibling would commit new refs in that gap and the link diff would be
    taken against refs the row no longer holds.
    """
    first = _wal_engine(tmp_path)
    first.write_many([seed_records()[1].with_refs((2, 3))])
    first.flush()
    sibling_errors: List[Exception] = []

    def sibling() -> None:
        engine = SQLiteBackend(path=first.path, page_size=512,
                               cache_pages=16, journal_mode="WAL",
                               synchronous="NORMAL", ref_index=True)
        try:
            engine.write_many([seed_records()[1].with_refs((4, 5))])
            engine.flush()
        except Exception as exc:  # asserted on by the main thread
            sibling_errors.append(exc)
        finally:
            engine.close()

    thread = threading.Thread(target=sibling)

    def on_statement(sql: str) -> None:
        if sql.startswith("UPDATE objects") and thread.ident is None:
            thread.start()
            # Long enough for an unblocked sibling to commit.
            thread.join(timeout=0.5)

    first._conn.set_trace_callback(on_statement)
    first.write_many([seed_records()[1].with_refs((2, 3, 6))])
    first._conn.set_trace_callback(None)
    first.flush()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not sibling_errors
    assert_links_match(first)
    # The sibling waited for the lock, so its write landed last.
    assert first.read_object(1).refs == (4, 5)
    first.close()
