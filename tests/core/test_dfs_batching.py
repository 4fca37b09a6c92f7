"""Depth-first traversals fetch one level per round trip, walk unchanged.

Simple and hierarchy transactions prefetch the root's subtree level by
level before they walk it.  On SQLite a batched session must give the
same ``TransactionResult`` and the same ordered policy observations as
an unbatched one, in strictly fewer SQL round trips: an untruncated walk
of depth d costs the root's read plus at most d statements per chunk of
``read_many``.  On the classic ``ObjectStore`` (no native batching) the
engine must see exactly the per-object reads it always did.
"""

from __future__ import annotations

import math

import pytest

from repro.backends import SQLiteBackend
from repro.backends.sqlite import _MAX_BATCH_VARIABLES
from repro.clustering.base import NoClustering
from repro.core.session import Session
from repro.core.transactions import (
    TransactionKind,
    TransactionSpec,
    run_transaction,
)
from repro.rand.lewis_payne import LewisPayne

ROOTS = (1, 17, 58, 123, 250)


class LoggingPolicy(NoClustering):
    """Records every ``observe_access`` call in order."""

    def __init__(self) -> None:
        self.calls = []

    def observe_access(self, source, target, ref_type=None) -> None:
        self.calls.append((source, target, ref_type))


class PerObjectSQLite(SQLiteBackend):
    """SQLite declaring no batched reads: the Session reads per object."""

    supports_batched_reads = False


def sqlite_session(database, engine=SQLiteBackend):
    backend = engine(page_size=512, cache_pages=16)
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return Session(backend, policy=LoggingPolicy(),
                   tref_table=database.tref_table(),
                   catalog=database.catalog())


def specs():
    cases = []
    for kind, ref_type in ((TransactionKind.SIMPLE, None),
                           (TransactionKind.HIERARCHY, 2)):
        for reverse in (False, True):
            for dedupe in (False, True):
                cases.extend(
                    TransactionSpec(kind=kind, root=root, depth=4,
                                    reverse=reverse, ref_type=ref_type,
                                    dedupe=dedupe)
                    for root in ROOTS)
    # One run cut short by the visit budget.
    cases.append(TransactionSpec(kind=TransactionKind.SIMPLE, root=1,
                                 depth=6, max_visits=40))
    return cases


def run_all(session):
    results = [run_transaction(session, spec, LewisPayne(7))
               for spec in specs()]
    return results, session.policy.calls


class TestSQLiteBatching:
    def test_batched_matches_unbatched_in_fewer_round_trips(
            self, small_database):
        batched = sqlite_session(small_database)
        plain = sqlite_session(small_database, PerObjectSQLite)
        assert batched.batch_reads and not plain.batch_reads
        try:
            batched_results, batched_calls = run_all(batched)
            plain_results, plain_calls = run_all(plain)
            assert batched_results == plain_results
            assert batched_calls == plain_calls
            assert any(result.truncated for result in batched_results)
            assert batched.store.sql_round_trips < \
                plain.store.sql_round_trips
        finally:
            batched.close()
            plain.close()

    @pytest.mark.parametrize("kind,ref_type", [
        (TransactionKind.SIMPLE, None), (TransactionKind.HIERARCHY, 2)])
    @pytest.mark.parametrize("reverse", (False, True))
    def test_one_statement_per_level(self, small_database, kind, ref_type,
                                     reverse):
        depth = 4
        session = sqlite_session(small_database)
        try:
            for root in ROOTS:
                before = session.store.sql_round_trips
                result = run_transaction(session, TransactionSpec(
                    kind=kind, root=root, depth=depth, reverse=reverse,
                    ref_type=ref_type, max_visits=10 ** 6), LewisPayne(7))
                assert not result.truncated
                trips = session.store.sql_round_trips - before
                chunks = math.ceil(result.visits / _MAX_BATCH_VARIABLES)
                assert trips <= 1 + depth * chunks
        finally:
            session.close()

    def test_every_visit_after_the_root_is_served(self, small_database):
        # Duplicates included: each requested occurrence has its own serve.
        backend = sqlite_session(small_database).store
        store = RecordingStore(backend)
        session = Session(store, tref_table=small_database.tref_table(),
                          catalog=small_database.catalog())
        try:
            for root in ROOTS:
                store.reads.clear()
                result = run_transaction(session, TransactionSpec(
                    kind=TransactionKind.SIMPLE, root=root, depth=4,
                    max_visits=10 ** 6), LewisPayne(7))
                assert result.visits > result.distinct_objects > 1
                assert store.reads == [root]
        finally:
            session.close()


class RecordingStore:
    """Delegates to an engine, logging the point reads it serves."""

    def __init__(self, store) -> None:
        self._store = store
        self.reads = []

    def read_object(self, oid):
        self.reads.append(oid)
        return self._store.read_object(oid)

    def __getattr__(self, name):
        return getattr(self._store, name)


class TestObjectStoreUnchanged:
    @pytest.mark.parametrize("kind,ref_type", [
        (TransactionKind.SIMPLE, None), (TransactionKind.HIERARCHY, 2)])
    def test_one_read_per_access_and_no_prefetch(
            self, small_database, loaded_store, kind, ref_type, monkeypatch):
        store = RecordingStore(loaded_store)
        session = Session(store, policy=LoggingPolicy(),
                          tref_table=small_database.tref_table(),
                          catalog=small_database.catalog())
        assert not session.batch_reads
        monkeypatch.setattr(session, "prefetch", pytest.fail)
        for root in ROOTS:
            run_transaction(session, TransactionSpec(
                kind=kind, root=root, depth=4, ref_type=ref_type),
                LewisPayne(7))
        assert store.reads == [target for _, target, _ in
                               session.policy.calls]
        snapshot = loaded_store.snapshot()
        assert snapshot.object_accesses == len(store.reads)
