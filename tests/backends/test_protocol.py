"""Protocol conformance: every engine honours the Backend contract."""

from __future__ import annotations

import pytest

from repro.core.session import Session
from repro.errors import StorageError, UnknownObject
from repro.store.serializer import StoredObject, encode_object
from repro.store.storage import ObjectStore


def make_records(count, cid=1, filler=20):
    return [StoredObject(oid=i + 1, cid=cid,
                         refs=(None if i == 0 else i, (i % count) + 1),
                         filler=filler)
            for i in range(count)]


class TestBulkLoad:
    def test_returns_positive_units(self, backend):
        assert backend.bulk_load(make_records(10)) > 0

    def test_requires_empty_backend(self, backend):
        backend.bulk_load(make_records(5))
        with pytest.raises(StorageError):
            backend.bulk_load(make_records(5))

    def test_rejects_duplicate_oids(self, backend):
        records = make_records(4) + [make_records(1)[0]]
        with pytest.raises(StorageError):
            backend.bulk_load(records)

    def test_rejects_non_permutation_order(self, backend):
        with pytest.raises(StorageError):
            backend.bulk_load(make_records(4), order=[1, 2, 3, 9])

    def test_order_becomes_current_order(self, backend):
        order = [3, 1, 4, 2, 5]
        backend.bulk_load(make_records(5), order=order)
        if backend.name in ("sqlite", "sharded-sqlite"):
            # An INTEGER PRIMARY KEY table is clustered by oid (the
            # sharded engine's canonical order is global oid order).
            assert backend.current_order() == sorted(order)
        else:
            assert backend.current_order() == order


class TestAccessPaths:
    def test_read_returns_identical_record(self, loaded_backend,
                                           small_database):
        records = small_database.to_records()
        oid = sorted(records)[0]
        assert loaded_backend.read_object(oid) == records[oid]

    def test_read_unknown_raises(self, loaded_backend):
        with pytest.raises(UnknownObject):
            loaded_backend.read_object(999_999)

    def test_write_persists(self, loaded_backend, small_database):
        records = small_database.to_records()
        oid = sorted(records)[0]
        changed = records[oid].with_back_refs(((42, 0),))
        loaded_backend.write_object(changed)
        assert loaded_backend.read_object(oid) == changed

    def test_write_unknown_raises(self, backend):
        backend.bulk_load(make_records(3))
        with pytest.raises(UnknownObject):
            backend.write_object(StoredObject(oid=77, cid=1))

    def test_insert_then_read(self, loaded_backend):
        record = StoredObject(oid=500_000, cid=1, refs=(1,), filler=8)
        loaded_backend.insert_object(record)
        assert loaded_backend.read_object(500_000) == record

    def test_insert_duplicate_raises(self, loaded_backend, small_database):
        oid = sorted(small_database.to_records())[0]
        with pytest.raises(StorageError):
            loaded_backend.insert_object(StoredObject(oid=oid, cid=1))

    def test_delete_removes(self, loaded_backend, small_database):
        oid = sorted(small_database.to_records())[0]
        before = loaded_backend.object_count
        loaded_backend.delete_object(oid)
        assert loaded_backend.object_count == before - 1
        assert oid not in loaded_backend
        with pytest.raises(UnknownObject):
            loaded_backend.read_object(oid)

    def test_delete_unknown_raises(self, loaded_backend):
        with pytest.raises(UnknownObject):
            loaded_backend.delete_object(999_999)


class TestBatchedAccess:
    def test_read_many_matches_point_reads(self, loaded_backend,
                                           small_database):
        records = small_database.to_records()
        oids = sorted(records)[:25]
        batch = loaded_backend.read_many(oids)
        assert set(batch) == set(oids)
        for oid in oids:
            assert batch[oid] == records[oid]

    def test_read_many_dedupes(self, loaded_backend, small_database):
        oid = sorted(small_database.to_records())[0]
        before = loaded_backend.snapshot().object_accesses
        batch = loaded_backend.read_many([oid, oid, oid])
        assert list(batch) == [oid]
        # Duplicates are fetched (and charged) once.
        assert loaded_backend.snapshot().object_accesses == before + 1

    def test_read_many_unknown_raises(self, loaded_backend):
        with pytest.raises(UnknownObject):
            loaded_backend.read_many([999_999])

    def test_read_many_empty(self, loaded_backend):
        assert loaded_backend.read_many([]) == {}

    def test_write_many_persists(self, loaded_backend, small_database):
        records = small_database.to_records()
        changed = [records[oid].with_back_refs(((1000 + oid, 0),))
                   for oid in sorted(records)[:10]]
        loaded_backend.write_many(changed)
        for record in changed:
            assert loaded_backend.read_object(record.oid) == record

    def test_write_many_unknown_raises(self, backend):
        backend.bulk_load(make_records(3))
        with pytest.raises(UnknownObject):
            backend.write_many([StoredObject(oid=77, cid=1)])

    def test_batched_flags_are_consistent(self, backend):
        # Engines declaring native batching must override the loop.
        from repro.backends import Backend
        if backend.supports_batched_reads:
            assert type(backend).read_many is not Backend.read_many


class TestColdCacheControl:
    def test_drop_caches_reports_bool(self, loaded_backend):
        result = loaded_backend.drop_caches()
        assert isinstance(result, bool)

    def test_memory_reports_no_cache(self):
        from repro.backends import MemoryBackend
        backend = MemoryBackend()
        backend.bulk_load(make_records(3))
        assert backend.drop_caches() is False

    def test_engines_with_cache_report_true(self, loaded_backend):
        if loaded_backend.name == "memory":
            pytest.skip("the dict backend has no cache")
        assert loaded_backend.drop_caches() is True

    def test_data_survives_cache_drop(self, loaded_backend, small_database):
        records = small_database.to_records()
        loaded_backend.drop_caches()
        assert loaded_backend.object_count == len(records)
        oid = sorted(records)[0]
        assert loaded_backend.read_object(oid) == records[oid]

    def test_mutations_survive_cache_drop(self, loaded_backend,
                                          small_database):
        oid = sorted(small_database.to_records())[0]
        changed = small_database.to_records()[oid].with_back_refs(((7, 1),))
        loaded_backend.write_object(changed)
        loaded_backend.drop_caches()
        assert loaded_backend.read_object(oid) == changed


class TestSQLiteBatching:
    """The native set-oriented access path saves real round trips."""

    def _loaded(self, small_database):
        from repro.backends import SQLiteBackend
        backend = SQLiteBackend(page_size=512, cache_pages=16)
        records = small_database.to_records()
        backend.bulk_load(records.values(), order=sorted(records))
        backend.reset_stats()
        return backend

    def test_read_many_is_one_round_trip(self, small_database):
        backend = self._loaded(small_database)
        oids = sorted(small_database.objects)[:50]
        before = backend.sql_round_trips
        backend.read_many(oids)
        assert backend.sql_round_trips == before + 1
        backend.close()

    def test_read_many_chunks_above_variable_limit(self, small_database):
        from repro.backends.sqlite import _MAX_BATCH_VARIABLES
        backend = self._loaded(small_database)
        # Duplicate the oid list beyond the chunk size; uniques fit in 1.
        oids = sorted(small_database.objects)
        wanted = (oids * ((_MAX_BATCH_VARIABLES // len(oids)) + 2))
        before = backend.sql_round_trips
        batch = backend.read_many(wanted)
        assert set(batch) == set(oids)
        assert backend.sql_round_trips == before + 1
        backend.close()

    def test_write_many_is_one_round_trip(self, small_database):
        backend = self._loaded(small_database)
        records = small_database.to_records()
        changed = [records[oid].with_back_refs(((42, 0),))
                   for oid in sorted(records)[:20]]
        before = backend.sql_round_trips
        backend.write_many(changed)
        assert backend.sql_round_trips == before + 1
        backend.close()

    def test_round_trips_reset_with_stats(self, small_database):
        backend = self._loaded(small_database)
        backend.read_object(sorted(small_database.objects)[0])
        assert backend.sql_round_trips > 0
        backend.reset_stats()
        assert backend.sql_round_trips == 0
        backend.close()


class TestTraverseRefs:
    def test_matches_record_refs(self, loaded_backend, small_database):
        records = small_database.to_records()
        for oid in sorted(records)[:20]:
            assert loaded_backend.traverse_refs(oid) == \
                records[oid].non_null_refs()

    def test_unknown_raises(self, loaded_backend):
        with pytest.raises(UnknownObject):
            loaded_backend.traverse_refs(999_999)


class TestAccounting:
    def test_object_count_and_len(self, backend):
        backend.bulk_load(make_records(7))
        assert backend.object_count == 7
        assert len(backend) == 7

    def test_iter_oids_complete(self, backend):
        backend.bulk_load(make_records(6))
        assert sorted(backend.iter_oids()) == [1, 2, 3, 4, 5, 6]

    def test_contains(self, backend):
        backend.bulk_load(make_records(3))
        assert 2 in backend
        assert 99 not in backend

    def test_object_accesses_counted(self, loaded_backend, small_database):
        oid = sorted(small_database.to_records())[0]
        loaded_backend.read_object(oid)
        loaded_backend.read_object(oid)
        assert loaded_backend.snapshot().object_accesses == 2

    def test_reset_stats(self, loaded_backend, small_database):
        loaded_backend.read_object(sorted(small_database.to_records())[0])
        loaded_backend.reset_stats()
        assert loaded_backend.snapshot().object_accesses == 0

    def test_snapshot_deltas_subtract(self, loaded_backend, small_database):
        oids = sorted(small_database.to_records())[:5]
        before = loaded_backend.snapshot()
        for oid in oids:
            loaded_backend.read_object(oid)
        delta = loaded_backend.snapshot() - before
        assert delta.object_accesses == 5

    def test_stats_is_dict(self, loaded_backend):
        stats = loaded_backend.stats()
        assert isinstance(stats, dict)
        assert stats["objects"] == loaded_backend.object_count


class TestProtocolSurface:
    """The members Session calls on every engine without probing."""

    def test_name_is_the_registry_key(self, backend, request):
        assert backend.name == request.node.callspec.params["backend"]

    def test_flush_returns_int(self, loaded_backend):
        assert isinstance(loaded_backend.flush(), int)

    def test_supports_flags_are_bools(self, backend):
        for flag in ("supports_clustering", "supports_batched_reads"):
            assert isinstance(getattr(backend, flag), bool), flag


class TestObjectStoreBackend:
    """The paged store is the ``simulated`` engine itself."""

    def test_supports_clustering_flag(self):
        assert ObjectStore().supports_clustering

    def test_session_reports_the_registry_name(self):
        assert Session(ObjectStore(page_size=512)).backend_name == \
            "simulated"

    def test_close_writes_dirty_pages_back(self):
        store = ObjectStore(page_size=512, buffer_pages=4)
        records = make_records(10)
        store.bulk_load(records)
        changed = records[0].with_refs((5, 6))
        store.write_object(changed)
        offset, length = store.location_of(changed.oid)
        assert offset + length <= store.page_size
        assert store.disk.peek(0)[offset:offset + length] != \
            encode_object(changed)
        store.close()
        assert store.disk.peek(0)[offset:offset + length] == \
            encode_object(changed)
        assert store.flush() == 0


class TestTraverseRefsMany:
    """Batched reference traversal: loop fallback + SQLite blob walk."""

    def _sqlite(self, small_database):
        from repro.backends import SQLiteBackend
        backend = SQLiteBackend(page_size=512, cache_pages=16)
        records = small_database.to_records()
        backend.bulk_load(records.values(), order=sorted(records))
        backend.reset_stats()
        return backend

    def test_fallback_matches_per_object_traversal(self, loaded_backend,
                                                   small_database):
        oids = sorted(small_database.objects)[:30]
        batched = loaded_backend.traverse_refs_many(oids)
        assert batched == {oid: loaded_backend.traverse_refs(oid)
                           for oid in oids}

    def test_fallback_missing_oid_raises(self, loaded_backend):
        from repro.errors import UnknownObject
        with pytest.raises(UnknownObject):
            loaded_backend.traverse_refs_many([999999])

    def test_link_index_one_round_trip_no_decode(self, small_database):
        backend = self._sqlite(small_database)
        oids = sorted(small_database.objects)[:50]
        expected = {oid: small_database.to_records()[oid].non_null_refs()
                    for oid in oids}
        before = backend.sql_round_trips
        answered = backend.traverse_refs_many(oids)
        assert backend.sql_round_trips == before + 1
        assert answered == expected
        backend.close()

    def test_link_index_covers_zero_ref_objects(self, small_database):
        backend = self._sqlite(small_database)
        oids = sorted(small_database.objects)
        answered = backend.traverse_refs_many(oids)
        assert set(answered) == set(oids)
        backend.close()

    def test_link_index_missing_oid_raises(self, small_database):
        from repro.errors import UnknownObject
        backend = self._sqlite(small_database)
        with pytest.raises(UnknownObject):
            backend.traverse_refs_many([1, 999999])
        backend.close()

    def test_link_index_maintained_across_mutations(self, small_database):
        backend = self._sqlite(small_database)
        records = small_database.to_records()
        oids = sorted(records)
        first, second = oids[0], oids[1]
        # Update: rewrite first's references to point at second only.
        changed = records[first].with_refs((second,))
        backend.write_object(changed)
        assert backend.traverse_refs_many([first])[first] == (second,)
        # Insert: a brand-new object referencing first.
        from repro.store.serializer import StoredObject
        fresh = StoredObject(oid=max(oids) + 1, cid=1,
                             refs=(first, None), filler=16)
        backend.insert_object(fresh)
        assert backend.traverse_refs_many([fresh.oid])[fresh.oid] == (first,)
        # Delete: the victim is gone from the walk too.
        backend.delete_object(fresh.oid)
        from repro.errors import UnknownObject
        with pytest.raises(UnknownObject):
            backend.traverse_refs_many([fresh.oid])
        backend.close()

    def test_session_passthrough(self, small_database):
        from repro.core.session import Session
        backend = self._sqlite(small_database)
        session = Session(backend)
        oids = sorted(small_database.objects)[:10]
        expected = {oid: small_database.to_records()[oid].non_null_refs()
                    for oid in oids}
        assert session.traverse_refs_many(oids) == expected
        session.close()

    def test_link_index_consistent_after_partial_write_many(
            self, small_database):
        """A write_many batch that hits a missing oid still writes, and
        walks, every row it did update."""
        from repro.errors import UnknownObject
        backend = self._sqlite(small_database)
        records = small_database.to_records()
        first, second = sorted(records)[:2]
        changed = records[first].with_refs((second,))
        missing = records[second].with_refs(())
        missing = type(missing)(oid=max(records) + 1, cid=1,
                                refs=(first,), filler=8)
        with pytest.raises(UnknownObject):
            backend.write_many([changed, missing])
        # The row that did update answers identically via both paths.
        assert backend.read_object(first).non_null_refs() == (second,)
        assert backend.traverse_refs_many([first])[first] == (second,)
        backend.close()

    def test_no_phantom_round_trips_for_leaf_records(self, small_database):
        """One statement per insert and one per write: the round-trip
        counter the benchmarks compare carries no extra statement."""
        from repro.store.serializer import StoredObject
        backend = self._sqlite(small_database)
        leaf = StoredObject(oid=max(small_database.objects) + 1, cid=1,
                            refs=(None, None), filler=8)
        before = backend.sql_round_trips
        backend.insert_object(leaf)
        assert backend.sql_round_trips == before + 1  # objects INSERT
        before = backend.sql_round_trips
        backend.write_object(leaf)
        assert backend.sql_round_trips == before + 1  # objects UPDATE
        backend.close()


class TestTraverseUntil:
    """``traverse_refs_many(oids, until)``: the engine stops reading at
    the first answer *until* accepts."""

    OIDS = [17, 3, 42, 8, 3, 29, 11, 56, 2, 40]

    @staticmethod
    def _stop_at(k, seen):
        def until(oid, refs):
            seen.append((oid, refs))
            return len(seen) == k
        return until

    @pytest.mark.parametrize("k", [1, 4, 9])
    def test_stops_on_the_kth_answer(self, loaded_backend, k):
        full = list(loaded_backend.traverse_refs_many(self.OIDS).items())
        seen = []
        answered = loaded_backend.traverse_refs_many(
            self.OIDS, self._stop_at(k, seen))
        assert list(answered.items()) == full[:k]
        assert seen == full[:k]

    def test_without_until_behaves_as_before(self, loaded_backend):
        expected = {oid: loaded_backend.traverse_refs(oid)
                    for oid in self.OIDS}
        assert loaded_backend.traverse_refs_many(self.OIDS) == expected
        assert loaded_backend.traverse_refs_many(
            self.OIDS, until=None) == expected
        seen = []
        assert loaded_backend.traverse_refs_many(
            self.OIDS, self._stop_at(0, seen)) == expected
        assert len(seen) == len(expected)

    def test_missing_oid_reached_before_the_stop_raises(self,
                                                        loaded_backend):
        # 0 is below every stored oid and first in request order, so
        # every engine passes it before answering oid 7.
        with pytest.raises(UnknownObject) as excinfo:
            loaded_backend.traverse_refs_many(
                [5, 0, 6, 7, 9], until=lambda oid, refs: oid == 7)
        assert excinfo.value.args[0] == 0

    def test_oids_after_the_stop_are_not_checked(self, loaded_backend):
        call = lambda: loaded_backend.traverse_refs_many(  # noqa: E731
            [5, 6, 7, 999999], until=lambda oid, refs: oid == 6)
        if loaded_backend.name == "sharded-sqlite":
            # The sharded engine reads every shard's slice before it
            # applies until, so the whole batch is checked.
            with pytest.raises(UnknownObject):
                call()
            return
        assert list(call()) == [5, 6]

    def test_sqlite_counts_only_rows_and_chunks_issued(self):
        from repro.backends import SQLiteBackend
        backend = SQLiteBackend(page_size=512, cache_pages=16)
        backend.bulk_load(make_records(1200))
        oids = list(range(1, 1201))
        for stop, trips in ((3, 1), (500, 1), (501, 2), (1150, 3),
                            (None, 3)):
            backend.reset_stats()
            answered = backend.traverse_refs_many(
                oids, until=None if stop is None
                else (lambda oid, refs, stop=stop: oid == stop))
            rows = 1200 if stop is None else stop
            assert len(answered) == rows
            assert backend.sql_round_trips == trips
            assert backend.decodes_avoided == rows
            assert backend.object_accesses == rows
        backend.close()

    def test_sqlite_emits_one_record_on_every_exit(self, tmp_path):
        from repro.backends import SQLiteBackend
        from repro.obs import trace
        backend = SQLiteBackend(page_size=512, cache_pages=16)
        backend.bulk_load(make_records(20))

        def boom(oid, refs):
            raise RuntimeError("until failed")

        path = str(tmp_path / "trace.jsonl")
        trace.enable(path)
        try:
            backend.traverse_refs_many([1, 2, 3])
            backend.traverse_refs_many([1, 2, 3],
                                       until=lambda oid, refs: oid == 2)
            with pytest.raises(RuntimeError):
                backend.traverse_refs_many([1, 2, 3], until=boom)
            with pytest.raises(UnknownObject):
                backend.traverse_refs_many([1, 999999])
        finally:
            trace.disable()
            backend.close()
        records = [(span.attrs["oids"], span.attrs["rows"])
                   for span in trace.spans(path)
                   if span.name == "sqlite.traverse_refs_many"]
        assert records == [(3, 3), (3, 2), (3, 1), (2, 1)]

    def test_sqlite_releases_its_read_lock_on_every_exit(self, tmp_path):
        """Rollback-journal mode: a SHARED lock left by an unfinished
        cursor would make another connection's commit fail at once."""
        import sqlite3
        from repro.backends import SQLiteBackend
        path = str(tmp_path / "walk.db")
        backend = SQLiteBackend(path=path, journal_mode="DELETE")
        backend.bulk_load(make_records(50))

        def commit_elsewhere():
            other = sqlite3.connect(path, timeout=0, isolation_level=None)
            try:
                other.execute("BEGIN IMMEDIATE")
                other.execute("UPDATE objects SET cid = cid WHERE oid = 1")
                other.execute("COMMIT")
            finally:
                other.close()

        def boom(oid, refs):
            raise RuntimeError("until failed")

        answered = backend.traverse_refs_many(
            range(1, 51), until=lambda oid, refs: oid == 3)
        assert list(answered) == [1, 2, 3]
        commit_elsewhere()
        with pytest.raises(RuntimeError) as excinfo:
            backend.traverse_refs_many(range(1, 51), until=boom)
        # The traceback (and the call's frame) is still alive here.
        assert excinfo.traceback
        commit_elsewhere()
        backend.close()
