"""The unified execution kernel: construction, access, batching, metrics."""

from __future__ import annotations

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.core.session import Session
from repro.errors import BackendError
from repro.store.storage import StoreConfig


def loaded_sqlite(database):
    backend = SQLiteBackend(page_size=512, cache_pages=16)
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend


class TestConstruction:
    def test_wraps_classic_store(self, loaded_store):
        session = Session(loaded_store)
        assert session.object_count == loaded_store.object_count
        assert not session.batch_reads

    def test_for_database_with_backend_name(self, small_database):
        session = Session.for_database(small_database, "memory")
        assert session.backend_name == "memory"
        assert session.object_count == small_database.num_objects
        # Counters were reset after the bulk load.
        assert session.snapshot().object_accesses == 0
        session.close()

    def test_for_database_default_is_simulated(self, small_database):
        session = Session.for_database(
            small_database, store_config=StoreConfig(page_size=512,
                                                     buffer_pages=8))
        assert session.backend_name == "simulated"
        session.close()

    def test_for_database_unknown_name(self, small_database):
        with pytest.raises(BackendError):
            Session.for_database(small_database, "no-such-engine")


class TestBatching:
    def test_auto_detects_sqlite(self, small_database):
        session = Session(loaded_sqlite(small_database))
        assert session.batch_reads
        session.close()

    def test_auto_detects_non_batched(self, small_database):
        session = Session.for_database(small_database, "memory")
        assert not session.batch_reads
        session.close()

    def test_forced_off(self, small_database):
        # The engine's flag alone decides: a SQLite engine that declares
        # no batched reads runs per object.
        class PerObjectSQLite(SQLiteBackend):
            supports_batched_reads = False

        session = Session(PerObjectSQLite(page_size=512, cache_pages=16))
        assert not session.batch_reads
        assert session.prefetch([1, 2]) == 0
        session.close()

    def test_prefetch_serves_access_without_round_trips(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oids = sorted(small_database.objects)[:10]
        fetched = session.prefetch(oids)
        assert fetched == len(oids)
        trips = backend.sql_round_trips
        for oid in oids:
            session.access(oid)
        assert backend.sql_round_trips == trips  # All served from cache.
        session.close()

    def test_prefetch_skips_cached(self, small_database):
        session = Session(loaded_sqlite(small_database))
        oids = sorted(small_database.objects)[:5]
        assert session.prefetch(oids) == 5
        assert session.prefetch(oids) == 0
        session.close()

    def test_prefetch_noop_without_batching(self, loaded_store,
                                            small_database):
        session = Session(loaded_store)
        assert session.prefetch(sorted(small_database.objects)[:5]) == 0

    def test_prefetched_record_consumed_by_first_serve(self, small_database):
        # One requested occurrence buys one serve: a repeat visit beyond
        # it is charged to the engine (OO1 heritage: duplicates count).
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid = sorted(small_database.objects)[0]
        session.prefetch([oid])
        trips = backend.sql_round_trips
        session.access(oid)
        assert backend.sql_round_trips == trips       # Served from cache.
        session.access(oid)
        assert backend.sql_round_trips == trips + 1   # Cache was consumed.
        session.close()

    def test_one_serve_per_requested_occurrence(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid = sorted(small_database.objects)[0]
        assert session.prefetch([oid, oid]) == 1  # Fetched once.
        trips = backend.sql_round_trips
        session.access(oid)
        session.touch(oid)
        assert backend.sql_round_trips == trips       # Both served.
        session.access(oid)
        assert backend.sql_round_trips == trips + 1   # Serves used up.
        session.close()

    def test_repeat_request_adds_serves_without_a_fetch(self,
                                                        small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        first, second = sorted(small_database.objects)[:2]
        session.prefetch([first])
        trips = backend.sql_round_trips
        assert session.prefetch([first, second, first]) == 1
        assert backend.sql_round_trips == trips + 1   # Only *second*.
        for oid in (first, first, second, first):
            session.access(oid)
        assert backend.sql_round_trips == trips + 1
        session.access(first)
        assert backend.sql_round_trips == trips + 2
        session.close()

    def test_write_drops_pending_serves(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        records = small_database.to_records()
        oid = sorted(records)[0]
        session.prefetch([oid, oid])
        changed = records[oid].with_back_refs(((999, 0),))
        session.write_record(changed)
        trips = backend.sql_round_trips
        assert session.access(oid) == changed
        assert session.access(oid) == changed
        assert backend.sql_round_trips == trips + 2   # Both re-read.
        session.close()

    def test_end_transaction_drops_pending_serves(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid = sorted(small_database.objects)[0]
        session.prefetch([oid, oid])
        session.access(oid)
        session.end_transaction()
        assert session.peek(oid) is None
        trips = backend.sql_round_trips
        session.access(oid)
        assert backend.sql_round_trips == trips + 1   # Serve was dropped.
        session.close()

    def test_scan_cache_stays_bounded(self, small_database):
        from repro.core.scenario import ClientExecutor, WorkloadMix
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        executor = ClientExecutor(small_database,
                                  WorkloadMix.from_operation_weights(),
                                  session)
        executor.op_sequential_scan()
        assert not session._prefetched  # Every chunk record was consumed.
        session.close()

    def test_end_transaction_clears_cache(self, small_database):
        backend = loaded_sqlite(small_database)
        session = Session(backend)
        oid = sorted(small_database.objects)[0]
        session.prefetch([oid])
        session.end_transaction()
        trips = backend.sql_round_trips
        session.access(oid)
        assert backend.sql_round_trips == trips + 1  # Cache was dropped.
        session.close()

    def test_write_invalidates_prefetched_record(self, small_database):
        session = Session(loaded_sqlite(small_database))
        records = small_database.to_records()
        oid = sorted(records)[0]
        session.prefetch([oid])
        changed = records[oid].with_back_refs(((999, 0),))
        session.write_record(changed)
        assert session.access(oid) == changed
        session.close()


class TestMetricsCharging:
    def test_measure_span(self, loaded_store, small_database):
        session = Session(loaded_store)
        oids = sorted(small_database.objects)[:5]
        with session.measure() as span:
            for oid in oids:
                session.access(oid)
        assert span.delta is not None
        assert span.delta.object_accesses == 5
        assert span.wall > 0.0

    def test_charge_think_time(self, loaded_store):
        session = Session(loaded_store)
        before = loaded_store.clock.now
        session.charge_think_time(0.5)
        assert loaded_store.clock.now == pytest.approx(before + 0.5)

    def test_zero_think_time_is_free(self, loaded_store):
        session = Session(loaded_store)
        before = loaded_store.clock.now
        session.charge_think_time(0.0)
        assert loaded_store.clock.now == before


class TestLifecycle:
    def test_drop_caches_reports_honestly(self, small_database):
        config = StoreConfig(page_size=512, buffer_pages=8)
        records = small_database.to_records()

        for factory, expected in (
                (config.build, True),
                (MemoryBackend, False),
                (lambda: SQLiteBackend(page_size=512, cache_pages=8), True)):
            backend = factory()
            backend.bulk_load(records.values(), order=sorted(records))
            session = Session(backend)
            assert session.drop_caches() is expected
            # The engine still answers reads after a cache drop.
            oid = sorted(records)[0]
            assert session.access(oid) == records[oid]
            session.close()

    def test_drop_caches_on_classic_store(self, loaded_store):
        assert Session(loaded_store).drop_caches() is True

    def test_flush_and_reset(self, loaded_store, small_database):
        session = Session(loaded_store)
        session.access(sorted(small_database.objects)[0])
        session.flush()
        session.reset_stats()
        assert session.snapshot().object_accesses == 0


class TestPolicyOwnership:
    """A Session owns its policy; the executor driving it uses that one."""

    def test_same_policy_instance_accepted(self, small_database,
                                           loaded_store):
        from repro.core.parameters import WorkloadParameters
        from repro.core.scenario import ClientExecutor, WorkloadMix
        from repro.clustering.base import NoClustering
        policy = NoClustering()
        session = Session(loaded_store, policy=policy)
        params = WorkloadParameters(cold_n=0, hot_n=1)
        executor = ClientExecutor(
            small_database, WorkloadMix.from_workload_parameters(params),
            session)
        assert executor.policy is policy
