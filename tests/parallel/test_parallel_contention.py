"""Contention accounting: connect_worker, busy retries, pragma knobs."""

from __future__ import annotations

import os

import pytest

from repro.backends import MemoryBackend, SQLiteBackend
from repro.backends.registry import available_backends
from repro.errors import BackendError
from repro.store.serializer import StoredObject
from repro.store.storage import StoreConfig


def _file_backend(tmp_path, **kwargs):
    kwargs.setdefault("journal_mode", "WAL")
    kwargs.setdefault("synchronous", "NORMAL")
    kwargs.setdefault("busy_timeout_ms", 2000)
    return SQLiteBackend(path=str(tmp_path / "shared.db"), **kwargs)


def _records(n):
    return [StoredObject(oid=i, cid=1, filler=16) for i in range(1, n + 1)]


class TestConnectWorker:
    def test_default_refuses(self):
        for backend in (MemoryBackend(),
                        StoreConfig(page_size=512, buffer_pages=16).build()):
            assert backend.supports_concurrent_access is False
            with pytest.raises(BackendError, match="concurrent"):
                backend.connect_worker()

    def test_memory_sqlite_refuses(self):
        backend = SQLiteBackend()
        with pytest.raises(BackendError, match="memory"):
            backend.connect_worker()
        backend.close()

    def test_file_sqlite_shares_data_not_stats(self, tmp_path):
        parent = _file_backend(tmp_path)
        parent.bulk_load(_records(10))
        worker = parent.connect_worker()
        try:
            assert worker.object_count == 10
            assert worker.path == parent.path
            assert worker.journal_mode == parent.journal_mode
            assert worker.busy_timeout_ms == parent.busy_timeout_ms
            # Independent statistics: the worker's reads do not show up
            # on the parent connection.
            worker.read_object(1)
            assert worker.object_accesses == 1
            assert parent.object_accesses == 0
        finally:
            worker.close()
            parent.close()

    def test_worker_sees_parents_committed_writes(self, tmp_path):
        parent = _file_backend(tmp_path)
        parent.bulk_load(_records(5))
        parent.write_object(StoredObject(oid=3, cid=9, filler=16))
        worker = parent.connect_worker()  # connect_worker commits first
        try:
            assert worker.read_object(3).cid == 9
        finally:
            worker.close()
            parent.close()

    def test_concurrent_capability_registered(self):
        tagged = {info.name: info.capabilities
                  for info in available_backends()}
        assert "concurrent" in tagged["sqlite"]
        assert "concurrent" not in tagged["simulated"]
        assert "concurrent" not in tagged["memory"]


class TestBusyRetryAccounting:
    def test_collision_is_counted_then_succeeds(self, tmp_path):
        """A writer that finds the database locked retries inside its
        busy budget, counts every retry, and succeeds once the lock
        holder commits."""
        holder = _file_backend(tmp_path)
        holder.bulk_load(_records(8))
        contender = holder.connect_worker()
        try:
            holder._execute("BEGIN IMMEDIATE")
            holder._execute("UPDATE objects SET cid = 2 WHERE oid = 1")

            # The budget expires while the lock is held: counted + raised.
            short = SQLiteBackend(path=holder.path, journal_mode="WAL",
                                  synchronous="NORMAL", busy_timeout_ms=50)
            with pytest.raises(BackendError, match="locked"):
                short.write_object(StoredObject(oid=2, cid=5, filler=16))
            assert short.busy_retries > 0
            assert short.busy_wait_seconds > 0.0
            short.close()

            holder._commit()
            # With the lock released the contender succeeds cleanly.
            contender.write_object(StoredObject(oid=2, cid=5, filler=16))
            assert contender.read_object(2).cid == 5
        finally:
            contender.close()
            holder.close()

    def test_write_many_retry_applies_the_full_batch(self, tmp_path):
        """A batched write that collides must re-run the *whole* batch
        on retry — a consumed generator would silently update nothing
        (the regression this test pins)."""
        import sqlite3
        import threading

        backend = _file_backend(tmp_path, busy_timeout_ms=5000)
        backend.bulk_load(_records(6))
        # A raw connection holds the write lock, then releases it from
        # a timer thread while the backend is mid-retry.
        raw = sqlite3.connect(backend.path, check_same_thread=False)
        raw.execute("BEGIN IMMEDIATE")
        raw.execute("UPDATE objects SET cid = 9 WHERE oid = 6")
        release = threading.Timer(0.3, raw.commit)
        release.start()
        try:
            batch = [StoredObject(oid=oid, cid=7, filler=16)
                     for oid in (1, 2, 3)]
            backend.write_many(batch)
            assert backend.busy_retries > 0
            for oid in (1, 2, 3):
                assert backend.read_object(oid).cid == 7
        finally:
            release.join()
            raw.close()
            backend.close()

    def test_zero_budget_raises_immediately(self, tmp_path):
        holder = _file_backend(tmp_path)
        holder.bulk_load(_records(4))
        impatient = SQLiteBackend(path=holder.path, journal_mode="WAL",
                                  synchronous="NORMAL", busy_timeout_ms=0)
        try:
            holder._execute("BEGIN IMMEDIATE")
            holder._execute("UPDATE objects SET cid = 2 WHERE oid = 1")
            with pytest.raises(BackendError):
                impatient.write_object(
                    StoredObject(oid=2, cid=5, filler=16))
            assert impatient.busy_retries == 0
            holder._commit()
        finally:
            impatient.close()
            holder.close()

    def test_negative_budget_rejected(self):
        with pytest.raises(BackendError):
            SQLiteBackend(busy_timeout_ms=-1)


class TestStatsExposure:
    def test_stats_report_journal_and_busy_knobs(self, tmp_path):
        backend = _file_backend(tmp_path, busy_timeout_ms=1234)
        try:
            stats = backend.stats()
            assert stats["journal_mode"] == "wal"
            assert stats["busy_timeout_ms"] == 1234
            assert stats["busy_retries"] == 0
            assert stats["busy_wait_seconds"] == 0.0
        finally:
            backend.close()

    def test_store_config_knobs_reach_the_engine(self, tmp_path):
        from repro.backends import create_backend

        config = StoreConfig(page_size=512, buffer_pages=16,
                             journal_mode="WAL", busy_timeout_ms=777)
        backend = create_backend("sqlite", config,
                                 path=str(tmp_path / "cfg.db"))
        try:
            stats = backend.stats()
            assert stats["journal_mode"] == "wal"
            assert stats["busy_timeout_ms"] == 777
        finally:
            backend.close()

    def test_explicit_options_override_store_config(self, tmp_path):
        from repro.backends import create_backend

        config = StoreConfig(journal_mode="WAL", busy_timeout_ms=777)
        backend = create_backend("sqlite", config,
                                 path=str(tmp_path / "ovr.db"),
                                 journal_mode="DELETE",
                                 busy_timeout_ms=55)
        try:
            stats = backend.stats()
            assert stats["journal_mode"] == "delete"
            assert stats["busy_timeout_ms"] == 55
        finally:
            backend.close()

    def test_reset_stats_zeroes_contention_counters(self, tmp_path):
        backend = _file_backend(tmp_path)
        backend.bulk_load(_records(3))
        backend.busy_retries = 7
        backend.busy_wait_seconds = 0.5
        backend.reset_stats()
        assert backend.busy_retries == 0
        assert backend.busy_wait_seconds == 0.0
        backend.close()

    def test_wal_survives_drop_caches(self, tmp_path):
        """The cold-restart path reopens the file with the same pragmas."""
        backend = _file_backend(tmp_path)
        backend.bulk_load(_records(3))
        assert backend.drop_caches() is True
        assert backend.stats()["journal_mode"] == "wal"
        assert backend.read_object(1).oid == 1
        backend.close()
