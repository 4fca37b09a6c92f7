"""SQLite backend — the first *real* engine behind the OCB workload.

Objects are serialized with :mod:`repro.store.serializer` (the same
canonical byte format the simulated store pages out) into a single
indexed table::

    CREATE TABLE objects (
        oid  INTEGER PRIMARY KEY,   -- the rowid: physical order == oid order
        cid  INTEGER NOT NULL,
        data BLOB    NOT NULL
    )

The page size and page-cache budget are configurable through SQLite
pragmas and default to the experiment's
:class:`~repro.store.storage.StoreConfig`, so the paper's buffer-size
ablations (``--buffer-pages``) carry over unchanged: a run with a
384-page simulated buffer compares against SQLite with a 384-page cache.

All measurements are wall-clock — SQLite does its own paging, caching
and journaling, which is exactly what the benchmark wants to observe.

Four kernel hooks make the engine first-class under the unified
:class:`~repro.core.session.Session` and the process-parallel harness:

* **batched access** — :meth:`SQLiteBackend.read_many` answers a whole
  BFS frontier (or range-lookup match set) with one ``IN``-clause query
  and :meth:`SQLiteBackend.write_many` is a single ``executemany``;
  ``sql_round_trips`` in :meth:`SQLiteBackend.stats` counts issued
  statements so the saving is measurable;
* **cold-cache control** — :meth:`SQLiteBackend.drop_caches` closes and
  reopens the connection (re-applying the pragmas) for file databases,
  and releases the pager cache in place for ``:memory:`` ones;
* **batched reference traversal** —
  :meth:`SQLiteBackend.traverse_refs_many` answers a whole BFS
  frontier's outgoing references with one ``IN``-clause query and a
  structure-only decode (:func:`~repro.store.serializer.decode_refs`:
  header + reference vector, **no record decode**).  It steps the
  cursor row by row and hands each answer to the caller's ``until``
  callback, closing the cursor once the callback says the walk's visit
  budget is spent, so a level is read only as far as the budget
  reaches; the callback's time counts inside the call's trace record;
* **concurrent connections** — :meth:`SQLiteBackend.connect_worker`
  opens an independent connection to the same database file (its own
  pager cache, its own locks), which is how each process of a
  :class:`~repro.parallel.runner.ParallelRunner` drives the shared
  engine.  ``journal_mode`` and ``busy_timeout_ms`` are first-class
  constructor knobs: multi-writer runs want ``WAL`` plus a busy budget
  (:func:`multi_writer_options` fills in those settings), and every
  retry a locked database forces is *counted*
  (``busy_retries`` / ``busy_wait_seconds`` in :meth:`stats`), so
  contention is a reported metric instead of invisible latency.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, \
    Optional, Sequence, Tuple, TypeVar

from repro.backends.base import Backend, Until
from repro.errors import BackendError, StorageError, UnknownObject
from repro.obs import trace
from repro.store.costs import DEFAULT_PAGE_SIZE
from repro.store.serializer import StoredObject, decode_object, \
    decode_refs, encode_object
from repro.store.storage import stage_bulk_load

__all__ = ["SQLiteBackend", "multi_writer_options"]

# benchmarks/ocb_bench/layers.py looks this name up to trace it.
decode_object_lazy = decode_object

#: Page sizes SQLite accepts (powers of two, 512..65536).
_VALID_PAGE_SIZES = tuple(512 << i for i in range(8))

#: IN-clause batch ceiling, below SQLite's default 999-variable limit.
_MAX_BATCH_VARIABLES = 500

#: Error-message fragments that identify a lock collision (SQLITE_BUSY /
#: SQLITE_LOCKED) as opposed to a genuine operational failure.
_BUSY_MARKERS = ("database is locked", "database table is locked",
                 "database is busy")

#: Backoff ladder for busy retries: start at 1 ms, cap at 50 ms.
_BUSY_BACKOFF_START = 0.001
_BUSY_BACKOFF_CAP = 0.05

_T = TypeVar("_T")


class SQLiteBackend(Backend):
    """Serialized objects in an indexed SQLite table."""

    name = "sqlite"
    supports_batched_reads = True

    #: Default busy budget: matches the 5 s grace ``sqlite3.connect``'s
    #: own busy handler used to provide, but spent in Python so every
    #: collision is counted (see :meth:`_retrying`).
    DEFAULT_BUSY_TIMEOUT_MS = 5000

    def __init__(self, path: str = ":memory:",
                 page_size: int = DEFAULT_PAGE_SIZE,
                 cache_pages: int = 128,
                 synchronous: str = "OFF",
                 journal_mode: str = "MEMORY",
                 busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS,
                 # Ignored; benchmarks/ocb_bench/workloads.py passes it.
                 ref_index: bool = False) -> None:
        super().__init__()
        if page_size not in _VALID_PAGE_SIZES:
            raise BackendError(
                f"SQLite page_size must be one of {_VALID_PAGE_SIZES}, "
                f"got {page_size}")
        if cache_pages < 1:
            raise BackendError(f"cache_pages must be >= 1, got {cache_pages}")
        if busy_timeout_ms < 0:
            raise BackendError(
                f"busy_timeout_ms must be >= 0, got {busy_timeout_ms}")
        self.path = path
        self.page_size = page_size
        self.cache_pages = cache_pages
        self.synchronous = synchronous
        self.journal_mode = journal_mode
        self.busy_timeout_ms = busy_timeout_ms
        self.sql_round_trips = 0
        self.busy_retries = 0
        self.busy_wait_seconds = 0.0
        self._conn = self._connect()

    def _connect(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(self.path)
        except sqlite3.Error as exc:
            raise BackendError(
                f"cannot open SQLite database {self.path!r}: {exc}") from exc
        cur = conn.cursor()
        # page_size must be set before the first table is created.
        cur.execute(f"PRAGMA page_size = {self.page_size}")
        cur.execute(f"PRAGMA cache_size = {self.cache_pages}")
        cur.execute(f"PRAGMA synchronous = {self.synchronous}")
        # The busy budget is spent in Python (see _retry) so collisions
        # are counted; SQLite's own handler is disabled.
        cur.execute("PRAGMA busy_timeout = 0")
        self._retrying(cur.execute,
                       f"PRAGMA journal_mode = {self.journal_mode}")
        self._retrying(
            cur.execute,
            "CREATE TABLE IF NOT EXISTS objects ("
            " oid  INTEGER PRIMARY KEY,"
            " cid  INTEGER NOT NULL,"
            " data BLOB    NOT NULL)")
        self._retrying(
            cur.execute,
            "CREATE INDEX IF NOT EXISTS objects_by_class ON objects (cid)")
        conn.commit()
        return conn

    # -- busy-retry accounting ------------------------------------------ #

    @staticmethod
    def _is_busy(exc: sqlite3.Error) -> bool:
        message = str(exc).lower()
        return any(marker in message for marker in _BUSY_MARKERS)

    def _retrying(self, fn: Callable[..., _T], *args: object) -> _T:
        """Run *fn*, retrying lock collisions within the busy budget.

        Every collision increments :attr:`busy_retries` and the time
        spent backing off accrues to :attr:`busy_wait_seconds` — the
        contention-accounting layer the multi-process harness reports.
        A budget of zero keeps the single-user behaviour: the first
        collision raises.
        """
        attempt = 0
        deadline = None
        while True:
            try:
                return fn(*args)
            except sqlite3.OperationalError as exc:
                if not self._is_busy(exc):
                    raise
                now = time.perf_counter()
                if deadline is None:
                    deadline = now + self.busy_timeout_ms / 1000.0
                if now >= deadline:
                    raise BackendError(
                        f"SQLite database {self.path!r} still locked after "
                        f"{attempt} retries ({self.busy_timeout_ms} ms "
                        f"budget); raise busy_timeout_ms or reduce writer "
                        f"concurrency") from exc
                delay = min(_BUSY_BACKOFF_START * (2 ** min(attempt, 6)),
                            _BUSY_BACKOFF_CAP, max(deadline - now, 0.0))
                time.sleep(delay)
                self.busy_retries += 1
                self.busy_wait_seconds += time.perf_counter() - now
                if trace.enabled:
                    trace.emit("sqlite.busy_retry", now, attempt=attempt)
                attempt += 1

    def _execute(self, sql: str, params: Sequence[object] = ()
                 ) -> sqlite3.Cursor:
        return self._retrying(self._conn.execute, sql, params)

    def _executemany(self, sql: str, seq: Iterable[Sequence[object]]
                     ) -> sqlite3.Cursor:
        # A retry must re-run the *whole* batch — a generator would
        # arrive at the second attempt exhausted (executemany consumes
        # it before the lock error surfaces).  Batches here are
        # workload-sized (write_many), so buffering is cheap; the one
        # database-sized batch, bulk_load, streams under a held write
        # lock instead of going through this wrapper.
        rows = seq if isinstance(seq, (list, tuple)) else list(seq)
        return self._retrying(self._conn.executemany, sql, rows)

    def _commit(self) -> None:
        self._retrying(self._conn.commit)

    # -- lifecycle ------------------------------------------------------ #

    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        if self.object_count:
            raise StorageError("bulk_load requires an empty backend")
        sequence = stage_bulk_load(records, order)
        # Take the write lock first (with counted retries), then stream
        # the encode generator straight into executemany: no buffering
        # of the encoded blobs, and no mid-batch SQLITE_BUSY once the
        # lock is held.
        self._retrying(self._conn.execute, "BEGIN IMMEDIATE")
        try:
            self._conn.executemany(
                "INSERT INTO objects (oid, cid, data) VALUES (?, ?, ?)",
                ((r.oid, r.cid, encode_object(r)) for r in sequence))
        except BaseException:
            self._conn.rollback()
            raise
        self._commit()
        return self._pragma_int("page_count")

    # ``lazy`` is ignored; benchmarks/ocb_bench/test_ocb_bench.py passes it.
    def read_object(self, oid: int, lazy: bool = False) -> StoredObject:
        started = time.perf_counter() if trace.enabled else 0.0
        self.sql_round_trips += 1
        row = self._execute(
            "SELECT data FROM objects WHERE oid = ?", (oid,)).fetchone()
        if row is None:
            raise UnknownObject(oid)
        self.object_accesses += 1
        if trace.enabled:
            trace.emit("sqlite.read_object", started, oid=oid)
        self.records_decoded += 1
        return decode_object(row[0])

    def read_many(self, oids: Sequence[int]) -> Dict[int, StoredObject]:
        """One ``IN``-clause query per batch (chunked below the SQLite
        variable limit) — the whole BFS frontier in one round trip."""
        started = time.perf_counter() if trace.enabled else 0.0
        unique: List[int] = list(dict.fromkeys(oids))
        records: Dict[int, StoredObject] = {}
        for start in range(0, len(unique), _MAX_BATCH_VARIABLES):
            chunk = unique[start:start + _MAX_BATCH_VARIABLES]
            placeholders = ",".join("?" * len(chunk))
            self.sql_round_trips += 1
            for oid, data in self._execute(
                    f"SELECT oid, data FROM objects "
                    f"WHERE oid IN ({placeholders})", chunk):
                records[oid] = decode_object(data)
        self.records_decoded += len(records)
        if len(records) != len(unique):
            missing = next(oid for oid in unique if oid not in records)
            raise UnknownObject(missing)
        self.object_accesses += len(unique)
        if trace.enabled:
            trace.emit("sqlite.read_many", started, oids=len(unique))
        return records

    def write_object(self, record: StoredObject) -> None:
        self._rewrite((record,))
        self.object_accesses += 1

    def write_many(self, records: Sequence[StoredObject]) -> None:
        """One ``executemany`` UPDATE for the whole batch."""
        if not records:
            return
        started = time.perf_counter() if trace.enabled else 0.0
        self._rewrite(records)
        self.object_accesses += len(records)
        if trace.enabled:
            trace.emit("sqlite.write_many", started, records=len(records))

    def _rewrite(self, records: Sequence[StoredObject]) -> None:
        """UPDATE existing rows: the one write path of
        :meth:`write_object` and :meth:`write_many`.

        Rows the batch names but the table lacks match no UPDATE; the
        rest of the batch is still written before :class:`UnknownObject`
        names the first miss.
        """
        self.sql_round_trips += 1
        cur = self._executemany(
            "UPDATE objects SET cid = ?, data = ? WHERE oid = ?",
            [(r.cid, encode_object(r), r.oid) for r in records])
        if cur.rowcount != len(records):
            missing = next((r.oid for r in records if r.oid not in self),
                           None)
            if missing is not None:
                raise UnknownObject(missing)

    def insert_object(self, record: StoredObject) -> None:
        self.sql_round_trips += 1
        try:
            self._execute(
                "INSERT INTO objects (oid, cid, data) VALUES (?, ?, ?)",
                (record.oid, record.cid, encode_object(record)))
        except sqlite3.IntegrityError:
            raise StorageError(f"oid {record.oid} already exists") from None
        self.object_accesses += 1

    def delete_object(self, oid: int) -> None:
        self.sql_round_trips += 1
        cur = self._execute("DELETE FROM objects WHERE oid = ?", (oid,))
        if cur.rowcount == 0:
            raise UnknownObject(oid)
        self.object_accesses += 1

    def traverse_refs_many(self, oids: Sequence[int],
                           until: Optional[Until] = None
                           ) -> Dict[int, Tuple[int, ...]]:
        """A whole frontier's outgoing references, no record decode.

        One ``IN``-clause blob query per chunk, its rows in ascending
        oid order, each folded through
        :func:`~repro.store.serializer.decode_refs` — header plus one
        bulk unpack of the reference vector, no :class:`StoredObject`,
        no back-ref/payload decode.  A missing oid raises exactly like
        the loop fallback.

        The cursor is stepped row by row.  When *until* returns true on
        a row, the cursor is closed there: later rows are neither
        stepped nor decoded, later chunks are never issued, and the
        counters count only the rows stepped.  A missing oid the read
        passed before the stop (any in an earlier chunk, or one below
        the stopping oid in its chunk) still raises.  The cursor is
        closed on every exit, so no read lock outlives the call even
        when *until* raises; *until*'s own time counts inside this call.
        """
        started = time.perf_counter() if trace.enabled else 0.0
        unique: List[int] = list(dict.fromkeys(oids))
        refs: Dict[int, Tuple[int, ...]] = {}
        reached = unique
        try:
            for start in range(0, len(unique), _MAX_BATCH_VARIABLES):
                chunk = unique[start:start + _MAX_BATCH_VARIABLES]
                placeholders = ",".join("?" * len(chunk))
                self.sql_round_trips += 1
                cursor = self._execute(
                    f"SELECT oid, data FROM objects "
                    f"WHERE oid IN ({placeholders}) ORDER BY oid", chunk)
                try:
                    for oid, data in cursor:
                        answer = refs[oid] = decode_refs(data)
                        if until is not None and until(oid, answer):
                            reached = unique[:start] + [
                                other for other in chunk if other < oid]
                            break
                finally:
                    cursor.close()
                if reached is not unique:
                    break
            if len(refs) != len(unique):
                missing = next((oid for oid in reached if oid not in refs),
                               None)
                if missing is not None:
                    raise UnknownObject(missing)
        finally:
            if trace.enabled:
                trace.emit("sqlite.traverse_refs_many", started,
                           oids=len(unique), rows=len(refs))
        self.object_accesses += len(refs)
        # The frontier was answered from structure alone — each row
        # here is one full record decode the loop path would have paid.
        self.decodes_avoided += len(refs)
        return refs

    def drop_caches(self) -> bool:
        """Cold restart: drop the pager cache (and any OS-visible state).

        File databases get the honest treatment — commit, close, reopen,
        re-apply the pragmas.  ``:memory:`` databases would lose their
        data on close, so the pager cache is released in place
        (``PRAGMA shrink_memory``) and the cache budget re-asserted.
        """
        self._commit()
        if self.path == ":memory:":
            self._execute("PRAGMA shrink_memory")
            self._execute(f"PRAGMA cache_size = {self.cache_pages}")
            return True
        self._conn.close()
        self._conn = self._connect()
        return True

    def flush(self) -> int:
        """Commit the open transaction (write-back point for mutations)."""
        self._commit()
        return 0

    def connect_worker(self) -> "SQLiteBackend":
        """An independent connection to the same database file.

        The new backend shares nothing Python-side with this one — its
        own ``sqlite3`` connection, pager cache and statistics — so a
        worker process (or a contention test in-process) sees exactly
        the isolation and locking a second OS process would.  Only file
        databases can be shared; ``:memory:`` databases are private to
        their connection by construction.
        """
        if self.path == ":memory:":
            raise BackendError(
                "a ':memory:' SQLite database cannot be shared between "
                "connections; use a file path for concurrent runs")
        # Publish any buffered writes so the sibling sees current data.
        self._commit()
        return SQLiteBackend(path=self.path,
                             page_size=self.page_size,
                             cache_pages=self.cache_pages,
                             synchronous=self.synchronous,
                             journal_mode=self.journal_mode,
                             busy_timeout_ms=self.busy_timeout_ms)

    def stats(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "page_size": self._pragma_int("page_size"),
            "cache_pages": self.cache_pages,
            "journal_mode": self._pragma_str("journal_mode"),
            "busy_timeout_ms": self.busy_timeout_ms,
            "pages": self._pragma_int("page_count"),
            "freelist_pages": self._pragma_int("freelist_count"),
            "objects": self.object_count,
            "object_accesses": self.object_accesses,
            "records_decoded": self.records_decoded,
            "decodes_avoided": self.decodes_avoided,
            "sql_round_trips": self.sql_round_trips,
            "busy_retries": self.busy_retries,
            "busy_wait_seconds": self.busy_wait_seconds,
            "sqlite_version": sqlite3.sqlite_version,
        }

    def reset_stats(self) -> None:
        super().reset_stats()
        self.sql_round_trips = 0
        self.busy_retries = 0
        self.busy_wait_seconds = 0.0

    def close(self) -> None:
        self._commit()
        self._conn.close()

    # -- accounting surface --------------------------------------------- #

    @property
    def object_count(self) -> int:
        (count,) = self._execute(
            "SELECT COUNT(*) FROM objects").fetchone()
        return count

    def iter_oids(self) -> Iterator[int]:
        for (oid,) in self._execute("SELECT oid FROM objects"):
            yield oid

    def current_order(self) -> List[int]:
        """rowid order — for an INTEGER PRIMARY KEY this is oid order."""
        return [oid for (oid,) in self._execute(
            "SELECT oid FROM objects ORDER BY rowid")]

    def oids_of_class(self, cid: int) -> Tuple[int, ...]:
        """Class-extent lookup through the secondary index."""
        return tuple(oid for (oid,) in self._execute(
            "SELECT oid FROM objects WHERE cid = ? ORDER BY oid", (cid,)))

    def _pragma_int(self, name: str) -> int:
        (value,) = self._execute(f"PRAGMA {name}").fetchone()
        return int(value)

    def _pragma_str(self, name: str) -> str:
        (value,) = self._execute(f"PRAGMA {name}").fetchone()
        return str(value)

    def __contains__(self, oid: int) -> bool:
        return self._execute(
            "SELECT 1 FROM objects WHERE oid = ?", (oid,)).fetchone() \
            is not None


def multi_writer_options(options: Mapping[str, object]
                         ) -> Dict[str, object]:
    """*options* with the settings of a SQLite file that several
    connections write at once filled in where unset.

    Those are ``WAL`` (readers never block, writers queue),
    ``synchronous=NORMAL`` (crash-safe under WAL, where the single-user
    ``OFF`` would let one writer's crash corrupt the file for all) and
    the counted busy budget.  Process runs on shared storage and the
    CLI's SQLite runs take them from here.
    """
    return {"journal_mode": "WAL", "synchronous": "NORMAL",
            "busy_timeout_ms": SQLiteBackend.DEFAULT_BUSY_TIMEOUT_MS,
            **options}
