"""Sharded SQLite backend — N independent files, one writer lane each.

The single-file SQLite engine serializes every writer on one WAL lock;
past ~2 concurrent writers the write-heavy scenarios plateau while busy
retries climb.  This engine breaks that ceiling by partitioning the oid
space across ``shards`` independent SQLite database files with the same
residue-class function the scenario layer uses to partition clients
(:func:`shard_of`, ``oid % shards`` — compare
``ClientExecutor._owns``'s ``oid % total_clients``).  Run with
``shards == clients`` a worker's *home shard* is exactly its mutation
lane: every partitioned write lands in a file no other worker writes,
so lock collisions — and their counted backoff sleeps — collapse.

The engine implements the full :class:`~repro.backends.base.Backend`
protocol by fan-out over per-shard :class:`SQLiteBackend` instances:

* :meth:`read_many` / :meth:`write_many` group oids by shard and issue
  one ``IN``-clause / ``executemany`` batch per *touched* shard, the
  home shard first;
* :meth:`traverse_refs_many` answers each shard's slice from that
  shard's blobs and counts frontier edges that leave the home shard as
  ``remote_reads``;
* :meth:`bulk_load` stages once, partitions, and loads each shard in
  turn, home shard first; the parallel coordinator loads shared shard
  files through it like any other engine.

Shard placement is itself a measured variable, in the spirit of
Darmont's clustering-evaluation methodology: :meth:`stats` reports
``remote_reads`` (operations and frontier edges routed off the home
shard), ``remote_writes`` (mutations routed off it — zero on a
perfectly partitioned mix) and ``cross_shard_refs`` (graph edges whose
endpoints live in different shards, independent of any home).

``path`` semantics differ from the single-file engine: ``None`` (or
``":memory:"``) keeps every shard in memory — private to this process,
fine for equivalence tests; a directory path materialises
``shard-00.db`` … ``shard-NN.db`` files inside it, which is what the
process-parallel harness shares.  ``connect_worker`` then hands each
worker an independent connection *set*, opened home-shard-first.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, \
    Tuple

from repro.backends.base import Backend, Until
from repro.backends.sqlite import SQLiteBackend
from repro.errors import BackendError, StorageError
from repro.obs import trace
from repro.store.costs import DEFAULT_PAGE_SIZE
from repro.store.serializer import StoredObject
from repro.store.storage import stage_bulk_load

__all__ = ["ShardedSQLiteBackend", "shard_of", "DEFAULT_SHARDS"]

#: Default shard count (matches the classic 4-client OCB multi-user run).
DEFAULT_SHARDS = 4

#: File name of shard *index* inside the engine's directory.
SHARD_FILE_FORMAT = "shard-{index:02d}.db"


def shard_of(oid: int, shards: int) -> int:
    """The shard-function contract: ``oid % shards``.

    Deliberately identical to the residue-class partitioning the
    scenario layer applies to clients (``oid % total_clients``), so a
    run with ``shards == clients`` aligns every client's mutation lane
    with one shard — the alignment the affinity metrics measure.
    """
    return oid % shards


class ShardedSQLiteBackend(Backend):
    """Oid-residue partitioning over independent SQLite files."""

    name = "sharded-sqlite"
    supports_batched_reads = True

    def __init__(self, path: Optional[str] = None,
                 shards: int = DEFAULT_SHARDS,
                 home_shard: Optional[int] = None,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 cache_pages: int = 128,
                 synchronous: str = "OFF",
                 journal_mode: str = "MEMORY",
                 busy_timeout_ms: int = SQLiteBackend.DEFAULT_BUSY_TIMEOUT_MS
                 ) -> None:
        super().__init__()
        shards = int(shards)
        if shards < 1:
            raise BackendError(f"shards must be >= 1, got {shards}")
        if path in (None, "", ":memory:"):
            path = None
        else:
            path = str(path)
        if home_shard is not None:
            home_shard = int(home_shard)
            if not 0 <= home_shard < shards:
                raise BackendError(
                    f"home_shard must be in [0, {shards}), got {home_shard}")
        self.path = path
        self.shards = shards
        self.home_shard = home_shard
        self.page_size = page_size
        self.cache_pages = cache_pages
        self.synchronous = synchronous
        self.journal_mode = journal_mode
        self.busy_timeout_ms = busy_timeout_ms
        #: Reads (and traverse lookups) routed to a non-home shard, plus
        #: traversal frontier edges leaving the home shard.  Only counted
        #: when the engine has a home shard (worker connections do).
        self.remote_reads = 0
        #: Mutations routed to a non-home shard — zero when the workload
        #: partition and the shard function are aligned.
        self.remote_writes = 0
        #: Graph edges whose endpoints live in different shards —
        #: placement quality, independent of any home shard.
        self.cross_shard_refs = 0
        #: Shards with an uncommitted write batch.  Normally empty —
        #: every mutation commits its shard immediately (see
        #: :meth:`_commit_shard`) — so :meth:`flush` touches nothing
        #: instead of paying ``shards`` no-op commit round trips per
        #: operation (the session flushes after every op).
        self._dirty_shards: set = set()
        if self.path is not None:
            os.makedirs(self.path, exist_ok=True)
        # Open connections home-shard-first: a worker's affinity shard is
        # the first member of its connection set.
        engines: Dict[int, SQLiteBackend] = {}
        self.connection_order = tuple(self._fanout_order(range(shards)))
        for shard in self.connection_order:
            engines[shard] = SQLiteBackend(
                path=self.shard_path(shard),
                page_size=page_size,
                cache_pages=cache_pages,
                synchronous=synchronous,
                journal_mode=journal_mode,
                busy_timeout_ms=busy_timeout_ms)
        self._engines: List[SQLiteBackend] = [engines[shard]
                                              for shard in range(shards)]

    # -- routing -------------------------------------------------------- #

    def shard_path(self, shard: int) -> str:
        """Storage location of shard *shard* (``":memory:"`` when private)."""
        if self.path is None:
            return ":memory:"
        return os.path.join(self.path, SHARD_FILE_FORMAT.format(index=shard))

    def shard_of(self, oid: int) -> int:
        """Which shard stores *oid* (see the module-level contract)."""
        return shard_of(oid, self.shards)

    def _engine_for(self, oid: int) -> SQLiteBackend:
        return self._engines[self.shard_of(oid)]

    def _fanout_order(self, shard_ids: Iterable[int]) -> List[int]:
        """Touched shards in visit order: home first, then ascending."""
        ordered = sorted(set(shard_ids))
        if self.home_shard is not None and self.home_shard in ordered:
            ordered.remove(self.home_shard)
            ordered.insert(0, self.home_shard)
        return ordered

    def _group_by_shard(self, oids: Sequence[int]) -> Dict[int, List[int]]:
        groups: Dict[int, List[int]] = {}
        for oid in oids:
            groups.setdefault(self.shard_of(oid), []).append(oid)
        return groups

    def _count_remote_read(self, shard: int, amount: int = 1) -> None:
        if self.home_shard is not None and shard != self.home_shard:
            self.remote_reads += amount

    def _count_remote_write(self, shard: int, amount: int = 1) -> None:
        if self.home_shard is not None and shard != self.home_shard:
            self.remote_writes += amount

    # -- lifecycle ------------------------------------------------------ #

    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        if self.object_count:
            raise StorageError("bulk_load requires an empty backend")
        sequence = stage_bulk_load(records, order)
        partitions: List[List[StoredObject]] = [[] for _ in
                                                range(self.shards)]
        for record in sequence:
            partitions[self.shard_of(record.oid)].append(record)
        units = 0
        for shard in self.connection_order:
            units += self._engines[shard].bulk_load(partitions[shard])
        return units

    def read_object(self, oid: int) -> StoredObject:
        shard = self.shard_of(oid)
        record = self._engines[shard].read_object(oid)
        self.object_accesses += 1
        self._count_remote_read(shard)
        return record

    def read_many(self, oids: Sequence[int]) -> Dict[int, StoredObject]:
        """One ``IN``-clause batch per touched shard, home shard first."""
        started = time.perf_counter() if trace.enabled else 0.0
        unique: List[int] = list(dict.fromkeys(oids))
        groups = self._group_by_shard(unique)
        fetched: Dict[int, StoredObject] = {}
        for shard in self._fanout_order(groups):
            fetched.update(self._engines[shard].read_many(groups[shard]))
            self._count_remote_read(shard, len(groups[shard]))
        self.object_accesses += len(unique)
        if trace.enabled:
            trace.emit("sharded.read_many", started,
                       oids=len(unique), shards=len(groups))
        # First-occurrence order, like the base-class contract.
        return {oid: fetched[oid] for oid in unique}

    def _commit_shard(self, shard: int) -> None:
        """Commit one shard's write batch immediately.

        Every mutation is a *local* per-shard transaction: holding one
        shard's write lock while acquiring another's is how concurrent
        workers deadlock (each backs off on a lock the other holds and
        busy retries never release anything), and no acquisition order
        fixes it because an operation's write set starts at its victim's
        shard.  A real sharded store makes the same trade — local
        commits instead of distributed two-phase locking — so locks are
        held for one statement, not one operation.
        """
        self._engines[shard].flush()
        self._dirty_shards.discard(shard)

    def write_object(self, record: StoredObject) -> None:
        shard = self.shard_of(record.oid)
        self._dirty_shards.add(shard)
        self._engines[shard].write_object(record)
        self._commit_shard(shard)
        self.object_accesses += 1
        self._count_remote_write(shard)

    def write_many(self, records: Sequence[StoredObject]) -> None:
        """One ``executemany`` batch per touched shard.

        Unlike the read paths, write fan-out visits shards in
        *ascending* order and commits each shard's batch before moving
        on (see :meth:`_commit_shard`): a global visit order plus
        statement-scoped locks keeps concurrent cross-shard write sets
        deadlock-free.
        """
        if not records:
            return
        started = time.perf_counter() if trace.enabled else 0.0
        groups: Dict[int, List[StoredObject]] = {}
        for record in records:
            groups.setdefault(self.shard_of(record.oid), []).append(record)
        for shard in sorted(groups):
            self._dirty_shards.add(shard)
            self._engines[shard].write_many(groups[shard])
            self._commit_shard(shard)
            self._count_remote_write(shard, len(groups[shard]))
        self.object_accesses += len(records)
        if trace.enabled:
            trace.emit("sharded.write_many", started,
                       records=len(records), shards=len(groups))

    def insert_object(self, record: StoredObject) -> None:
        shard = self.shard_of(record.oid)
        self._dirty_shards.add(shard)
        self._engines[shard].insert_object(record)
        self._commit_shard(shard)
        self.object_accesses += 1
        self._count_remote_write(shard)

    def delete_object(self, oid: int) -> None:
        shard = self.shard_of(oid)
        self._dirty_shards.add(shard)
        self._engines[shard].delete_object(oid)
        self._commit_shard(shard)
        self.object_accesses += 1
        self._count_remote_write(shard)

    def traverse_refs(self, oid: int) -> Tuple[int, ...]:
        shard = self.shard_of(oid)
        refs = self._engines[shard].traverse_refs(oid)
        self.object_accesses += 1
        self._count_remote_read(shard)
        self._account_edges({oid: refs})
        return refs

    def traverse_refs_many(self, oids: Sequence[int],
                           until: Optional[Until] = None
                           ) -> Dict[int, Tuple[int, ...]]:
        """Each shard's slice, one batched blob query per shard.

        Beyond the lookups themselves, every frontier edge that leaves
        the home shard is counted as a ``remote_reads`` unit — that edge
        is the next hop's off-shard fetch, which makes traversal
        locality visible before it is paid for.

        *until* is applied to the merged answers, in request order,
        after every shard has answered its whole slice: the reads and
        the counters are those of a call without it, and a missing oid
        anywhere in the batch raises.
        """
        started = time.perf_counter() if trace.enabled else 0.0
        unique: List[int] = list(dict.fromkeys(oids))
        groups = self._group_by_shard(unique)
        refs: Dict[int, Tuple[int, ...]] = {}
        for shard in self._fanout_order(groups):
            refs.update(self._engines[shard].traverse_refs_many(
                groups[shard]))
            self._count_remote_read(shard, len(groups[shard]))
        self.object_accesses += len(unique)
        self._account_edges(refs)
        answers: Dict[int, Tuple[int, ...]] = {}
        for oid in unique:
            answer = answers[oid] = refs[oid]
            if until is not None and until(oid, answer):
                break
        if trace.enabled:
            trace.emit("sharded.traverse_refs_many", started,
                       oids=len(unique), shards=len(groups))
        return answers

    def _account_edges(self, refs: Dict[int, Tuple[int, ...]]) -> None:
        """Shard-crossing accounting for a batch of resolved references."""
        for src, targets in refs.items():
            src_shard = self.shard_of(src)
            for dst in targets:
                dst_shard = self.shard_of(dst)
                if dst_shard != src_shard:
                    self.cross_shard_refs += 1
                if self.home_shard is not None \
                        and src_shard == self.home_shard \
                        and dst_shard != self.home_shard:
                    self.remote_reads += 1

    # -- cache / durability --------------------------------------------- #

    def drop_caches(self) -> bool:
        dropped = [engine.drop_caches() for engine in self._engines]
        return all(dropped)

    def flush(self) -> int:
        """Commit any shard still holding a write batch (normally none)."""
        total = 0
        for shard in self._fanout_order(self._dirty_shards):
            total += self._engines[shard].flush()
            self._dirty_shards.discard(shard)
        return total

    def connect_worker(self, home_shard: Optional[int] = None
                       ) -> "ShardedSQLiteBackend":
        """An independent connection set to the same shard files.

        *home_shard* selects the new connection set's affinity shard
        (``None`` inherits this engine's); its connections open home
        first.  Only directory-backed engines can be shared — in-memory
        shards are private to their connections by construction.
        """
        if self.path is None:
            raise BackendError(
                "in-memory shards cannot be shared between connections; "
                "construct the engine with a directory path for "
                "concurrent runs")
        self.flush()  # Publish buffered writes to the sibling.
        return ShardedSQLiteBackend(
            path=self.path,
            shards=self.shards,
            home_shard=self.home_shard if home_shard is None else home_shard,
            page_size=self.page_size,
            cache_pages=self.cache_pages,
            synchronous=self.synchronous,
            journal_mode=self.journal_mode,
            busy_timeout_ms=self.busy_timeout_ms)

    # -- accounting surface --------------------------------------------- #

    @property
    def busy_retries(self) -> int:
        """Lock collisions retried, summed over every shard connection."""
        return sum(engine.busy_retries for engine in self._engines)

    @property
    def busy_wait_seconds(self) -> float:
        """Backoff sleep spent on locks, summed over every shard."""
        return sum(engine.busy_wait_seconds for engine in self._engines)

    @property
    def sql_round_trips(self) -> int:
        """SQL statements issued, summed over every shard."""
        return sum(engine.sql_round_trips for engine in self._engines)

    def stats(self) -> Dict[str, object]:
        shard_stats = [engine.stats() for engine in self._engines]
        return {
            "path": self.path if self.path is not None else ":memory:",
            "shards": self.shards,
            "home_shard": self.home_shard,
            "connection_order": list(self.connection_order),
            "page_size": shard_stats[0]["page_size"],
            "cache_pages": self.cache_pages,
            "journal_mode": shard_stats[0]["journal_mode"],
            "busy_timeout_ms": self.busy_timeout_ms,
            "pages": sum(int(s["pages"]) for s in shard_stats),
            "objects": sum(int(s["objects"]) for s in shard_stats),
            "objects_per_shard": [int(s["objects"]) for s in shard_stats],
            "object_accesses": self.object_accesses,
            "records_decoded": sum(int(s["records_decoded"])
                                   for s in shard_stats),
            "decodes_avoided": sum(int(s["decodes_avoided"])
                                   for s in shard_stats),
            "sql_round_trips": self.sql_round_trips,
            "busy_retries": self.busy_retries,
            "busy_wait_seconds": self.busy_wait_seconds,
            "remote_reads": self.remote_reads,
            "remote_writes": self.remote_writes,
            "cross_shard_refs": self.cross_shard_refs,
            "sqlite_version": shard_stats[0]["sqlite_version"],
        }

    def reset_stats(self) -> None:
        super().reset_stats()
        self.remote_reads = 0
        self.remote_writes = 0
        self.cross_shard_refs = 0
        for engine in self._engines:
            engine.reset_stats()

    def close(self) -> None:
        for engine in self._engines:
            engine.close()

    @property
    def object_count(self) -> int:
        return sum(engine.object_count for engine in self._engines)

    def iter_oids(self) -> Iterator[int]:
        for engine in self._engines:
            yield from engine.iter_oids()

    def current_order(self) -> List[int]:
        """Canonical order across shards: global oid order."""
        return sorted(self.iter_oids())

    def oids_of_class(self, cid: int) -> Tuple[int, ...]:
        """Class-extent lookup, merged across shards in oid order."""
        merged: List[int] = []
        for engine in self._engines:
            merged.extend(engine.oids_of_class(cid))
        return tuple(sorted(merged))

    def __contains__(self, oid: int) -> bool:
        return oid in self._engine_for(oid)
