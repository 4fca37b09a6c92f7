"""The storage-backend abstraction: one workload, many engines.

OCB's defining claim is *genericity* — the same schema, generator and
workload should benchmark **any** object store.  :class:`Backend` is the
contract that makes that concrete: anything that can

* :meth:`~Backend.bulk_load` a generated database,
* :meth:`~Backend.read_object` / :meth:`~Backend.write_object` /
  :meth:`~Backend.insert_object` / :meth:`~Backend.delete_object`
  individual records,
* :meth:`~Backend.read_many` / :meth:`~Backend.write_many` record
  batches (loop fallbacks here; engines with a native set-oriented
  access path override them — SQLite answers a whole BFS frontier with
  one ``IN``-clause query),
* :meth:`~Backend.traverse_refs` an object's outgoing references,
* :meth:`~Backend.drop_caches` for honest cold runs, and
* report :meth:`~Backend.stats`

can run the full cold/warm protocol unchanged.  The execution kernel
(:class:`~repro.core.session.Session`) only ever talks to this surface,
so a new engine (LMDB, Redis, a sharded store) is a ~100-line adapter
away — and every workload (OCB transactions, the generic operation set,
multi-user interleaving) runs on it immediately.

Two kinds of metrics coexist:

* **simulated costs** — the paged store
  (:class:`~repro.store.storage.ObjectStore`, registered as
  ``simulated``) charges page reads, write backs and swizzling on a
  :class:`~repro.store.costs.SimClock`;
* **wall-clock latency** — every backend, real or simulated, is timed by
  the runner, so cross-backend comparisons quote P50/P95/P99 percentiles
  of real elapsed time.

Backends that do not simulate anything simply leave the simulated
counters at zero; :meth:`Backend.snapshot` returns the same
:class:`~repro.store.storage.StoreSnapshot` shape either way, which keeps
the metrics pipeline identical for all engines.
"""

from __future__ import annotations

import abc
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import BackendError

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Abstract storage engine driven by the OCB workload.

    Subclasses implement the lifecycle methods; the base class provides
    the shared accounting surface the workload runner expects
    (``snapshot``, ``clock``, ``cost_model``, ``object_accesses``) with
    all simulated counters at zero.  Cost-model backends override
    :meth:`snapshot` to expose their real simulated counters.
    """

    #: Registry name (set on subclasses; instances may override).
    name: str = "abstract"

    #: Whether the engine supports physical reorganization (clustering
    #: policies).  Only the simulated store does today.
    supports_clustering: bool = False

    #: Whether :meth:`read_many` is answered by a native set-oriented
    #: query (one round trip per batch) rather than the loop fallback.
    #: The execution kernel only issues batched frontier fetches when
    #: this is set, so cost-model engines keep their per-object
    #: accounting bit-identical.
    supports_batched_reads: bool = False

    #: Lock collisions retried and the time spent backing off on them.
    #: Engines without locks keep these zeros; the executor reads
    #: ``busy_retries`` around every operation.
    busy_retries: int = 0
    busy_wait_seconds: float = 0.0

    def __init__(self) -> None:
        self.object_accesses = 0
        #: Records fully decoded from their byte form on a read path.
        self.records_decoded = 0
        #: Frontier answers served *without* a full decode — the
        #: structure-only answers of :meth:`traverse_refs_many`.
        self.decodes_avoided = 0
        self.clock = SimClock()
        self.cost_model = CostModel()

    # ------------------------------------------------------------------ #
    # Lifecycle (the protocol proper)
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        """Load a generated database, optionally in a placement *order*.

        Returns the number of storage units materialised (pages for paged
        engines, rows otherwise).  The backend must be empty.
        """

    @abc.abstractmethod
    def read_object(self, oid: int) -> StoredObject:
        """Fetch one object; raise :class:`~repro.errors.UnknownObject`
        if *oid* is not stored.

        An engine that stores encoded records decodes through
        :func:`~repro.store.serializer.decode_object`, which leaves the
        reference vectors in the blob until first read, and counts the
        record under :attr:`records_decoded`.
        """

    @abc.abstractmethod
    def write_object(self, record: StoredObject) -> None:
        """Update an existing object in place."""

    @abc.abstractmethod
    def insert_object(self, record: StoredObject) -> None:
        """Persist a brand-new object."""

    @abc.abstractmethod
    def delete_object(self, oid: int) -> None:
        """Remove an object."""

    # -- batched access (the kernel's hot path) ------------------------- #

    def read_many(self, oids: Sequence[int]) -> Dict[int, StoredObject]:
        """Fetch a batch of objects, keyed by oid.

        Duplicate oids are fetched once.  Raises
        :class:`~repro.errors.UnknownObject` if any oid is not stored.
        The fallback loops over :meth:`read_object` (in first-occurrence
        order, so cost accounting matches a hand-written loop); engines
        with a set-oriented access path override this with one query per
        batch and set :attr:`supports_batched_reads`.
        """
        records: Dict[int, StoredObject] = {}
        for oid in oids:
            if oid not in records:
                records[oid] = self.read_object(oid)
        return records

    def write_many(self, records: Sequence[StoredObject]) -> None:
        """Update a batch of existing objects.

        The fallback loops over :meth:`write_object` in order; engines
        with a native multi-row write override it.
        """
        for record in records:
            self.write_object(record)

    def traverse_refs(self, oid: int) -> Tuple[int, ...]:
        """Non-NIL forward references of *oid* (one graph hop).

        The default implementation reads the object and filters its
        reference slots; engines with native link storage may override.
        """
        return self.read_object(oid).non_null_refs()

    #: Whether the engine maintains a ``links`` index of the reference
    #: graph alongside the records (SQLite and sharded SQLite built with
    #: ``ref_index=True``).  The index is kept current on every mutation
    #: and diffed on rewrite; :meth:`traverse_refs_many` does not read it.
    supports_ref_index: bool = False

    def traverse_refs_many(self, oids: Sequence[int]
                           ) -> Dict[int, Tuple[int, ...]]:
        """Non-NIL forward references of a whole batch, keyed by oid.

        The structure-only answer to "where does this BFS frontier go
        next": engines with batched reads resolve the entire batch in
        one set-oriented query that decodes only each record's reference
        vector (SQLite reads the blob whether or not it maintains a link
        index); the fallback loops over :meth:`traverse_refs` in
        first-occurrence order.  Duplicate oids are answered once; any
        missing oid raises :class:`~repro.errors.UnknownObject`, exactly
        like the loop.
        """
        refs: Dict[int, Tuple[int, ...]] = {}
        for oid in oids:
            if oid not in refs:
                refs[oid] = self.traverse_refs(oid)
        return refs

    @abc.abstractmethod
    def stats(self) -> Dict[str, object]:
        """Engine-specific statistics (configuration, sizes, counters)."""

    def drop_caches(self) -> bool:
        """Evict every cache the engine controls (a "cold" restart).

        Returns ``True`` when cached state was actually dropped and
        ``False`` when the engine has no cache to drop (the memory
        backend *is* its own cache), so harnesses can report honestly
        whether a "cold" phase really started cold.
        """
        return False

    def flush(self) -> int:
        """Persist buffered writes; returns the units written (if known).

        The default is a no-op for engines that write through.
        """
        return 0

    def connect_worker(self) -> "Backend":
        """Open an independent connection to the same stored data.

        The multi-process coordinator calls this once as a *probe*
        before spawning workers; the workers themselves (being separate
        processes that cannot receive a live engine) reconnect by
        resolving the backend name with the same options.  The full
        ``concurrent`` contract is therefore twofold: this method must
        return a second live connection, **and** the constructor options
        must fully describe the shared storage so a reconnect-by-name
        attaches to it.  In-process callers (contention tests, future
        threaded harnesses) use this method directly for a second
        connection with its own caches and locks.

        The safe default refuses: an engine whose state lives in this
        process's memory (the simulated store, the dict backend,
        ``:memory:`` SQLite) cannot hand anyone else a view of it.
        Engines that can share storage override this and register the
        ``concurrent`` capability; an engine registered with that tag
        but refusing here stops a process run before any worker
        starts.
        """
        raise BackendError(
            f"backend {self.name!r} does not support concurrent "
            f"connections to shared storage; an engine that shares "
            f"durable storage must override connect_worker (and only "
            f"such engines may register the 'concurrent' capability)")

    def close(self) -> None:
        """Release any engine resources (connections, files)."""

    # ------------------------------------------------------------------ #
    # Accounting surface shared with the workload runner
    # ------------------------------------------------------------------ #

    @property
    @abc.abstractmethod
    def object_count(self) -> int:
        """Number of live objects."""

    def snapshot(self) -> StoreSnapshot:
        """Metrics snapshot; simulated counters are zero for real engines.

        ``sim_time`` is pinned to zero regardless of the internal clock:
        the runner charges think-time latency on ``clock`` for engines
        that simulate costs, but a wall-clock-only engine must never
        report it as simulated response time.
        """
        return StoreSnapshot(disk=DiskStats(),
                             buffer=BufferStats(),
                             swizzle=SwizzleStats(),
                             object_accesses=self.object_accesses,
                             sim_time=0.0)

    def reset_stats(self) -> None:
        """Zero the accounting counters (stored data is untouched)."""
        self.object_accesses = 0
        self.records_decoded = 0
        self.decodes_avoided = 0

    def current_order(self) -> List[int]:
        """Object ids in physical (or canonical) storage order."""
        return sorted(self.iter_oids())

    @abc.abstractmethod
    def iter_oids(self) -> Iterable[int]:
        """Iterate over stored object ids (unspecified order)."""

    # ------------------------------------------------------------------ #
    # Conveniences
    # ------------------------------------------------------------------ #

    def __contains__(self, oid: int) -> bool:
        return any(stored == oid for stored in self.iter_oids())

    def __len__(self) -> int:
        return self.object_count

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# Below the class body: repro.store.storage subclasses Backend, so this
# module must define it before the store package is imported, whichever
# of the two modules is imported first.
from repro.store.buffer import BufferStats
from repro.store.costs import CostModel, SimClock
from repro.store.disk import DiskStats
from repro.store.serializer import StoredObject
from repro.store.storage import StoreSnapshot
from repro.store.swizzle import SwizzleStats
