"""The unified execution kernel: one Session, every workload, any engine.

:class:`Session` is the single surface through which every workload —
the OCB transactions (:mod:`repro.core.transactions`) and the generic
operations, run by one
:class:`~repro.core.scenario.ClientExecutor` per client — touches
storage.  It owns everything the execution paths used to wire up
separately:

* **object access** — :meth:`access` charges the engine and notifies the
  clustering policy of the link crossing (DSTC's observation input);
* **batched access** — :meth:`prefetch` pulls a whole traversal level
  or match set through :meth:`~repro.backends.base.Backend.read_many`
  into a decoded-record cache that :meth:`access` consults, turning N
  point queries into one round trip on engines that support it
  (SQLite).  The cache holds one pending serve per requested
  occurrence, so a level that reaches an object twice is answered by
  one fetch and two serves.
  Batching only activates when the engine declares
  ``supports_batched_reads``, so cost-model engines keep bit-identical
  per-object accounting;
* **metrics charging** — :meth:`measure` snapshots the engine around a
  transaction and yields the ``(delta, wall seconds)`` pair every
  collector consumes; :meth:`charge_think_time` advances the simulated
  clock by THINK;
* **lifecycle** — :meth:`drop_caches` (honest cold runs),
  :meth:`flush`, :meth:`reset_stats`, :meth:`close`.

A Session drives one :class:`~repro.backends.base.Backend` — the paged
:class:`~repro.store.storage.ObjectStore` is one like any other — and
calls its protocol directly.  :meth:`Session.for_database` also accepts
a *registered backend name* and bulk-loads the generated database into
a fresh engine, which is how every runner lets callers say
``backend="sqlite"``.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.backends.base import Backend, Until
from repro.clustering.base import ClusteringPolicy, NoClustering
from repro.core.database import OCBDatabase
from repro.errors import WorkloadError
from repro.obs import trace
from repro.store.serializer import StoredObject
from repro.store.storage import StoreConfig, StoreSnapshot

__all__ = ["Measurement", "Session"]

#: Per class, the reference slots of one type, in slot order.
SlotsByClass = Mapping[int, Tuple[int, ...]]


class Measurement:
    """One measured span: engine-counter delta plus wall-clock seconds.

    Used as a context manager by every runner::

        with session.measure() as m:
            ...execute the transaction...
        collector.record(result, m.delta, m.wall)
    """

    __slots__ = ("_store", "_before", "_start", "delta", "wall")

    def __init__(self, store: Backend) -> None:
        self._store = store
        self.delta: Optional[StoreSnapshot] = None
        self.wall: float = 0.0

    def __enter__(self) -> "Measurement":
        self._before = self._store.snapshot()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.wall = time.perf_counter() - self._start
        self.delta = self._store.snapshot() - self._before
        if trace.enabled:
            # The record runs from the start reading to emission (the
            # closing snapshot included), so it encloses every record
            # emitted inside the measurement.
            trace.emit("session.measure", self._start,
                       io_reads=self.delta.io_reads,
                       io_writes=self.delta.io_writes)


class Session:
    """Engine + policy + catalog wiring shared by every execution path.

    ``store`` is any :class:`~repro.backends.base.Backend`; its
    ``supports_batched_reads`` decides whether traversals prefetch.
    """

    def __init__(self, store: Backend,
                 policy: Optional[ClusteringPolicy] = None,
                 tref_table: Optional[Mapping[int, Tuple[int, ...]]] = None,
                 catalog: Optional[Mapping[int, int]] = None) -> None:
        self.store = store
        self.policy = policy or NoClustering()
        self._tref_table = dict(tref_table or {})
        self._catalog = dict(catalog or {})
        self.batch_reads = store.supports_batched_reads
        # One pending serve per requested occurrence: the first in
        # ``_prefetched``, any further ones of the same oid in ``_repeats``
        # (one list entry per serve).
        self._prefetched: Dict[int, StoredObject] = {}
        self._repeats: Dict[int, List[StoredObject]] = {}
        self._slots_of_type: Dict[int, Dict[int, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------ #
    # Construction from a registered backend
    # ------------------------------------------------------------------ #

    @classmethod
    def for_database(cls, database: OCBDatabase,
                     store: "Backend | str | None" = None,
                     store_config: Optional[StoreConfig] = None,
                     policy: Optional[ClusteringPolicy] = None,
                     backend_options: Optional[dict] = None,
                     load: bool = True) -> "Session":
        """Build a Session over *store* for a generated *database*.

        *store* may be a loaded :class:`~repro.backends.base.Backend`
        instance, a registered backend **name** (resolved through the
        registry; ``None`` means ``"simulated"``), or a fresh empty
        engine.  Named and empty engines are bulk-loaded with the
        database in oid order and their counters reset, so
        ``Session.for_database(db, "sqlite")`` is everything a caller
        needs to run any workload on SQLite.

        ``load=False`` *attaches* instead: the engine must already hold
        the data (a worker process connecting to storage its parent bulk
        loaded).  An empty engine then raises immediately rather than
        letting N workers race to load the same shared file.
        """
        from repro.backends import resolve_backend  # Late: avoids a cycle.
        if store is None or isinstance(store, str):
            store = resolve_backend(store, store_config,
                                    **(backend_options or {}))
        if store.object_count == 0:
            if not load:
                raise WorkloadError(
                    "Session.for_database(load=False) attaches to "
                    "pre-loaded storage, but the engine is empty; the "
                    "coordinating process must bulk-load it first")
            database.load_into(store)
            store.reset_stats()
        return cls(store, policy=policy,
                   tref_table=database.tref_table(),
                   catalog=database.catalog())

    # ------------------------------------------------------------------ #
    # Catalog lookups (no I/O)
    # ------------------------------------------------------------------ #

    def class_of(self, oid: int) -> Optional[int]:
        """Class of *oid* from the catalog (no I/O), if known."""
        return self._catalog.get(oid)

    def slots_of_type(self, ref_type: int) -> SlotsByClass:
        """Per class, its reference slots of type *ref_type*, in order.

        ``index in slots_of_type(t).get(cid, ())`` holds when slot
        *index* of class *cid* has type *t* in the Session's
        ``tref_table``; the table is fixed for the Session's life, so
        each type's answer is worked out once.
        """
        slots = self._slots_of_type.get(ref_type)
        if slots is None:
            slots = self._slots_of_type[ref_type] = {}
            for cid, types in self._tref_table.items():
                matching = tuple(index for index, slot_type
                                 in enumerate(types) if slot_type == ref_type)
                if matching:
                    slots[cid] = matching
        return slots

    # ------------------------------------------------------------------ #
    # Object access (the hot path)
    # ------------------------------------------------------------------ #

    def access(self, oid: int, source: Optional[StoredObject] = None,
               ref_index: Optional[int] = None,
               via_back_ref: bool = False) -> StoredObject:
        """Read one object, charging I/O and notifying the policy.

        Prefetched records (see :meth:`prefetch`) are served from the
        decoded-record cache without touching the engine again; the
        clustering policy still observes every link crossing.  Each call
        consumes one pending serve, so an object requested twice by one
        prefetch is served twice and a third visit goes to the engine.
        Duplicate visits still count logically (the OO1 heritage); what
        batching saves is fetching a duplicate within one prefetch more
        than once.

        Called once per traversal visit, so the crossed slot's type is
        looked up in the ``tref_table`` inline.
        """
        if self.batch_reads:
            record = self._prefetched.pop(oid, None)
            if record is None:
                record = self._serve_repeat(oid)
        else:
            record = self.store.read_object(oid)
        if source is None:
            self.policy.observe_access(None, oid, None)
            return record
        ref_type = None
        if ref_index is not None:
            # A reversed crossing's slot belongs to the target's class.
            types = self._tref_table.get(
                record.cid if via_back_ref else source.cid)
            if types is not None and ref_index < len(types):
                ref_type = types[ref_index]
        self.policy.observe_access(source.oid, oid, ref_type)
        return record

    def touch(self, oid: int, source_oid: Optional[int] = None
              ) -> StoredObject:
        """Read one object with an untyped policy observation.

        The generic operations' access path: range lookups and
        sequential scans cross no reference slot, so the policy sees a
        ``None`` reference type.  Like :meth:`access`, each call consumes
        one pending serve.
        """
        if self.batch_reads:
            record = self._prefetched.pop(oid, None)
            if record is None:
                record = self._serve_repeat(oid)
        else:
            record = self.store.read_object(oid)
        self.policy.observe_access(source_oid, oid, None)
        return record

    def _serve_repeat(self, oid: int) -> StoredObject:
        """A further pending serve of *oid*, or else an engine read."""
        repeats = self._repeats.get(oid)
        if repeats is None:
            return self.store.read_object(oid)
        record = repeats.pop()
        if not repeats:
            del self._repeats[oid]
        return record

    def prefetch(self, oids: Iterable[int]) -> int:
        """Batch-fetch *oids* into the decoded-record cache.

        A no-op (returning 0) unless the engine supports batched reads,
        so callers sprinkle frontier prefetches without changing the
        behaviour of cost-model engines.  Returns the number of records
        actually fetched: each distinct oid without a pending serve is
        read once, in one :meth:`~repro.backends.base.Backend.read_many`.

        Every requested occurrence adds one pending serve, consumed by
        one :meth:`access` / :meth:`touch`; a visit beyond the serves
        requested goes to the engine.  Duplicate visits therefore still
        count logically, but a duplicate within one prefetch is fetched
        once.  The cache holds at most what the current transaction,
        scan chunk or match set requested.  Note that engine-side
        *physical* counters (``object_accesses``, SQL round trips)
        legitimately differ between batched and per-object runs —
        prefetching may fetch objects a truncated traversal never
        serves; the paper's *logical* "accessed objects" metric is
        tracked by the metrics pipeline and is batching-invariant.
        """
        if not self.batch_reads:
            return 0
        requested = list(oids)
        cached, repeats = self._prefetched, self._repeats
        missing = [oid for oid in dict.fromkeys(requested)
                   if oid not in cached and oid not in repeats]
        fetched = self.store.read_many(missing) if missing else {}
        if len(missing) == len(requested):
            cached.update(fetched)  # Distinct and new: one serve each.
            return len(missing)
        for oid in requested:
            record = cached.get(oid)
            if record is not None:
                repeats.setdefault(oid, []).append(record)
                continue
            record = fetched.get(oid)
            if record is None:
                record = repeats[oid][0]
            cached[oid] = record
        return len(missing)

    def peek(self, oid: int) -> Optional[StoredObject]:
        """The record of a pending serve of *oid*, without consuming it."""
        record = self._prefetched.get(oid)
        if record is None:
            repeats = self._repeats.get(oid)
            if repeats:
                record = repeats[0]
        return record

    def traverse_refs_many(self, oids: Iterable[int],
                           until: Optional[Until] = None
                           ) -> Dict[int, Tuple[int, ...]]:
        """A batch of objects' outgoing references, keyed by oid.

        Structure-only frontier expansion: the SQLite engines answer the
        whole batch in one set-oriented round trip that decodes only the
        reference vector of each blob, never a full record; everywhere
        else the backend's loop fallback runs.  *until* is passed
        through: the engine calls it on each answer and stops reading
        once it returns true (see
        :meth:`~repro.backends.base.Backend.traverse_refs_many`).
        No policy observations are made — callers that *visit* the
        targets still go through :meth:`access`.
        """
        return self.store.traverse_refs_many(list(oids), until)

    def end_transaction(self) -> None:
        """Close one transaction: notify the policy, drop the prefetch
        cache and its pending serves (they do not outlive the walk)."""
        self.policy.on_transaction_end()
        self._prefetched.clear()
        self._repeats.clear()

    # ------------------------------------------------------------------ #
    # Mutation (the generic-operations extension)
    # ------------------------------------------------------------------ #

    def write_record(self, record: StoredObject) -> None:
        """Update one object in place."""
        self._forget(record.oid)
        self.store.write_object(record)

    def write_records(self, records: Sequence[StoredObject]) -> None:
        """Write a batch through the engine's
        :meth:`~repro.backends.base.Backend.write_many` — one round trip
        on SQLite, the protocol's in-order loop everywhere else."""
        if not records:
            return
        for record in records:
            self._forget(record.oid)
        self.store.write_many(records)

    def insert_record(self, record: StoredObject) -> None:
        """Persist a brand-new object."""
        self.store.insert_object(record)

    def delete_record(self, oid: int) -> None:
        """Remove an object."""
        self._forget(oid)
        self.store.delete_object(oid)

    def _forget(self, oid: int) -> None:
        """Drop *oid*'s pending serves: its cached record is stale."""
        self._prefetched.pop(oid, None)
        self._repeats.pop(oid, None)

    # ------------------------------------------------------------------ #
    # Metrics charging
    # ------------------------------------------------------------------ #

    def measure(self) -> Measurement:
        """Context manager measuring one span (counter delta + wall)."""
        return Measurement(self.store)

    def snapshot(self) -> StoreSnapshot:
        """The engine's counter snapshot."""
        return self.store.snapshot()

    def charge_think_time(self, seconds: float) -> None:
        """Advance the simulated clock by THINK (scaled by the model)."""
        if seconds > 0.0:
            self.store.clock.advance(
                seconds * self.store.cost_model.think_scale)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def object_count(self) -> int:
        """Live objects in the engine."""
        return self.store.object_count

    def current_order(self) -> List[int]:
        """Object ids in the engine's physical (or canonical) order."""
        return self.store.current_order()

    def drop_caches(self) -> bool:
        """Evict engine caches for an honest cold run.

        Returns ``True`` when cached state was actually dropped (see
        :meth:`~repro.backends.base.Backend.drop_caches`).
        """
        self._prefetched.clear()
        self._repeats.clear()
        return self.store.drop_caches()

    def flush(self) -> int:
        """Persist buffered writes (no-op on write-through engines)."""
        return self.store.flush()

    def reset_stats(self) -> None:
        """Zero the engine's accounting counters."""
        self.store.reset_stats()

    def close(self) -> None:
        """Release engine resources."""
        self.store.close()

    @property
    def backend_name(self) -> str:
        """The engine's registry name."""
        return self.store.name
