"""The simulated (Texas-like) backend — the reproduction's reference engine.

A thin adapter around :class:`~repro.store.storage.ObjectStore` that
forwards every call unchanged, so driving the workload through this
backend produces **bit-identical** simulated metrics to driving the
store directly: same page faults, same buffer hits, same swizzling, same
simulated clock.  It is the only backend with ``supports_clustering``,
because physical reorganization is a property of the paged segment.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.backends.base import Backend
from repro.store.costs import CostModel, SimClock
from repro.store.serializer import StoredObject
from repro.store.storage import (
    ObjectStore,
    ReorganizationStats,
    StoreConfig,
    StoreSnapshot,
)

__all__ = ["SimulatedBackend"]


class SimulatedBackend(Backend):
    """Cost-model object store behind the generic backend protocol."""

    name = "simulated"
    supports_clustering = True
    #: The paged store has no structure-only read path.
    decodes_avoided = 0

    def __init__(self, store: Optional[ObjectStore] = None,
                 store_config: Optional[StoreConfig] = None) -> None:
        # Deliberately skip Backend.__init__: the store owns the clock,
        # the cost model and every counter; keeping a parallel set here
        # would desynchronise the accounting.
        if store is None:
            store = (store_config or StoreConfig()).build()
        self.store = store

    # -- shared accounting surface (all delegated) --------------------- #

    @property
    def clock(self) -> SimClock:  # type: ignore[override]
        return self.store.clock

    @property
    def cost_model(self) -> CostModel:  # type: ignore[override]
        return self.store.cost_model

    @property
    def object_accesses(self) -> int:  # type: ignore[override]
        return self.store.object_accesses

    @property
    def records_decoded(self) -> int:  # type: ignore[override]
        return self.store.records_decoded

    @property
    def page_size(self) -> int:
        return self.store.page_size

    @property
    def object_count(self) -> int:
        return self.store.object_count

    @property
    def page_count(self) -> int:
        return self.store.page_count

    def snapshot(self) -> StoreSnapshot:
        return self.store.snapshot()

    def reset_stats(self) -> None:
        self.store.reset_stats()

    def drop_caches(self) -> bool:
        """Cold restart: empty the buffer pool and decoded-object cache."""
        self.store.drop_caches()
        return True

    def flush(self) -> int:
        """Write back dirty pages; returns the pages written."""
        return self.store.flush()

    # -- lifecycle ------------------------------------------------------ #

    def bulk_load(self, records: Iterable[StoredObject],
                  order: Optional[Sequence[int]] = None) -> int:
        return self.store.bulk_load(records, order=order)

    def read_object(self, oid: int) -> StoredObject:
        return self.store.read_object(oid)

    def write_object(self, record: StoredObject) -> None:
        self.store.write_object(record)

    def insert_object(self, record: StoredObject) -> None:
        self.store.insert_object(record)

    def delete_object(self, oid: int) -> None:
        self.store.delete_object(oid)

    def stats(self) -> Dict[str, object]:
        snap = self.store.snapshot()
        return {
            "page_size": self.store.page_size,
            "pages": self.store.page_count,
            "objects": self.store.object_count,
            "io_reads": snap.io_reads,
            "io_writes": snap.io_writes,
            "buffer_hit_ratio": snap.buffer.hit_ratio,
            "records_decoded": self.store.records_decoded,
            "decodes_avoided": self.decodes_avoided,
            "sim_time": snap.sim_time,
        }

    def close(self) -> None:
        self.store.flush()

    # -- clustering & physical layout ----------------------------------- #

    def current_order(self) -> List[int]:
        return self.store.current_order()

    def reorganize(self, new_order: Sequence[int],
                   io_mode: str = "touched",
                   aligned_groups: Optional[Sequence[Sequence[int]]] = None
                   ) -> ReorganizationStats:
        """Physically re-cluster the segment (clustering phase 5)."""
        return self.store.reorganize(new_order, io_mode=io_mode,
                                     aligned_groups=aligned_groups)

    def iter_oids(self) -> Iterator[int]:
        return self.store.iter_oids()

    def __contains__(self, oid: int) -> bool:
        return oid in self.store
