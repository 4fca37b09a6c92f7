"""The "fully generic OCB" operation set — now a scenario-layer shim.

Section 5 of the paper: *"OCB could be easily enhanced to become a fully
generic object-oriented benchmark ... by extending the transaction set so
that it includes a broader range of operations (namely operations we
discarded in the first place because they couldn't benefit from
clustering)."*  Those are exactly the operations the related-work section
catalogues and OCB's clustering-oriented workload dropped:

* **creation** (OO1's Insert), **update** (HyperModel's Editing),
  **deletion** (OO7's structural modifications), **range lookup** and
  **sequential scan** (HyperModel).

The implementations live in the declarative scenario layer
(:class:`~repro.core.scenario.ClientExecutor` — where they also run
partitioned across many clients); :class:`GenericOperationsRunner` is
the single-client shim that preserves the original API and its
byte-identical operation stream on the same seed (pinned by
``tests/core/test_shim_equivalence.py``).  :class:`GenericOperation`,
:class:`OperationResult` and :func:`attribute_of` are re-exported from
the scenario module, their new home.

The runner keeps the in-memory :class:`~repro.core.database.OCBDatabase`
and the persistent store in lockstep, so structural invariants
(``database.validate()``) hold after any sequence of operations — the
property-based tests exercise exactly that.  All *logical* metrics
(operation kinds drawn, objects touched) derive from the in-memory
database and the seeded RNG alone, so they are identical on every
backend.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.backends.base import Backend
from repro.clustering.base import ClusteringPolicy
from repro.core.database import OCBDatabase
from repro.core.scenario import (
    STREAM_GENERIC,
    ClientExecutor,
    GenericOperation,
    OperationResult,
    WorkloadMix,
    attribute_of,
)
from repro.core.session import Session
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne

__all__ = ["GenericOperation", "OperationResult", "GenericOperationsRunner",
           "attribute_of"]

#: Backward-compatible alias: the substream key now lives in the
#: scenario layer.
_STREAM_GENERIC = STREAM_GENERIC


class GenericOperationsRunner:
    """Executes the extended operation set against a loaded engine.

    ``store`` accepts everything the other runners do: any loaded
    :class:`~repro.backends.base.Backend`, a registered backend name
    (created and bulk-loaded on the spot), or a ready
    :class:`~repro.core.session.Session`.
    """

    def __init__(self, database: OCBDatabase,
                 store: Union[Backend, Session, str],
                 policy: Optional[ClusteringPolicy] = None,
                 rng: Optional[LewisPayne] = None,
                 batch: Optional[bool] = None) -> None:
        self.database = database
        if isinstance(store, Session):
            if policy is not None and policy is not store.policy:
                raise WorkloadError(
                    "conflicting clustering policies: the Session already "
                    "owns one; pass the policy when constructing the "
                    "Session, not the runner")
            self.session = store
        elif store is None or isinstance(store, str):
            self.session = Session.for_database(database, store,
                                                policy=policy, batch=batch)
        else:
            self.session = Session(store, policy=policy, batch=batch)
        if self.session.object_count == 0:
            raise WorkloadError("bulk-load the database before running "
                                "generic operations")
        self.store = self.session.store
        self.policy = self.session.policy
        self._rng = rng or LewisPayne(
            database.parameters.seed).spawn(STREAM_GENERIC)
        self._executor = ClientExecutor(
            database, WorkloadMix.from_operation_weights(),
            self.session, rng=self._rng)

    # ------------------------------------------------------------------ #
    # Operations (delegated to the scenario executor)
    # ------------------------------------------------------------------ #

    def insert(self) -> OperationResult:
        """Create one object (class via DIST3, references via DIST4)."""
        return self._executor.op_insert()

    def update(self, oid: Optional[int] = None) -> OperationResult:
        """Redraw one reference of an object, fixing both back-ref sides."""
        return self._executor.op_update(oid)

    def delete(self, oid: Optional[int] = None) -> OperationResult:
        """Remove an object, detaching every inbound and outbound link."""
        return self._executor.op_delete(oid)

    def range_lookup(self, low: Optional[int] = None,
                     width: int = 10) -> OperationResult:
        """Fetch every object whose attribute falls in [low, low+width)."""
        return self._executor.op_range_lookup(low, width)

    def sequential_scan(self) -> OperationResult:
        """Visit every object in physical order."""
        return self._executor.op_sequential_scan()

    def run_mix(self, operations: int,
                weights: Optional[Dict[GenericOperation, float]] = None
                ) -> List[OperationResult]:
        """Run a weighted mix of the generic operations."""
        if operations < 0:
            raise WorkloadError(f"operations must be >= 0, got {operations}")
        # Falsy weights (None or {}) mean "use the default mix", exactly
        # as the pre-shim implementation's `weights or {...}` did.
        if weights and sum(weights.values()) <= 0:
            raise WorkloadError("operation weights must sum to > 0")
        mix = WorkloadMix.from_operation_weights(weights)
        executor = self._executor
        results: List[OperationResult] = []
        for _ in range(operations):
            entry = executor._guarded(executor.draw_entry(mix))
            results.append(executor.run_operation(entry))
        return results
