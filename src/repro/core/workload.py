"""The OCB execution protocol (Section 3.3) — now a scenario-layer shim.

Each client executes:

1. a **cold run** of ``COLDN`` transactions whose kinds are drawn from the
   PSET/PSIMPLE/PHIER/PSTOCH probabilities — its purpose is to fill the
   cache so the *stationary* behaviour is observed;
2. a **warm run** of ``HOTN`` transactions, whose metrics are the ones a
   benchmark report quotes.

A latency ``THINK`` can be inserted between transactions (charged on the
simulated clock).  Root objects come from DIST5/RAND5.

:class:`WorkloadRunner` is a thin shim over the declarative scenario
layer (:mod:`repro.core.scenario`): the Table 2 probabilities become a
transaction-only :class:`~repro.core.scenario.WorkloadMix` and a
:class:`~repro.core.scenario.ClientExecutor` drives it.  The entry draw,
the RNG substream and the per-transaction execution are exact ports of
the pre-refactor code, so reports are byte-identical on the same seed
(pinned by ``tests/core/test_shim_equivalence.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.backends.base import Backend
from repro.clustering.base import ClusteringPolicy, NoClustering
from repro.core.database import OCBDatabase
from repro.core.metrics import MetricsCollector, PhaseReport
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import (
    STREAM_WORKLOAD,
    ClientExecutor,
    ScenarioCollector,
    WorkloadMix,
)
from repro.core.session import Session
from repro.core.transactions import TransactionSpec
from repro.errors import WorkloadError
from repro.rand.lewis_payne import LewisPayne

__all__ = ["WorkloadReport", "WorkloadRunner"]

#: Backward-compatible alias: the substream key now lives in the
#: scenario layer.
_STREAM_WORKLOAD = STREAM_WORKLOAD


@dataclass
class WorkloadReport:
    """Cold + warm phase metrics of one workload execution."""

    cold: PhaseReport
    warm: PhaseReport

    @property
    def warm_reads_per_transaction(self) -> float:
        """The paper's headline metric: mean page reads per transaction."""
        return self.warm.totals.reads_per_transaction

    @property
    def warm_ios_per_transaction(self) -> float:
        """Mean total I/Os per warm transaction."""
        return self.warm.totals.ios_per_transaction


class WorkloadRunner:
    """Executes the OCB protocol for a single client.

    ``store`` is any :class:`~repro.backends.base.Backend`, a
    registered backend **name** (the engine is created and bulk-loaded
    with the database), or a ready :class:`~repro.core.session.Session`
    — the runner only talks to the kernel, so the same workload, RNG
    streams and transaction mix execute unchanged against every engine.
    """

    def __init__(self, database: OCBDatabase,
                 store: Union[Backend, Session, str],
                 parameters: WorkloadParameters,
                 policy: Optional[ClusteringPolicy] = None,
                 rng: Optional[LewisPayne] = None,
                 client_id: int = 0,
                 batch: Optional[bool] = None) -> None:
        self.database = database
        self.parameters = parameters
        self.policy = policy or NoClustering()
        if isinstance(store, Session):
            if policy is not None and policy is not store.policy:
                raise WorkloadError(
                    "conflicting clustering policies: the Session already "
                    "owns one; pass the policy when constructing the "
                    "Session, not the runner")
            self.session = store
            self.policy = self.session.policy
        elif store is None or isinstance(store, str):
            # A registered backend name: create, bulk-load, run.
            self.session = Session.for_database(
                database, store, policy=self.policy, batch=batch)
        else:
            self.session = Session(store, policy=self.policy,
                                   tref_table=database.tref_table(),
                                   catalog=database.catalog(), batch=batch)
        self.store = self.session.store
        self.session.require_loaded()
        if not isinstance(self.policy, NoClustering) and \
                not self.store.supports_clustering:
            raise WorkloadError(
                f"backend {self.session.backend_name!r} "
                f"does not support physical clustering; use the simulated "
                f"backend for clustering experiments")
        self.client_id = client_id
        seed = parameters.seed if parameters.seed is not None \
            else database.parameters.seed
        base_rng = rng or LewisPayne(seed)
        self.mix = WorkloadMix.from_workload_parameters(parameters)
        self._executor = ClientExecutor(
            database, self.mix, self.session, client_id=client_id,
            rng=base_rng.spawn(STREAM_WORKLOAD + client_id))
        self._rng = self._executor.rng
        #: Backward-compatible alias: the kernel superseded the
        #: per-runner ``AccessContext``.
        self.context = self.session

    # ------------------------------------------------------------------ #
    # Drawing transactions
    # ------------------------------------------------------------------ #

    def draw_spec(self) -> TransactionSpec:
        """Draw kind, root, direction and depth for the next transaction."""
        entry = self._executor.draw_entry()
        return self._executor.draw_transaction_spec(entry)

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #

    def step(self, collector: MetricsCollector) -> None:
        """Execute exactly one transaction (multi-client interleaving)."""
        executor = self._executor
        entry = executor.draw_entry()
        result, delta, wall = executor.run_transaction_entry(entry)
        collector.record(result, delta, wall)
        self.session.charge_think_time(self.parameters.think_time)
        executor._maybe_auto_reorganize()

    def run_phase(self, name: str, transactions: int) -> PhaseReport:
        """Run *transactions* transactions, collecting per-kind metrics."""
        collector = ScenarioCollector(name)
        for _ in range(transactions):
            self._executor.step(collector)
        return collector.classic.report

    def run(self) -> WorkloadReport:
        """Execute the full protocol: cold run, then warm run."""
        cold = self.run_phase("cold", self.parameters.cold_n)
        warm = self.run_phase("warm", self.parameters.hot_n)
        return WorkloadReport(cold=cold, warm=warm)
