"""Multi-user execution of the OCB workload.

OCB's "last version ... also supports multiple users, in a very simple way
(using processes), which is almost unique".  The reproduction offers the
same capability, deterministically: ``CLIENTN`` clients, each with its own
Lewis–Payne substream, interleave transactions round-robin against the
*shared* store and buffer pool — so clients pollute each other's cache
exactly as concurrent processes would on the paper's single-machine setup.

The runner executes through the unified kernel, so ``store`` accepts
any :class:`~repro.backends.base.Backend` or a registered backend **name**
(``MultiClientRunner(db, "sqlite", params)`` creates, bulk-loads and
shares one SQLite engine between all clients).  Each client gets its own
:class:`~repro.core.session.Session` over the shared engine — the cache
pollution is real, the RNG streams are per-client, and the logical
metrics are identical on every backend.

(Queueing *delays* under contention are modelled separately by
:mod:`repro.multiuser.des` on top of the discrete-event engine.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.backends.base import Backend
from repro.clustering.base import ClusteringPolicy, NoClustering
from repro.core.database import OCBDatabase
from repro.core.metrics import LatencyPercentiles, PhaseReport
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import Scenario, ScenarioRunner, WorkloadMix
from repro.core.session import Session
from repro.core.workload import WorkloadReport
from repro.errors import WorkloadError

__all__ = ["MultiUserReport", "MultiClientRunner"]


@dataclass
class MultiUserReport:
    """Per-client and merged metrics of a multi-user run."""

    clients: List[WorkloadReport] = field(default_factory=list)
    backend_name: str = "simulated"

    @property
    def merged_cold(self) -> PhaseReport:
        """All clients' cold runs folded together.

        The fold merges *everything* per kind — simulated totals **and**
        the raw wall-clock samples — so the merged phase reports the
        same latency percentiles a single-client run would.
        """
        merged = PhaseReport(name="cold")
        for report in self.clients:
            merged.merge(report.cold)
        return merged

    @property
    def merged_warm(self) -> PhaseReport:
        """All clients' warm runs folded together (see :attr:`merged_cold`)."""
        merged = PhaseReport(name="warm")
        for report in self.clients:
            merged.merge(report.warm)
        return merged

    @property
    def client_count(self) -> int:
        """Number of clients that ran."""
        return len(self.clients)

    @property
    def warm_reads_per_transaction(self) -> float:
        """Mean page reads per warm transaction across all clients."""
        return self.merged_warm.totals.reads_per_transaction

    # -- wall-clock percentiles (cross-backend comparisons) ------------- #

    @property
    def cold_wall_percentiles(self) -> LatencyPercentiles:
        """P50/P95/P99 over every cold transaction of every client."""
        return self.merged_cold.wall_percentiles()

    @property
    def warm_wall_percentiles(self) -> LatencyPercentiles:
        """P50/P95/P99 over every warm transaction of every client."""
        return self.merged_warm.wall_percentiles()

    def client_wall_percentiles(self, client: int) -> LatencyPercentiles:
        """One client's warm-phase wall-clock percentiles."""
        return self.clients[client].warm.wall_percentiles()


class MultiClientRunner:
    """Round-robin interleaving of CLIENTN workload streams.

    A thin shim over the declarative scenario layer: the Table 2
    transaction mix at ``CLIENTN`` clients, executed in-process by
    :class:`~repro.core.scenario.ScenarioRunner` — per-client reports
    are byte-identical to the pre-refactor interleaving on the same
    seed (pinned by ``tests/core/test_shim_equivalence.py``).
    """

    def __init__(self, database: OCBDatabase,
                 store: Union[Backend, str],
                 parameters: WorkloadParameters,
                 policy: Optional[ClusteringPolicy] = None,
                 batch: Optional[bool] = None,
                 backend_options: Optional[dict] = None) -> None:
        if parameters.clients < 1:
            raise WorkloadError(f"need >= 1 client, got {parameters.clients}")
        self.database = database
        self.parameters = parameters
        self.policy = policy or NoClustering()
        if store is None or isinstance(store, str):
            # Resolve the name once; every client shares the engine.
            store = Session.for_database(
                database, store, policy=self.policy, batch=batch,
                backend_options=backend_options).store
        self.store = store
        self.scenario = Scenario(
            mix=WorkloadMix.from_workload_parameters(parameters),
            clients=parameters.clients,
            cold_ops=parameters.cold_n,
            warm_ops=parameters.hot_n,
            seed=parameters.seed,
            batch=batch)
        self._runner = ScenarioRunner(database, self.scenario,
                                      store=store, policy=self.policy)

    def run(self) -> MultiUserReport:
        """Interleave the cold runs, then the warm runs, transactionally."""
        report = self._runner.run()
        reports = [WorkloadReport(cold=client.cold.classic,
                                  warm=client.warm.classic)
                   for client in report.clients]
        return MultiUserReport(clients=reports,
                               backend_name=self.store.name)
