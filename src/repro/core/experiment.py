"""The before/after clustering experiment — the protocol behind Tables 4-5.

DSTC-CluB "measures the number of transaction I/Os before, and after the
DSTC algorithm reorganizes the database"; OCB adopts the same protocol.
The experiment:

1. drops the caches, runs the workload (cold + warm) while the policy
   observes — the warm run's mean reads/transaction is the **before**
   figure;
2. asks the policy for a new placement and applies it, recording the
   **clustering I/O overhead** separately (the paper's third metric);
3. drops the caches again and re-runs the *same* workload (same seed, so
   the comparison is paired) — the warm run gives the **after** figure;
4. reports ``gain = before / after``, the paper's "Gain Factor".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.clustering.base import ClusteringPolicy, PlacementContext
from repro.core.database import OCBDatabase
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import ClientScenarioReport, Scenario, \
    ScenarioRunner
from repro.errors import WorkloadError
from repro.store.storage import ObjectStore, ReorganizationStats

__all__ = ["ExperimentResult", "ClusteringExperiment"]


@dataclass
class ExperimentResult:
    """Outcome of one before/after clustering experiment."""

    label: str
    policy_name: str
    before: ClientScenarioReport
    after: Optional[ClientScenarioReport]
    reorganization: Optional[ReorganizationStats]

    @property
    def ios_before(self) -> float:
        """Mean page reads per warm transaction, before reclustering."""
        return self.before.warm.transactions().totals.reads_per_op

    @property
    def ios_after(self) -> float:
        """Mean page reads per warm transaction, after reclustering."""
        if self.after is None:
            return self.ios_before
        return self.after.warm.transactions().totals.reads_per_op

    @property
    def gain_factor(self) -> float:
        """The paper's Gain Factor: before / after (1.0 when no change)."""
        after = self.ios_after
        if after <= 0.0:
            return float("inf") if self.ios_before > 0 else 1.0
        return self.ios_before / after

    @property
    def clustering_overhead_ios(self) -> int:
        """Pages read + written while physically reorganizing."""
        return self.reorganization.total_ios if self.reorganization else 0

    def table_row(self) -> Tuple[str, float, float, float]:
        """(label, before, after, gain) — one row of Table 4/5."""
        return (self.label, self.ios_before, self.ios_after, self.gain_factor)

    def describe(self) -> str:
        """One-line summary matching the paper's table columns."""
        return (f"{self.label}: {self.ios_before:.1f} I/Os before, "
                f"{self.ios_after:.1f} after, gain {self.gain_factor:.2f}x "
                f"(overhead {self.clustering_overhead_ios} I/Os)")


class ClusteringExperiment:
    """Runs the before/after protocol for one (database, store, policy)."""

    def __init__(self, database: OCBDatabase, store: ObjectStore,
                 policy: ClusteringPolicy,
                 workload: WorkloadParameters,
                 label: str = "OCB",
                 io_mode: str = "touched") -> None:
        self.database = database
        self.store = store
        self.policy = policy
        self.workload = workload
        self.label = label
        self.io_mode = io_mode

    def run(self) -> ExperimentResult:
        """Execute both phases and the intervening reorganization."""
        # Phase 1 — observe and measure "before".
        self.store.drop_caches()
        self.store.reset_stats()
        before = self._run_workload()

        # Reorganization — the policy proposes, the store applies.
        context = PlacementContext(sizes=self.database.record_sizes(),
                                   page_size=self.store.page_size)
        placement = self.policy.propose_placement(self.store.current_order(),
                                                  context)
        reorganization: Optional[ReorganizationStats] = None
        after: Optional[ClientScenarioReport] = None
        if placement is not None:
            if sorted(placement.order) != sorted(self.store.current_order()):
                raise WorkloadError(
                    f"policy {self.policy.name} proposed an invalid placement")
            reorganization = self.store.reorganize(
                placement.order, io_mode=self.io_mode,
                aligned_groups=placement.aligned_groups)

            # Phase 2 — identical workload, clustered layout.
            self.store.drop_caches()
            self.store.reset_stats()
            after = self._run_workload()

        return ExperimentResult(label=self.label,
                                policy_name=self.policy.name,
                                before=before,
                                after=after,
                                reorganization=reorganization)

    def _run_workload(self) -> ClientScenarioReport:
        """One client's cold + warm run on the store, policy observing."""
        scenario = Scenario.from_workload_parameters(self.workload,
                                                     clients=1)
        report = ScenarioRunner(self.database, scenario, store=self.store,
                                policy=self.policy).run()
        return report.clients[0]
