"""OCBBenchmark — the one-call facade over the whole pipeline.

Generate the database (Fig. 2), bulk-load it into a Texas-like store with
a chosen initial placement, execute the cold/warm protocol, and package the
results.  Everything is overridable, nothing is hidden: the pieces used
here (:func:`~repro.core.generation.generate_database`,
:class:`~repro.store.storage.ObjectStore`,
:class:`~repro.core.scenario.ScenarioRunner`,
:class:`~repro.core.experiment.ClusteringExperiment`) are public API.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.backends import Backend, resolve_backend
from repro.clustering.base import ClusteringPolicy, NoClustering
from repro.clustering.placements import placement_from_name
from repro.core.database import DatabaseStatistics, OCBDatabase
from repro.core.experiment import ClusteringExperiment, ExperimentResult
from repro.core.generation import GenerationReport, generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
)
from repro.core.scenario import ClientScenarioReport, Scenario, \
    ScenarioRunner, WorkloadMix
from repro.errors import WorkloadError
from repro.store.storage import ObjectStore, StoreConfig

__all__ = ["BenchmarkResult", "OCBBenchmark"]


@dataclass
class BenchmarkResult:
    """Everything one benchmark run produced."""

    database_statistics: DatabaseStatistics
    generation: GenerationReport
    #: The single client's run; ``report.warm.transactions()`` is the
    #: warm phase per transaction kind.
    report: ClientScenarioReport
    store_pages: int
    backend_name: str = "simulated"

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        warm = self.report.warm.transactions().totals
        wall = warm.wall_percentiles()
        lines = [
            "OCB benchmark result",
            f"  database : {self.database_statistics.describe()}",
            f"  generated in {self.generation.total_seconds:.3f}s "
            f"({self.generation.removed_references} refs removed by "
            f"consistency)",
            f"  backend  : {self.backend_name}",
            f"  store    : {self.store_pages} pages",
            f"  warm run : {warm.count} transactions, "
            f"{warm.objects_per_op:.1f} objects/txn, "
            f"{warm.reads_per_op:.2f} reads/txn, "
            f"{warm.hit_ratio * 100:.1f}% buffer hits",
            f"  wall/txn : {wall.describe()}",
        ]
        return "\n".join(lines)


class OCBBenchmark:
    """Configure once, then :meth:`setup` and :meth:`run`."""

    def __init__(self,
                 database_parameters: Optional[DatabaseParameters] = None,
                 workload_parameters: Optional[WorkloadParameters] = None,
                 store_config: Optional[StoreConfig] = None,
                 policy: Optional[ClusteringPolicy] = None,
                 initial_placement: str = "sequential",
                 backend: Union[str, Backend, None] = None,
                 backend_options: Optional[dict] = None) -> None:
        self.database_parameters = (database_parameters
                                    or default_database_parameters())
        self.workload_parameters = (workload_parameters
                                    or default_workload_parameters())
        self.store_config = store_config or StoreConfig()
        self.policy = policy or NoClustering()
        self.initial_placement = initial_placement
        self.backend_spec = backend
        self.backend_options = dict(backend_options or {})
        self.database: Optional[OCBDatabase] = None
        self.generation: Optional[GenerationReport] = None
        self.backend: Optional[Backend] = None
        #: The backend when it is the simulated paged store (clustering
        #: experiments require it); ``None`` for every other engine.
        self.store: Optional[ObjectStore] = None

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #

    def setup(self, validate: bool = False) -> OCBDatabase:
        """Generate the database and bulk-load it into a fresh backend."""
        self.database, self.generation = generate_database(
            self.database_parameters, validate=validate)
        self.backend = resolve_backend(self.backend_spec, self.store_config,
                                       **self.backend_options)
        self.store = self.backend \
            if isinstance(self.backend, ObjectStore) else None
        records = self.database.to_records()
        strategy = placement_from_name(self.initial_placement)
        order = strategy(records)
        self.backend.bulk_load(records.values(), order=order)
        self.backend.reset_stats()
        return self.database

    def run(self, cold_start: bool = False) -> BenchmarkResult:
        """Execute the cold/warm protocol (after :meth:`setup`).

        ``cold_start=True`` drops the engine's caches first (through the
        backend protocol's ``drop_caches``), so the cold run really
        starts cold on every engine that can evict state — the memory
        backend reports that it cannot, and the run proceeds warm.
        """
        if self.database is None or self.backend is None:
            self.setup()
        assert self.database is not None and self.backend is not None
        assert self.generation is not None
        if cold_start:
            self.backend.drop_caches()
        scenario = Scenario.from_workload_parameters(
            self.workload_parameters, clients=1)
        report = ScenarioRunner(self.database, scenario, store=self.backend,
                                policy=self.policy).run()
        pages = int(self.backend.stats().get("pages", 0) or 0)
        return BenchmarkResult(
            database_statistics=self.database.statistics(),
            generation=self.generation,
            report=report.clients[0],
            store_pages=pages,
            backend_name=self.backend.name)

    def run_generic_operations(self, operations: int,
                               weights: Optional[dict] = None
                               ) -> ClientScenarioReport:
        """Run *operations* draws of the extended operation mix.

        The draws form the warm phase of the returned report (per
        operation class in ``report.warm.per_class``) — the facade
        behind ``ocb ops --backend NAME``.  ``weights`` maps operations
        to weights; ``None`` is the default mix.
        """
        scenario = Scenario(
            mix=WorkloadMix.from_operation_weights(weights),
            cold_ops=0, warm_ops=operations)
        if self.database is None or self.backend is None:
            self.setup()
        assert self.database is not None and self.backend is not None
        return ScenarioRunner(self.database, scenario, store=self.backend,
                              policy=self.policy).run().clients[0]

    def run_clustering_experiment(self, label: str = "OCB",
                                  io_mode: str = "touched"
                                  ) -> ExperimentResult:
        """Run the Tables 4-5 before/after protocol with this config."""
        if self.database is None or self.backend is None:
            self.setup()
        assert self.database is not None
        if self.store is None:
            raise WorkloadError(
                "clustering experiments need the simulated backend "
                f"(current backend: {self.backend_spec!r})")
        if isinstance(self.policy, NoClustering):
            raise WorkloadError(
                "a clustering experiment needs a clustering policy "
                "(e.g. DSTCPolicy); got NoClustering")
        experiment = ClusteringExperiment(
            self.database, self.store, self.policy,
            self.workload_parameters, label=label, io_mode=io_mode)
        return experiment.run()
