"""OCB core: parameters, generation, workload, metrics, experiments."""

from repro.core.benchmark import BenchmarkResult, OCBBenchmark
from repro.core.database import DatabaseStatistics, OCBDatabase, OCBObject
from repro.core.experiment import ClusteringExperiment, ExperimentResult
from repro.core.generation import (
    GenerationReport,
    generate_database,
    generate_schema,
)
from repro.core.parameters import (
    DatabaseParameters,
    ReferenceTypeSpec,
    WorkloadParameters,
    default_reference_types,
)
from repro.core.presets import (
    PRESETS,
    SCENARIO_PRESETS,
    scenario_preset,
    default_database_parameters,
    default_workload_parameters,
    dstc_club_database_parameters,
    dstc_club_workload_parameters,
    hypermodel_like_database_parameters,
    oo1_like_database_parameters,
    oo1_like_workload_parameters,
    oo7_like_database_parameters,
    preset,
)
from repro.core.scenario import (
    ClientExecutor,
    ClientScenarioReport,
    GenericOperation,
    MixEntry,
    OpClassStats,
    OperationResult,
    Scenario,
    ScenarioPhase,
    ScenarioReport,
    ScenarioRunner,
    WorkloadMix,
)
from repro.core.schema import ClassDescriptor, Schema
from repro.core.session import Measurement, Session
from repro.core.transactions import (
    TransactionKind,
    TransactionResult,
    TransactionSpec,
    run_transaction,
)

__all__ = [
    "OCBBenchmark",
    "BenchmarkResult",
    "OCBDatabase",
    "OCBObject",
    "DatabaseStatistics",
    "ClusteringExperiment",
    "ExperimentResult",
    "GenerationReport",
    "generate_database",
    "generate_schema",
    "GenericOperation",
    "OperationResult",
    "DatabaseParameters",
    "WorkloadParameters",
    "ReferenceTypeSpec",
    "default_reference_types",
    "MixEntry",
    "WorkloadMix",
    "Scenario",
    "OpClassStats",
    "ScenarioPhase",
    "ClientScenarioReport",
    "ScenarioReport",
    "ClientExecutor",
    "ScenarioRunner",
    "ClassDescriptor",
    "Schema",
    "Session",
    "Measurement",
    "TransactionKind",
    "TransactionResult",
    "TransactionSpec",
    "run_transaction",
    "PRESETS",
    "preset",
    "SCENARIO_PRESETS",
    "scenario_preset",
    "default_database_parameters",
    "default_workload_parameters",
    "dstc_club_database_parameters",
    "dstc_club_workload_parameters",
    "oo1_like_database_parameters",
    "oo1_like_workload_parameters",
    "hypermodel_like_database_parameters",
    "oo7_like_database_parameters",
]
