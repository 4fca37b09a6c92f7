"""repro — reproduction of OCB, the Object Clustering Benchmark (EDBT '98).

Public API highlights:

* :class:`repro.core.OCBBenchmark` — generate / load / run in three lines,
* :class:`repro.core.DatabaseParameters` / ``WorkloadParameters`` — the
  paper's Tables 1 and 2,
* :class:`repro.core.ScenarioRunner` — runs any
  :class:`~repro.core.Scenario` (a ``WorkloadMix`` plus clients and
  cold/warm sizes), in-process or as OS processes,
* :class:`repro.clustering.DSTCPolicy` — the clustering technique the
  paper evaluates,
* :class:`repro.store.ObjectStore` — the Texas-like persistent store,
* :mod:`repro.backends` — pluggable storage engines (simulated, memory,
  SQLite) behind one :class:`~repro.backends.Backend` protocol,
* :mod:`repro.comparators` — OO1, DSTC-CluB, HyperModel and OO7.
"""

from repro._version import __version__
from repro.errors import (
    BackendError,
    ClusteringError,
    GenerationError,
    ParameterError,
    ReproError,
    StorageError,
    WorkloadError,
)
from repro.backends import (
    Backend,
    MemoryBackend,
    SQLiteBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.rand import DEFAULT_SEED, LewisPayne
from repro.core import (
    BenchmarkResult,
    ClusteringExperiment,
    DatabaseParameters,
    ExperimentResult,
    OCBBenchmark,
    OCBDatabase,
    Scenario,
    ScenarioRunner,
    Session,
    WorkloadMix,
    WorkloadParameters,
    generate_database,
    preset,
)
from repro.clustering import (
    DROPolicy,
    DSTCParameters,
    DSTCPolicy,
    NoClustering,
    StaticPolicy,
)
from repro.store import CostModel, ObjectStore, StoreConfig
from repro.stats import Summary, summarize
from repro.qualitative import assess_policy, render_assessments

__all__ = [
    "__version__",
    "ReproError",
    "ParameterError",
    "GenerationError",
    "StorageError",
    "BackendError",
    "ClusteringError",
    "WorkloadError",
    "Backend",
    "MemoryBackend",
    "SQLiteBackend",
    "available_backends",
    "create_backend",
    "register_backend",
    "DEFAULT_SEED",
    "LewisPayne",
    "OCBBenchmark",
    "BenchmarkResult",
    "OCBDatabase",
    "DatabaseParameters",
    "WorkloadParameters",
    "Session",
    "WorkloadMix",
    "Scenario",
    "ScenarioRunner",
    "ClusteringExperiment",
    "ExperimentResult",
    "generate_database",
    "preset",
    "DSTCPolicy",
    "DSTCParameters",
    "DROPolicy",
    "NoClustering",
    "StaticPolicy",
    "ObjectStore",
    "StoreConfig",
    "CostModel",
    "Summary",
    "summarize",
    "assess_policy",
    "render_assessments",
]
