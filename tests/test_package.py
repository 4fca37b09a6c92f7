"""Package-level sanity: public API surface, version, error hierarchy."""

from __future__ import annotations

import pytest

import repro
from repro.errors import (
    ClusteringError,
    GenerationError,
    ParameterError,
    PageFull,
    ReportingError,
    ReproError,
    SimulationError,
    StorageError,
    UnknownObject,
    WorkloadError,
)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_matches_metadata(self):
        from repro._version import __version__
        assert repro.__version__ == __version__
        assert repro.__version__.count(".") == 2

    def test_key_entry_points_importable(self):
        from repro import (
            DSTCPolicy, OCBBenchmark, ObjectStore, Scenario, ScenarioRunner,
            WorkloadMix)
        from repro.core import ClientExecutor
        from repro.comparators import OO1Benchmark, OO7Benchmark
        from repro.multiuser import SimulatedMultiUser
        from repro.sim import Environment
        assert all((DSTCPolicy, OCBBenchmark, ObjectStore, Scenario,
                    ScenarioRunner, WorkloadMix, ClientExecutor,
                    OO1Benchmark, OO7Benchmark, SimulatedMultiUser,
                    Environment))


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        ParameterError, GenerationError, StorageError, PageFull,
        UnknownObject, ClusteringError, WorkloadError, SimulationError,
        ReportingError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_parameter_error_is_value_error(self):
        assert issubclass(ParameterError, ValueError)

    def test_unknown_object_is_key_error(self):
        assert issubclass(UnknownObject, KeyError)

    def test_page_full_is_storage_error(self):
        assert issubclass(PageFull, StorageError)

    def test_single_except_clause_catches_everything(self):
        caught = []
        for exc in (ParameterError("x"), StorageError("y"),
                    WorkloadError("z")):
            try:
                raise exc
            except ReproError as err:
                caught.append(err)
        assert len(caught) == 3
