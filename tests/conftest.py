"""Shared fixtures: a small generated database and loaded stores.

The database is session-scoped (tests must not mutate it); every store is
function-scoped so I/O accounting starts clean per test.
"""

from __future__ import annotations

import pytest

from repro.core.database import OCBDatabase
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.rand.lewis_payne import LewisPayne
from repro.store.storage import ObjectStore, StoreConfig


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a paper-scale run that takes seconds, not "
                   "milliseconds (still part of the default run)")


@pytest.fixture(scope="session")
def small_db_params() -> DatabaseParameters:
    """A 300-object, 8-class database — fast but structurally rich."""
    return DatabaseParameters(
        num_classes=8,
        max_nref=4,
        base_size=30,
        num_objects=300,
        num_ref_types=4,
        seed=42)


@pytest.fixture(scope="session")
def small_database(small_db_params) -> OCBDatabase:
    """Generated once per session; validated."""
    database, _report = generate_database(small_db_params, validate=True)
    return database


@pytest.fixture
def loaded_store(small_database) -> ObjectStore:
    """A fresh store with the small database bulk-loaded in oid order."""
    store = StoreConfig(page_size=512, buffer_pages=16).build()
    records = small_database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    return store


@pytest.fixture
def small_workload() -> WorkloadParameters:
    """A tiny cold/warm protocol for integration-ish tests."""
    return WorkloadParameters(
        set_depth=2,
        simple_depth=2,
        hierarchy_depth=3,
        stochastic_depth=10,
        cold_n=3,
        hot_n=12,
        max_visits=400)


@pytest.fixture
def rng() -> LewisPayne:
    """A deterministic generator for per-test draws."""
    return LewisPayne(12345)
