"""Backend fixtures: every test parametrized over all built-in engines.

The ``backend`` fixture yields a fresh, empty instance of each engine in
turn, so one test body exercises the whole matrix; ``loaded_backend``
pre-loads the session's small generated database in oid order.
"""

from __future__ import annotations

from typing import Callable, Dict

import pytest

from repro.backends import (
    Backend,
    MemoryBackend,
    ShardedSQLiteBackend,
    SQLiteBackend,
)
from repro.store.storage import ObjectStore

BACKEND_FACTORIES: Dict[str, Callable[[], Backend]] = {
    "simulated": lambda: ObjectStore(page_size=512, buffer_pages=16),
    "memory": MemoryBackend,
    "sqlite": lambda: SQLiteBackend(page_size=512, cache_pages=16),
    "sharded-sqlite": lambda: ShardedSQLiteBackend(
        shards=3, page_size=512, cache_pages=16),
}


@pytest.fixture(params=sorted(BACKEND_FACTORIES))
def backend(request) -> Backend:
    """A fresh, empty instance of each registered engine."""
    instance = BACKEND_FACTORIES[request.param]()
    yield instance
    instance.close()


@pytest.fixture
def loaded_backend(backend, small_database) -> Backend:
    """Each engine pre-loaded with the shared small database."""
    records = small_database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend
