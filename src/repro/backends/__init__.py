"""Pluggable storage backends: run the OCB workload against real engines.

The package ships four built-in engines, registered under the names the
CLI and the benchmark facade resolve (``ocb backends`` lists them):

========== ==================================================== ==========
name       engine                                               metrics
========== ==================================================== ==========
simulated  the Texas-like paged store (the default),            simulated
           :class:`~repro.store.storage.ObjectStore` — page     + wall
           faults, buffer hits, swizzling, sim clock
memory     plain dict, no serialization — the latency floor     wall only
sqlite     serialized objects in an indexed SQLite table with   wall only
           configurable page/cache pragmas
sharded-   oid-residue partitioning over N independent SQLite   wall only
sqlite     files with per-worker home-shard affinity
========== ==================================================== ==========

Adding an engine is two steps: subclass
:class:`~repro.backends.base.Backend` (setting its ``name``), then
:func:`~repro.backends.registry.register_backend` a factory.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.base import Backend
from repro.backends.memory import MemoryBackend
from repro.backends.registry import (
    KNOWN_CAPABILITIES,
    BackendInfo,
    available_backends,
    backend_info,
    backend_names,
    create_backend,
    register_backend,
    unregister_backend,
)
from repro.backends.sharded import ShardedSQLiteBackend
from repro.backends.sqlite import SQLiteBackend
from repro.store.storage import StoreConfig

__all__ = [
    "Backend",
    "BackendInfo",
    "KNOWN_CAPABILITIES",
    "MemoryBackend",
    "SQLiteBackend",
    "ShardedSQLiteBackend",
    "available_backends",
    "backend_info",
    "backend_names",
    "create_backend",
    "register_backend",
    "unregister_backend",
    "resolve_backend",
]


def _make_simulated(store_config: StoreConfig, **options: object) -> Backend:
    return store_config.build()


def _make_memory(store_config: StoreConfig, **options: object) -> Backend:
    return MemoryBackend()


def _make_sqlite(store_config: StoreConfig, **options: object) -> Backend:
    path = str(options.pop("path", ":memory:"))
    kwargs = {"page_size": store_config.page_size,
              "cache_pages": store_config.buffer_pages, **options}
    return SQLiteBackend(path=path, **kwargs)  # type: ignore[arg-type]


register_backend(
    "simulated", _make_simulated,
    "Texas-like cost-model store (simulated I/O + wall clock)",
    wall_clock_only=False, capabilities=("clustering", "cold-cache"),
    overwrite=True)
register_backend(
    "memory", _make_memory,
    "dict-based upper bound (no serialization, wall clock only)",
    overwrite=True)
def _make_sharded(store_config: StoreConfig, **options: object) -> Backend:
    path = options.pop("path", None)
    kwargs = {"page_size": store_config.page_size,
              "cache_pages": store_config.buffer_pages, **options}
    return ShardedSQLiteBackend(
        path=None if path is None else str(path),
        **kwargs)  # type: ignore[arg-type]


register_backend(
    "sqlite", _make_sqlite,
    "serialized objects in an indexed SQLite table (wall clock only)",
    capabilities=("batched-reads", "cold-cache", "concurrent", "ref_index"),
    overwrite=True)
register_backend(
    "sharded-sqlite", _make_sharded,
    "oid-residue sharding over N SQLite files (home-shard affinity)",
    capabilities=("batched-reads", "cold-cache", "concurrent", "sharded",
                  "ref_index"),
    overwrite=True)


def resolve_backend(backend: "str | Backend | None",
                    store_config: Optional[StoreConfig] = None,
                    **options: object) -> Backend:
    """Accept a name, a ready instance, or ``None`` (→ simulated)."""
    if backend is None:
        backend = "simulated"
    if isinstance(backend, Backend):
        return backend
    return create_backend(backend, store_config, **options)
