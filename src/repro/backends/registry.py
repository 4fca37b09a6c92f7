"""Name-based backend registry.

Backends register a *factory* taking the experiment's
:class:`~repro.store.storage.StoreConfig` (so page-size / buffer-size
ablations carry over to engines that honour them) plus free-form keyword
options, and returning a ready :class:`~repro.backends.base.Backend`.

The CLI (``ocb backends``, ``--backend NAME``), the benchmark facade and
the cross-backend harness all resolve engines exclusively through this
module, so registering a new adapter makes it available everywhere at
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends.base import Backend
from repro.errors import BackendError
from repro.store.storage import StoreConfig

__all__ = [
    "BackendFactory",
    "BackendInfo",
    "KNOWN_CAPABILITIES",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "backend_info",
    "backend_names",
    "create_backend",
]

BackendFactory = Callable[..., Backend]


#: Capability tags understood by the CLI listing and the README matrix.
#: Every registered engine runs the three execution paths (traversals,
#: generic operations, multi-user) through the unified kernel; the tags
#: record the optional extras an engine supports natively.
KNOWN_CAPABILITIES: Tuple[str, ...] = (
    "clustering",      # physical reorganization (simulated only)
    "batched-reads",   # native read_many (one round trip per frontier)
    "cold-cache",      # drop_caches really evicts engine state
    "concurrent",      # connect_worker: shared storage, one connection
                       # per OS process (the parallel subsystem's input)
    "sharded",         # oid-residue partitioning across independent
                       # stores with per-worker home-shard affinity
)


@dataclass(frozen=True)
class BackendInfo:
    """One registry entry."""

    name: str
    factory: BackendFactory
    description: str
    wall_clock_only: bool = True  # No simulated cost model.
    capabilities: Tuple[str, ...] = ()

    def create(self, store_config: Optional[StoreConfig] = None,
               **options: object) -> Backend:
        """Instantiate the backend for one experiment."""
        return self.factory(store_config or StoreConfig(), **options)

    def has_capability(self, tag: str) -> bool:
        """Whether the engine declares capability *tag*."""
        return tag in self.capabilities


_REGISTRY: Dict[str, BackendInfo] = {}


def register_backend(name: str, factory: BackendFactory, description: str,
                     wall_clock_only: bool = True,
                     capabilities: "Tuple[str, ...] | List[str]" = (),
                     overwrite: bool = False) -> BackendInfo:
    """Register *factory* under *name*; raise on duplicates.

    ``factory(store_config, **options)`` must return a fresh
    :class:`Backend`.  ``capabilities`` tags the engine's optional
    extras (see :data:`KNOWN_CAPABILITIES`); unknown tags are rejected
    so the capability matrix stays meaningful.  Pass ``overwrite=True``
    to replace an entry (useful in tests and notebooks).
    """
    key = name.strip().lower()
    if not key:
        raise BackendError("backend name must be non-empty")
    if key in _REGISTRY and not overwrite:
        raise BackendError(f"backend {key!r} is already registered")
    tags = tuple(capabilities)
    unknown = [tag for tag in tags if tag not in KNOWN_CAPABILITIES]
    if unknown:
        raise BackendError(
            f"unknown capability tags {unknown}; "
            f"known: {list(KNOWN_CAPABILITIES)}")
    info = BackendInfo(name=key, factory=factory, description=description,
                       wall_clock_only=wall_clock_only, capabilities=tags)
    _REGISTRY[key] = info
    return info


def unregister_backend(name: str) -> None:
    """Remove a registry entry (no-op if absent)."""
    _REGISTRY.pop(name.strip().lower(), None)


def available_backends() -> List[BackendInfo]:
    """All registered backends, sorted by name."""
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def backend_names() -> List[str]:
    """Sorted registered names (CLI choices)."""
    return sorted(_REGISTRY)


def backend_info(name: str) -> BackendInfo:
    """The registry entry for *name*.

    The one by-name lookup every capability consumer shares (the CLI
    listing, the parallel coordinator's ``concurrent`` check); unknown
    names raise :class:`~repro.errors.BackendError` listing the
    alternatives.
    """
    key = name.strip().lower()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def create_backend(name: str, store_config: Optional[StoreConfig] = None,
                   **options: object) -> Backend:
    """Instantiate the backend registered as *name*.

    The *store_config* is forwarded so engines can honour the
    experiment's page size and buffer budget; unknown names raise
    :class:`~repro.errors.BackendError` listing the alternatives.
    """
    return backend_info(name).create(store_config, **options)
