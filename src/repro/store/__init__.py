"""Texas-like persistent object store: pages, buffer pool, swizzling.

This package is the reproduction's substitute for the Texas persistent
store the paper benchmarks (Singhal, Kakkad & Wilson 1992); the module
docstring of :mod:`repro.store.storage` describes the store.
"""

from repro.store.buffer import BufferPool, BufferStats, Frame, ReplacementPolicy
from repro.store.costs import DEFAULT_PAGE_SIZE, CostModel, SimClock
from repro.store.disk import DiskStats, SimulatedDisk
from repro.store.serializer import (
    StoredObject,
    decode_object,
    encode_object,
    encoded_size,
)
from repro.store.storage import (
    ObjectStore,
    ReorganizationStats,
    StoreConfig,
    StoreSnapshot,
)
from repro.store.swizzle import SwizzleStats, SwizzleTable

__all__ = [
    "DEFAULT_PAGE_SIZE",
    "CostModel",
    "SimClock",
    "DiskStats",
    "SimulatedDisk",
    "BufferPool",
    "BufferStats",
    "Frame",
    "ReplacementPolicy",
    "StoredObject",
    "encode_object",
    "decode_object",
    "encoded_size",
    "ObjectStore",
    "StoreConfig",
    "StoreSnapshot",
    "ReorganizationStats",
    "SwizzleStats",
    "SwizzleTable",
]
