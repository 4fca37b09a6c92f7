"""The declarative scenario layer: one composable mix behind every runner.

OCB's central claim is *genericity* — one parameterized workload model
that can imitate OO1, OO7 and HyperModel instead of hard-coding each.
This module is that claim applied to the execution side.  A
:class:`WorkloadMix` is a weighted union of the ten operation classes
the reproduction knows:

* the four OCB transaction types (``set``, ``simple``, ``hierarchy``,
  ``stochastic`` — Fig. 3 of the paper), and
* the six generic operations of the paper's Section 5 future work
  (``insert``, ``update``, ``delete``, ``range_lookup``,
  ``sequential_scan``, plus the decode-free ``structure_traversal``
  that expands BFS frontiers through ``traverse_refs_many`` without
  materializing a single record),

each :class:`MixEntry` carrying its own parameters (depth, reverse
probability, range width, …) and the mix carrying the think-time policy.
A :class:`Scenario` adds the client count, the cold/warm protocol sizes
and the backend binding; :class:`ScenarioRunner` executes any scenario
on the unified kernel (:class:`~repro.core.session.Session`) against any
registered backend — in-process (round-robin interleaving) or as real OS
processes through :mod:`repro.parallel`.

It is the only execution path.  The OCB cold/warm protocol of Section
3.3 is the transaction-only mix of
:meth:`WorkloadMix.from_workload_parameters`
(:meth:`Scenario.from_workload_parameters` adds the COLDN/HOTN/CLIENTN
sizes); the paper's Section 5 operation set is the operation-only mix
of :meth:`WorkloadMix.from_operation_weights`.  The Tables 4-5
experiment, the :class:`~repro.core.benchmark.OCBBenchmark` facade, the
queueing model and the worker processes all run one of these mixes.
Each pure mix draws from its own Lewis–Payne substream
(:data:`STREAM_WORKLOAD` for transaction-only mixes,
:data:`STREAM_GENERIC` for operation-only mixes).  The keys and the
entry draw must not change: ``tests/core/test_shim_equivalence.py``
pins the reports they produce on fixed seeds against frozen goldens.

Multi-client **mutating** mixes — a workload shape the Table 2 protocol
cannot express — partition the object space by client
(``oid % clients == client_id``):

* every client draws its mutation victims from its own partition and
  allocates fresh oids in its own residue lane, so two clients never
  insert the same oid;
* every client's *logical* decisions (which operations, which objects,
  how many records dirtied) derive from a private replica of the object
  graph that evolves only with the client's own mutations — so the
  logical metrics of a ``write_heavy`` scenario are deterministic
  functions of (seed, client id) alone, identical in-process and across
  OS processes;
* the *physical* writes all land in the one shared engine, which is
  where write-write contention genuinely occurs: busy retries are
  counted by the engine, and cross-partition back-reference write-backs
  use last-writer-wins semantics (a write-back that finds its row
  deleted by the owning client is counted as a ``write_conflict``, and a
  traversal read that hits such a row is counted as a ``read_miss``) —
  the benchmark measures contention, it does not impose serializability.
"""

from __future__ import annotations

import bisect
import contextlib
import copy
import json
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.backends.base import Backend
from repro.clustering.base import ClusteringPolicy, NoClustering, \
    PlacementContext
from repro.core.database import OCBDatabase, OCBObject
from repro.core.metrics import LatencyPercentiles, MetricsCollector, \
    PhaseReport
from repro.core.parameters import WorkloadParameters
from repro.core.session import Session
from repro.core.transactions import (
    TransactionKind,
    TransactionResult,
    TransactionSpec,
    run_transaction,
)
from repro.errors import ParameterError, StorageError, UnknownObject, \
    WorkloadError
from repro.obs import trace
from repro.rand.distributions import Distribution, UniformDistribution
from repro.rand.lewis_payne import LewisPayne
from repro.stats import BoundedSample
from repro.store.serializer import StoredObject

__all__ = [
    "GenericOperation",
    "OperationResult",
    "attribute_of",
    "MixEntry",
    "WorkloadMix",
    "Scenario",
    "OpClassStats",
    "ScenarioPhase",
    "ScenarioCollector",
    "ENGINE_COUNTERS",
    "engine_counters",
    "ClientScenarioReport",
    "ScenarioReport",
    "ClientExecutor",
    "ScenarioRunner",
    "STREAM_WORKLOAD",
    "STREAM_GENERIC",
    "STREAM_SCENARIO",
    "TRANSACTION_CLASSES",
    "OPERATION_CLASSES",
    "MUTATING_CLASSES",
    "OPERATION_CLASS_ORDER",
]

#: Lewis–Payne substream keys.  The first two key the pure transaction
#: and pure operation mixes (the pinned goldens depend on them); the
#: third keys mixes combining both worlds.
STREAM_WORKLOAD = 0x0CB0_0001
STREAM_GENERIC = 0x0CB0_00FF
STREAM_SCENARIO = 0x0CB0_05CE

#: Chunk size for sequential-scan prefetches (bounds cache growth).
_SCAN_BATCH = 256

TRANSACTION_CLASSES = ("set", "simple", "hierarchy", "stochastic")
OPERATION_CLASSES = ("insert", "update", "delete", "range_lookup",
                     "sequential_scan", "structure_traversal")
MUTATING_CLASSES = frozenset(("insert", "update", "delete"))

#: Canonical rendering order of the ten operation classes.
OPERATION_CLASS_ORDER = TRANSACTION_CLASSES + OPERATION_CLASSES

#: Table 2's per-kind depth defaults, used when a MixEntry leaves depth
#: unset.  ``structure_traversal`` matches the hierarchy traversal's
#: depth so the two are an apples-to-apples decode A/B.
_DEFAULT_DEPTHS = {"set": 3, "simple": 3, "hierarchy": 5, "stochastic": 50,
                   "structure_traversal": 5}


#: Attribute used by range lookups: a pseudo-random but deterministic
#: percentile derived from the object id (Knuth's multiplicative hash).
def attribute_of(oid: int) -> int:
    """The synthetic ``hundred``-style attribute of an object (0..99)."""
    return ((oid * 2654435761) & 0xFFFFFFFF) % 100


class GenericOperation(str, Enum):
    """The extended operation kinds (the paper's Section 5 future work)."""

    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"
    RANGE_LOOKUP = "range_lookup"
    SEQUENTIAL_SCAN = "sequential_scan"
    STRUCTURE_TRAVERSAL = "structure_traversal"


@dataclass(frozen=True)
class OperationResult:
    """Metrics of one generic operation."""

    operation: GenericOperation
    objects_touched: int
    io_reads: int
    io_writes: int
    sim_time: float
    wall_time: float


# ---------------------------------------------------------------------- #
# The declarative model
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class MixEntry:
    """One weighted operation class in a :class:`WorkloadMix`.

    Transaction entries use ``depth`` / ``reverse_probability`` /
    ``ref_type`` / ``dedupe`` / ``max_visits`` (semantics of Table 2);
    ``range_width`` parameterizes ``range_lookup`` entries.  Unset depth
    falls back to the paper's per-kind default.

    ``dist5`` is a per-entry *root-distribution override*: when set, this
    entry draws its transaction/traversal roots from its own distribution
    instead of the mix-wide DIST5 — which is how a hot-spot entry (a
    Zipf-skewed sliver of the oid space) composes with uniform background
    traffic in one mix, and how hot-key skew is steered onto (or off) a
    particular shard residue class.
    """

    kind: str
    weight: float = 1.0
    depth: Optional[int] = None
    reverse_probability: float = 0.0
    ref_type: Optional[int] = None
    dedupe: bool = False
    max_visits: int = 5000
    range_width: int = 10
    dist5: Optional[Distribution] = None

    def __post_init__(self) -> None:
        if self.kind not in OPERATION_CLASS_ORDER:
            raise ParameterError(
                f"unknown operation class {self.kind!r}; choose from "
                f"{OPERATION_CLASS_ORDER}")
        if self.weight < 0.0:
            raise ParameterError(
                f"entry weight must be >= 0, got {self.weight}")
        if self.depth is not None and self.depth < 0:
            raise ParameterError(f"depth must be >= 0, got {self.depth}")
        if not 0.0 <= self.reverse_probability <= 1.0:
            raise ParameterError(
                "reverse_probability must be in [0, 1], got "
                f"{self.reverse_probability}")
        if self.max_visits < 1:
            raise ParameterError(
                f"max_visits must be >= 1, got {self.max_visits}")
        if not 1 <= self.range_width <= 100:
            raise ParameterError(
                f"range_width must be in [1, 100], got {self.range_width}")

    @property
    def is_transaction(self) -> bool:
        """Whether this entry is one of the four OCB transaction types."""
        return self.kind in TRANSACTION_CLASSES

    @property
    def is_mutating(self) -> bool:
        """Whether this entry writes (insert/update/delete)."""
        return self.kind in MUTATING_CLASSES

    @property
    def resolved_depth(self) -> int:
        """Entry depth, falling back to the Table 2 per-kind default."""
        if self.depth is not None:
            return self.depth
        return _DEFAULT_DEPTHS.get(self.kind, 0)

    def to_dict(self) -> dict:
        """JSON-ready mapping (defaults omitted for readability)."""
        spec: Dict[str, object] = {"kind": self.kind, "weight": self.weight}
        for name in ("depth", "reverse_probability", "ref_type", "dedupe",
                     "range_width"):
            value = getattr(self, name)
            if value != MixEntry.__dataclass_fields__[name].default:
                spec[name] = value
        if self.max_visits != 5000:
            spec["max_visits"] = self.max_visits
        if self.dist5 is not None:
            # Same wire format as the mix-wide DIST5: name + every public
            # constructor parameter.
            spec["dist5"] = {
                "name": self.dist5.name,
                **{key: value for key, value in vars(self.dist5).items()
                   if not key.startswith("_")}}
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "MixEntry":
        """Build from a JSON mapping; unknown keys are rejected."""
        from repro.rand.distributions import distribution_from_name
        allowed = set(cls.__dataclass_fields__)
        unknown = set(spec) - allowed
        if unknown:
            raise ParameterError(
                f"unknown MixEntry keys {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}")
        spec = dict(spec)
        dist5 = spec.pop("dist5", None)
        if isinstance(dist5, str):
            dist5 = distribution_from_name(dist5)
        elif isinstance(dist5, Mapping):
            params = dict(dist5)
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ParameterError(
                    "a dist5 mapping needs a 'name' string")
            dist5 = distribution_from_name(name, **params)
        return cls(dist5=dist5, **spec)  # type: ignore[arg-type]

    def root_distribution(self, mix_dist5: Distribution) -> Distribution:
        """The distribution this entry draws roots from (override or mix)."""
        return self.dist5 if self.dist5 is not None else mix_dist5


@dataclass(frozen=True)
class WorkloadMix:
    """A weighted, picklable union of operation classes.

    The mix is the *entire* declarative description of what one client
    does per protocol slot: entries are drawn by weight (one uniform
    consumed per slot, cumulative thresholds in entry order — the exact
    scheme both legacy runners used), then the drawn entry executes
    with its own parameters.  ``think_time`` is charged on the simulated
    clock after every operation; ``dist5`` draws transaction roots
    (RAND5 of Table 2); ``stream`` overrides the Lewis–Payne substream
    key (``None`` resolves to the legacy key for pure mixes, see
    :attr:`resolved_stream`).
    """

    name: str = "custom"
    entries: Tuple[MixEntry, ...] = ()
    think_time: float = 0.0
    dist5: Distribution = field(default_factory=UniformDistribution)
    stream: Optional[int] = None
    #: ``True`` declares the weights to be *probabilities*: the entry
    #: draw compares the raw uniform against the cumulative weights
    #: without scaling by :attr:`total_weight` — bit-equal to the legacy
    #: ``draw_spec`` thresholds even when float summation leaves the
    #: total one ulp off 1.0.  Set by :meth:`from_workload_parameters`.
    unit_weights: bool = False

    def __post_init__(self) -> None:
        entries = tuple(
            entry if isinstance(entry, MixEntry) else MixEntry(**entry)
            for entry in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ParameterError("a WorkloadMix needs at least one entry")
        if self.think_time < 0.0:
            raise ParameterError(
                f"think_time must be >= 0, got {self.think_time}")
        if self.total_weight <= 0.0:
            raise ParameterError("mix weights must sum to > 0")

    # -- structural properties ------------------------------------------ #

    @property
    def total_weight(self) -> float:
        """Sum of entry weights, in entry order (draw denominator)."""
        return sum(entry.weight for entry in self.entries)

    @property
    def mutates(self) -> bool:
        """Whether any positively-weighted entry writes."""
        return any(entry.is_mutating and entry.weight > 0.0
                   for entry in self.entries)

    @property
    def read_only(self) -> bool:
        """Whether no positively-weighted entry writes."""
        return not self.mutates

    @property
    def transaction_only(self) -> bool:
        """Whether every entry is an OCB transaction type."""
        return all(entry.is_transaction for entry in self.entries)

    @property
    def operation_only(self) -> bool:
        """Whether every entry is a generic operation."""
        return all(not entry.is_transaction for entry in self.entries)

    @property
    def resolved_stream(self) -> int:
        """Substream key: explicit, else the legacy key for pure mixes."""
        if self.stream is not None:
            return self.stream
        if self.transaction_only:
            return STREAM_WORKLOAD
        if self.operation_only:
            return STREAM_GENERIC
        return STREAM_SCENARIO

    # -- construction ---------------------------------------------------- #

    @classmethod
    def from_workload_parameters(cls, parameters: WorkloadParameters,
                                 name: str = "ocb-transactions"
                                 ) -> "WorkloadMix":
        """The Table 2 transaction mix as a declarative WorkloadMix.

        Entry order (set, simple, hierarchy, stochastic) and weights are
        exactly the PSET/PSIMPLE/PHIER/PSTOCH thresholds of the legacy
        ``draw_spec``, so a ScenarioRunner over this mix consumes the
        client's RNG stream identically.
        """
        p = parameters
        entries = tuple(
            MixEntry(kind=kind, weight=weight, depth=depth,
                     reverse_probability=p.reverse_probability,
                     ref_type=p.hierarchy_ref_type if kind == "hierarchy"
                     else None,
                     dedupe=p.dedupe_visits, max_visits=p.max_visits)
            for kind, weight, depth in (
                ("set", p.p_set, p.set_depth),
                ("simple", p.p_simple, p.simple_depth),
                ("hierarchy", p.p_hierarchy, p.hierarchy_depth),
                ("stochastic", p.p_stochastic, p.stochastic_depth)))
        return cls(name=name, entries=entries, think_time=p.think_time,
                   dist5=p.dist5, unit_weights=True)

    @classmethod
    def from_operation_weights(cls, weights: Optional[Mapping] = None,
                               name: str = "generic-operations",
                               think_time: float = 0.0) -> "WorkloadMix":
        """An operation-only mix from a ``{operation: weight}`` mapping.

        Mapping order is preserved (it defines the cumulative draw
        thresholds, exactly as the legacy ``run_mix`` consumed them).
        Keys may be :class:`GenericOperation` members or their string
        values; ``None`` (or an empty mapping) uses the legacy default
        mix.
        """
        if not weights:
            weights = {
                GenericOperation.INSERT: 0.25,
                GenericOperation.UPDATE: 0.35,
                GenericOperation.DELETE: 0.10,
                GenericOperation.RANGE_LOOKUP: 0.25,
                GenericOperation.SEQUENTIAL_SCAN: 0.05,
            }
        entries = tuple(
            MixEntry(kind=getattr(operation, "value", str(operation)),
                     weight=weight)
            for operation, weight in weights.items())
        return cls(name=name, entries=entries, think_time=think_time)

    # -- JSON specs ------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-ready mapping (``dist5``/``stream`` only when non-default)."""
        spec: Dict[str, object] = {
            "name": self.name,
            "entries": [entry.to_dict() for entry in self.entries],
        }
        if self.think_time:
            spec["think_time"] = self.think_time
        if not isinstance(self.dist5, UniformDistribution):
            # Name + every public constructor parameter, so a skewed or
            # localized root distribution survives the round trip intact.
            spec["dist5"] = {
                "name": self.dist5.name,
                **{key: value for key, value in vars(self.dist5).items()
                   if not key.startswith("_")}}
        if self.stream is not None:
            spec["stream"] = self.stream
        if self.unit_weights:
            spec["unit_weights"] = True
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "WorkloadMix":
        """Build from a JSON mapping (``dist5`` a name or name+params)."""
        from repro.rand.distributions import distribution_from_name
        spec = dict(spec)
        entries = tuple(MixEntry.from_dict(entry)
                        for entry in spec.pop("entries", ()))
        dist5 = spec.pop("dist5", None)
        if isinstance(dist5, str):
            dist5 = distribution_from_name(dist5)
        elif isinstance(dist5, Mapping):
            params = dict(dist5)
            name = params.pop("name", None)
            if not isinstance(name, str):
                raise ParameterError(
                    "a dist5 mapping needs a 'name' string")
            dist5 = distribution_from_name(name, **params)
        unknown = set(spec) - {"name", "think_time", "stream",
                               "unit_weights"}
        if unknown:
            raise ParameterError(
                f"unknown WorkloadMix keys {sorted(unknown)}")
        return cls(entries=entries,
                   dist5=dist5 or UniformDistribution(),
                   **spec)  # type: ignore[arg-type]


@dataclass(frozen=True)
class Scenario:
    """A complete executable description: mix + clients + protocol + engine.

    ``cold_ops`` warm the caches, ``warm_ops`` are the measured phase —
    the OCB COLDN/HOTN protocol generalized to arbitrary mixes.  The
    backend binding is a registry *name* plus options so the scenario
    stays picklable and can be replayed by worker processes.
    """

    mix: WorkloadMix
    clients: int = 1
    cold_ops: int = 10
    warm_ops: int = 50
    backend: str = "simulated"
    backend_options: Dict[str, object] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ParameterError(f"clients must be >= 1, got {self.clients}")
        if self.cold_ops < 0 or self.warm_ops < 0:
            raise ParameterError("cold_ops and warm_ops must be >= 0")

    @property
    def partitioned(self) -> bool:
        """Whether clients mutate disjoint partitions (see module docs)."""
        return self.clients > 1 and self.mix.mutates

    @classmethod
    def from_workload_parameters(cls, parameters: WorkloadParameters,
                                 **fields: object) -> "Scenario":
        """The OCB protocol of Table 2 as a scenario.

        CLIENTN clients each run COLDN then HOTN transactions of the
        PSET..PSTOCH mix on the parameters' seed; *fields* override any
        of these (``clients=1`` for a single-user run) or set the
        backend binding.
        """
        spec: Dict[str, object] = {
            "mix": WorkloadMix.from_workload_parameters(parameters),
            "clients": parameters.clients,
            "cold_ops": parameters.cold_n,
            "warm_ops": parameters.hot_n,
            "seed": parameters.seed,
        }
        spec.update(fields)
        return cls(**spec)  # type: ignore[arg-type]

    def to_dict(self) -> dict:
        """JSON-ready mapping (the ``ocb scenario`` spec-file format)."""
        spec: Dict[str, object] = {
            "mix": self.mix.to_dict(),
            "clients": self.clients,
            "cold_ops": self.cold_ops,
            "warm_ops": self.warm_ops,
            "backend": self.backend,
        }
        if self.backend_options:
            spec["backend_options"] = dict(self.backend_options)
        if self.seed is not None:
            spec["seed"] = self.seed
        return spec

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "Scenario":
        """Build from a JSON mapping (see :meth:`to_dict`)."""
        spec = dict(spec)
        mix = spec.pop("mix", None)
        if mix is None:
            raise ParameterError("a scenario spec needs a 'mix' mapping")
        if not isinstance(mix, WorkloadMix):
            mix = WorkloadMix.from_dict(mix)
        options = dict(spec.pop("backend_options", {}) or {})
        unknown = set(spec) - {"clients", "cold_ops", "warm_ops", "backend",
                               "seed"}
        if unknown:
            raise ParameterError(f"unknown Scenario keys {sorted(unknown)}")
        return cls(mix=mix, backend_options=options,
                   **spec)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Parse a JSON spec document."""
        try:
            spec = json.loads(text)
        except ValueError as exc:
            raise ParameterError(f"invalid scenario JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ParameterError("a scenario spec must be a JSON object")
        return cls.from_dict(spec)


# ---------------------------------------------------------------------- #
# Per-operation-class metrics
# ---------------------------------------------------------------------- #

@dataclass
class OpClassStats:
    """Aggregates for one operation class (transaction kind or generic op)."""

    op_class: str
    count: int = 0
    objects: int = 0
    io_reads: int = 0
    io_writes: int = 0
    sim_time: float = 0.0
    wall_time: float = 0.0
    busy_retries: int = 0
    # Bounded: exact samples for short runs, log-bucketed histogram once
    # a long open-loop sweep pushes past the fold threshold.
    wall_samples: BoundedSample = field(default_factory=BoundedSample)

    def add(self, objects: int, io_reads: int, io_writes: int,
            sim_time: float, wall_seconds: float, retries: int = 0) -> None:
        """Fold one executed operation into the aggregate."""
        self.count += 1
        self.objects += objects
        self.io_reads += io_reads
        self.io_writes += io_writes
        self.sim_time += sim_time
        self.wall_time += wall_seconds
        self.busy_retries += retries
        self.wall_samples.append(wall_seconds)

    def merge(self, other: "OpClassStats") -> None:
        """Fold another aggregate (multi-client merges)."""
        self.count += other.count
        self.objects += other.objects
        self.io_reads += other.io_reads
        self.io_writes += other.io_writes
        self.sim_time += other.sim_time
        self.wall_time += other.wall_time
        self.busy_retries += other.busy_retries
        self.wall_samples.extend(other.wall_samples)

    @property
    def objects_per_op(self) -> float:
        """Mean objects touched per operation."""
        return self.objects / self.count if self.count else 0.0

    @property
    def reads_per_op(self) -> float:
        """Mean page reads per operation (0 on engines without a cost
        model)."""
        return self.io_reads / self.count if self.count else 0.0

    @property
    def sim_time_per_op(self) -> float:
        """Mean simulated cost per operation (seconds)."""
        return self.sim_time / self.count if self.count else 0.0

    def wall_percentiles(self) -> LatencyPercentiles:
        """Wall-clock latency percentiles over the class's operations."""
        return LatencyPercentiles.from_samples(self.wall_samples)

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping (one row of the per-class breakdown)."""
        wall = self.wall_percentiles()
        return {
            "class": self.op_class,
            "count": self.count,
            "objects": self.objects,
            "io_reads": self.io_reads,
            "io_writes": self.io_writes,
            "sim_time": self.sim_time,
            "wall_p50_ms": wall.p50 * 1e3,
            "wall_p95_ms": wall.p95 * 1e3,
            "wall_p99_ms": wall.p99 * 1e3,
            "wall_p999_ms": wall.p999 * 1e3,
            "busy_retries": self.busy_retries,
        }


@dataclass
class ScenarioPhase:
    """One protocol phase (cold or warm) of one client, per-class.

    ``classic`` is the per-transaction-kind :class:`PhaseReport`
    covering the phase's transaction entries — the shape the paper's
    tables quote (reads/IOs per transaction, per kind).  The Tables 4-5
    experiment, the benchmark facade and the cross-backend comparison
    read it, and multi-client folds merge it.
    """

    name: str
    per_class: Dict[str, OpClassStats] = field(default_factory=dict)
    classic: PhaseReport = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.classic is None:
            self.classic = PhaseReport(name=self.name)

    @property
    def operation_count(self) -> int:
        """Operations executed in the phase (all classes)."""
        return sum(stats.count for stats in self.per_class.values())

    @property
    def totals(self) -> OpClassStats:
        """Aggregate over every class."""
        total = OpClassStats(op_class="all")
        for stats in self.per_class.values():
            total.merge(stats)
        return total

    def stats_for(self, op_class: str) -> OpClassStats:
        """Stats for one class (empty aggregate if it never ran)."""
        return self.per_class.get(op_class, OpClassStats(op_class=op_class))

    def wall_percentiles(self) -> LatencyPercentiles:
        """Wall-clock P50/P95/P99 over every operation in the phase."""
        return self.totals.wall_percentiles()

    def merge(self, other: "ScenarioPhase") -> None:
        """Fold another phase (multi-client merges)."""
        for op_class, stats in other.per_class.items():
            if op_class in self.per_class:
                self.per_class[op_class].merge(stats)
            else:
                merged = OpClassStats(op_class=op_class)
                merged.merge(stats)
                self.per_class[op_class] = merged
        self.classic.merge(other.classic)

    def rows(self) -> List[List[object]]:
        """Table rows in canonical class order, with the totals row."""
        table: List[List[object]] = []
        for op_class in OPERATION_CLASS_ORDER:
            stats = self.per_class.get(op_class)
            if stats is None or stats.count == 0:
                continue
            wall = stats.wall_percentiles()
            table.append([op_class, stats.count, stats.objects_per_op,
                          stats.sim_time_per_op, wall.p50 * 1e3,
                          wall.p95 * 1e3, wall.p99 * 1e3,
                          stats.busy_retries])
        totals = self.totals
        wall = totals.wall_percentiles()
        table.append(["all", totals.count, totals.objects_per_op,
                      totals.sim_time_per_op, wall.p50 * 1e3,
                      wall.p95 * 1e3, wall.p99 * 1e3,
                      totals.busy_retries])
        return table

    def to_dict(self) -> dict:
        """JSON-ready mapping: per-class rows in canonical order."""
        return {
            "name": self.name,
            "operations": self.operation_count,
            "per_class": [self.per_class[op_class].to_dict()
                          for op_class in OPERATION_CLASS_ORDER
                          if op_class in self.per_class],
        }


class ScenarioCollector:
    """Accumulates one client's executed operations into a phase."""

    def __init__(self, phase_name: str) -> None:
        self.name = phase_name
        self.classic = MetricsCollector(phase_name)
        self.per_class: Dict[str, OpClassStats] = {}
        self.operation_results: List[OperationResult] = []

    def record_transaction(self, result: TransactionResult, delta,
                           wall_seconds: float, retries: int = 0) -> None:
        """Fold one executed OCB transaction."""
        self.classic.record(result, delta, wall_seconds)
        stats = self.per_class.setdefault(
            result.kind.value, OpClassStats(op_class=result.kind.value))
        stats.add(objects=result.visits, io_reads=delta.io_reads,
                  io_writes=delta.io_writes, sim_time=delta.sim_time,
                  wall_seconds=wall_seconds, retries=retries)

    def record_operation(self, result: OperationResult,
                         retries: int = 0) -> None:
        """Fold one executed generic operation."""
        self.operation_results.append(result)
        stats = self.per_class.setdefault(
            result.operation.value,
            OpClassStats(op_class=result.operation.value))
        stats.add(objects=result.objects_touched, io_reads=result.io_reads,
                  io_writes=result.io_writes, sim_time=result.sim_time,
                  wall_seconds=result.wall_time, retries=retries)

    @property
    def phase(self) -> ScenarioPhase:
        """The phase built so far."""
        return ScenarioPhase(name=self.name, per_class=self.per_class,
                             classic=self.classic.report)


#: The engine ``stats()`` keys every scenario report carries, each with
#: the type it is read as.  Reports sum them over clients, and
#: :meth:`ScenarioReport.to_dict` emits them, so adding an engine counter
#: to every report is one entry here.
ENGINE_COUNTERS: Dict[str, type] = {
    "busy_retries": int,
    "busy_wait_seconds": float,
    # Operations (and traversal frontier edges) a sharded engine routed
    # off the client's home shard — 0 on unsharded backends.
    "remote_reads": int,
    "sql_round_trips": int,
    # Records decoded from bytes, and frontier answers served without a
    # decode (structure-only traversals).
    "records_decoded": int,
    "decodes_avoided": int,
}


def engine_counters(stats: Mapping[str, object]) -> Dict[str, float]:
    """The :data:`ENGINE_COUNTERS` in one engine's ``stats()``; 0 where
    the engine does not count one."""
    return {name: kind(stats.get(name) or 0)
            for name, kind in ENGINE_COUNTERS.items()}


class _CounterAttributes:
    """Reads each engine counter as an attribute: ``report.busy_retries``
    is ``report.counters["busy_retries"]``."""

    def __getattr__(self, name: str) -> float:
        if name in ENGINE_COUNTERS:
            return self.counters[name]  # type: ignore[attr-defined]
        raise AttributeError(name)


@dataclass
class ClientScenarioReport(_CounterAttributes):
    """One client's cold + warm scenario phases and contention counters."""

    client_id: int
    cold: ScenarioPhase
    warm: ScenarioPhase
    read_misses: int = 0
    write_conflicts: int = 0
    #: The ``stats()`` of the engine this client drove.  Clients that
    #: share one in-process engine leave it to client 0, so the engine is
    #: counted once.
    engine_stats: Dict[str, object] = field(default_factory=dict)
    pid: Optional[int] = None
    #: Open-loop pacing counters — operations whose start lagged their
    #: intended arrival beyond the grace window, and the deepest
    #: due-but-unstarted arrival backlog.  Both stay 0 for closed-loop
    #: runs, where no arrival schedule exists.
    late_starts: int = 0
    max_backlog: int = 0

    @property
    def operations(self) -> int:
        """Operations this client executed (cold + warm)."""
        return self.cold.operation_count + self.warm.operation_count

    @property
    def counters(self) -> Dict[str, float]:
        """The engine counters of :attr:`engine_stats`."""
        return engine_counters(self.engine_stats)

    def to_dict(self) -> dict:
        """JSON-ready mapping."""
        return {
            "client": self.client_id,
            "pid": self.pid,
            "operations": self.operations,
            "read_misses": self.read_misses,
            "write_conflicts": self.write_conflicts,
            **self.counters,
            "late_starts": self.late_starts,
            "max_backlog": self.max_backlog,
            "cold": self.cold.to_dict(),
            "warm": self.warm.to_dict(),
        }


@dataclass
class ScenarioReport(_CounterAttributes):
    """Per-client and merged metrics of one executed scenario, however it
    ran: in-process, open-loop or as worker processes."""

    scenario_name: str
    clients: List[ClientScenarioReport] = field(default_factory=list)
    backend_name: str = "simulated"
    #: ``"interleaved"`` — round-robin in one process; ``"open-loop"`` —
    #: the same, with a paced warm phase; ``"shared"`` /
    #: ``"replicated"`` — the process-parallel modes.
    mode: str = "interleaved"
    elapsed_seconds: float = 0.0
    executed_parallel: bool = False
    #: Open-loop provenance: the offered arrival rate (ops/s, summed
    #: over clients) and arrival process ("poisson"/"fixed") when the
    #: scenario ran under the load generator; ``None`` for closed loops.
    offered_rate: Optional[float] = None
    arrival_mode: Optional[str] = None

    @property
    def client_count(self) -> int:
        """Number of clients that ran."""
        return len(self.clients)

    @property
    def merged_cold(self) -> ScenarioPhase:
        """All clients' cold phases folded together."""
        merged = ScenarioPhase(name="cold")
        for client in self.clients:
            merged.merge(client.cold)
        return merged

    @property
    def merged_warm(self) -> ScenarioPhase:
        """All clients' warm phases folded together."""
        merged = ScenarioPhase(name="warm")
        for client in self.clients:
            merged.merge(client.warm)
        return merged

    @property
    def total_operations(self) -> int:
        """Operations executed across all clients (cold + warm)."""
        return sum(client.operations for client in self.clients)

    @property
    def write_operations(self) -> int:
        """Mutating operations executed across all clients and phases."""
        total = 0
        for client in self.clients:
            for phase in (client.cold, client.warm):
                for op_class in MUTATING_CLASSES:
                    total += phase.stats_for(op_class).count
        return total

    @property
    def counters(self) -> Dict[str, float]:
        """The engine counters, summed over clients."""
        totals = engine_counters({})
        for client in self.clients:
            for name, value in client.counters.items():
                totals[name] += value
        return totals

    @property
    def read_misses(self) -> int:
        """Tolerated reads of rows deleted by a concurrent client."""
        return sum(client.read_misses for client in self.clients)

    @property
    def write_conflicts(self) -> int:
        """Tolerated write-backs to rows deleted by a concurrent client."""
        return sum(client.write_conflicts for client in self.clients)

    @property
    def late_starts(self) -> int:
        """Operations that started late against their intended arrival,
        summed over clients (0 for closed-loop runs)."""
        return sum(client.late_starts for client in self.clients)

    @property
    def max_backlog(self) -> int:
        """Deepest due-but-unstarted arrival backlog any client saw."""
        return max((client.max_backlog for client in self.clients),
                   default=0)

    @property
    def throughput(self) -> float:
        """Aggregate operations per second of harness wall-clock."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.total_operations / self.elapsed_seconds

    def describe(self) -> str:
        """One line: clients, mode, throughput, contention."""
        open_loop = ""
        if self.offered_rate is not None:
            open_loop = (f", offered {self.offered_rate:g} op/s "
                         f"({self.arrival_mode}), {self.late_starts} "
                         f"late starts, backlog <= {self.max_backlog}")
        return (f"scenario {self.scenario_name!r}: {self.client_count} "
                f"clients ({self.mode}) on {self.backend_name!r}, "
                f"{self.total_operations} ops "
                f"({self.write_operations} writes) in "
                f"{self.elapsed_seconds:.3f} s "
                f"({self.throughput:.1f} op/s), "
                f"{self.busy_retries} busy retries, "
                f"{self.remote_reads} remote reads, "
                f"{self.write_conflicts} write conflicts"
                f"{open_loop}")

    def to_dict(self) -> dict:
        """JSON-ready mapping (the ``ocb scenario --json`` document)."""
        return {
            "scenario": self.scenario_name,
            "backend": self.backend_name,
            "mode": self.mode,
            "clients": self.client_count,
            "executed_parallel": self.executed_parallel,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "operations": self.total_operations,
            "write_operations": self.write_operations,
            **self.counters,
            "read_misses": self.read_misses,
            "write_conflicts": self.write_conflicts,
            "late_starts": self.late_starts,
            "max_backlog": self.max_backlog,
            "offered_rate": self.offered_rate,
            "arrival_mode": self.arrival_mode,
            "warm": self.merged_warm.to_dict(),
            "cold": self.merged_cold.to_dict(),
            "per_client": [client.to_dict() for client in self.clients],
        }


# ---------------------------------------------------------------------- #
# The executor: one client, any mix
# ---------------------------------------------------------------------- #

class ClientExecutor:
    """Executes one client's share of a mix on a kernel session.

    Every workload's drawing and execution mechanics live here,
    generalized along two axes:

    * **any mix** — one weighted-entry draw per slot (the exact
      cumulative-threshold scheme both legacy runners used), then the
      entry's own RNG consumption (roots, reverse flags, victims);
    * **many clients** — when ``partitioned`` is set, mutations target
      only the client's own residue class (``oid % total_clients ==
      client_id``), fresh oids come from the client's own lane, and the
      logical view (``view``) is this client's private replica.

    With one client, no partitioning and a pure mix, every draw is the
    one the golden tests pin.
    """

    def __init__(self, database: OCBDatabase, mix: WorkloadMix,
                 session: Session, *, client_id: int = 0,
                 total_clients: int = 1,
                 rng: Optional[LewisPayne] = None,
                 seed: Optional[int] = None,
                 partitioned: bool = False,
                 tolerate_conflicts: bool = False) -> None:
        if client_id < 0:
            raise ParameterError(
                f"client_id must be >= 0, got {client_id}")
        if partitioned and total_clients > 1 and client_id >= total_clients:
            raise ParameterError(
                f"client_id {client_id} outside the partition range "
                f"0..{total_clients - 1}")
        self.view = database
        self.mix = mix
        self.session = session
        self.policy = session.policy
        self.client_id = client_id
        self.total_clients = total_clients
        self.partitioned = partitioned and total_clients > 1
        self.tolerate_conflicts = tolerate_conflicts
        if rng is None:
            base_seed = seed if seed is not None \
                else database.parameters.seed
            rng = LewisPayne(base_seed).spawn(
                mix.resolved_stream + client_id)
        self.rng = rng
        self.read_misses = 0
        self.write_conflicts = 0
        self._owned: Optional[List[int]] = None
        self._dispatch: Dict[str, Callable[[MixEntry], OperationResult]] = {
            "insert": lambda entry: self.op_insert(),
            "update": lambda entry: self.op_update(),
            "delete": lambda entry: self.op_delete(),
            "range_lookup": lambda entry: self.op_range_lookup(
                width=entry.range_width),
            "sequential_scan": lambda entry: self.op_sequential_scan(),
            "structure_traversal": lambda entry:
                self.op_structure_traversal(entry),
        }

    # -- partition helpers ----------------------------------------------- #

    def _owns(self, oid: int) -> bool:
        """Whether this client's partition contains *oid*."""
        if not self.partitioned:
            return True
        return oid % self.total_clients == self.client_id

    def _live_sorted(self) -> List[int]:
        """The view's sorted oids (transaction-root domain).  The list is
        live: callers must not mutate it, nor hold it across a mutation."""
        return self.view.sorted_oids()

    def _owned_sorted(self) -> List[int]:
        """The client's mutable oids, sorted (victim-selection domain)."""
        if not self.partitioned:
            return self._live_sorted()
        if self._owned is None:
            self._owned = [oid for oid in self._live_sorted()
                           if self._owns(oid)]
        return self._owned

    def _next_oid(self) -> int:
        """The next fresh oid in this client's allocation lane."""
        floor = self.view.next_oid
        if not self.partitioned:
            return floor
        return floor + (self.client_id - floor) % self.total_clients

    # -- entry drawing ---------------------------------------------------- #

    def draw_entry(self, mix: Optional[WorkloadMix] = None) -> MixEntry:
        """Draw one entry by weight (one uniform consumed).

        ``u = random() * total`` compared against cumulative thresholds
        in entry order — the exact scheme of the legacy ``run_mix``.
        Probability mixes (:attr:`WorkloadMix.unit_weights`, Table 2's
        PSET..PSTOCH) skip the scaling so the comparison is bit-equal to
        the legacy ``draw_spec`` thresholds even when float summation
        leaves the total one ulp off 1.0.
        """
        mix = mix or self.mix
        u = self.rng.random()
        if not mix.unit_weights:
            u *= mix.total_weight
        acc = 0.0
        chosen = mix.entries[-1]
        for entry in mix.entries:
            acc += entry.weight
            if u < acc:
                chosen = entry
                break
        return chosen

    def _guarded(self, entry: MixEntry) -> MixEntry:
        """The legacy keep-the-database-populated guard, per partition."""
        if entry.kind == "delete" and len(self._owned_sorted()) <= 1:
            return MixEntry(kind="insert")
        return entry

    def draw_transaction_spec(self, entry: MixEntry) -> TransactionSpec:
        """Draw root, direction and (for hierarchies) reference type.

        RNG consumption order matches the legacy ``draw_spec`` exactly:
        root via DIST5, then the reverse flag (only when the entry's
        reverse probability is positive), then the hierarchy type (only
        when unset).  On a static database the DIST5 draw *is* the root
        oid; under mutation the draw is mapped onto the sorted live oids
        so roots always exist in this client's view.
        """
        if not entry.is_transaction:
            raise WorkloadError(
                f"entry {entry.kind!r} is not a transaction class")
        kind = TransactionKind(entry.kind)
        live = self._live_sorted()
        if not live:
            raise WorkloadError("the database has no objects to traverse")
        drawn = entry.root_distribution(self.mix.dist5).draw(
            self.rng, 1, self.view.num_objects)
        root = live[(drawn - 1) % len(live)]
        reverse = (entry.reverse_probability > 0.0
                   and self.rng.random() < entry.reverse_probability)
        ref_type = entry.ref_type
        if kind is TransactionKind.HIERARCHY and ref_type is None:
            ref_type = self.rng.randint(
                1, self.view.parameters.num_ref_types)
        return TransactionSpec(kind=kind, root=root,
                               depth=entry.resolved_depth,
                               reverse=reverse, ref_type=ref_type,
                               dedupe=entry.dedupe,
                               max_visits=entry.max_visits)

    # -- slot execution --------------------------------------------------- #

    def step(self, collector: ScenarioCollector,
             mix: Optional[WorkloadMix] = None) -> None:
        """Draw one entry from the mix and execute it."""
        entry = self._guarded(self.draw_entry(mix))
        self.execute(entry, collector)

    def execute(self, entry: MixEntry, collector: ScenarioCollector) -> None:
        """Execute one already-drawn entry, recording its metrics."""
        if trace.enabled:
            with trace.span("scenario.op", kind=entry.kind,
                            client=self.client_id):
                self._execute(entry, collector)
        else:
            self._execute(entry, collector)

    def _execute(self, entry: MixEntry, collector: ScenarioCollector) -> None:
        store = self.session.store
        retries_before = store.busy_retries
        if entry.is_transaction:
            result, delta, wall = self.run_transaction_entry(entry)
            collector.record_transaction(
                result, delta, wall,
                retries=store.busy_retries - retries_before)
            self.session.charge_think_time(self.mix.think_time)
            self._maybe_auto_reorganize()
        else:
            result = self._dispatch[entry.kind](entry)
            collector.record_operation(
                result, retries=store.busy_retries - retries_before)
            self.session.charge_think_time(self.mix.think_time)

    def report(self, cold: ScenarioCollector, warm: ScenarioCollector,
               engine_stats: Mapping[str, object],
               **fields: object) -> ClientScenarioReport:
        """This client's report over its *cold* and *warm* phases;
        *fields* set the runner-specific ones (``pid``, ...)."""
        return ClientScenarioReport(
            client_id=self.client_id, cold=cold.phase, warm=warm.phase,
            read_misses=self.read_misses,
            write_conflicts=self.write_conflicts,
            engine_stats=dict(engine_stats),
            **fields)  # type: ignore[arg-type]

    def run_transaction_entry(self, entry: MixEntry
                              ) -> Tuple[TransactionResult, object, float]:
        """Execute one transaction entry; returns (result, delta, wall).

        In tolerant mode a traversal that reads a row deleted by a
        concurrent client is aborted and counted as a ``read_miss`` —
        the result records zero visits and ``truncated``.
        """
        spec = self.draw_transaction_spec(entry)
        span = self.session.measure()
        span.__enter__()
        try:
            result = run_transaction(self.session, spec, self.rng)
        except UnknownObject:
            span.__exit__(None, None, None)
            if not self.tolerate_conflicts:
                raise
            self.read_misses += 1
            self.session.end_transaction()
            result = TransactionResult(
                kind=spec.kind, root=spec.root, visits=0,
                distinct_objects=0, max_depth_reached=0,
                reverse=spec.reverse, ref_type=spec.ref_type,
                truncated=True)
        else:
            span.__exit__(None, None, None)
        return result, span.delta, span.wall

    # ------------------------------------------------------------------ #
    # The generic operations (ported verbatim from the legacy runner,
    # with partition-aware victim selection and tolerant write-backs)
    # ------------------------------------------------------------------ #

    def op_insert(self) -> OperationResult:
        """Create one object (class via DIST3, references via DIST4)."""
        def body() -> int:
            params = self.view.parameters
            oid = self._next_oid()
            cid = params.dist3.draw(self.rng, 1, params.num_classes,
                                    center=oid)
            descriptor = self.view.schema.get(cid)
            obj = OCBObject(oid=oid, cid=cid,
                            oref=[None] * descriptor.max_nref)
            self.view.add_object(obj)
            if self._owned is not None:
                bisect.insort(self._owned, oid)
            dirty: Dict[int, None] = {}
            low, high = params.object_ref_bounds(
                min(oid, params.num_objects or oid))
            for index, _type_id, target_class in descriptor.references():
                if target_class is None:
                    continue
                iterator = self.view.schema.get(target_class).iterator
                if not iterator:
                    continue
                drawn = params.dist4.draw(self.rng, low, high, center=oid)
                target = iterator[(drawn - 1) % len(iterator)]
                if target == oid:
                    continue
                obj.oref[index] = target
                self.view.get(target).back_refs.append((oid, index))
                dirty[target] = None
            self._write_dirty(dirty)
            self._store_insert(self._record_for(oid))
            self.session.flush()
            return 1 + len(dirty)
        return self._timed(GenericOperation.INSERT, body)

    def op_update(self, oid: Optional[int] = None) -> OperationResult:
        """Redraw one reference of an object, fixing both back-ref sides."""
        def body() -> int:
            target_oid = oid if oid is not None else self._pick_oid()
            obj = self.view.get(target_oid)
            slots = [i for i, t in enumerate(obj.oref) if t is not None]
            if not slots:
                # Nothing to rewire; still a (logical) attribute update.
                self._write_dirty({target_oid: None})
                self.session.flush()
                return 1
            slot = slots[self.rng.randint(0, len(slots) - 1)]
            old_target = obj.oref[slot]
            descriptor = self.view.schema.get(obj.cid)
            target_class = descriptor.cref[slot]
            iterator = self.view.schema.get(target_class).iterator
            params = self.view.parameters
            low, high = params.object_ref_bounds(target_oid)
            drawn = params.dist4.draw(self.rng, low, high, center=target_oid)
            new_target = iterator[(drawn - 1) % len(iterator)]
            if new_target == old_target:
                self._write_dirty({target_oid: None})
                self.session.flush()
                return 1
            obj.oref[slot] = new_target
            old_obj = self.view.get(old_target)
            old_obj.back_refs.remove((target_oid, slot))
            self.view.get(new_target).back_refs.append((target_oid, slot))
            dirty = dict.fromkeys((target_oid, old_target, new_target))
            self._write_dirty(dirty)
            self.session.flush()
            return len(dirty)
        return self._timed(GenericOperation.UPDATE, body)

    def op_delete(self, oid: Optional[int] = None) -> OperationResult:
        """Remove an object, detaching every inbound and outbound link."""
        def body() -> int:
            victim_oid = oid if oid is not None else self._pick_oid()
            victim = self.view.get(victim_oid)
            dirty = {}
            # Outbound: remove our entries from targets' back references.
            for index, target in enumerate(victim.oref):
                if target is None or target == victim_oid:
                    continue
                target_obj = self.view.get(target)
                target_obj.back_refs.remove((victim_oid, index))
                dirty[target] = None
            # Inbound: NULL every reference that points at the victim.
            for source, index in list(victim.back_refs):
                if source == victim_oid:
                    continue
                source_obj = self.view.get(source)
                if source_obj.oref[index] == victim_oid:
                    source_obj.oref[index] = None
                    dirty[source] = None
            self.view.remove_object(victim_oid)
            if self._owned is not None and self._owns(victim_oid):
                del self._owned[bisect.bisect_left(self._owned, victim_oid)]
            self._write_dirty(dirty)
            self._store_delete(victim_oid)
            self.session.flush()
            return 1 + len(dirty)
        return self._timed(GenericOperation.DELETE, body)

    def op_range_lookup(self, low: Optional[int] = None,
                        width: int = 10) -> OperationResult:
        """Fetch every owned object whose attribute is in [low, low+width)."""
        if not 1 <= width <= 100:
            raise WorkloadError(f"width must be in [1, 100], got {width}")

        def body() -> int:
            start = low if low is not None \
                else self.rng.randint(0, 100 - width)
            matches = [oid for oid in self.view.objects
                       if self._owns(oid)
                       and start <= attribute_of(oid) < start + width]
            # The whole match set in one round trip on batched engines.
            self.session.prefetch(matches)
            for match in matches:
                self.session.touch(match)
            return len(matches)
        return self._timed(GenericOperation.RANGE_LOOKUP, body)

    def op_sequential_scan(self) -> OperationResult:
        """Visit every owned object in physical order."""
        def body() -> int:
            order = [oid for oid in self.session.current_order()
                     if self._owns(oid)]
            for start in range(0, len(order), _SCAN_BATCH):
                chunk = order[start:start + _SCAN_BATCH]
                self.session.prefetch(chunk)
                for scanned in chunk:
                    self.session.touch(scanned)
            return len(order)
        return self._timed(GenericOperation.SEQUENTIAL_SCAN, body)

    def op_structure_traversal(self, entry: MixEntry) -> OperationResult:
        """BFS from a DIST5 root through the link structure, zero decode.

        Frontiers expand via :meth:`Session.traverse_refs_many`: the
        SQLite engines answer each hop in one set-oriented round trip
        that decodes only each blob's reference vector, never a full
        record (counted under the engine's ``decodes_avoided``);
        everywhere else the backend's read-and-filter loop runs.  Depth
        and ``max_visits`` bound the walk exactly like the transaction
        classes; the touched count is the number of distinct objects
        whose structure was visited.
        """
        def body() -> int:
            live = self._live_sorted()
            if not live:
                return 0
            drawn = entry.root_distribution(self.mix.dist5).draw(
                self.rng, 1, self.view.num_objects)
            root = live[(drawn - 1) % len(live)]
            visited = {root}
            frontier = [root]
            for _ in range(entry.resolved_depth):
                if not frontier or len(visited) >= entry.max_visits:
                    break
                answers = self.session.traverse_refs_many(frontier)
                frontier = []
                for targets in answers.values():
                    for target in targets:
                        if len(visited) >= entry.max_visits:
                            break
                        # Skip edges into objects a concurrent client
                        # deleted from this view; structure-only walks
                        # tolerate them like read misses.
                        if target not in visited \
                                and target in self.view.objects:
                            visited.add(target)
                            frontier.append(target)
            return len(visited)
        return self._timed(GenericOperation.STRUCTURE_TRAVERSAL, body)

    # -- internals -------------------------------------------------------- #

    def _timed(self, operation: GenericOperation,
               body: Callable[[], int]) -> OperationResult:
        with self.session.measure() as span:
            touched = body()
        self.session.end_transaction()
        assert span.delta is not None
        return OperationResult(operation=operation,
                               objects_touched=touched,
                               io_reads=span.delta.io_reads,
                               io_writes=span.delta.io_writes,
                               sim_time=span.delta.sim_time,
                               wall_time=span.wall)

    def _pick_oid(self) -> int:
        oids = self._owned_sorted()
        return oids[self.rng.randint(0, len(oids) - 1)]

    def _record_for(self, oid: int) -> StoredObject:
        obj = self.view.get(oid)
        instance_size = self.view.schema.get(obj.cid).instance_size
        return StoredObject(oid=obj.oid, cid=obj.cid,
                            refs=tuple(obj.oref),
                            back_refs=tuple(obj.back_refs),
                            filler=instance_size)

    def _write_dirty(self, dirty: Dict[int, None]) -> None:
        """Write the final in-memory state of every dirty object back.

        Records are materialised *after* all of the operation's graph
        surgery, so an object rewired twice within one operation is
        written once, with its final state — a single batched round trip
        on engines that support it.  In tolerant mode records are
        written one by one so a row deleted by a concurrent client
        (counted as a ``write_conflict``) never aborts the batch.
        """
        records = [self._record_for(oid) for oid in dirty]
        if not self.tolerate_conflicts:
            self.session.write_records(records)
            return
        for record in records:
            try:
                self.session.write_record(record)
            except UnknownObject:
                self.write_conflicts += 1

    def _store_insert(self, record: StoredObject) -> None:
        try:
            self.session.insert_record(record)
        except StorageError:
            if not self.tolerate_conflicts:
                raise
            self.write_conflicts += 1

    def _store_delete(self, oid: int) -> None:
        try:
            self.session.delete_record(oid)
        except UnknownObject:
            if not self.tolerate_conflicts:
                raise
            self.write_conflicts += 1

    def _maybe_auto_reorganize(self) -> None:
        """Reorganize after a transaction when the policy asks for it."""
        if not self.policy.wants_reorganization():
            return
        context = PlacementContext(sizes=self.view.record_sizes(),
                                   page_size=self.session.store.page_size)
        placement = self.policy.propose_placement(
            self.session.current_order(), context)
        if placement is not None:
            self.session.store.reorganize(
                placement.order, aligned_groups=placement.aligned_groups)


# ---------------------------------------------------------------------- #
# The runner
# ---------------------------------------------------------------------- #

def phase_span(phase: str, scenario: str) -> ContextManager[None]:
    """A ``scenario.phase`` trace span when tracing is on, else a no-op."""
    if trace.enabled:
        return trace.span("scenario.phase", phase=phase, scenario=scenario)
    return contextlib.nullcontext()


#: Drives one phase: steps each client's executor into its collector.
PhaseDriver = Callable[[List[ClientExecutor], List[ScenarioCollector]],
                       None]


def round_robin(executors: List[ClientExecutor],
                collectors: List[ScenarioCollector], ops: int) -> None:
    """*ops* slots per client, the clients taking turns slot by slot."""
    for _ in range(ops):
        for executor, collector in zip(executors, collectors):
            executor.step(collector)


class ScenarioRunner:
    """Executes a :class:`Scenario` — in-process or as OS processes.

    In-process (:meth:`run`), the scenario's clients interleave
    round-robin against one shared engine over *any* mix, so clients
    pollute each other's caches as concurrent users would.  As processes
    (:meth:`run_processes`), each client becomes a worker of the
    process-parallel subsystem: shared WAL storage for backends with the
    ``concurrent`` capability, per-worker replicas otherwise.

    An engine passed in as ``store`` stays the caller's to close; one
    the runner resolves from ``scenario.backend`` is closed at the end
    of :meth:`run`.
    """

    def __init__(self, database: OCBDatabase, scenario: Scenario,
                 store: Optional[Backend] = None,
                 policy: Optional[ClusteringPolicy] = None) -> None:
        if isinstance(store, Session):
            # Each client builds its own Session with the runner's policy.
            raise WorkloadError(
                "store must be an engine, not a Session; pass "
                "session.store as store= and its policy as policy=")
        self.database = database
        self.scenario = scenario
        self.mix = scenario.mix
        self.policy = policy or NoClustering()
        self._store = store

    # -- in-process execution --------------------------------------------- #

    def _resolve_engine(self) -> Backend:
        """The shared engine every in-process client drives."""
        if self._store is not None:
            store = self._store
            if store.object_count == 0:
                self.database.load_into(store)
                store.reset_stats()
            return store
        session = Session.for_database(
            self.database, self.scenario.backend,
            backend_options=dict(self.scenario.backend_options),
            policy=self.policy)
        return session.store

    def _release(self, engine: Backend) -> None:
        """Close *engine* if :meth:`_resolve_engine` created it."""
        if self._store is None:
            engine.close()

    def build_executors(self, engine: Backend) -> List[ClientExecutor]:
        """One executor per client over the shared *engine*.

        Mutating multi-client scenarios give each client a private
        replica of the object graph (its logical view — see the module
        docs); read-only scenarios share the generated database.
        """
        scenario = self.scenario
        partitioned = scenario.partitioned
        executors = []
        for client in range(scenario.clients):
            view = copy.deepcopy(self.database) if partitioned \
                else self.database
            session = Session(engine, policy=self.policy,
                              tref_table=view.tref_table(),
                              catalog=view.catalog())
            executors.append(ClientExecutor(
                view, self.mix, session, client_id=client,
                total_clients=scenario.clients, seed=scenario.seed,
                partitioned=partitioned,
                tolerate_conflicts=partitioned))
        return executors

    def run(self, warm_phase: Optional[PhaseDriver] = None
            ) -> ScenarioReport:
        """Run the clients' cold then warm slots in-process.

        Each phase round-robins the clients one slot at a time;
        *warm_phase*, when given, drives the warm phase instead (the
        open-loop runner paces it).  A clustering policy needs an engine
        that can reorganize its physical layout; any other engine is
        refused before a client executes.
        """
        scenario = self.scenario
        engine = self._resolve_engine()
        try:
            if not isinstance(self.policy, NoClustering) and \
                    not engine.supports_clustering:
                raise WorkloadError(
                    f"backend {engine.name!r} does not support physical "
                    f"clustering; use the simulated backend for "
                    f"clustering experiments")
            executors = self.build_executors(engine)
            cold = [ScenarioCollector("cold") for _ in executors]
            warm = [ScenarioCollector("warm") for _ in executors]
            started = time.perf_counter()
            with phase_span("cold", self.mix.name):
                round_robin(executors, cold, scenario.cold_ops)
            with phase_span("warm", self.mix.name):
                if warm_phase is None:
                    round_robin(executors, warm, scenario.warm_ops)
                else:
                    warm_phase(executors, warm)
            elapsed = time.perf_counter() - started
            stats = engine.stats()
        finally:
            self._release(engine)
        # One engine served every client: client 0 carries its stats.
        clients = [executor.report(cold[index], warm[index],
                                   stats if index == 0 else {})
                   for index, executor in enumerate(executors)]
        return ScenarioReport(
            scenario_name=self.mix.name,
            clients=clients,
            backend_name=engine.name,
            mode="interleaved",
            elapsed_seconds=elapsed,
            executed_parallel=False)

    # -- process execution ------------------------------------------------ #

    def run_processes(self, config: Optional[object] = None
                      ) -> ScenarioReport:
        """Run the scenario's clients as real OS processes.

        The backend must be a registered name (it is re-resolved on the
        worker side of the fork).  Storage setup, spawning and the
        report are :class:`~repro.parallel.runner.ParallelRunner`'s.  A
        live engine or a clustering policy cannot cross the process
        boundary, so a runner constructed with either refuses loudly
        instead of silently running something different from
        :meth:`run`.
        """
        from repro.parallel.runner import ParallelRunner

        if self._store is not None:
            raise WorkloadError(
                "run_processes() re-resolves the scenario's backend name "
                "in every worker process; a live engine instance cannot "
                "cross the process boundary — drop the store argument "
                "and set Scenario.backend/backend_options instead")
        if not isinstance(self.policy, NoClustering):
            raise WorkloadError(
                "run_processes() does not support clustering policies; "
                "worker processes would each need their own policy "
                "instance — run the scenario in-process instead")
        return ParallelRunner(self.database, self.scenario,
                              config=config).run()
