"""Parameter presets: the paper's tables plus benchmark approximations.

* :func:`default_database_parameters` / :func:`default_workload_parameters`
  — Tables 1 and 2 verbatim (with an optional ``scale`` so tests and CI
  machines can run proportionally smaller instances).
* :func:`dstc_club_database_parameters` /
  :func:`dstc_club_workload_parameters` — Table 3: OCB tuned to mimic the
  DSTC-CluB benchmark (OO1-derived; two classes, three references per
  object, constant DIST1-3, the Special RefZone locality for DIST4, and a
  traversal-only workload at OO1's depth 7).
* :func:`oo1_like_database_parameters`,
  :func:`hypermodel_like_database_parameters`,
  :func:`oo7_like_database_parameters` — the paper's genericity claim
  ("existing benchmark databases might be approximated with OCB's schema,
  tuned by the appropriate parameters") made concrete.

``PRESETS`` maps preset names to ``(database, workload)`` factories for the
CLI and the benchmark harness.

``SCENARIO_PRESETS`` is the declarative-scenario library (``ocb scenario``,
:mod:`repro.core.scenario`): named :class:`~repro.core.scenario.Scenario`
factories covering the paper-default transaction mix plus the read/write
shapes the legacy runners could not express — ``read_heavy``,
``write_heavy``, ``mixed_oltp``, ``scan_heavy``, the decode-free
``graph_walk`` and the skew-composition ``hot_spot`` (per-entry DIST5
overrides steering Zipf-hot roots onto a sharded engine).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core.parameters import (
    DatabaseParameters,
    ReferenceTypeSpec,
    WorkloadParameters,
)
from repro.core.scenario import MixEntry, Scenario, WorkloadMix
from repro.errors import ParameterError
from repro.rand.distributions import (
    ConstantDistribution,
    SpecialDistribution,
    UniformDistribution,
    ZipfDistribution,
)

__all__ = [
    "default_database_parameters",
    "default_workload_parameters",
    "dstc_club_database_parameters",
    "dstc_club_workload_parameters",
    "oo1_like_database_parameters",
    "oo1_like_workload_parameters",
    "hypermodel_like_database_parameters",
    "oo7_like_database_parameters",
    "PRESETS",
    "preset",
    "SCENARIO_PRESETS",
    "scenario_preset",
]


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    if scale <= 0:
        raise ParameterError(f"scale must be > 0, got {scale}")
    return max(minimum, int(round(value * scale)))


# ---------------------------------------------------------------------- #
# Tables 1 & 2 — OCB defaults
# ---------------------------------------------------------------------- #

def default_database_parameters(scale: float = 1.0,
                                seed: Optional[int] = None
                                ) -> DatabaseParameters:
    """Table 1 defaults; ``scale`` shrinks NO proportionally."""
    kwargs = {} if seed is None else {"seed": seed}
    return DatabaseParameters(
        num_classes=20,
        max_nref=10,
        base_size=50,
        num_objects=_scaled(20000, scale),
        num_ref_types=4,
        **kwargs)


def default_workload_parameters(scale: float = 1.0) -> WorkloadParameters:
    """Table 2 defaults; ``scale`` shrinks COLDN and HOTN proportionally."""
    return WorkloadParameters(
        set_depth=3,
        simple_depth=3,
        hierarchy_depth=5,
        stochastic_depth=50,
        cold_n=_scaled(1000, scale),
        hot_n=_scaled(10000, scale),
        think_time=0.0,
        p_set=0.25,
        p_simple=0.25,
        p_hierarchy=0.25,
        p_stochastic=0.25,
        clients=1)


# ---------------------------------------------------------------------- #
# Table 3 — OCB parameterized to approximate DSTC-CluB (OO1-derived)
# ---------------------------------------------------------------------- #

def dstc_club_database_parameters(num_objects: int = 20000,
                                  ref_zone: int = 100,
                                  seed: Optional[int] = None
                                  ) -> DatabaseParameters:
    """Table 3: NC=2, MAXNREF=3, NREFT=3, constant DIST1-3, Special DIST4.

    "Constant" in Table 3 is the paper's "set up a priori" escape hatch:
    the OO1 structure is fixed rather than drawn.  Class 1 plays OO1's
    Part (three part-to-part links, folding Connection objects into the
    link slots); class 2 plays Connection.  DIST3 = Constant(1) puts every
    object in the Part class, matching OO1's traversal population.  DIST4
    is the Special OO1 locality: 90 % of references fall within
    ``ref_zone`` of the referencing part, 10 % anywhere.
    """
    kwargs = {} if seed is None else {"seed": seed}
    reference_types = (
        ReferenceTypeSpec(1, "connection-to", acyclic=False),
        ReferenceTypeSpec(2, "connection-from", acyclic=False),
        ReferenceTypeSpec(3, "part-of", acyclic=False),
    )
    return DatabaseParameters(
        num_classes=2,
        max_nref=3,
        base_size=50,
        num_objects=num_objects,
        num_ref_types=3,
        inf_class=0,
        sup_class=2,
        dist1=ConstantDistribution(1),
        dist2=ConstantDistribution(1),
        dist3=ConstantDistribution(1),
        dist4=SpecialDistribution(ref_zone=ref_zone, locality_probability=0.9),
        reference_types=reference_types,
        fixed_tref=((1, 1, 1), (1, 2, 3)),
        fixed_cref=((1, 1, 1), (1, 1, 0)),
        **kwargs)


def dstc_club_workload_parameters(transactions: int = 100,
                                  cold: int = 10,
                                  depth: int = 7) -> WorkloadParameters:
    """DSTC-CluB's single transaction type: OO1's depth-7 traversal.

    ``depth`` defaults to OO1's 7 hops; scaled-down experiment instances
    shrink it together with the database so the traversal's footprint
    stays proportional (see EXPERIMENTS.md).
    """
    return WorkloadParameters(
        simple_depth=depth,
        p_set=0.0,
        p_simple=1.0,
        p_hierarchy=0.0,
        p_stochastic=0.0,
        cold_n=cold,
        hot_n=transactions,
        max_visits=3280)  # OO1: "total of 3280 parts, with possible duplicates".


# ---------------------------------------------------------------------- #
# Genericity presets — other benchmarks approximated with OCB
# ---------------------------------------------------------------------- #

def oo1_like_database_parameters(num_parts: int = 20000,
                                 ref_zone: Optional[int] = None,
                                 seed: Optional[int] = None
                                 ) -> DatabaseParameters:
    """OO1/Cattell: parts with three links, RefZone = 1 % of the parts."""
    zone = ref_zone if ref_zone is not None else max(1, num_parts // 100)
    return dstc_club_database_parameters(num_objects=num_parts,
                                         ref_zone=zone, seed=seed)


def oo1_like_workload_parameters() -> WorkloadParameters:
    """OO1's traversal mix (lookups are modelled by depth-0 set accesses)."""
    return WorkloadParameters(
        set_depth=0,          # Lookup: access the selected part itself.
        simple_depth=7,       # Traversal: depth-first, seven hops.
        p_set=0.5,
        p_simple=0.5,
        p_hierarchy=0.0,
        p_stochastic=0.0,
        cold_n=20,
        hot_n=200,
        max_visits=3280,
        reverse_probability=0.5)  # OO1 also performs reverse traversals.


def hypermodel_like_database_parameters(num_nodes: int = 3906,
                                        seed: Optional[int] = None
                                        ) -> DatabaseParameters:
    """HyperModel: one Node class with five relationship kinds.

    parent/children (aggregation, 5-ary), partOf/parts (1-N hierarchy),
    refTo/refFrom (association) — modelled as MAXNREF=7 references over
    NREFT=5 types on a single class.

    Note: OCB's consistency check suppresses cycles at the *class* level,
    and a one-class schema makes any self-referencing acyclic type an
    immediate class-level cycle.  HyperModel's hierarchies are acyclic at
    the *object* level only, so the aggregation/partOf types are declared
    cyclic here (the paper's check simply does not constrain them).
    """
    kwargs = {} if seed is None else {"seed": seed}
    reference_types = (
        ReferenceTypeSpec(1, "inheritance", acyclic=True, is_inheritance=True),
        ReferenceTypeSpec(2, "aggregation", acyclic=False),
        ReferenceTypeSpec(3, "partOf", acyclic=False),
        ReferenceTypeSpec(4, "refTo", acyclic=False),
        ReferenceTypeSpec(5, "refFrom", acyclic=False),
    )
    return DatabaseParameters(
        num_classes=1,
        max_nref=7,
        base_size=20,
        num_objects=num_nodes,
        num_ref_types=5,
        reference_types=reference_types,
        fixed_tref=((2, 2, 2, 3, 3, 4, 5),),
        fixed_cref=((1, 1, 1, 1, 1, 1, 1),),
        **kwargs)


def oo7_like_database_parameters(scale: float = 1.0,
                                 seed: Optional[int] = None
                                 ) -> DatabaseParameters:
    """OO7 (small): a ten-class design hierarchy approximation.

    Classes: 1 Module, 2 ComplexAssembly, 3 BaseAssembly, 4 CompositePart,
    5 AtomicPart, 6 Connection, 7 Document, 8 Manual, 9 DesignObj(base),
    10 DesignRoot.  Fan-outs follow OO7-small's shape (assemblies 3-ary,
    composite parts referencing documents and shared atomic part graphs).
    """
    kwargs = {} if seed is None else {"seed": seed}
    reference_types = (
        ReferenceTypeSpec(1, "inheritance", acyclic=True, is_inheritance=True),
        ReferenceTypeSpec(2, "assembly", acyclic=True),
        ReferenceTypeSpec(3, "component", acyclic=False),
        ReferenceTypeSpec(4, "document", acyclic=False),
    )
    max_nref = (3, 3, 3, 6, 3, 2, 1, 1, 0, 2)
    base_size = (100, 60, 60, 80, 40, 20, 200, 400, 20, 40)
    fixed_tref = (
        (2, 2, 2),          # Module -> assemblies
        (2, 2, 2),          # ComplexAssembly -> children
        (3, 3, 3),          # BaseAssembly -> composite parts
        (3, 3, 3, 3, 3, 4),  # CompositePart -> atomic parts + document
        (3, 3, 3),          # AtomicPart -> connections
        (3, 3),             # Connection -> atomic parts
        (4,),               # Document -> manual
        (1,),               # Manual inherits DesignObj
        (),                 # DesignObj
        (2, 2),             # DesignRoot -> modules
    )
    fixed_cref = (
        (2, 2, 2),
        (3, 3, 3),
        (4, 4, 4),
        (5, 5, 5, 5, 5, 7),
        (6, 6, 6),
        (5, 5),
        (8,),
        (9,),
        (),
        (1, 1),
    )
    return DatabaseParameters(
        num_classes=10,
        max_nref=max_nref,
        base_size=base_size,
        num_objects=_scaled(10000, scale),
        num_ref_types=4,
        reference_types=reference_types,
        fixed_tref=fixed_tref,
        fixed_cref=fixed_cref,
        **kwargs)


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #

PresetFactory = Callable[[], Tuple[DatabaseParameters, WorkloadParameters]]

PRESETS: Dict[str, PresetFactory] = {
    "default": lambda: (default_database_parameters(),
                        default_workload_parameters()),
    "default-small": lambda: (default_database_parameters(scale=0.1),
                              default_workload_parameters(scale=0.02)),
    "dstc-club": lambda: (dstc_club_database_parameters(),
                          dstc_club_workload_parameters()),
    "oo1": lambda: (oo1_like_database_parameters(),
                    oo1_like_workload_parameters()),
    "hypermodel": lambda: (hypermodel_like_database_parameters(),
                           default_workload_parameters(scale=0.02)),
    "oo7": lambda: (oo7_like_database_parameters(),
                    default_workload_parameters(scale=0.02)),
}


def preset(name: str) -> Tuple[DatabaseParameters, WorkloadParameters]:
    """Instantiate a named preset; raise ParameterError if unknown."""
    try:
        factory = PRESETS[name.strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown preset {name!r}; choose from {sorted(PRESETS)}"
        ) from None
    return factory()


# ---------------------------------------------------------------------- #
# Scenario library (the declarative execution layer)
# ---------------------------------------------------------------------- #

def _paper_default_scenario() -> Scenario:
    """Table 2's transaction mix as a scenario (PSET..PSTOCH = 0.25)."""
    return Scenario(
        mix=WorkloadMix.from_workload_parameters(
            default_workload_parameters(), name="paper_default"),
        clients=1, cold_ops=20, warm_ops=200)


def _read_heavy_scenario() -> Scenario:
    """Traversal-dominated reads with a sprinkle of set-oriented lookups."""
    return Scenario(
        mix=WorkloadMix(name="read_heavy", entries=(
            MixEntry("set", weight=0.20, depth=2),
            MixEntry("simple", weight=0.30, depth=3),
            MixEntry("hierarchy", weight=0.20, depth=4),
            MixEntry("stochastic", weight=0.10, depth=12),
            MixEntry("range_lookup", weight=0.15, range_width=10),
            MixEntry("sequential_scan", weight=0.05),
        )),
        clients=2, cold_ops=10, warm_ops=80)


def _write_heavy_scenario() -> Scenario:
    """Mutation-dominated mix whose logical metrics never depend on what
    concurrent clients committed — inserts, reference rewires, deletes
    and partition-local range reads — so multi-process runs stay
    deterministic per client while their physical writes genuinely
    contend on the shared engine."""
    return Scenario(
        mix=WorkloadMix(name="write_heavy", entries=(
            MixEntry("insert", weight=0.30),
            MixEntry("update", weight=0.45),
            MixEntry("delete", weight=0.05),
            MixEntry("range_lookup", weight=0.20, range_width=10),
        )),
        clients=2, cold_ops=5, warm_ops=60, backend="sqlite")


def _mixed_oltp_scenario() -> Scenario:
    """The OLTP shape: short traversals interleaved with writes."""
    return Scenario(
        mix=WorkloadMix(name="mixed_oltp", entries=(
            MixEntry("set", weight=0.10, depth=2),
            MixEntry("simple", weight=0.20, depth=2),
            MixEntry("insert", weight=0.15),
            MixEntry("update", weight=0.30),
            MixEntry("delete", weight=0.05),
            MixEntry("range_lookup", weight=0.15, range_width=5),
            MixEntry("sequential_scan", weight=0.05),
        )),
        clients=2, cold_ops=5, warm_ops=60, backend="sqlite")


def _scan_heavy_scenario() -> Scenario:
    """Range- and scan-dominated reporting over a mutating trickle."""
    return Scenario(
        mix=WorkloadMix(name="scan_heavy", entries=(
            MixEntry("range_lookup", weight=0.50, range_width=20),
            MixEntry("sequential_scan", weight=0.30),
            MixEntry("set", weight=0.10, depth=1),
            MixEntry("update", weight=0.10),
        )),
        clients=1, cold_ops=5, warm_ops=40)


def _graph_walk_scenario() -> Scenario:
    """Structure-only graph expansion on SQLite.

    Dominated by ``structure_traversal`` operations, which answer BFS
    frontiers from each blob's reference vector alone — the engine never
    decodes a record body, so this preset is the canonical way to
    exercise (and CI-assert) a non-zero ``decodes_avoided`` count."""
    return Scenario(
        mix=WorkloadMix(name="graph_walk", entries=(
            MixEntry("structure_traversal", weight=0.80, depth=5),
            MixEntry("range_lookup", weight=0.15, range_width=10),
            MixEntry("sequential_scan", weight=0.05),
        )),
        clients=1, cold_ops=10, warm_ops=80,
        backend="sqlite")


def _hot_spot_scenario() -> Scenario:
    """Skewed hot-key traffic composed with uniform background reads.

    The dominant traversal entry carries a *per-entry* DIST5 override
    (Zipf, skew 1.2): its roots concentrate on the low-oid hot set while
    the other entries keep the mix-wide uniform draw.  Run on the
    sharded engine, the hot residue class makes shard-access imbalance
    — ``remote_reads`` off a pinned home shard, per-shard access splits
    — a *measured* property of skew + placement instead of a uniform
    wash (pinned by ``tests/core/test_hot_spot.py``).
    """
    return Scenario(
        mix=WorkloadMix(name="hot_spot", entries=(
            MixEntry("structure_traversal", weight=0.60, depth=4,
                     dist5=ZipfDistribution(skew=1.2)),
            MixEntry("simple", weight=0.25, depth=3),
            MixEntry("range_lookup", weight=0.15, range_width=10),
        )),
        clients=1, cold_ops=10, warm_ops=80,
        backend="sharded-sqlite", backend_options={"shards": 4})


ScenarioFactory = Callable[[], Scenario]

SCENARIO_PRESETS: Dict[str, ScenarioFactory] = {
    "paper_default": _paper_default_scenario,
    "read_heavy": _read_heavy_scenario,
    "write_heavy": _write_heavy_scenario,
    "mixed_oltp": _mixed_oltp_scenario,
    "scan_heavy": _scan_heavy_scenario,
    "graph_walk": _graph_walk_scenario,
    "hot_spot": _hot_spot_scenario,
}


def scenario_preset(name: str) -> Scenario:
    """Instantiate a named scenario; raise ParameterError if unknown."""
    try:
        factory = SCENARIO_PRESETS[name.strip().lower()]
    except KeyError:
        raise ParameterError(
            f"unknown scenario {name!r}; choose from "
            f"{sorted(SCENARIO_PRESETS)}") from None
    return factory()
