"""Ablation — clustering-policy shoot-out.

The paper's stated future work is "the benchmarking of several different
clustering techniques for the sake of performance comparison".  This
bench stages the comparison on the workload where the policies genuinely
differ: a database whose classes carry *three* reference types while the
workload's hierarchy traversals follow only *one* of them — i.e. usage
diverges from structure.

* ``none``                — keep the load order (baseline, gain 1),
* ``static-by_class``     — type-level placement; blind to both the graph
  and the traffic, lands at the baseline,
* ``static-depth_first``  — Tsangaris/Naughton structural DFS; clusters
  *all three* reference types, so only a third of each fetched page is
  useful — a modest win,
* ``dstc`` / ``dro``      — usage-aware policies cluster exactly the
  links the workload crosses and win by an order of magnitude.

Shape contract: gain(dstc) ≫ gain(static-depth_first) > gain(none) = 1,
and DRO (the cheaper bookkeeping) also lands in the usage-aware regime.
"""

from __future__ import annotations

import pytest

from conftest import term_print
from repro.clustering.base import NoClustering
from repro.clustering.dro import DROParameters, DROPolicy
from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.clustering.placements import StaticPolicy
from repro.core.experiment import ClusteringExperiment
from repro.core.generation import generate_database
from repro.core.parameters import (
    DatabaseParameters,
    ReferenceTypeSpec,
    WorkloadParameters,
)
from repro.store.storage import StoreConfig

NUM_OBJECTS = 3000
TRANSACTIONS = 30

_RESULTS = {}


def build_database():
    """One class, three association types; refs drawn uniformly."""
    types = tuple(ReferenceTypeSpec(i, f"assoc-{i}") for i in (1, 2, 3))
    params = DatabaseParameters(
        num_classes=1, max_nref=3, base_size=40, num_objects=NUM_OBJECTS,
        num_ref_types=3, reference_types=types,
        fixed_tref=((1, 2, 3),), fixed_cref=((1, 1, 1),), seed=97)
    database, _ = generate_database(params)
    return database


FACTORIES = {
    "none": lambda db: NoClustering(),
    "static-by_class": lambda db: StaticPolicy(db.to_records(),
                                               strategy="by_class"),
    "static-depth_first": lambda db: StaticPolicy(db.to_records(),
                                                  strategy="depth_first"),
    "dstc": lambda db: DSTCPolicy(DSTCParameters(
        observation_period=TRANSACTIONS + 5, selection_threshold=1,
        consolidation_weight=1.0, unit_weight_threshold=1.0)),
    "dro": lambda db: DROPolicy(DROParameters(min_heat=1, min_transition=1)),
}


def run_policy(name: str):
    database = build_database()
    # The database spans ~90 pages; 24 buffer pages keep the cache in the
    # paper-like "far smaller than the database" regime.
    store = StoreConfig(buffer_pages=24).build()
    records = database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    workload = WorkloadParameters(
        p_set=0.0, p_simple=0.0, p_hierarchy=1.0, p_stochastic=0.0,
        hierarchy_depth=12, hierarchy_ref_type=1,
        cold_n=5, hot_n=TRANSACTIONS, max_visits=500)
    policy = FACTORIES[name](database)
    return ClusteringExperiment(database, store, policy, workload,
                                label=name).run()


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_policy(benchmark, name):
    """Before/after I/Os for one policy on the shared setup."""
    result = benchmark.pedantic(lambda: run_policy(name),
                                rounds=1, iterations=1)
    _RESULTS[name] = result
    benchmark.extra_info["policy"] = name
    benchmark.extra_info["ios_before"] = round(result.ios_before, 2)
    benchmark.extra_info["ios_after"] = round(result.ios_after, 2)
    benchmark.extra_info["gain"] = round(result.gain_factor, 2)


def test_policy_shootout_shape(benchmark):
    """Usage-aware ≫ structure-aware > oblivious."""
    def collect():
        for name in FACTORIES:
            if name not in _RESULTS:
                _RESULTS[name] = run_policy(name)
        return {name: r.gain_factor for name, r in _RESULTS.items()}

    gains = benchmark.pedantic(collect, rounds=1, iterations=1)
    assert gains["none"] == pytest.approx(1.0)
    assert gains["static-depth_first"] > 1.2
    assert gains["dstc"] > 5.0
    assert gains["dro"] > 5.0
    assert gains["dstc"] > gains["static-depth_first"]
    assert gains["dro"] > gains["static-depth_first"]
    term_print()
    term_print("policy gains:", {k: round(v, 2) for k, v in sorted(gains.items())})
