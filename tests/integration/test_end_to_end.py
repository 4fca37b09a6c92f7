"""End-to-end integration tests across the whole stack."""

from __future__ import annotations

import pytest

from repro import (
    DSTCParameters,
    DSTCPolicy,
    DROPolicy,
    NoClustering,
    OCBBenchmark,
    StaticPolicy,
    StoreConfig,
)
from repro.clustering.dro import DROParameters
from repro.core.experiment import ClusteringExperiment
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.presets import preset
from repro.core.scenario import Scenario, ScenarioRunner


def traversal_setup(seed=31):
    """A locality-rich database + traversal workload (clustering-friendly)."""
    db_params = DatabaseParameters(
        num_classes=1, max_nref=3, base_size=30, num_objects=800,
        num_ref_types=3, fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),),
        ref_zone=12, seed=seed)
    database, _ = generate_database(db_params)
    workload = WorkloadParameters(
        p_set=0.0, p_simple=1.0, p_hierarchy=0.0, p_stochastic=0.0,
        simple_depth=4, cold_n=2, hot_n=12, max_visits=400)
    return database, workload


def load(database, buffer_pages=32, scrambled=False):
    """Bulk-load in oid order, or in a scrambled order.

    Creation order is already zone-local for RefZone databases, so tests
    that must demonstrate a clustering *win* start from a scrambled
    layout (a database that aged badly), while layout-validity tests use
    the plain order.
    """
    store = StoreConfig(page_size=512, buffer_pages=buffer_pages).build()
    records = database.to_records()
    order = sorted(records)
    if scrambled:
        from repro.rand.lewis_payne import LewisPayne
        LewisPayne(999).shuffle(order)
    store.bulk_load(records.values(), order=order)
    store.reset_stats()
    return store


class TestFullPipeline:
    def test_generate_load_run_report(self):
        database, workload = traversal_setup()
        store = load(database)
        scenario = Scenario.from_workload_parameters(workload, clients=1)
        report = ScenarioRunner(database, scenario, store=store).run()
        warm = report.clients[0].warm.transactions()
        assert warm.operation_count == 12
        assert warm.totals.reads_per_op > 0.0

    def test_presets_run_end_to_end(self):
        db_params, _ = preset("default-small")
        workload = WorkloadParameters(cold_n=2, hot_n=6, set_depth=2,
                                      simple_depth=2, hierarchy_depth=2,
                                      stochastic_depth=5, max_visits=200)
        bench = OCBBenchmark(db_params, workload,
                             StoreConfig(buffer_pages=64))
        result = bench.run()
        assert result.report.warm.transactions().operation_count == 6


class TestPolicyShootout:
    """Every policy must produce a valid layout; DSTC must beat none."""

    def run_policy(self, policy, seed=31):
        database, workload = traversal_setup(seed)
        store = load(database, scrambled=True)
        experiment = ClusteringExperiment(database, store, policy, workload,
                                          label=policy.name)
        return experiment.run()

    def test_dstc_beats_no_clustering(self):
        dstc = self.run_policy(DSTCPolicy(DSTCParameters(
            observation_period=14, selection_threshold=1,
            unit_weight_threshold=1.0)))
        assert dstc.gain_factor > 1.0

    def test_dro_improves_layout(self):
        dro = self.run_policy(DROPolicy(DROParameters(
            min_heat=1, min_transition=1)))
        assert dro.after is not None
        assert dro.gain_factor > 0.8  # Must at least not wreck the layout.

    def test_static_depth_first_is_valid(self):
        database, workload = traversal_setup()
        store = load(database)
        policy = StaticPolicy(database.to_records(), strategy="depth_first")
        result = ClusteringExperiment(database, store, policy, workload,
                                      label="static").run()
        assert result.after is not None
        assert sorted(store.current_order()) == sorted(database.objects)

    def test_no_clustering_baseline(self):
        result = self.run_policy(NoClustering())
        assert result.after is None
        assert result.gain_factor == 1.0


class TestMultiUserIntegration:
    def test_multi_client_over_clustered_store(self):
        database, workload = traversal_setup()
        store = load(database)
        policy = DSTCPolicy(DSTCParameters(observation_period=14,
                                           selection_threshold=1,
                                           unit_weight_threshold=1.0))
        ClusteringExperiment(database, store, policy, workload).run()
        multi = WorkloadParameters(
            clients=2, cold_n=1, hot_n=4, p_set=0.0, p_simple=1.0,
            p_hierarchy=0.0, p_stochastic=0.0, simple_depth=3,
            max_visits=200)
        report = ScenarioRunner(database,
                                Scenario.from_workload_parameters(multi),
                                store=store).run()
        assert report.merged_warm.transactions().operation_count == 8


class TestCrossSeedStability:
    """The clustering win is not an artefact of one seed."""

    @pytest.mark.parametrize("seed", [7, 101, 4242])
    def test_dstc_gain_across_seeds(self, seed):
        database, workload = traversal_setup(seed)
        store = load(database, scrambled=True)
        policy = DSTCPolicy(DSTCParameters(observation_period=14,
                                           selection_threshold=1,
                                           unit_weight_threshold=1.0))
        result = ClusteringExperiment(database, store, policy,
                                      workload).run()
        assert result.gain_factor > 1.2, f"seed {seed}"
