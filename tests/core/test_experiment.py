"""Before/after clustering experiment tests (the Tables 4-5 protocol)."""

from __future__ import annotations

import pytest

from repro.clustering.base import NoClustering, PlacementContext
from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.core.experiment import ClusteringExperiment, ExperimentResult
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.errors import WorkloadError
from repro.store.storage import StoreConfig


def setup_experiment(policy=None, **workload_overrides):
    db_params = DatabaseParameters(
        num_classes=1, max_nref=3, base_size=30, num_objects=600,
        num_ref_types=3,
        fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),),
        ref_zone=10, seed=11)
    database, _ = generate_database(db_params)
    store = StoreConfig(page_size=512, buffer_pages=24).build()
    records = database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    defaults = dict(p_set=0.0, p_simple=1.0, p_hierarchy=0.0,
                    p_stochastic=0.0, simple_depth=4, cold_n=2, hot_n=15,
                    max_visits=400)
    defaults.update(workload_overrides)
    workload = WorkloadParameters(**defaults)
    policy = policy or DSTCPolicy(DSTCParameters(
        observation_period=5, selection_threshold=1,
        unit_weight_threshold=1.0))
    return ClusteringExperiment(database, store, policy, workload,
                                label="test")


class TestProtocol:
    def test_runs_both_phases(self):
        result = setup_experiment().run()
        assert result.before.warm.transactions().operation_count == 15
        assert result.after is not None
        assert result.after.warm.transactions().operation_count == 15

    def test_reorganization_recorded(self):
        result = setup_experiment().run()
        assert result.reorganization is not None
        assert result.reorganization.objects_moved > 0
        assert result.clustering_overhead_ios > 0

    def test_clustering_reduces_ios_on_stereotyped_workload(self):
        result = setup_experiment().run()
        assert result.gain_factor > 1.0
        assert result.ios_after < result.ios_before

    def test_paired_phases_use_same_roots(self):
        result = setup_experiment().run()
        assert result.after is not None
        # Same seed => identical visit counts in both phases.
        assert result.before.warm.transactions().totals.objects == \
            result.after.warm.transactions().totals.objects

    def test_no_clustering_policy_returns_no_after_phase(self):
        result = setup_experiment(policy=NoClustering()).run()
        assert result.after is None
        assert result.reorganization is None
        assert result.gain_factor == 1.0
        assert result.ios_after == result.ios_before

    def test_invalid_policy_placement_rejected(self):
        class BrokenPolicy(NoClustering):
            def propose_placement(self, current_order, context):
                from repro.clustering.base import Placement
                return Placement(order=[1, 2, 3])  # Not a permutation.

        experiment = setup_experiment(policy=BrokenPolicy())
        with pytest.raises(WorkloadError):
            experiment.run()


class TestResultAccessors:
    def test_table_row(self):
        result = setup_experiment().run()
        label, before, after, gain = result.table_row()
        assert label == "test"
        assert gain == pytest.approx(before / after)

    def test_describe_mentions_gain(self):
        result = setup_experiment().run()
        text = result.describe()
        assert "gain" in text
        assert "test" in text

    def test_policy_name_recorded(self):
        result = setup_experiment().run()
        assert result.policy_name == "dstc"
