"""The declarative scenario layer: mixes, specs, execution, reports."""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest

from repro.core import database as database_module
from repro.core import scenario as scenario_module
from repro.core.generation import generate_database
from repro.core.generic_ops import GenericOperationsRunner
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.presets import SCENARIO_PRESETS, scenario_preset
from repro.core.scenario import (
    STREAM_GENERIC,
    STREAM_SCENARIO,
    STREAM_WORKLOAD,
    ClientExecutor,
    MixEntry,
    Scenario,
    ScenarioCollector,
    ScenarioRunner,
    WorkloadMix,
)
from repro.core.session import Session
from repro.core.workload import WorkloadRunner
from repro.errors import ParameterError
from repro.store.storage import StoreConfig


def small_mutating_db(seed=77, num_objects=120):
    params = DatabaseParameters(num_classes=5, max_nref=3, base_size=25,
                                num_objects=num_objects, seed=seed)
    database, _ = generate_database(params)
    return database


class TestMixEntry:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError, match="operation class"):
            MixEntry(kind="compaction")

    def test_negative_weight_rejected(self):
        with pytest.raises(ParameterError):
            MixEntry(kind="set", weight=-0.1)

    def test_depth_defaults_follow_table2(self):
        assert MixEntry("set").resolved_depth == 3
        assert MixEntry("hierarchy").resolved_depth == 5
        assert MixEntry("stochastic").resolved_depth == 50
        assert MixEntry("simple", depth=7).resolved_depth == 7

    def test_classification(self):
        assert MixEntry("set").is_transaction
        assert not MixEntry("set").is_mutating
        assert MixEntry("delete").is_mutating
        assert not MixEntry("range_lookup").is_mutating


class TestWorkloadMix:
    def test_needs_entries_with_positive_total(self):
        with pytest.raises(ParameterError):
            WorkloadMix(entries=())
        with pytest.raises(ParameterError):
            WorkloadMix(entries=(MixEntry("set", weight=0.0),))

    def test_mutation_flags(self):
        read = WorkloadMix(entries=(MixEntry("set"),
                                    MixEntry("range_lookup")))
        write = WorkloadMix(entries=(MixEntry("set"), MixEntry("update")))
        assert read.read_only and not read.mutates
        assert write.mutates and not write.read_only
        # Zero-weighted mutating entries do not make the mix mutating.
        gated = WorkloadMix(entries=(MixEntry("set"),
                                     MixEntry("update", weight=0.0)))
        assert gated.read_only

    def test_stream_resolution_matches_legacy_runners(self):
        transactions = WorkloadMix(entries=(MixEntry("set"),))
        operations = WorkloadMix(entries=(MixEntry("update"),))
        mixed = WorkloadMix(entries=(MixEntry("set"), MixEntry("update")))
        assert transactions.resolved_stream == STREAM_WORKLOAD
        assert operations.resolved_stream == STREAM_GENERIC
        assert mixed.resolved_stream == STREAM_SCENARIO
        pinned = WorkloadMix(entries=(MixEntry("set"),), stream=1234)
        assert pinned.resolved_stream == 1234

    def test_from_workload_parameters_copies_table2(self):
        params = WorkloadParameters(p_set=0.5, p_simple=0.5,
                                    p_hierarchy=0.0, p_stochastic=0.0,
                                    simple_depth=7, think_time=0.25,
                                    reverse_probability=0.5,
                                    dedupe_visits=True, max_visits=321)
        mix = WorkloadMix.from_workload_parameters(params)
        assert [e.kind for e in mix.entries] == \
            ["set", "simple", "hierarchy", "stochastic"]
        assert mix.entries[1].depth == 7
        assert mix.entries[1].weight == 0.5
        assert mix.entries[0].reverse_probability == 0.5
        assert mix.entries[0].dedupe and mix.entries[0].max_visits == 321
        assert mix.think_time == 0.25
        assert mix.transaction_only

    def test_from_operation_weights_preserves_order(self):
        mix = WorkloadMix.from_operation_weights()
        assert [e.kind for e in mix.entries] == \
            ["insert", "update", "delete", "range_lookup",
             "sequential_scan"]
        assert mix.operation_only and mix.mutates

    def test_json_round_trip(self):
        mix = WorkloadMix(name="probe", think_time=0.5, entries=(
            MixEntry("set", weight=0.25, depth=2, dedupe=True),
            MixEntry("update", weight=0.5),
            MixEntry("range_lookup", weight=0.25, range_width=7)))
        clone = WorkloadMix.from_dict(json.loads(json.dumps(mix.to_dict())))
        assert clone == mix

    def test_parameterized_dist5_survives_json_round_trip(self):
        from repro.rand.distributions import SpecialDistribution, \
            ZipfDistribution
        for dist in (ZipfDistribution(skew=1.5),
                     SpecialDistribution(ref_zone=50,
                                         locality_probability=0.8)):
            mix = WorkloadMix(entries=(MixEntry("set"),), dist5=dist)
            clone = WorkloadMix.from_dict(
                json.loads(json.dumps(mix.to_dict())))
            assert clone.dist5 == dist
            assert clone == mix

    def test_empty_operation_weights_mean_default_mix(self):
        assert WorkloadMix.from_operation_weights({}) == \
            WorkloadMix.from_operation_weights()

    def test_probability_mixes_draw_unscaled(self, small_database):
        """PSET..PSTOCH sums one ulp off 1.0 must still reproduce the
        legacy draw_spec thresholds bit for bit: the probability mix is
        flagged unit_weights and the entry draw skips the total-weight
        scaling."""
        params = WorkloadParameters(p_set=0.3, p_simple=0.3,
                                    p_hierarchy=0.3, p_stochastic=0.1)
        mix = WorkloadMix.from_workload_parameters(params)
        assert mix.unit_weights
        assert mix.total_weight != 1.0  # The float-summation ulp gap.
        clone = WorkloadMix.from_dict(json.loads(json.dumps(mix.to_dict())))
        assert clone.unit_weights
        # Hand-weighted mixes keep the scaled run_mix-style draw.
        assert not WorkloadMix(entries=(MixEntry("set"),)).unit_weights

    def test_picklable(self):
        mix = scenario_preset("mixed_oltp").mix
        assert pickle.loads(pickle.dumps(mix)) == mix


class TestScenario:
    def test_validation(self):
        mix = WorkloadMix(entries=(MixEntry("set"),))
        with pytest.raises(ParameterError):
            Scenario(mix=mix, clients=0)
        with pytest.raises(ParameterError):
            Scenario(mix=mix, warm_ops=-1)

    def test_partitioned_only_for_mutating_multiclient(self):
        read = WorkloadMix(entries=(MixEntry("set"),))
        write = WorkloadMix(entries=(MixEntry("update"),))
        assert not Scenario(mix=read, clients=4).partitioned
        assert not Scenario(mix=write, clients=1).partitioned
        assert Scenario(mix=write, clients=4).partitioned

    def test_json_round_trip(self):
        scenario = scenario_preset("write_heavy")
        clone = Scenario.from_json(json.dumps(scenario.to_dict()))
        assert clone == scenario

    def test_unknown_spec_keys_rejected(self):
        # ``pipeline`` selected a removed concurrent BFS mode.
        for extra in ({"threads": 4}, {"pipeline": True}):
            with pytest.raises(ParameterError, match="unknown"):
                Scenario.from_json(json.dumps(
                    {"mix": {"entries": [{"kind": "set"}]}, **extra}))


class TestScenarioPresets:
    def test_library_covers_the_issue_shapes(self):
        assert {"paper_default", "read_heavy", "write_heavy", "mixed_oltp",
                "scan_heavy"} <= set(SCENARIO_PRESETS)

    def test_every_preset_instantiates(self):
        for name in SCENARIO_PRESETS:
            scenario = scenario_preset(name)
            assert scenario.mix.entries
            assert scenario.mix.total_weight > 0

    def test_write_heavy_is_deterministic_by_construction(self):
        """write_heavy's logical metrics must not depend on what other
        clients committed: no traversal entries (they read the shared
        store's structure), only partition-local operations."""
        mix = scenario_preset("write_heavy").mix
        assert mix.mutates
        assert all(not entry.is_transaction for entry in mix.entries)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown scenario"):
            scenario_preset("nope")


class TestScenarioRunnerReadOnly:
    def test_single_client_equals_workload_runner(self, small_database):
        """A transaction-only scenario is the classic protocol."""
        params = WorkloadParameters(set_depth=2, simple_depth=2,
                                    hierarchy_depth=2, stochastic_depth=5,
                                    cold_n=2, hot_n=10, max_visits=200)
        store = StoreConfig(page_size=512, buffer_pages=16).build()
        records = small_database.to_records()
        store.bulk_load(records.values(), order=sorted(records))
        store.reset_stats()
        classic = WorkloadRunner(small_database, store, params).run()

        scenario = Scenario(mix=WorkloadMix.from_workload_parameters(params),
                            cold_ops=2, warm_ops=10)
        store2 = StoreConfig(page_size=512, buffer_pages=16).build()
        store2.bulk_load(records.values(), order=sorted(records))
        store2.reset_stats()
        report = ScenarioRunner(small_database, scenario,
                                store=store2).run()
        warm = report.clients[0].warm
        assert warm.classic.totals.visits == classic.warm.totals.visits
        assert warm.classic.totals.io_reads == classic.warm.totals.io_reads
        # The per-class breakdown covers the same operations.
        assert warm.operation_count == classic.warm.transaction_count

    def test_report_shape(self, small_database):
        scenario = Scenario(mix=WorkloadMix(entries=(
            MixEntry("set", weight=0.5, depth=2, max_visits=100),
            MixEntry("range_lookup", weight=0.5))),
            clients=2, cold_ops=1, warm_ops=8, backend="memory")
        report = ScenarioRunner(small_database, scenario).run()
        assert report.client_count == 2
        assert report.mode == "interleaved"
        assert report.total_operations == 2 * 9
        assert report.write_operations == 0
        assert report.merged_warm.operation_count == 16
        classes = set(report.merged_warm.per_class)
        assert classes <= {"set", "range_lookup"}
        document = report.to_dict()
        assert document["operations"] == 18
        assert document["per_client"][1]["client"] == 1
        wall = report.merged_warm.wall_percentiles()
        assert wall.count == 16
        assert wall.p50 <= wall.p95 <= wall.p99
        # Only SQL engines count round trips; the workload is the same.
        assert report.sql_round_trips == 0
        on_sqlite = ScenarioRunner(
            small_database,
            dataclasses.replace(scenario, backend="sqlite")).run()
        assert on_sqlite.total_operations == report.total_operations
        assert on_sqlite.sql_round_trips > 0


class TestScenarioRunnerMutating:
    def test_single_client_ops_stay_in_lockstep(self):
        """A mutating single-client scenario mutates the caller's database
        exactly like the legacy generic-operations runner."""
        database = small_mutating_db()
        scenario = Scenario(mix=WorkloadMix.from_operation_weights(),
                            cold_ops=3, warm_ops=15, backend="memory")
        runner = ScenarioRunner(database, scenario)
        report = runner.run()
        database.validate()
        assert report.write_operations > 0

    def test_partitioned_clients_write_disjoint_lanes(self):
        database = small_mutating_db()
        scenario = Scenario(mix=WorkloadMix(name="w", entries=(
            MixEntry("insert", weight=0.6),
            MixEntry("update", weight=0.4))),
            clients=3, cold_ops=2, warm_ops=12, backend="memory")
        runner = ScenarioRunner(database, scenario)
        engine = runner._resolve_engine()
        executors = runner.build_executors(engine)
        initial = set(database.objects)
        for executor in executors:
            collector = ScenarioCollector("probe")
            for _ in range(10):
                executor.step(collector)
        for executor in executors:
            fresh = set(executor.view.objects) - initial
            assert fresh, "every client must have inserted"
            assert all(oid % 3 == executor.client_id for oid in fresh), \
                (executor.client_id, sorted(fresh))

    def test_partitioned_victims_stay_owned(self):
        database = small_mutating_db()
        session = Session.for_database(database, "memory")
        mix = WorkloadMix(entries=(MixEntry("update"),))
        import copy
        executor = ClientExecutor(copy.deepcopy(database), mix, session,
                                  client_id=1, total_clients=2,
                                  partitioned=True)
        for _ in range(20):
            assert executor._pick_oid() % 2 == 1
        session.close()

    def test_in_process_mutating_logical_metrics_deterministic(self):
        def run_once():
            database = small_mutating_db()
            from dataclasses import replace
            scenario = replace(scenario_preset("write_heavy"),
                               clients=3, cold_ops=2, warm_ops=15)
            report = ScenarioRunner(database, scenario).run()
            return [
                [(op_class, stats.count, stats.objects)
                 for op_class, stats in sorted(client.warm.per_class.items())]
                for client in report.clients]
        assert run_once() == run_once()

    def test_delete_guard_switches_to_insert(self):
        database = small_mutating_db(num_objects=2)
        session = Session.for_database(database, "memory")
        executor = ClientExecutor(
            database, WorkloadMix(entries=(MixEntry("delete"),)), session)
        collector = ScenarioCollector("probe")
        executor.step(collector)  # 2 objects: delete is allowed...
        executor.step(collector)  # ...now 1 object: guard forces insert.
        classes = {r.operation.value for r in collector.operation_results}
        assert "insert" in classes
        assert len(database.objects) >= 1
        session.close()


class TestRunProcessesRefusesWhatCannotCross:
    def test_live_store_rejected(self, small_database):
        from repro.errors import WorkloadError
        store = StoreConfig(page_size=512, buffer_pages=16).build()
        scenario = Scenario(mix=WorkloadMix(entries=(MixEntry("set"),)))
        runner = ScenarioRunner(small_database, scenario, store=store)
        with pytest.raises(WorkloadError, match="process boundary"):
            runner.run_processes()

    def test_clustering_policy_rejected(self, small_database):
        from repro.clustering.dstc import DSTCPolicy
        from repro.errors import WorkloadError
        scenario = Scenario(mix=WorkloadMix(entries=(MixEntry("set"),)))
        runner = ScenarioRunner(small_database, scenario,
                                policy=DSTCPolicy())
        with pytest.raises(WorkloadError, match="clustering"):
            runner.run_processes()


class TestGenericOpsShimStillMutatesSharedDatabase:
    def test_runner_and_database_agree(self):
        database = small_mutating_db()
        runner = GenericOperationsRunner(database, "memory")
        before = database.num_objects
        runner.insert()
        assert database.num_objects == before + 1
        runner.delete()
        database.validate()


class _ReferenceExecutor(ClientExecutor):
    """The O(n)-per-call bookkeeping the view's sorted-oid index replaced."""

    def _live_sorted(self):
        return sorted(self.view.objects)

    def _owned_sorted(self):
        return [oid for oid in self._live_sorted() if self._owns(oid)]

    def _next_oid(self):
        floor = max(self.view.objects, default=0) + 1
        if not self.partitioned:
            return floor
        return floor + (self.client_id - floor) % self.total_clients


class _RecordingCollector(ScenarioCollector):
    """Logs every result, with the (nondeterministic) wall time zeroed."""

    def __init__(self) -> None:
        super().__init__("diff")
        self.log = []

    def record_transaction(self, result, delta, wall_seconds, retries=0):
        super().record_transaction(result, delta, wall_seconds, retries)
        self.log.append(result)

    def record_operation(self, result, retries=0):
        super().record_operation(result, retries)
        self.log.append(dataclasses.replace(result, wall_time=0.0))


_WRITE_MIX = WorkloadMix(name="write_mix", entries=(
    MixEntry("insert", weight=0.25),
    MixEntry("update", weight=0.50),
    MixEntry("delete", weight=0.10),
    MixEntry("simple", weight=0.15, depth=2)))


def _run_write_mix(clients, executor_class, monkeypatch, steps=300):
    """Each client's (result log, per-class digest, final view records)."""
    runner = ScenarioRunner(
        small_mutating_db(num_objects=150),
        Scenario(mix=_WRITE_MIX, clients=clients, backend="memory"))
    engine = runner._resolve_engine()
    with monkeypatch.context() as patch:
        patch.setattr(scenario_module, "ClientExecutor", executor_class)
        executors = runner.build_executors(engine)
    collectors = [_RecordingCollector() for _ in executors]
    for _ in range(steps):
        for executor, collector in zip(executors, collectors):
            executor.step(collector)
    return executors, [
        (collector.log,
         {kind: (stats.count, stats.objects, stats.io_reads, stats.io_writes)
          for kind, stats in collector.per_class.items()},
         executor.view.to_records())
        for executor, collector in zip(executors, collectors)]


class TestSortedOidIndexMatchesFullSorts:
    @pytest.mark.parametrize("clients", [1, 3])
    def test_same_results_digests_and_views_with_one_sort_per_view(
            self, clients, monkeypatch):
        _, expected = _run_write_mix(clients, _ReferenceExecutor,
                                     monkeypatch)
        full_sorts = []

        def spy(iterable, *args, **kwargs):
            full_sorts.append(iterable)
            return sorted(iterable, *args, **kwargs)

        for module in (database_module, scenario_module):
            monkeypatch.setattr(module, "sorted", spy, raising=False)
        executors, actual = _run_write_mix(clients, ClientExecutor,
                                           monkeypatch)
        monkeypatch.undo()
        assert actual == expected
        assert all(executor.partitioned == (clients > 1)
                   for executor in executors)
        inserts = sum(digest["insert"][0] for _, digest, _ in actual)
        deletes = sum(digest["delete"][0] for _, digest, _ in actual)
        assert inserts > 50 and deletes > 10
        for executor in executors:
            assert sum(arg is executor.view.objects
                       for arg in full_sorts) == 1

    def test_deleting_the_newest_object_lets_the_next_insert_reuse_it(self):
        database = small_mutating_db()
        session = Session.for_database(database, "memory")
        executor = ClientExecutor(database, _WRITE_MIX, session)
        executor.op_insert()
        newest = database.sorted_oids()[-1]
        executor.op_delete(newest)
        executor.op_insert()
        assert database.sorted_oids()[-1] == newest
        assert newest in session.store.read_many([newest])
        session.close()
