"""The OCB cold/warm protocol (Table 2 mix) on the scenario layer."""

from __future__ import annotations

from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import ClientExecutor, Scenario, \
    ScenarioCollector, ScenarioRunner, WorkloadMix
from repro.core.session import Session
from repro.core.transactions import TransactionKind
from repro.store.storage import StoreConfig


def make_params(**workload_overrides):
    defaults = dict(set_depth=2, simple_depth=2, hierarchy_depth=2,
                    stochastic_depth=5, cold_n=2, hot_n=10, max_visits=200)
    defaults.update(workload_overrides)
    return WorkloadParameters(**defaults)


def run_protocol(database, store, policy=None, **workload_overrides):
    """One client's cold + warm run; returns its scenario report."""
    scenario = Scenario.from_workload_parameters(
        make_params(**workload_overrides), clients=1)
    return ScenarioRunner(database, scenario, store=store,
                          policy=policy).run().clients[0]


def make_executor(database, store, client_id=0, **workload_overrides):
    params = make_params(**workload_overrides)
    session = Session(store, tref_table=database.tref_table(),
                      catalog=database.catalog())
    return ClientExecutor(database,
                          WorkloadMix.from_workload_parameters(params),
                          session, client_id=client_id, seed=params.seed)


def draw_spec(executor):
    """Draw kind, root, direction and depth for the next transaction."""
    return executor.draw_transaction_spec(executor.draw_entry())


class TestProtocol:
    def test_cold_and_warm_counts(self, small_database, loaded_store):
        report = run_protocol(small_database, loaded_store)
        assert report.cold.transactions().operation_count == 2
        assert report.warm.transactions().operation_count == 10

    def test_metrics_accumulate_io(self, small_database, loaded_store):
        report = run_protocol(small_database, loaded_store)
        totals = report.warm.transactions().totals
        assert totals.objects > 0
        assert totals.io_reads > 0
        assert totals.sim_time > 0.0

    def test_deterministic_given_seed(self, small_database):
        def run_once():
            store = StoreConfig(page_size=512, buffer_pages=16).build()
            records = small_database.to_records()
            store.bulk_load(records.values(), order=sorted(records))
            store.reset_stats()
            report = run_protocol(small_database, store, seed=77)
            return report.warm.transactions()

        a, b = run_once(), run_once()
        assert a.totals.objects == b.totals.objects
        assert a.totals.io_reads == b.totals.io_reads

    def test_client_ids_draw_distinct_streams(self, small_database,
                                              loaded_store):
        a = make_executor(small_database, loaded_store, client_id=0)
        b = make_executor(small_database, loaded_store, client_id=1)
        specs_a = [draw_spec(a) for _ in range(10)]
        specs_b = [draw_spec(b) for _ in range(10)]
        assert [s.root for s in specs_a] != [s.root for s in specs_b]

    def test_think_time_advances_clock(self, small_database, loaded_store):
        before = loaded_store.clock.now
        run_protocol(small_database, loaded_store, think_time=1.0,
                     cold_n=0, hot_n=3)
        assert loaded_store.clock.now - before >= 3.0


class TestDrawSpec:
    def test_kind_probabilities_respected(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store,
                             p_set=1.0, p_simple=0.0, p_hierarchy=0.0,
                             p_stochastic=0.0)
        for _ in range(20):
            assert draw_spec(runner).kind is TransactionKind.SET

    def test_mixed_kinds_all_appear(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store)
        kinds = {draw_spec(runner).kind for _ in range(300)}
        assert kinds == set(TransactionKind)

    def test_roots_in_population(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store)
        for _ in range(100):
            spec = draw_spec(runner)
            assert 1 <= spec.root <= small_database.num_objects

    def test_hierarchy_ref_type_drawn(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store,
                             p_set=0.0, p_simple=0.0, p_hierarchy=1.0,
                             p_stochastic=0.0)
        types = {draw_spec(runner).ref_type for _ in range(50)}
        assert types <= set(range(1, 5))
        assert len(types) > 1

    def test_hierarchy_ref_type_fixed(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store,
                             p_set=0.0, p_simple=0.0, p_hierarchy=1.0,
                             p_stochastic=0.0, hierarchy_ref_type=2)
        assert all(draw_spec(runner).ref_type == 2 for _ in range(20))

    def test_reverse_probability(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store,
                             reverse_probability=1.0)
        assert all(draw_spec(runner).reverse for _ in range(20))

    def test_depths_follow_kind(self, small_database, loaded_store):
        runner = make_executor(small_database, loaded_store,
                             p_set=0.0, p_simple=0.0, p_hierarchy=0.0,
                             p_stochastic=1.0, stochastic_depth=17)
        assert draw_spec(runner).depth == 17


class TestStep:
    def test_step_records_exactly_one_transaction(self, small_database,
                                                  loaded_store):
        executor = make_executor(small_database, loaded_store)
        collector = ScenarioCollector("probe")
        executor.step(collector)
        assert collector.phase.operation_count == 1


class TestAutoReorganization:
    def test_policy_with_trigger_reorganizes(self, small_database):
        store = StoreConfig(page_size=512, buffer_pages=16).build()
        records = small_database.to_records()
        store.bulk_load(records.values(), order=sorted(records))
        store.reset_stats()
        policy = DSTCPolicy(DSTCParameters(
            observation_period=2, selection_threshold=1,
            unit_weight_threshold=1.0, trigger_period=5))
        run_protocol(small_database, store, policy=policy, cold_n=0,
                     hot_n=15, max_visits=100)
        assert policy.reorganizations >= 1
