"""Cross-backend equivalence: same seed => identical logical metrics.

The guarantee of the unified execution kernel — for every workload
shape (OCB transactions, the extended generic operation set,
multi-user interleaving), the *logical* workload (objects visited,
transaction/operation mix, objects touched) is a function of the seed
and the generated graph alone, never of the storage engine.  These
tests run each path on every registered backend and compare signatures.
"""

from __future__ import annotations

import pytest

from repro.backends import SQLiteBackend, available_backends, \
    create_backend
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.scenario import ClientExecutor, Scenario, \
    ScenarioCollector, ScenarioRunner, WorkloadMix
from repro.core.session import Session
from repro.store.storage import StoreConfig

CONFIG = StoreConfig(page_size=512, buffer_pages=16)


class _OperationLog(ScenarioCollector):
    """Keeps every generic operation's result, in execution order."""

    def __init__(self, phase_name: str) -> None:
        super().__init__(phase_name)
        self.operation_results = []

    def record_operation(self, result, retries=0):
        super().record_operation(result, retries)
        self.operation_results.append(result)


def backend_names_under_test():
    return [info.name for info in available_backends()]


def _run_protocol(database, store, params, **fields):
    """One client's cold + warm run of *params*."""
    scenario = Scenario.from_workload_parameters(params, clients=1,
                                                 **fields)
    return ScenarioRunner(database, scenario, store=store).run().clients[0]


def _generic_executor(database, name):
    """A generic-operation client on a freshly loaded *name* engine."""
    return ClientExecutor(database, WorkloadMix.from_operation_weights(),
                          Session.for_database(database, name))


def _run_generic(executor, operations):
    collector = _OperationLog("warm")
    for _ in range(operations):
        executor.step(collector)
    return collector.operation_results


def _loaded(name, database):
    backend = create_backend(name, CONFIG)
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend


@pytest.fixture(scope="module")
def equivalence_database():
    params = DatabaseParameters(num_classes=6, max_nref=4, base_size=25,
                                num_objects=220, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


class TestTransactionEquivalence:
    def _signature(self, name, database, params):
        backend = _loaded(name, database)
        report = _run_protocol(database, backend, params)
        backend.close()
        signature = []
        for phase in (report.cold.transactions(),
                      report.warm.transactions()):
            for kind, stats in sorted(phase.per_class.items()):
                signature.append((phase.name, kind, stats.count,
                                  stats.objects, stats.distinct_objects,
                                  stats.truncated))
        return tuple(signature)

    def test_per_kind_metrics_identical(self, equivalence_database):
        params = WorkloadParameters(set_depth=2, simple_depth=2,
                                    hierarchy_depth=3, stochastic_depth=8,
                                    cold_n=4, hot_n=16, max_visits=300)
        signatures = {name: self._signature(name, equivalence_database,
                                            params)
                      for name in backend_names_under_test()}
        assert len(set(signatures.values())) == 1, signatures

    def test_reversed_traversals_identical(self, equivalence_database):
        params = WorkloadParameters(set_depth=2, simple_depth=2,
                                    hierarchy_depth=2, stochastic_depth=6,
                                    cold_n=2, hot_n=12, max_visits=300,
                                    reverse_probability=0.5)
        signatures = {name: self._signature(name, equivalence_database,
                                            params)
                      for name in backend_names_under_test()}
        assert len(set(signatures.values())) == 1, signatures

    def test_backend_name_accepted_directly(self, equivalence_database):
        params = WorkloadParameters(set_depth=2, simple_depth=2,
                                    hierarchy_depth=2, stochastic_depth=5,
                                    cold_n=1, hot_n=6, max_visits=200)
        report = _run_protocol(equivalence_database, None, params,
                               backend="memory")
        assert report.warm.transactions().totals.count == 6

    def test_sqlite_batched_equals_unbatched(self, equivalence_database):
        params = WorkloadParameters(set_depth=3, simple_depth=2,
                                    hierarchy_depth=2, stochastic_depth=6,
                                    cold_n=2, hot_n=10, max_visits=400,
                                    p_set=0.7, p_simple=0.1,
                                    p_hierarchy=0.1, p_stochastic=0.1)
        class PerObjectSQLite(SQLiteBackend):
            supports_batched_reads = False

        signatures = []
        for backend in (_loaded("sqlite", equivalence_database),
                        PerObjectSQLite(page_size=512, cache_pages=16)):
            report = _run_protocol(equivalence_database, backend, params)
            totals = report.warm.transactions().totals
            signatures.append((totals.count, totals.objects,
                               totals.distinct_objects))
            backend.close()
        assert signatures[0] == signatures[1]


class TestGenericOperationEquivalence:
    def _signature(self, name):
        # Mutating workload: every backend gets its own generated graph.
        params = DatabaseParameters(num_classes=5, max_nref=3, base_size=25,
                                    num_objects=120, seed=77)
        database, _ = generate_database(params)
        executor = _generic_executor(database, name)
        results = _run_generic(executor, 18)
        database.validate()
        store = executor.session.store
        assert set(store.iter_oids()) == set(database.objects)
        signature = tuple((r.operation.value, r.objects_touched)
                          for r in results)
        store.close()
        return signature

    def test_operation_stream_identical(self):
        signatures = {name: self._signature(name)
                      for name in backend_names_under_test()}
        assert len(set(signatures.values())) == 1, signatures

    def test_sharded_final_state_matches_single_file(self):
        """Same seed on one file and on four shards => identical store.

        The partitioned engine must be invisible above the Backend
        protocol: after the same mutating stream, every surviving object
        — refs, back refs, filler — reads back identical from both.
        """
        stores = {}
        for name in ("sqlite", "sharded-sqlite"):
            params = DatabaseParameters(num_classes=5, max_nref=3,
                                        base_size=25, num_objects=120,
                                        seed=77)
            database, _ = generate_database(params)
            executor = _generic_executor(database, name)
            _run_generic(executor, 24)
            stores[name] = executor.session.store
        single, sharded = stores["sqlite"], stores["sharded-sqlite"]
        assert set(single.iter_oids()) == set(sharded.iter_oids())
        for oid in sorted(single.iter_oids()):
            assert single.read_object(oid) == sharded.read_object(oid)
        single.close()
        sharded.close()

    def test_store_database_lockstep_on_sqlite(self):
        params = DatabaseParameters(num_classes=5, max_nref=3, base_size=25,
                                    num_objects=100, seed=13)
        database, _ = generate_database(params)
        executor = _generic_executor(database, "sqlite")
        for _ in range(6):
            executor.op_insert()
            executor.op_update()
        executor.op_delete()
        database.validate()
        store = executor.session.store
        for oid, obj in database.objects.items():
            record = store.read_object(oid)
            assert record.refs == tuple(obj.oref)
            assert sorted(record.back_refs) == \
                sorted(tuple(p) for p in obj.back_refs)
        store.close()


class TestMultiUserEquivalence:
    def _signature(self, name, database):
        params = WorkloadParameters(clients=3, cold_n=2, hot_n=6,
                                    set_depth=2, simple_depth=2,
                                    hierarchy_depth=2, stochastic_depth=5,
                                    max_visits=150)
        scenario = Scenario.from_workload_parameters(params, backend=name)
        report = ScenarioRunner(database, scenario).run()
        signature = tuple((c.warm.transactions().totals.count,
                           c.warm.transactions().totals.objects,
                           c.warm.transactions().totals.distinct_objects)
                          for c in report.clients)
        return signature, report

    def test_per_client_metrics_identical(self, equivalence_database):
        signatures = {}
        for name in backend_names_under_test():
            signature, _report = self._signature(name, equivalence_database)
            signatures[name] = signature
        assert len(set(signatures.values())) == 1, signatures

    def test_merged_percentiles_on_every_backend(self, equivalence_database):
        for name in backend_names_under_test():
            _signature, report = self._signature(name, equivalence_database)
            warm = report.merged_warm.transactions()
            wall = warm.wall_percentiles()
            assert wall.count == warm.operation_count
            assert 0.0 < wall.p50 <= wall.p95 <= wall.p99
            assert report.backend_name == name
