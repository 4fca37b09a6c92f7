"""The scenario layer's byte-identical guarantee, pinned by frozen goldens.

``ScenarioRunner`` / ``ClientExecutor`` replaced three single-purpose
runners: the single-client OCB transaction protocol, the generic
operation mix and the round-robin multi-client protocol.  The
``GOLDEN`` constants below were captured by running those *original*
implementations (commit ``6d0f26b``) on fixed seeds across the three
built-in backends; these tests run the same three workloads through
the scenario layer on the same seeds and require exact equality, down
to the simulated I/O counters and (rounded) simulated clock.

If a change to the scenario layer breaks one of these, it changed the
semantics of a pinned execution path — either fix the regression or
consciously re-capture the goldens and say so in the commit.
"""

from __future__ import annotations

import pytest

from repro.backends import create_backend
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.scenario import ClientExecutor, Scenario, \
    ScenarioCollector, ScenarioRunner, WorkloadMix
from repro.core.session import Session
from repro.store.storage import StoreConfig

CONFIG = StoreConfig(page_size=512, buffer_pages=16)
BACKENDS = ("simulated", "memory", "sqlite")

WORKLOAD_PARAMS = WorkloadParameters(
    set_depth=2, simple_depth=2, hierarchy_depth=3, stochastic_depth=8,
    cold_n=4, hot_n=16, max_visits=300)
#: Covers the reverse / think-time / fixed-hierarchy-type / dedupe draws.
WORKLOAD_REVERSE_PARAMS = WorkloadParameters(
    set_depth=2, simple_depth=2, hierarchy_depth=2, stochastic_depth=6,
    cold_n=2, hot_n=12, max_visits=300, reverse_probability=0.5,
    think_time=0.5, hierarchy_ref_type=2, dedupe_visits=True)
MULTIUSER_PARAMS = WorkloadParameters(
    clients=3, cold_n=2, hot_n=6, set_depth=2, simple_depth=2,
    hierarchy_depth=2, stochastic_depth=5, max_visits=150)

GOLDEN = \
{'generic_ops': {'memory': (('update', 3, 0, 0, 0.0),
                            ('sequential_scan', 120, 0, 0, 0.0),
                            ('delete', 4, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('sequential_scan', 119, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('insert', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('range_lookup', 14, 0, 0, 0.0),
                            ('update', 1, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0)),
                 'simulated': (('update', 3, 1, 1, 0.02206),
                               ('sequential_scan', 120, 2, 0, 0.02256),
                               ('delete', 4, 0, 3, 0.03608),
                               ('update', 3, 0, 2, 0.02406),
                               ('update', 3, 0, 2, 0.02406),
                               ('range_lookup', 11, 0, 0, 0.00022),
                               ('sequential_scan', 119, 0, 0, 0.00238),
                               ('update', 3, 0, 3, 0.03606),
                               ('insert', 3, 0, 1, 0.01206),
                               ('update', 3, 0, 2, 0.02406),
                               ('update', 3, 0, 2, 0.02406),
                               ('update', 3, 0, 2, 0.02406),
                               ('update', 3, 0, 1, 0.01206),
                               ('range_lookup', 14, 0, 0, 0.00028),
                               ('update', 1, 0, 1, 0.01202),
                               ('range_lookup', 11, 0, 0, 0.00022),
                               ('range_lookup', 11, 0, 0, 0.00022),
                               ('update', 3, 0, 2, 0.02406)),
                 'sqlite': (('update', 3, 0, 0, 0.0),
                            ('sequential_scan', 120, 0, 0, 0.0),
                            ('delete', 4, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('sequential_scan', 119, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('insert', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0),
                            ('range_lookup', 14, 0, 0, 0.0),
                            ('update', 1, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('range_lookup', 11, 0, 0, 0.0),
                            ('update', 3, 0, 0, 0.0))},
 'multiuser': {'memory': ((('cold', 'set', 1, 19, 17, 0, 0, 0, 0.0),
                           ('cold', 'stochastic', 1, 6, 6, 0, 0, 0, 0.0),
                           ('warm', 'hierarchy', 2, 7, 7, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 13, 13, 0, 0, 0, 0.0),
                           ('warm',
                            'stochastic',
                            3,
                            18,
                            18,
                            0,
                            0,
                            0,
                            0.0)),
                          (('cold',
                            'stochastic',
                            2,
                            12,
                            12,
                            0,
                            0,
                            0,
                            0.0),
                           ('warm', 'hierarchy', 3, 9, 9, 0, 0, 0, 0.0),
                           ('warm', 'set', 1, 9, 9, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 13, 13, 0, 0, 0, 0.0),
                           ('warm', 'stochastic', 1, 6, 6, 0, 0, 0, 0.0)),
                          (('cold', 'simple', 2, 22, 21, 0, 0, 0, 0.0),
                           ('warm', 'hierarchy', 3, 10, 10, 0, 0, 0, 0.0),
                           ('warm', 'set', 2, 26, 26, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 19, 17, 0, 0, 0, 0.0))),
               'simulated': ((('cold',
                               'set',
                               1,
                               19,
                               17,
                               0,
                               6,
                               0,
                               0.06082),
                              ('cold',
                               'stochastic',
                               1,
                               6,
                               6,
                               0,
                               0,
                               0,
                               0.00012),
                              ('warm',
                               'hierarchy',
                               2,
                               7,
                               7,
                               0,
                               0,
                               0,
                               0.00014),
                              ('warm',
                               'simple',
                               1,
                               13,
                               13,
                               0,
                               0,
                               0,
                               0.00026),
                              ('warm',
                               'stochastic',
                               3,
                               18,
                               18,
                               0,
                               0,
                               0,
                               0.00036)),
                             (('cold',
                               'stochastic',
                               2,
                               12,
                               12,
                               0,
                               0,
                               0,
                               0.00024),
                              ('warm',
                               'hierarchy',
                               3,
                               9,
                               9,
                               0,
                               0,
                               0,
                               0.00018),
                              ('warm', 'set', 1, 9, 9, 0, 0, 0, 0.00018),
                              ('warm',
                               'simple',
                               1,
                               13,
                               13,
                               0,
                               0,
                               0,
                               0.00026),
                              ('warm',
                               'stochastic',
                               1,
                               6,
                               6,
                               0,
                               0,
                               0,
                               0.00012)),
                             (('cold',
                               'simple',
                               2,
                               22,
                               21,
                               0,
                               0,
                               0,
                               0.00044),
                              ('warm',
                               'hierarchy',
                               3,
                               10,
                               10,
                               0,
                               0,
                               0,
                               0.0002),
                              ('warm',
                               'set',
                               2,
                               26,
                               26,
                               0,
                               0,
                               0,
                               0.00052),
                              ('warm',
                               'simple',
                               1,
                               19,
                               17,
                               0,
                               0,
                               0,
                               0.00038))),
               'sqlite': ((('cold', 'set', 1, 19, 17, 0, 0, 0, 0.0),
                           ('cold', 'stochastic', 1, 6, 6, 0, 0, 0, 0.0),
                           ('warm', 'hierarchy', 2, 7, 7, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 13, 13, 0, 0, 0, 0.0),
                           ('warm',
                            'stochastic',
                            3,
                            18,
                            18,
                            0,
                            0,
                            0,
                            0.0)),
                          (('cold',
                            'stochastic',
                            2,
                            12,
                            12,
                            0,
                            0,
                            0,
                            0.0),
                           ('warm', 'hierarchy', 3, 9, 9, 0, 0, 0, 0.0),
                           ('warm', 'set', 1, 9, 9, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 13, 13, 0, 0, 0, 0.0),
                           ('warm', 'stochastic', 1, 6, 6, 0, 0, 0, 0.0)),
                          (('cold', 'simple', 2, 22, 21, 0, 0, 0, 0.0),
                           ('warm', 'hierarchy', 3, 10, 10, 0, 0, 0, 0.0),
                           ('warm', 'set', 2, 26, 26, 0, 0, 0, 0.0),
                           ('warm', 'simple', 1, 19, 17, 0, 0, 0, 0.0)))},
 'workload': {'memory': (('cold', 'set', 1, 19, 17, 0, 0, 0, 0.0),
                         ('cold', 'simple', 2, 32, 30, 0, 0, 0, 0.0),
                         ('cold', 'stochastic', 1, 9, 9, 0, 0, 0, 0.0),
                         ('warm', 'hierarchy', 9, 42, 41, 0, 0, 0, 0.0),
                         ('warm', 'set', 1, 17, 17, 0, 0, 0, 0.0),
                         ('warm', 'simple', 3, 49, 45, 0, 0, 0, 0.0),
                         ('warm', 'stochastic', 3, 27, 27, 0, 0, 0, 0.0)),
              'simulated': (('cold',
                             'set',
                             1,
                             19,
                             17,
                             0,
                             21,
                             0,
                             0.210628),
                            ('cold',
                             'simple',
                             2,
                             32,
                             30,
                             0,
                             30,
                             0,
                             0.30121),
                            ('cold',
                             'stochastic',
                             1,
                             9,
                             9,
                             0,
                             6,
                             0,
                             0.060298),
                            ('warm',
                             'hierarchy',
                             9,
                             42,
                             41,
                             0,
                             40,
                             0,
                             0.40162),
                            ('warm',
                             'set',
                             1,
                             17,
                             17,
                             0,
                             14,
                             0,
                             0.140606),
                            ('warm',
                             'simple',
                             3,
                             49,
                             45,
                             0,
                             39,
                             0,
                             0.39174),
                            ('warm',
                             'stochastic',
                             3,
                             27,
                             27,
                             0,
                             20,
                             0,
                             0.200938)),
              'sqlite': (('cold', 'set', 1, 19, 17, 0, 0, 0, 0.0),
                         ('cold', 'simple', 2, 32, 30, 0, 0, 0, 0.0),
                         ('cold', 'stochastic', 1, 9, 9, 0, 0, 0, 0.0),
                         ('warm', 'hierarchy', 9, 42, 41, 0, 0, 0, 0.0),
                         ('warm', 'set', 1, 17, 17, 0, 0, 0, 0.0),
                         ('warm', 'simple', 3, 49, 45, 0, 0, 0, 0.0),
                         ('warm',
                          'stochastic',
                          3,
                          27,
                          27,
                          0,
                          0,
                          0,
                          0.0))},
 'workload_reverse': {'memory': (('cold', 'set', 1, 17, 17, 0, 0, 0, 0.0),
                                 ('cold',
                                  'stochastic',
                                  1,
                                  7,
                                  7,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm',
                                  'hierarchy',
                                  3,
                                  14,
                                  14,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm', 'set', 4, 30, 30, 0, 0, 0, 0.0),
                                 ('warm',
                                  'simple',
                                  2,
                                  23,
                                  23,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm',
                                  'stochastic',
                                  3,
                                  15,
                                  15,
                                  0,
                                  0,
                                  0,
                                  0.0)),
                      'simulated': (('cold',
                                     'set',
                                     1,
                                     17,
                                     17,
                                     0,
                                     21,
                                     0,
                                     0.210588),
                                    ('cold',
                                     'stochastic',
                                     1,
                                     7,
                                     7,
                                     0,
                                     4,
                                     0,
                                     0.040212),
                                    ('warm',
                                     'hierarchy',
                                     3,
                                     14,
                                     14,
                                     0,
                                     8,
                                     0,
                                     0.08043),
                                    ('warm',
                                     'set',
                                     4,
                                     30,
                                     30,
                                     0,
                                     25,
                                     0,
                                     0.251082),
                                    ('warm',
                                     'simple',
                                     2,
                                     23,
                                     23,
                                     0,
                                     16,
                                     0,
                                     0.160758),
                                    ('warm',
                                     'stochastic',
                                     3,
                                     15,
                                     15,
                                     0,
                                     11,
                                     0,
                                     0.110522)),
                      'sqlite': (('cold', 'set', 1, 17, 17, 0, 0, 0, 0.0),
                                 ('cold',
                                  'stochastic',
                                  1,
                                  7,
                                  7,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm',
                                  'hierarchy',
                                  3,
                                  14,
                                  14,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm', 'set', 4, 30, 30, 0, 0, 0, 0.0),
                                 ('warm',
                                  'simple',
                                  2,
                                  23,
                                  23,
                                  0,
                                  0,
                                  0,
                                  0.0),
                                 ('warm',
                                  'stochastic',
                                  3,
                                  15,
                                  15,
                                  0,
                                  0,
                                  0,
                                  0.0))}}


def loaded(name, database):
    backend = create_backend(name, CONFIG)
    records = database.to_records()
    backend.bulk_load(records.values(), order=sorted(records))
    backend.reset_stats()
    return backend


def phase_signature(phase):
    """Deterministic per-kind signature: logical + simulated metrics.

    Wall-clock fields are excluded (they can never be byte-identical
    between two runs); everything else in a report derives from them.
    """
    signature = []
    for kind, stats in sorted(phase.transactions().per_class.items()):
        signature.append((phase.name, kind, stats.count, stats.objects,
                          stats.distinct_objects, stats.truncated,
                          stats.io_reads, stats.io_writes,
                          round(stats.sim_time, 9)))
    return tuple(signature)


@pytest.fixture(scope="module")
def golden_database():
    params = DatabaseParameters(num_classes=6, max_nref=4, base_size=25,
                                num_objects=220, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


def run_single_client(database, engine, params):
    """The OCB protocol for one client on a loaded engine."""
    scenario = Scenario.from_workload_parameters(params, clients=1)
    report = ScenarioRunner(database, scenario, store=engine).run()
    engine.close()
    client = report.clients[0]
    return phase_signature(client.cold.transactions()) + \
        phase_signature(client.warm.transactions())


@pytest.mark.parametrize("backend", BACKENDS)
class TestTransactionGolden:
    def test_default_draws_match_golden(self, golden_database, backend):
        engine = loaded(backend, golden_database)
        signature = run_single_client(golden_database, engine,
                                      WORKLOAD_PARAMS)
        assert signature == GOLDEN["workload"][backend]

    def test_reverse_dedupe_draws_match_golden(self, golden_database,
                                               backend):
        engine = loaded(backend, golden_database)
        signature = run_single_client(golden_database, engine,
                                      WORKLOAD_REVERSE_PARAMS)
        assert signature == GOLDEN["workload_reverse"][backend]


class _OperationLog(ScenarioCollector):
    """Keeps every generic operation's result, in execution order."""

    def __init__(self, phase_name: str) -> None:
        super().__init__(phase_name)
        self.operation_results = []

    def record_operation(self, result, retries=0):
        super().record_operation(result, retries)
        self.operation_results.append(result)


@pytest.mark.parametrize("backend", BACKENDS)
class TestGenericOperationsShim:
    def test_operation_stream_matches_golden(self, backend):
        database, _ = generate_database(DatabaseParameters(
            num_classes=5, max_nref=3, base_size=25, num_objects=120,
            seed=77))
        session = Session.for_database(database, backend)
        executor = ClientExecutor(
            database, WorkloadMix.from_operation_weights(), session)
        collector = _OperationLog("warm")
        for _ in range(18):
            executor.step(collector)
        session.close()
        database.validate()
        signature = tuple(
            (r.operation.value, r.objects_touched, r.io_reads,
             r.io_writes, round(r.sim_time, 9))
            for r in collector.operation_results)
        assert signature == GOLDEN["generic_ops"][backend]


@pytest.mark.parametrize("backend", BACKENDS)
class TestMultiClientGolden:
    def test_per_client_reports_match_golden(self, golden_database,
                                             backend):
        scenario = Scenario.from_workload_parameters(MULTIUSER_PARAMS,
                                                     backend=backend)
        report = ScenarioRunner(golden_database, scenario).run()
        signature = tuple(
            phase_signature(client.cold.transactions())
            + phase_signature(client.warm.transactions())
            for client in report.clients)
        assert signature == GOLDEN["multiuser"][backend]
