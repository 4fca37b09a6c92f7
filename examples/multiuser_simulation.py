#!/usr/bin/env python
"""Multi-user OCB: clients contending for the shared disk (CLIENTN axis).

The paper's OCB "supports multiple users, in a very simple way (using
processes)".  This example uses the discrete-event queueing model (the
reproduction's analogue of the paper's QNAP2 simulation port) to show
what clustering buys under concurrency: fewer I/Os per transaction means
less time queueing behind other clients.

The script runs 1/2/4 clients twice — on the freshly loaded database and
on the same database after DSTC reorganizes it — and compares throughput
and mean response time.

With ``--backend NAME`` the same multi-user workload runs as a
:class:`~repro.core.scenario.Scenario` against any registered engine
instead of the queueing model: ``--backend sqlite`` interleaves the
clients round-robin on one shared SQLite database (with batched
frontier fetches) and reports merged wall-clock percentiles, the
real-engine analogue of the simulated response times below.

Run:  python examples/multiuser_simulation.py [--backend sqlite]
"""

from __future__ import annotations

import argparse

from repro import DSTCParameters, DSTCPolicy, StoreConfig
from repro.backends import backend_names
from repro.clustering.base import PlacementContext
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.scenario import Scenario, ScenarioRunner
from repro.multiuser.des import SimulatedMultiUser
from repro.reporting.tables import render_table

CLIENT_COUNTS = (1, 2, 4)


def build():
    db_params = DatabaseParameters(
        num_classes=1, max_nref=3, base_size=40, num_objects=2500,
        num_ref_types=3, fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),),
        ref_zone=25, seed=73)
    database, _ = generate_database(db_params)
    store = StoreConfig(buffer_pages=32).build()
    records = database.to_records()
    store.bulk_load(records.values(), order=sorted(records))
    store.reset_stats()
    return database, store


def workload(clients):
    return WorkloadParameters(
        clients=clients, cold_n=0, hot_n=8, think_time=0.02,
        p_set=0.0, p_simple=1.0, p_hierarchy=0.0, p_stochastic=0.0,
        simple_depth=4, max_visits=400)


def simulate(database, store, clients):
    store.drop_caches()
    store.reset_stats()
    sim = SimulatedMultiUser(database, store, workload(clients),
                             transactions_per_client=8)
    return sim.run()


def cluster(database, store):
    """Observe one single-user pass, then let DSTC reorganize."""
    policy = DSTCPolicy(DSTCParameters(
        observation_period=20, selection_threshold=1,
        consolidation_weight=1.0, unit_weight_threshold=1.0))
    observe = Scenario.from_workload_parameters(workload(1), cold_ops=0,
                                                warm_ops=20)
    ScenarioRunner(database, observe, store=store, policy=policy).run()
    placement = policy.propose_placement(
        store.current_order(),
        PlacementContext(sizes=database.record_sizes(),
                         page_size=store.page_size))
    if placement is not None:
        store.reorganize(placement.order,
                         aligned_groups=placement.aligned_groups)


def run_on_backend(backend: str) -> None:
    """Multi-user runs on a real engine through the unified kernel."""
    db_params = DatabaseParameters(
        num_classes=1, max_nref=3, base_size=40, num_objects=2500,
        num_ref_types=3, fixed_tref=((3, 3, 3),), fixed_cref=((1, 1, 1),),
        ref_zone=25, seed=73)
    database, _ = generate_database(db_params)

    rows = []
    for clients in CLIENT_COUNTS:
        scenario = Scenario.from_workload_parameters(workload(clients),
                                                     backend=backend)
        report = ScenarioRunner(database, scenario).run()
        warm = report.merged_warm.transactions()
        wall = warm.wall_percentiles()
        totals = warm.totals
        rows.append([clients, totals.count, totals.objects_per_op,
                     wall.p50 * 1000, wall.p95 * 1000, wall.p99 * 1000])

    print(render_table(
        ["clients", "warm txns", "objects/txn", "P50 (ms)", "P95 (ms)",
         "P99 (ms)"],
        rows, title=f"Multi-user OCB on the {backend!r} engine "
                    f"(shared store, merged percentiles)", precision=3))
    print()
    print(f"Reading: every client interleaves on one shared {backend} "
          f"engine; the")
    print("logical workload per client is identical to the simulated run, "
          "so the")
    print("percentile spread is pure engine cost.")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", default="simulated",
                        choices=backend_names(),
                        help="run through the execution kernel on this "
                             "engine instead of the queueing model")
    args = parser.parse_args()
    if args.backend != "simulated":
        run_on_backend(args.backend)
        return

    database, store = build()

    rows = []
    for clients in CLIENT_COUNTS:
        report = simulate(database, store, clients)
        rows.append([f"{clients} (unclustered)", report.throughput,
                     report.mean_response * 1000,
                     report.disk_utilisation * 100])

    cluster(database, store)
    for clients in CLIENT_COUNTS:
        report = simulate(database, store, clients)
        rows.append([f"{clients} (DSTC-clustered)", report.throughput,
                     report.mean_response * 1000,
                     report.disk_utilisation * 100])

    print(render_table(
        ["clients", "throughput (txn/s)", "mean response (ms)",
         "disk busy (%)"],
        rows, title="Multi-user OCB, before vs after DSTC clustering"))
    print()
    print("Reading: clustering cuts each transaction's I/O demand, so the")
    print("shared disk saturates later and response times grow more slowly")
    print("with the number of clients.")


if __name__ == "__main__":
    main()
