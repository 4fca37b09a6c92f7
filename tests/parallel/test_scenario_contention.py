"""The tentpole's proof: mutating multi-user mixes genuinely contend.

PR 3 built the busy-retry accounting but could only replay the read-only
transaction mix, so the counters never fired.  The scenario layer runs
*mutating* mixes through the same worker harness — these tests pin the
three properties the ISSUE names:

* a ``write_heavy`` scenario on one shared WAL SQLite file with >= 2
  worker processes records **> 0 busy retries** (real write-write lock
  collisions, counted by the engine).  So that the count does not hang
  on the scheduler overlapping the writers, a third connection, in its
  own process, holds the write lock while the workers start: their first
  writes collide with it however the workers are scheduled;
* the same seed executed in-process (round-robin, one connection)
  records **0** — a single connection cannot collide with itself;
* per-client *logical* metrics are deterministic: identical between the
  in-process and multi-process runs and across repeated multi-process
  runs, because every client's logical decisions derive from its own
  oid partition and RNG substream, never from what concurrent clients
  committed.
"""

from __future__ import annotations

import subprocess
import sys
from dataclasses import replace

import pytest

from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.core.presets import scenario_preset
from repro.core.scenario import ScenarioRunner
from repro.parallel.pool import ProcessPool

#: Heavily contended shape: 3 writers, enough operations that the WAL
#: write locks overlap on any scheduler.
CLIENTS = 3
COLD_OPS = 2
WARM_OPS = 40

def make_database():
    params = DatabaseParameters(num_classes=6, max_nref=4, base_size=25,
                                num_objects=220, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


def make_scenario(**backend_options):
    return replace(scenario_preset("write_heavy"), clients=CLIENTS,
                   cold_ops=COLD_OPS, warm_ops=WARM_OPS,
                   backend_options={"busy_timeout_ms": 10000,
                                    **backend_options})


#: How long the third connection keeps the write lock once the workers
#: are being started — far inside the 10 s busy budget.
HOLD_SECONDS = 0.3

#: The lock holder: a separate process, so no forked worker inherits a
#: connection that holds a lock on the shared file.
HOLDER = """
import sqlite3, sys, time
conn = sqlite3.connect(sys.argv[1], isolation_level=None)
conn.execute("BEGIN IMMEDIATE")
print("locked", flush=True)
time.sleep(float(sys.argv[2]))
conn.execute("COMMIT")
conn.close()
"""


def map_under_held_lock(path):
    """A ``ProcessPool.map`` that starts the workers while a third
    connection holds the write lock of the SQLite file at *path*."""
    original = ProcessPool.map

    def held_map(pool, fn, items):
        holder = subprocess.Popen(
            [sys.executable, "-c", HOLDER, path, str(HOLD_SECONDS)],
            stdout=subprocess.PIPE, text=True)
        try:
            assert holder.stdout.readline().strip() == "locked"
            return original(pool, fn, items)
        finally:
            holder.stdout.close()
            holder.wait(timeout=30)

    return held_map


def logical_signature(report):
    """Per-client per-class logical metrics — nothing wall-clock."""
    signature = []
    for client in report.clients:
        for phase in (client.cold, client.warm):
            for op_class, stats in sorted(phase.per_class.items()):
                signature.append((client.client_id, phase.name, op_class,
                                  stats.count, stats.objects))
    return tuple(signature)


@pytest.fixture(scope="module")
def process_report(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("contention") / "shared.db")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ProcessPool, "map", map_under_held_lock(path))
        return ScenarioRunner(make_database(),
                              make_scenario(path=path)).run_processes()


@pytest.fixture(scope="module")
def interleaved_report():
    return ScenarioRunner(make_database(), make_scenario()).run()


class TestBusyRetriesFire:
    def test_every_worker_ran_the_full_protocol(self, process_report):
        assert process_report.client_count == CLIENTS
        for client in process_report.clients:
            assert client.operations == COLD_OPS + WARM_OPS
        assert process_report.write_operations > 0

    def test_shared_storage_mode(self, process_report):
        assert process_report.mode == "shared"
        assert process_report.backend_name == "sqlite"

    def test_processes_record_busy_retries(self, process_report):
        if not process_report.executed_parallel:
            pytest.skip("worker processes unavailable in this environment")
        assert process_report.busy_retries > 0
        assert process_report.busy_wait_seconds > 0.0

    def test_in_process_records_zero(self, interleaved_report):
        assert interleaved_report.mode == "interleaved"
        assert interleaved_report.busy_retries == 0


class TestLogicalDeterminism:
    def test_process_equals_in_process(self, process_report,
                                       interleaved_report):
        assert logical_signature(process_report) == \
            logical_signature(interleaved_report)

    def test_repeated_process_runs_identical(self, process_report):
        again = ScenarioRunner(make_database(),
                               make_scenario()).run_processes()
        assert logical_signature(again) == logical_signature(process_report)

    def test_distinct_client_streams(self, process_report):
        per_client = [
            tuple((op_class, stats.count, stats.objects)
                  for op_class, stats
                  in sorted(client.warm.per_class.items()))
            for client in process_report.clients]
        assert len(set(per_client)) == CLIENTS
