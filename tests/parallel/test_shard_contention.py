"""Shard affinity's proof: aligned lanes never collide, never leave home.

The tentpole guarantee of the sharded engine — run with
``shards == clients`` on a reference-free database and a partitioned
update-only mix, every worker's mutation lane (``oid % clients``) *is*
its home shard, so:

* ``remote_writes == 0`` for every worker — no mutation ever routed to
  a file another worker writes;
* ``busy_retries == 0`` — with disjoint writer lanes there is no lock
  to collide on, deterministically, not just on a quiet host;
* misaligning the shard count (``shards != clients``) makes the same
  counters fire, which proves the accounting measures placement rather
  than always reading zero.

These tests pin the invariants that hold on any host, single-core
included; throughput is not asserted.
"""

from __future__ import annotations

import pytest

from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.core.scenario import MixEntry, Scenario, WorkloadMix
from repro.parallel.runner import ParallelRunner

CLIENTS = 3
COLD_OPS = 2
WARM_OPS = 30

#: Update-only and reference-free: every operation reads and rewrites
#: exactly one object of the worker's own lane — the fully partitioned
#: write workload the shard function is aligned with.
UPDATE_ONLY = WorkloadMix(name="update_only",
                          entries=(MixEntry("update", weight=1.0),))


def make_database():
    params = DatabaseParameters(num_classes=6, max_nref=0, base_size=25,
                                num_objects=240, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


def run_update_only(backend, shards=None):
    options = {"busy_timeout_ms": 10000}
    if shards is not None:
        options["shards"] = shards
    runner = ParallelRunner(
        make_database(),
        Scenario(mix=UPDATE_ONLY, clients=CLIENTS, cold_ops=COLD_OPS,
                 warm_ops=WARM_OPS, seed=1998, backend=backend,
                 backend_options=options))
    assert runner.shard_count == shards
    return runner.run()


def run_sharded(shards):
    return run_update_only("sharded-sqlite", shards)


@pytest.fixture(scope="module")
def aligned_report():
    return run_sharded(shards=CLIENTS)


@pytest.fixture(scope="module")
def misaligned_report():
    return run_sharded(shards=CLIENTS + 1)


@pytest.fixture(scope="module")
def single_file_report():
    return run_update_only("sqlite")


class TestAlignedLanes:
    def test_full_protocol_ran(self, aligned_report):
        assert aligned_report.client_count == CLIENTS
        assert aligned_report.mode == "shared"
        for client in aligned_report.clients:
            assert client.operations == COLD_OPS + WARM_OPS
            updates = client.warm.per_class.get("update")
            assert updates is not None and updates.count > 0

    def test_every_worker_homed_on_its_lane(self, aligned_report):
        for client in aligned_report.clients:
            stats = client.engine_stats
            assert stats.get("shards") == CLIENTS
            assert stats.get("home_shard") == client.client_id % CLIENTS

    def test_zero_cross_shard_writes(self, aligned_report):
        for client in aligned_report.clients:
            stats = client.engine_stats
            assert int(stats.get("remote_writes", -1)) == 0
            assert int(stats.get("remote_reads", -1)) == 0

    def test_zero_lock_collisions(self, aligned_report):
        # Deterministic, not probabilistic: disjoint writer lanes mean
        # no two workers ever hold the same shard's write lock.
        assert aligned_report.busy_retries == 0
        assert aligned_report.busy_wait_seconds == 0.0


class TestMisalignedLanes:
    def test_counters_fire_when_lanes_cross_shards(self, misaligned_report):
        # Lanes are oid % 3 but shards are oid % 4: most of each lane
        # lives off its worker's home shard, and the accounting says so.
        total_remote = sum(
            int(client.engine_stats.get("remote_writes", 0))
            for client in misaligned_report.clients)
        assert total_remote > 0

    def test_logical_work_unchanged(self, aligned_report, misaligned_report,
                                    single_file_report):
        # Shard placement is physical only: the logical operation stream
        # per client is identical whatever the shard count, and on one
        # unsharded file.
        def signature(report):
            return tuple(
                (client.client_id,
                 client.operations,
                 tuple((op_class, stats.count, stats.objects)
                       for op_class, stats in
                       sorted(client.warm.per_class.items())))
                for client in report.clients)

        assert signature(aligned_report) == signature(misaligned_report)
        assert signature(aligned_report) == signature(single_file_report)
        assert aligned_report.busy_retries <= single_file_report.busy_retries
