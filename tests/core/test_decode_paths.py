"""Decode-free hot paths end-to-end: structure traversal, lazy sessions,
decode counters, and the graph_walk preset.

The serializer-level equivalence lives in ``tests/store/test_lazy.py``;
this module pins the layers above it — that ``structure_traversal``
operations really decode nothing, that a lazy session changes no
logical result, and that the counters every engine now reports tell the
two apart.
"""

from __future__ import annotations

from dataclasses import replace

from repro.backends.sqlite import SQLiteBackend
from repro.core.presets import scenario_preset
from repro.core.scenario import (
    MixEntry,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
)
from repro.core.session import Session
from repro.store.serializer import LazyStoredObject


def _structure_scenario(**overrides):
    spec = dict(
        mix=WorkloadMix(name="structure_only", entries=(
            MixEntry("structure_traversal", weight=1.0, depth=4),
        )),
        clients=1, cold_ops=3, warm_ops=15, backend="sqlite", seed=11)
    spec.update(overrides)
    return Scenario(**spec)


class TestStructureTraversal:
    def test_counts_land_in_the_report(self, small_database):
        report = ScenarioRunner(small_database, _structure_scenario()).run()
        assert report.decodes_avoided > 0
        rows = {row[0] for row in report.merged_warm.rows()}
        assert "structure_traversal" in rows

    def test_traversal_decodes_no_records(self, small_database):
        """The warm phase of a structure-only mix must not decode: only
        the executor's own root bookkeeping reads records (cold phase /
        live-view setup), never the frontier expansion itself."""
        backend = SQLiteBackend()
        records = small_database.to_records()
        backend.bulk_load(records.values(), order=sorted(records))
        backend.reset_stats()
        answers = backend.traverse_refs_many(sorted(records)[:40])
        stats = backend.stats()
        assert stats["records_decoded"] == 0
        assert stats["decodes_avoided"] == 40
        assert set(answers) == set(sorted(records)[:40])
        backend.close()

    def test_visits_respect_max_visits(self, small_database):
        scenario = _structure_scenario(mix=WorkloadMix(
            name="capped", entries=(
                MixEntry("structure_traversal", weight=1.0, depth=6,
                         max_visits=5),)))
        report = ScenarioRunner(small_database, scenario).run()
        stats = report.merged_warm.stats_for("structure_traversal")
        assert stats.count > 0
        # No traversal may have touched more objects than the cap.
        assert stats.objects <= stats.count * 5

    def test_structure_traversal_is_read_only(self):
        mix = WorkloadMix(name="ro", entries=(
            MixEntry("structure_traversal", weight=1.0),))
        assert not mix.mutates

    def test_report_dict_carries_decode_counters(self, small_database):
        report = ScenarioRunner(small_database, _structure_scenario()).run()
        spec = report.to_dict()
        assert spec["decodes_avoided"] == report.decodes_avoided
        assert spec["records_decoded"] == report.records_decoded


class TestLazySession:
    def test_lazy_session_reads_lazy_records(self, small_database):
        backend = SQLiteBackend()
        records = small_database.to_records()
        backend.bulk_load(records.values(), order=sorted(records))
        session = Session(backend, lazy=True)
        oid = sorted(records)[0]
        record = session.access(oid)
        assert isinstance(record, LazyStoredObject)
        assert record == records[oid]
        session.close()

    def test_lazy_scenario_matches_default_logical_metrics(
            self, small_database):
        base = _structure_scenario(mix=WorkloadMix(
            name="mixed_reads", entries=(
                MixEntry("simple", weight=0.4, depth=2),
                MixEntry("range_lookup", weight=0.3, range_width=5),
                MixEntry("sequential_scan", weight=0.3),)))
        eager = ScenarioRunner(small_database, base).run()
        lazy = ScenarioRunner(
            small_database, replace(base, lazy=True)).run()
        assert lazy.total_operations == eager.total_operations
        assert lazy.merged_warm.totals.objects \
            == eager.merged_warm.totals.objects
        assert eager.records_decoded > 0
        assert lazy.records_decoded == 0
        assert lazy.decodes_avoided > 0

    def test_lazy_spec_round_trips(self):
        scenario = _structure_scenario(lazy=True)
        spec = scenario.to_dict()
        assert spec["lazy"] is True
        assert Scenario.from_dict(spec).lazy is True
        # Default mode stays byte-identical: the key is simply absent.
        assert "lazy" not in _structure_scenario().to_dict()

    def test_run_processes_carries_lazy_mode(self, small_database):
        """Process runs no longer refuse lazy scenarios: the flag rides
        every WorkerSpec into the worker's session (the fuller coverage
        lives in ``tests/parallel/test_parallel_runner.py``)."""
        from repro.parallel.spec import ParallelConfig

        scenario = _structure_scenario(lazy=True, clients=2)
        runner = ScenarioRunner(small_database, scenario)
        report = runner.run_processes(config=ParallelConfig(parallel=False))
        assert report.decodes_avoided > 0
        assert report.records_decoded == 0


class TestGraphWalkPreset:
    def test_preset_shape(self):
        scenario = scenario_preset("graph_walk")
        assert scenario.backend == "sqlite"
        assert scenario.backend_options.get("ref_index") is True
        kinds = {entry.kind for entry in scenario.mix.entries}
        assert "structure_traversal" in kinds
        assert not scenario.mix.mutates

    def test_preset_runs_decode_free(self, small_database):
        scenario = replace(scenario_preset("graph_walk"),
                           cold_ops=3, warm_ops=12, seed=5)
        report = ScenarioRunner(small_database, scenario).run()
        assert report.decodes_avoided > 0
