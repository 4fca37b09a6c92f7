"""Decode-free hot paths end-to-end: structure traversal, decode
counters, and the graph_walk preset.

The serializer-level checks live in ``tests/store/``; this module pins
the layers above it — that ``structure_traversal`` operations really
decode nothing, and that the counters every engine reports tell a
structure-only answer from a decoded read.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends.sqlite import SQLiteBackend
from repro.core.presets import scenario_preset
from repro.core.scenario import (
    ClientExecutor,
    MixEntry,
    Scenario,
    ScenarioRunner,
    WorkloadMix,
    _structure_walk,
)
from repro.core.session import Session
from repro.parallel.spec import ParallelConfig


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
        # Process runs fold every worker's engine counters into the
        # report (sequential fallback: same specs and worker code, no
        # fork).
        runner = ScenarioRunner(small_database,
                                _structure_scenario(clients=2))
        report = runner.run_processes(config=ParallelConfig(parallel=False))
        assert report.decodes_avoided > 0

    def test_traversal_decodes_no_records(self, small_database):
        """The warm phase of a structure-only mix must not decode: only
        the executor's own root bookkeeping reads records (cold phase /
        live-view setup), never the frontier expansion itself."""
        backend = SQLiteBackend()
        records = small_database.to_records()
        backend.bulk_load(records.values(), order=sorted(records))
        oids = sorted(records)[:40]
        backend.reset_stats()
        answers = backend.traverse_refs_many(oids)
        stats = backend.stats()
        assert stats["records_decoded"] == 0
        assert stats["decodes_avoided"] == 40
        assert set(answers) == set(oids)
        # A decoded read answers the same reference sets; only the
        # decode counters tell the two read paths apart.
        backend.reset_stats()
        read = backend.read_many(oids)
        assert {oid: read[oid].non_null_refs() for oid in oids} == answers
        stats = backend.stats()
        assert stats["records_decoded"] == 40
        assert stats["decodes_avoided"] == 0
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


class TestGraphWalkPreset:
    def test_preset_shape(self):
        scenario = scenario_preset("graph_walk")
        assert scenario.backend == "sqlite"
        assert scenario.backend_options == {}
        kinds = {entry.kind for entry in scenario.mix.entries}
        assert "structure_traversal" in kinds
        assert not scenario.mix.mutates

    def test_preset_runs_decode_free(self, small_database):
        scenario = replace(scenario_preset("graph_walk"),
                           cold_ops=3, warm_ops=12, seed=5)
        report = ScenarioRunner(small_database, scenario).run()
        assert report.decodes_avoided > 0


def _reference_structure_walk(session, root, depth, budget, objects):
    """The structure walk as a per-target loop over whole levels.

    Returns the visited set, each level's frontier and the answers the
    walk needed: every answer of a level, up to and including the one
    that filled the budget.
    """
    visited = {root}
    frontier = [root]
    levels = []
    needed = 0
    for _ in range(depth):
        if not frontier or len(visited) >= budget:
            break
        levels.append(frontier)
        answers = session.traverse_refs_many(frontier)
        frontier = []
        for targets in answers.values():
            if len(visited) >= budget:
                break
            needed += 1
            for target in targets:
                if len(visited) >= budget:
                    break
                if target not in visited and target in objects:
                    visited.add(target)
                    frontier.append(target)
    return visited, levels, needed


class _LevelLog:
    """A session stand-in that logs each frontier it is asked about."""

    def __init__(self, session):
        self.session = session
        self.levels = []

    def traverse_refs_many(self, oids, *until):
        self.levels.append(list(oids))
        return self.session.traverse_refs_many(oids, *until)


@pytest.fixture(scope="module")
def walk_sessions(request):
    database = request.getfixturevalue("small_database")
    sessions = {name: Session.for_database(database, name)
                for name in ("memory", "sqlite")}
    yield sessions
    for session in sessions.values():
        session.close()


class TestStructureWalk:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pick=st.integers(min_value=0), depth=st.integers(0, 6),
           budget=st.integers(1, 600))
    def test_matches_the_per_target_loop(self, small_database,
                                         walk_sessions, pick, depth,
                                         budget):
        objects = small_database.objects
        oids = sorted(objects)
        root = oids[pick % len(oids)]
        for name, session in walk_sessions.items():
            log = _LevelLog(session)
            visited = _structure_walk(log, root, depth, budget, objects)
            expected, levels, _ = _reference_structure_walk(
                session, root, depth, budget, objects)
            assert visited == expected, name
            assert log.levels == levels, name

    def test_capped_walk_decodes_only_the_rows_it_needs(self,
                                                        small_database):
        entry = MixEntry("structure_traversal", depth=6, max_visits=20)
        session = Session.for_database(small_database, "sqlite")
        executor = ClientExecutor(
            small_database, WorkloadMix(entries=(entry,)), session)
        log = _LevelLog(Session(session.store))
        session.traverse_refs_many = log.traverse_refs_many
        engine = session.store
        needed = read = 0
        for _ in range(10):
            log.levels.clear()
            before = engine.decodes_avoided
            touched = executor.op_structure_traversal(entry).objects_touched
            avoided = engine.decodes_avoided - before
            root = log.levels[0][0]
            visited, _, rows = _reference_structure_walk(
                engine, root, entry.resolved_depth, entry.max_visits,
                small_database.objects)
            assert touched == len(visited)
            assert avoided == rows
            needed += rows
            read += sum(len(level) for level in log.levels)
        # The cap fell inside a level at least once: the walk read less
        # than whole levels.
        assert needed < read
        session.close()
