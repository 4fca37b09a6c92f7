"""Tracer behaviour: records, parents by containment, self time, the
CLI summary, zero overhead when off."""

from __future__ import annotations

import gc
import json
import os
import re
import time
from collections import defaultdict

import pytest

from repro.obs import trace


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    trace.disable()


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "trace.jsonl")


def ago(seconds):
    """The ``perf_counter`` reading *seconds* before now: the start of a
    section that has lasted that long."""
    return time.perf_counter() - seconds


def depths(spans):
    """Nesting depth per record name, from the parent links."""
    parent_of = {span.name: span.parent for span in spans}

    def depth(name):
        parent = parent_of[name]
        return 0 if parent is None else 1 + depth(parent)

    return {name: depth(name) for name in parent_of}


class TestEmission:
    def test_disabled_emit_writes_nothing(self, path):
        trace.enable(path)
        trace.disable()
        trace.emit("after.disable", ago(1.0))
        assert list(trace.spans(path)) == []
        assert trace.enabled is False

    def test_emit_records_name_wall_and_attrs(self, path):
        trace.enable(path)
        started = ago(0.25)
        trace.emit("kernel.read", started, oids=7)
        trace.disable()
        (record,) = trace.spans(path)
        assert record.name == "kernel.read"
        assert record.pid == os.getpid()
        # The record starts at the caller's reading and ends at emission.
        assert record.start_ns == round(started * 1e9)
        assert record.end_ns - record.start_ns >= 250_000_000
        assert record.self_ns == record.end_ns - record.start_ns
        assert record.parent is None
        assert record.attrs == {"oids": 7}

    def test_span_nesting_depths(self, path):
        trace.enable(path)
        with trace.span("outer"):
            trace.emit("inner.event")
            with trace.span("inner"):
                trace.emit("leaf.event")
        trace.disable()
        assert depths(trace.spans(path)) == {
            "outer": 0, "inner.event": 1, "inner": 1, "leaf.event": 2}

    def test_post_hoc_emit_encloses_the_records_inside_it(self, path):
        """A measured section reported after it ended is the parent of
        what was emitted during it, not their sibling."""
        trace.enable(path)
        with trace.span("op"):
            started = time.perf_counter()
            time.sleep(0.001)
            with trace.span("engine.read"):
                pass
            trace.emit("engine.read_many", oids=3)
            trace.emit("session.measure", started)
        trace.disable()
        parents = {span.name: span.parent for span in trace.spans(path)}
        assert parents == {"engine.read": "session.measure",
                           "engine.read_many": "session.measure",
                           "session.measure": "op", "op": None}

    def test_child_starting_a_microsecond_after_its_parent_nests(self, path):
        """Both records start at their callers' readings, so a child that
        began 1 us after its parent nests under it however late either
        is emitted."""
        trace.enable(path)
        for _ in range(20):
            parent_start = time.perf_counter()
            child_start = parent_start + 1e-6
            while time.perf_counter() <= child_start:
                pass
            trace.emit("engine.read", child_start)
            time.sleep(0.0002)  # A late emission of the parent.
            trace.emit("session.measure", parent_start)
        trace.disable()
        parents = [span.parent for span in trace.spans(path)
                   if span.name == "engine.read"]
        assert parents == ["session.measure"] * 20

    def test_measurement_encloses_the_records_it_measured(
            self, path, loaded_store, monkeypatch):
        """``session.measure`` is emitted after the closing snapshot, so
        a slow snapshot must not shift its start past its first child."""
        from repro.core.session import Measurement

        snapshot = loaded_store.snapshot

        def slow_snapshot():
            time.sleep(0.005)
            return snapshot()

        monkeypatch.setattr(loaded_store, "snapshot", slow_snapshot)
        trace.enable(path)
        with Measurement(loaded_store):
            time.sleep(0.001)
            trace.emit("engine.read")
        trace.disable()
        parents = {span.name: span.parent for span in trace.spans(path)}
        assert parents == {"engine.read": "session.measure",
                           "session.measure": None}

    def test_zero_length_event_is_nobodys_parent(self, path):
        trace.enable(path)
        with trace.span("op"):
            pass
        trace.emit("pacer.arrival", slept_ms=5.0)
        trace.emit("pacer.arrival", slept_ms=0.0)
        trace.disable()
        assert {span.parent for span in trace.spans(path)} == {None}

    def test_span_restores_depth_on_exception(self, path):
        trace.enable(path)
        with pytest.raises(RuntimeError):
            with trace.span("failing"):
                raise RuntimeError("boom")
        trace.emit("after")
        trace.disable()
        assert depths(trace.spans(path)) == {"failing": 0, "after": 0}

    def test_reenable_truncates_the_file(self, path):
        trace.enable(path)
        trace.emit("first")
        trace.enable(path)
        trace.emit("second")
        trace.disable()
        assert [span.name for span in trace.spans(path)] == ["second"]


class TestJsonl:
    def test_round_trip(self, path):
        trace.enable(path)
        with trace.span("outer", phase="warm"):
            trace.emit("inner", ago(0.002), oids=3)
        trace.disable()
        lines = [json.loads(line) for line in open(path)]
        assert [line["name"] for line in lines] == ["inner", "outer"]
        for line in lines:
            assert set(line) == {"name", "pid", "start_ns", "end_ns",
                                 "attrs"}
        inner, outer = sorted(trace.spans(path), key=lambda s: s.name)
        assert inner.attrs == {"oids": 3}
        assert outer.attrs == {"phase": "warm"}
        assert inner.end_ns - inner.start_ns >= 2_000_000

    def test_disable_closes_sink(self, path):
        trace.enable(path)
        trace.emit("one")
        trace.disable()
        # Every record is written as it ends: nothing waits in a buffer.
        assert len(list(trace.spans(path))) == 1


class TestSummary:
    def test_summary_sorted_by_total_wall(self, path):
        trace.enable(path)
        trace.emit("cheap", ago(0.001))
        trace.emit("cheap", ago(0.001))
        trace.emit("dear", ago(1.5))
        trace.emit("outer", ago(2.0))
        trace.disable()
        rows = trace.summary(path).rows
        # Each record's start precedes the ones before it, so "outer"
        # encloses them and leads although "dear" has more self time.
        assert [row.name for row in rows] == ["outer", "dear", "cheap"]
        assert rows[0].self_time < rows[1].self_time
        name, count, total, self_time, p999 = rows[2]
        assert count == 2
        # Each lasted 1 ms plus the few microseconds until its emission.
        assert 0.002 <= total < 0.0025
        assert self_time == pytest.approx(total)
        # The tail column comes from a log-bucketed histogram: accurate
        # to its relative precision, not exact.
        assert 0.001 * 0.99 <= p999 < 0.00125

    def test_summary_p999_tracks_the_slowest_emission(self, path):
        trace.enable(path)
        for _ in range(99):
            trace.emit("op", ago(0.001))
        trace.emit("op", ago(0.5))
        trace.disable()
        ((_, count, _, _, p999),) = trace.summary(path).rows
        assert count == 100
        assert p999 == pytest.approx(0.5, rel=0.02)

    def test_self_time_counts_nested_time_once(self, path):
        trace.enable(path)
        with trace.span("outer.section"):
            trace.emit("inner.call", ago(0.0002))
            trace.emit("inner.call", ago(0.0002))
        trace.disable()
        summary = trace.summary(path)
        assert summary.records == 3
        assert sum(row.self_time for row in summary.rows) == pytest.approx(
            summary.root_ns / 1e9)
        layers = dict(summary.layers)
        assert set(layers) == {"outer", "inner"}
        assert sum(layers.values()) == pytest.approx(100.0)

    def test_summary_of_an_empty_file_is_empty(self, path):
        open(path, "w").close()
        assert trace.summary(path) == trace.Summary(0, 0, [], [])


def run_traced(capsys, path, argv):
    """Run ``ocb`` with ``--trace path``; the stderr record count."""
    from repro.cli import main

    assert main(argv + ["--trace", path]) == 0
    err = capsys.readouterr().err
    return int(re.search(r"^trace: (\d+) records", err, re.M).group(1))


def _collections_within(records, enclosing):
    """The ``gc.collect`` records that ran inside *enclosing*."""
    return [r for r in records if r.name == "gc.collect"
            and enclosing.start_ns <= r.start_ns
            and r.end_ns <= enclosing.end_ns]


class TestGarbageCollection:
    def test_collection_is_a_child_record_of_the_open_span(self, path):
        trace.enable(path)
        with trace.span("outer"):
            gc.collect()
        trace.disable()
        records = list(trace.spans(path))
        (outer,) = [r for r in records if r.name == "outer"]
        collections = _collections_within(records, outer)
        assert 2 in {r.attrs["generation"] for r in collections}
        assert {r.parent for r in collections} == {"outer"}
        assert all(isinstance(r.attrs[key], int) for r in collections
                   for key in ("collected", "uncollectable"))
        assert outer.self_ns == outer.end_ns - outer.start_ns - sum(
            r.end_ns - r.start_ns for r in collections)
        assert "gc" in dict(trace.summary(path).layers)

    def test_disable_removes_the_hook(self, path):
        before = list(gc.callbacks)
        trace.enable(path)
        assert len(gc.callbacks) == len(before) + 1
        trace.enable(path)  # Re-enabling installs no second hook.
        assert len(gc.callbacks) == len(before) + 1
        trace.disable()
        assert gc.callbacks == before
        size = os.path.getsize(path)
        gc.collect()
        assert os.path.getsize(path) == size

    def test_collection_inside_a_write_follows_that_record(
            self, path, monkeypatch):
        """A collection that runs while a record is being formatted
        began after that record ended: it is written after it, so the
        record does not adopt it."""
        trace.enable(path)
        dumps = json.dumps

        def collecting_dumps(*args, **kwargs):
            if args[0]["name"] == "inner":
                gc.collect()
            return dumps(*args, **kwargs)

        with trace.span("outer"):
            monkeypatch.setattr(json, "dumps", collecting_dumps)
            trace.emit("inner", ago(0.001))
            monkeypatch.setattr(json, "dumps", dumps)
        trace.disable()
        records = list(trace.spans(path))
        (inner,) = [r for r in records if r.name == "inner"]
        (outer,) = [r for r in records if r.name == "outer"]
        assert 2 in {r.attrs["generation"]
                     for r in _collections_within(records, outer)}
        assert inner.self_ns == inner.end_ns - inner.start_ns - sum(
            r.end_ns - r.start_ns
            for r in _collections_within(records, inner))


class TestTracedCli:
    """Whole-run traces: every record summarised, parents by layer."""

    def test_scenario_trace_covers_the_whole_run(self, capsys, path):
        count = run_traced(capsys, path, [
            "scenario", "read_heavy", "--backend", "sqlite"])
        with open(path) as handle:
            assert count == sum(1 for _ in handle)
        spans = list(trace.spans(path))
        phases = [span.attrs["phase"] for span in spans
                  if span.name == "scenario.phase"]
        assert sorted(phases) == ["cold", "warm"]
        reads = [span for span in spans if span.name == "sqlite.read_many"
                 and span.parent != "scenario.phase"]
        assert reads
        assert {span.parent for span in reads} == {"session.measure"}
        self_ns = defaultdict(int)
        root_ns = defaultdict(int)
        for span in spans:
            self_ns[span.pid] += span.self_ns
            if span.parent is None:
                root_ns[span.pid] += span.end_ns - span.start_ns
        assert self_ns == root_ns

    def test_forked_workers_append_whole_lines(self, capsys, path):
        count = run_traced(capsys, path, [
            "scenario", "write_heavy", "--backend", "sharded-sqlite",
            "--processes", "2"])
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert count == len(lines) > 0
        assert all(isinstance(line["pid"], int) for line in lines)

    def test_loadgen_events_enclose_no_operation(self, capsys, path):
        run_traced(capsys, path, [
            "loadtest", "read_heavy", "--rate", "200", "--ops", "20",
            "--backend", "memory", "--no-predict"])
        spans = list(trace.spans(path))
        assert any(span.name == "loadgen.arrival" for span in spans)
        assert not [span for span in spans
                    if (span.parent or "").startswith("loadgen.")]


class TestZeroOverheadWhenOff:
    def test_traced_off_run_executes_no_tracer_callbacks(self, monkeypatch):
        """A full `ocb run` without --trace never touches the tracer.

        Every instrumented call site guards with ``if trace.enabled:``,
        so replacing emit/span with spies must observe zero calls on the
        hottest end-to-end path the CLI has.
        """
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert trace.enabled is False
        assert main(["run", "--backend", "sqlite"]) == 0
        assert calls == []

    def test_scenario_off_run_executes_no_tracer_callbacks(self, monkeypatch):
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert main(["scenario", "read_heavy", "--warm", "5",
                     "--cold", "1"]) == 0
        assert calls == []

    def test_scenario_off_run_installs_no_gc_hook(self, monkeypatch):
        """Without --trace, `ocb scenario` never touches gc.callbacks."""
        from repro.cli import main

        calls = []

        class SpyList(list):
            def append(self, item):
                calls.append(("append", item))
                super().append(item)

            def remove(self, item):
                calls.append(("remove", item))
                super().remove(item)

        spy = SpyList(gc.callbacks)
        monkeypatch.setattr(gc, "callbacks", spy)
        assert main(["scenario", "read_heavy", "--warm", "5",
                     "--cold", "1"]) == 0
        assert calls == []
        assert gc.callbacks is spy

    def test_loadtest_off_run_executes_no_tracer_callbacks(
            self, monkeypatch):
        """The open-loop pacer guards its arrival/late-start emissions
        with ``trace.enabled`` too — a loadtest without --trace must
        execute zero tracer callbacks."""
        from repro.cli import main

        calls = []
        monkeypatch.setattr(
            trace, "emit",
            lambda *args, **kwargs: calls.append(("emit", args)))
        monkeypatch.setattr(
            trace, "span",
            lambda *args, **kwargs: calls.append(("span", args)))
        assert trace.enabled is False
        assert main(["loadtest", "read_heavy", "--rate", "200",
                     "--ops", "5", "--backend", "memory",
                     "--no-predict"]) == 0
        assert calls == []
