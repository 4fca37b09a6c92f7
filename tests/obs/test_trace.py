"""Tracer behaviour: records, parents by containment, self time, the
CLI summary, zero overhead when off."""

from __future__ import annotations

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
        trace.emit("after.disable", 1.0)
        assert list(trace.spans(path)) == []
        assert trace.enabled is False

    def test_emit_records_name_wall_and_attrs(self, path):
        trace.enable(path)
        trace.emit("kernel.read", 0.25, oids=7)
        trace.disable()
        (record,) = trace.spans(path)
        assert record.name == "kernel.read"
        assert record.pid == os.getpid()
        assert record.end_ns - record.start_ns == 250_000_000
        assert record.self_ns == 250_000_000
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
            trace.emit("engine.read_many", 0.0, oids=3)
            trace.emit("session.measure", time.perf_counter() - started)
        trace.disable()
        parents = {span.name: span.parent for span in trace.spans(path)}
        assert parents == {"engine.read": "session.measure",
                           "engine.read_many": "session.measure",
                           "session.measure": "op", "op": None}

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
        trace.emit("after", 0.0)
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
            trace.emit("inner", 0.002, oids=3)
        trace.disable()
        lines = [json.loads(line) for line in open(path)]
        assert [line["name"] for line in lines] == ["inner", "outer"]
        for line in lines:
            assert set(line) == {"name", "pid", "start_ns", "end_ns",
                                 "attrs"}
        inner, outer = sorted(trace.spans(path), key=lambda s: s.name)
        assert inner.attrs == {"oids": 3}
        assert outer.attrs == {"phase": "warm"}
        assert inner.end_ns - inner.start_ns == 2_000_000

    def test_disable_closes_sink(self, path):
        trace.enable(path)
        trace.emit("one")
        trace.disable()
        # Every record is written as it ends: nothing waits in a buffer.
        assert len(list(trace.spans(path))) == 1


class TestSummary:
    def test_summary_sorted_by_total_wall(self, path):
        trace.enable(path)
        trace.emit("cheap", 0.001)
        trace.emit("cheap", 0.001)
        trace.emit("dear", 1.5)
        trace.emit("outer", 2.0)
        trace.disable()
        rows = trace.summary(path).rows
        # Each record's reported wall encloses the ones before it, so
        # "outer" leads although "dear" has more self time.
        assert [row.name for row in rows] == ["outer", "dear", "cheap"]
        assert rows[0].self_time < rows[1].self_time
        name, count, total, self_time, p999 = rows[2]
        assert count == 2
        assert total == pytest.approx(0.002)
        assert self_time == pytest.approx(0.002)
        # The tail column comes from a log-bucketed histogram: accurate
        # to its relative precision, not exact.
        assert p999 == pytest.approx(0.001, rel=0.02)

    def test_summary_p999_tracks_the_slowest_emission(self, path):
        trace.enable(path)
        for _ in range(99):
            trace.emit("op", 0.001)
        trace.emit("op", 0.5)
        trace.disable()
        ((_, count, _, _, p999),) = trace.summary(path).rows
        assert count == 100
        assert p999 == pytest.approx(0.5, rel=0.02)

    def test_self_time_counts_nested_time_once(self, path):
        trace.enable(path)
        with trace.span("outer.section"):
            trace.emit("inner.call", 0.0002)
            trace.emit("inner.call", 0.0002)
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
