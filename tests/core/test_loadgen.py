"""Open-loop driver: schedules, pacing, knee detection, the sweep, and
the coordinated-omission pin.

The central test here is the synthetic-stall experiment: a backend that
deterministically freezes mid-run makes the open-loop response tail blow
up (the arrivals keep coming while the engine is stuck) while the
service tail — and a closed-loop run of the *same* stalling engine —
stays small.  That divergence is coordinated omission made measurable,
and it is the whole reason this subsystem exists.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.loadgen import (ArrivalSchedule, OpenLoopRunner, annotate_knee,
                                find_knee, merged_arrivals, pace,
                                run_load_sweep)
from repro.core.presets import scenario_preset
from repro.core.scenario import ScenarioRunner
from repro.errors import ParameterError
from repro.obs.latency import LatencyCollector


@pytest.fixture
def memory_scenario():
    """The read_heavy preset rebound to the memory engine — the fastest
    deterministic scenario the open-loop driver can pace."""
    preset = scenario_preset("read_heavy")
    return dataclasses.replace(preset, backend="memory", clients=2,
                               cold_ops=2, warm_ops=40, seed=4242)


class TestArrivalSchedule:
    def test_poisson_is_seed_deterministic(self):
        first = ArrivalSchedule(rate=100.0, operations=50, seed=7).offsets()
        second = ArrivalSchedule(rate=100.0, operations=50, seed=7).offsets()
        assert first == second
        assert ArrivalSchedule(rate=100.0, operations=50,
                               seed=8).offsets() != first

    def test_poisson_streams_are_independent_lanes(self):
        lane0 = ArrivalSchedule(rate=50.0, operations=20, stream=0).offsets()
        lane1 = ArrivalSchedule(rate=50.0, operations=20, stream=1).offsets()
        assert lane0 != lane1

    def test_poisson_offsets_ascend_at_roughly_the_rate(self):
        offsets = ArrivalSchedule(rate=200.0, operations=400).offsets()
        assert offsets == sorted(offsets)
        assert all(offset > 0.0 for offset in offsets)
        # 400 exponential gaps at 200/s span ~2s; 3x slack on each side.
        assert 2.0 / 3.0 < offsets[-1] < 6.0

    def test_fixed_mode_spaces_exactly(self):
        offsets = ArrivalSchedule(rate=10.0, operations=4,
                                  mode="fixed").offsets()
        assert offsets == pytest.approx([0.1, 0.2, 0.3, 0.4])

    def test_validation(self):
        with pytest.raises(ParameterError):
            ArrivalSchedule(rate=0.0, operations=1)
        with pytest.raises(ParameterError):
            ArrivalSchedule(rate=1.0, operations=-1)
        with pytest.raises(ParameterError):
            ArrivalSchedule(rate=1.0, operations=1, mode="burst")


class TestMergedArrivals:
    def test_sorted_and_operation_conserving(self):
        merged = merged_arrivals(100.0, 25, clients=3, seed=11)
        assert len(merged) == 25
        assert [offset for offset, _ in merged] == sorted(
            offset for offset, _ in merged)
        # 25 = 9 + 8 + 8 across three lanes.
        counts = [sum(1 for _, client in merged if client == lane)
                  for lane in range(3)]
        assert counts == [9, 8, 8]

    def test_single_client_is_the_plain_schedule(self):
        merged = merged_arrivals(50.0, 10, clients=1, seed=5)
        plain = ArrivalSchedule(rate=50.0, operations=10, seed=5).offsets()
        assert [offset for offset, _ in merged] == plain

    def test_rejects_zero_clients(self):
        with pytest.raises(ParameterError):
            merged_arrivals(10.0, 5, clients=0)


class VirtualClock:
    """A deterministic clock: ``sleep`` advances it, work advances it."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class TestPace:
    def test_on_time_run_has_no_late_starts(self):
        clock = VirtualClock()
        offsets = [0.1 * (index + 1) for index in range(5)]
        latency = LatencyCollector()

        def execute(index: int) -> None:
            clock.sleep(0.01)

        elapsed = pace(offsets, execute, latency,
                       clock=clock, sleep=clock.sleep)
        assert latency.operations == 5
        assert latency.late_starts == 0
        assert latency.max_backlog == 1
        assert elapsed == pytest.approx(0.51)

    def test_stall_builds_backlog_and_marks_late_starts(self):
        clock = VirtualClock()
        offsets = [0.1 * (index + 1) for index in range(10)]
        latency = LatencyCollector()
        seen = []

        def execute(index: int) -> None:
            clock.sleep(1.0 if index == 2 else 0.01)

        def observe(index: int, late: bool, backlog: int) -> None:
            seen.append((index, late, backlog))

        pace(offsets, execute, latency, observe=observe,
             clock=clock, sleep=clock.sleep)
        # The stall ends at t=1.3 with every remaining arrival due:
        # ops 3..9 all start late, and op 3 sees the full 7-deep backlog.
        assert latency.late_starts == 7
        assert latency.max_backlog == 7
        assert seen[3] == (3, True, 7)
        assert all(late for _, late, _ in seen[3:])
        # The stalled op's own response is its 1s service; op 3
        # (intended t=0.4, started t=1.3) waited 0.9s for it — queueing
        # delay recorded even though its own service stayed 10ms.
        assert latency.response.max == pytest.approx(1.0, abs=0.01)
        assert latency.wait.max == pytest.approx(0.9, abs=0.01)
        assert latency.service.percentile(50.0) == pytest.approx(
            0.01, rel=0.05)

    def test_arrivals_are_never_started_early(self):
        clock = VirtualClock()
        offsets = [1.0, 2.0]
        starts = []
        pace(offsets, lambda index: starts.append(clock.now),
             LatencyCollector(), clock=clock, sleep=clock.sleep)
        assert starts == pytest.approx([1.0, 2.0])


class TestKnee:
    @staticmethod
    def cell(offered, achieved, response_p95):
        return {"offered_rate": offered, "throughput": achieved,
                "response_p95_ms": response_p95}

    def test_no_knee_when_throughput_tracks(self):
        cells = [self.cell(100, 99, 2.0), self.cell(200, 196, 2.2)]
        assert find_knee(cells) is None

    def test_throughput_divergence_fires(self):
        cells = [self.cell(100, 99, 2.0), self.cell(200, 150, 2.5),
                 self.cell(400, 160, 3.0)]
        assert find_knee(cells) == 200

    def test_response_blowup_fires_even_with_full_throughput(self):
        cells = [self.cell(100, 100, 2.0), self.cell(200, 199, 9.0)]
        assert find_knee(cells) == 200
        assert find_knee(cells, blowup=10.0) is None

    def test_cells_are_ordered_by_rate_before_detection(self):
        cells = [self.cell(400, 160, 3.0), self.cell(100, 99, 1.0)]
        assert find_knee(cells) == 400

    def test_annotate_marks_knee_and_saturated(self):
        cells = [self.cell(100, 99, 2.0), self.cell(200, 150, 2.0),
                 self.cell(400, 155, 2.0)]
        annotate_knee(cells, find_knee(cells))
        assert [c["knee"] for c in cells] == [False, True, False]
        assert [c["saturated"] for c in cells] == [False, True, True]

    def test_empty_cells_have_no_knee(self):
        assert find_knee([]) is None


class StallingBackend(MemoryBackend):
    """A memory engine that freezes once, deterministically, mid-run.

    The stall triggers on the Nth object access, so the same seeded
    operation stream hits it at the same operation every run.
    """

    def __init__(self, stall_at: int = 400,
                 stall_seconds: float = 0.12) -> None:
        super().__init__()
        self.stall_at = stall_at
        self.stall_seconds = stall_seconds
        self.stalled = False

    def read_object(self, oid):
        if not self.stalled and self.object_accesses >= self.stall_at:
            self.stalled = True
            time.sleep(self.stall_seconds)
        return super().read_object(oid)


class TestCoordinatedOmission:
    """The pin: an open-loop run sees the stall in every queued
    operation's response; a closed-loop run of the same engine hides it.
    """

    def test_open_loop_response_tail_dwarfs_service_tail(
            self, small_database, memory_scenario):
        scenario = dataclasses.replace(memory_scenario, warm_ops=150)
        store = StallingBackend(stall_at=2500, stall_seconds=0.12)
        runner = OpenLoopRunner(small_database, scenario, rate=600.0,
                                operations=150, seed=99, store=store)
        report = runner.run()
        assert store.stalled, "the stall must actually trigger"
        latency = report.latency
        response_p99 = latency.response.percentile(99.0)
        # P90 service excludes the one operation that carried the stall
        # itself — the engine-only cost of everything else.
        service_p90 = latency.service.percentile(90.0)
        assert service_p90 < 0.02
        assert response_p99 >= 5 * max(latency.service.percentile(99.0),
                                       1e-4) or \
            response_p99 >= 0.05
        # The queue the stall built is visible in the accounting.
        assert latency.late_starts > 0
        assert latency.max_backlog > 1
        assert report.scenario.late_starts == latency.late_starts
        assert report.scenario.max_backlog == latency.max_backlog

    def test_closed_loop_hides_the_same_stall(
            self, small_database, memory_scenario):
        scenario = dataclasses.replace(memory_scenario, warm_ops=150)
        store = StallingBackend(stall_at=2500, stall_seconds=0.12)
        report = ScenarioRunner(small_database, scenario,
                                store=store).run()
        assert store.stalled
        # Closed loop: only the single stalled operation's wall sample
        # is slow; the P50 stays tiny and nothing records the queueing
        # delay the stall would have imposed on an open-traffic source.
        wall = report.merged_warm.wall_percentiles()
        assert wall.p50 < 0.02
        assert report.late_starts == 0
        assert report.max_backlog == 0


class TestOpenLoopRunner:
    def test_report_shape_and_cell(self, small_database, memory_scenario):
        runner = OpenLoopRunner(small_database, memory_scenario,
                                rate=800.0, operations=40, seed=7)
        report = runner.run()
        assert report.operations == 40
        assert report.scenario.mode == "open-loop"
        assert report.scenario.offered_rate == 800.0
        assert report.scenario.arrival_mode == "poisson"
        assert report.achieved_throughput > 0.0
        assert "open-loop" in report.scenario.describe()
        cell = report.cell()
        assert cell["key"] == "memory/read_heavy/r800"
        assert cell["clients"] == 2
        assert cell["operations"] == 40
        assert cell["service_p95_ms"] == pytest.approx(
            report.latency.service.percentile(95.0) * 1e3)
        for field in ("response_p999_ms", "service_p95_ms",
                      "wait_mean_ms", "late_starts", "max_backlog"):
            assert field in cell

    def test_rate_validation(self, small_database, memory_scenario):
        with pytest.raises(ParameterError):
            OpenLoopRunner(small_database, memory_scenario, rate=0.0)
        with pytest.raises(ParameterError):
            OpenLoopRunner(small_database, memory_scenario, rate=10.0,
                           mode="burst")


class TestRunLoadSweep:
    def test_two_rate_sweep_document(self, small_database, memory_scenario):
        # Fixed arrivals: the schedule's realized rate equals the
        # nominal one, so achieved-vs-offered is deterministic even at
        # 30 operations (Poisson realizations this short are not).
        sweep = run_load_sweep(small_database, memory_scenario,
                               rates=[150.0, 1200.0], operations=60,
                               mode="fixed", seed=3,
                               progress=lambda line: None)
        cells = sweep["cells"]
        assert [cell["offered_rate"] for cell in cells] == [150.0, 1200.0]
        for cell in cells:
            assert cell["backend"] == "memory"
            assert cell["scenario"] == "read_heavy"
            assert cell["arrival_mode"] == "fixed"
            assert cell["operations"] == 60
            assert cell["elapsed_seconds"] > 0.0
            # Percentiles are ordered, and response time (queueing
            # included) never undercuts service time.
            assert cell["response_p50_ms"] <= cell["response_p95_ms"] \
                <= cell["response_p99_ms"] <= cell["response_p999_ms"]
            assert cell["service_p50_ms"] <= cell["service_p95_ms"]
            assert cell["response_p95_ms"] >= cell["service_p95_ms"] * 0.99
            # DES prediction fields land in every measured cell.
            assert cell["predicted_wait_mean_ms"] >= 0.0
            assert cell["predicted_wait_p95_ms"] >= 0.0
            assert cell["predicted_throughput"] > 0.0
            assert 0.0 <= cell["predicted_utilization"] <= 1.0
            assert "saturated" in cell and "knee" in cell
        # The memory engine keeps up at 150 op/s: achieved throughput
        # tracks the offered rate (wide band — CI hosts under full-suite
        # load add scheduler slop to the short paced phase).
        assert cells[0]["throughput"] >= 150.0 * 0.70
        assert sweep["seed"] == 3
        assert sweep["arrival_mode"] == "fixed"

    def test_predict_false_omits_des_fields(self, small_database,
                                            memory_scenario):
        sweep = run_load_sweep(small_database, memory_scenario,
                               rates=[500.0], operations=10,
                               predict=False)
        assert "predicted_wait_mean_ms" not in sweep["cells"][0]

    def test_duplicate_rates_are_refused(self, small_database,
                                         memory_scenario):
        with pytest.raises(ParameterError):
            run_load_sweep(small_database, memory_scenario,
                           rates=[100.0, 100.0])
        with pytest.raises(ParameterError):
            run_load_sweep(small_database, memory_scenario, rates=[])

    def test_store_factory_gives_each_rate_a_fresh_engine(
            self, small_database, memory_scenario):
        stores = []

        def factory():
            store = MemoryBackend()
            stores.append(store)
            return store

        run_load_sweep(small_database, memory_scenario,
                       rates=[300.0, 900.0], operations=8,
                       predict=False, store_factory=factory)
        assert len(stores) == 2
        assert stores[0] is not stores[1]


class TestLoadtestCli:
    def test_end_to_end_document(self, capsys):
        from repro.cli import main
        from repro.reporting import describe_knee, render_load_report

        assert main(["loadtest", "read_heavy", "--rate", "100,900",
                     "--ops", "12", "--backend", "memory",
                     "--seed", "21", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "loadtest"
        assert document["rates"] == [100.0, 900.0]
        assert "knee" in document
        assert len(document["cells"]) == 2
        for cell in document["cells"]:
            assert cell["backend"] == "memory"
            assert "predicted_wait_mean_ms" in cell
        # The printed object renders like a fresh run.
        assert describe_knee(document) in render_load_report(document)

    def test_plain_run_writes_no_file(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["loadtest", "read_heavy", "--rate", "300",
                     "--ops", "6", "--backend", "memory",
                     "--no-predict"]) == 0
        assert "knee" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_bad_rates_are_a_usage_error(self):
        from repro.cli import main

        assert main(["loadtest", "read_heavy", "--rate", "abc"]) == 1
        assert main(["loadtest", "read_heavy", "--rate", ","]) == 1
