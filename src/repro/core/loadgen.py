"""Open-loop load generation: offered arrival rates against a Scenario.

Every other runner in this repo is *closed-loop* — a client issues its
next operation only after the previous one returns, so the system under
test sets its own pace and queueing delay is structurally invisible
(the coordinated-omission trap).  This module is the *open-loop*
driver: a seeded arrival schedule (Poisson or fixed-rate) decides when
each operation *should* start, the driver issues it as close to that
instant as it can, and :class:`repro.obs.latency.LatencyCollector`
records the operation against its **intended** arrival time.  When the
engine stalls, the arrivals keep coming — the backlog drains late and
every delayed operation's *response* time (intended → completion)
honestly includes the wait, while its *service* time (start →
completion) stays an engine-only number.

The driver is deliberately single-threaded: operations execute
sequentially in arrival order, so the harness itself is a single-server
FIFO queue.  That is exactly the model
:func:`repro.multiuser.des.simulate_open_arrivals` simulates, which is
what makes the predicted-vs-measured wait comparison in
:func:`run_load_sweep` an apples-to-apples validation of the DES layer
rather than a hand-wave.

Arrival schedules draw from a dedicated Lewis–Payne substream
(:data:`STREAM_ARRIVALS`), independent of the workload streams, so the
same seed replays the same arrival process at every offered rate.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.database import OCBDatabase
from repro.core.scenario import (
    ClientScenarioReport,
    Scenario,
    ScenarioCollector,
    ScenarioReport,
    ScenarioRunner,
)
from repro.errors import ParameterError
from repro.obs import trace
from repro.obs.latency import DEFAULT_LATE_GRACE, LatencyCollector
from repro.rand.lewis_payne import DEFAULT_SEED, LewisPayne

__all__ = ["ARRIVAL_MODES", "STREAM_ARRIVALS", "STREAM_SERVICE",
           "ArrivalSchedule", "merged_arrivals", "pace",
           "OpenLoopReport", "OpenLoopRunner",
           "find_knee", "annotate_knee", "run_load_sweep"]

#: Supported arrival processes.
ARRIVAL_MODES = ("poisson", "fixed")

#: Lewis–Payne substream keys: arrival schedules (one per client lane,
#: offset by client id) and the DES service-time sampler.
STREAM_ARRIVALS = 0x0CB0_0A21
STREAM_SERVICE = 0x0CB0_0A22


@dataclass(frozen=True)
class ArrivalSchedule:
    """A seeded schedule of intended operation start offsets.

    ``poisson`` draws exponential inter-arrival gaps at ``rate`` per
    second (a memoryless open-traffic model); ``fixed`` spaces arrivals
    exactly ``1/rate`` apart.  ``stream`` offsets the RNG substream so
    per-client lanes are independent but jointly reproducible.
    """

    rate: float
    operations: int
    mode: str = "poisson"
    seed: int = DEFAULT_SEED
    stream: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ParameterError(f"rate must be > 0, got {self.rate}")
        if self.operations < 0:
            raise ParameterError(
                f"operations must be >= 0, got {self.operations}")
        if self.mode not in ARRIVAL_MODES:
            raise ParameterError(
                f"unknown arrival mode {self.mode!r}; "
                f"expected one of {ARRIVAL_MODES}")

    def offsets(self) -> List[float]:
        """Intended start offsets (seconds from epoch), ascending."""
        if self.mode == "fixed":
            return [(i + 1) / self.rate for i in range(self.operations)]
        rng = LewisPayne(self.seed).spawn(STREAM_ARRIVALS + self.stream)
        now = 0.0
        schedule = []
        for _ in range(self.operations):
            now += rng.expovariate(self.rate)
            schedule.append(now)
        return schedule


def merged_arrivals(rate: float, operations: int, clients: int,
                    mode: str = "poisson",
                    seed: int = DEFAULT_SEED) -> List[Tuple[float, int]]:
    """Merge per-client arrival lanes into one ``(offset, client)`` list.

    The offered ``rate`` splits evenly across ``clients`` (each lane an
    independent substream), mirroring how the process-parallel runner
    shares a target rate among workers; the merged list is sorted by
    intended start time, ties broken by client id.
    """
    if clients < 1:
        raise ParameterError(f"clients must be >= 1, got {clients}")
    merged: List[Tuple[float, int]] = []
    share = rate / clients
    base, remainder = divmod(operations, clients)
    for client in range(clients):
        count = base + (1 if client < remainder else 0)
        schedule = ArrivalSchedule(rate=share, operations=count, mode=mode,
                                   seed=seed, stream=client)
        merged.extend((offset, client) for offset in schedule.offsets())
    merged.sort()
    return merged


def pace(offsets: Sequence[float], execute: Callable[[int], None],
         latency: LatencyCollector, *,
         observe: Optional[Callable[[int, bool, int], None]] = None,
         clock: Callable[[], float] = time.perf_counter,
         sleep: Callable[[float], None] = time.sleep) -> float:
    """Drive *execute* through an intended-arrival schedule.

    For each ascending offset: sleep until the intended instant (never
    skip ahead), count how many arrivals are already due (the backlog a
    stalled engine accumulates), run the operation, and record it
    against its *intended* time in *latency*.  ``observe(index, late,
    backlog)`` lets callers attribute lateness per client.  Returns the
    wall-clock seconds the paced phase took.
    """
    epoch = clock()
    total = len(offsets)
    due = 0
    for index, offset in enumerate(offsets):
        intended = epoch + offset
        now = clock()
        slept = 0.0
        if now < intended:
            slept = intended - now
            sleep(slept)
            now = clock()
        while due < total and offsets[due] <= now - epoch:
            due += 1
        backlog = max(1, due - index)
        latency.note_backlog(backlog)
        started = clock()
        execute(index)
        completed = clock()
        late = latency.record(intended, started, completed)
        if trace.enabled:
            trace.emit("loadgen.arrival", slept, op=index, late=late,
                       backlog=backlog)
            if late:
                trace.emit("loadgen.late_start", started - intended,
                           op=index, backlog=backlog)
        if observe is not None:
            observe(index, late, backlog)
    return clock() - epoch


@dataclass
class OpenLoopReport:
    """One offered rate's measurement: scenario report + latency split."""

    scenario: ScenarioReport
    latency: LatencyCollector
    offered_rate: float
    arrival_mode: str
    #: Paced (warm) arrivals executed and the wall-clock seconds the
    #: paced phase took — the pair that defines achieved throughput.
    operations: int = 0
    elapsed_seconds: float = 0.0

    @property
    def achieved_throughput(self) -> float:
        """Completed paced operations per second of wall-clock."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.operations / self.elapsed_seconds

    def cell(self) -> Dict[str, object]:
        """One flat sweep cell (a JSON-ready mapping) for this rate."""
        report = self.scenario
        cell: Dict[str, object] = {
            "key": (f"{report.backend_name}/{report.scenario_name}"
                    f"/r{self.offered_rate:g}"),
            "backend": report.backend_name,
            "scenario": report.scenario_name,
            "clients": report.client_count,
            "offered_rate": self.offered_rate,
            "arrival_mode": self.arrival_mode,
            "operations": self.operations,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.achieved_throughput,
            "write_operations": report.write_operations,
            "busy_retries": report.busy_retries,
        }
        cell.update(self.latency.cell_fields())
        return cell


class OpenLoopRunner:
    """Runs one Scenario under an offered arrival rate, in-process.

    Composition over the closed-loop :class:`ScenarioRunner`: engine
    resolution, executor construction (per-client partitioning, seeded
    substreams) and engine-stats attribution are reused unchanged; only
    the warm phase's pacing differs.  The cold phase stays closed-loop —
    it is cache priming, not measurement.  An injected ``store`` (e.g. a
    deterministic stalling backend in tests) flows straight through to
    :meth:`ScenarioRunner._resolve_engine`.
    """

    def __init__(self, database: OCBDatabase, scenario: Scenario,
                 rate: float, *, operations: Optional[int] = None,
                 mode: str = "poisson", seed: Optional[int] = None,
                 store: Optional[object] = None,
                 policy: Optional[object] = None,
                 late_grace: float = DEFAULT_LATE_GRACE,
                 clock: Callable[[], float] = time.perf_counter,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if rate <= 0.0:
            raise ParameterError(f"rate must be > 0, got {rate}")
        if mode not in ARRIVAL_MODES:
            raise ParameterError(
                f"unknown arrival mode {mode!r}; "
                f"expected one of {ARRIVAL_MODES}")
        self.scenario = scenario
        self.rate = rate
        self.mode = mode
        self.operations = (operations if operations is not None
                           else scenario.warm_ops)
        self.seed = seed if seed is not None else \
            (scenario.seed if scenario.seed is not None else DEFAULT_SEED)
        self.late_grace = late_grace
        self._clock = clock
        self._sleep = sleep
        self._runner = ScenarioRunner(database, scenario, store=store,
                                      policy=policy)

    def arrivals(self) -> List[Tuple[float, int]]:
        """The merged ``(offset, client)`` schedule this run executes."""
        return merged_arrivals(self.rate, self.operations,
                               self.scenario.clients, self.mode, self.seed)

    def run(self) -> OpenLoopReport:
        """Cold-prime closed-loop, then pace the warm arrivals."""
        scenario = self.scenario
        engine = self._runner._resolve_engine()
        executors = self._runner.build_executors(engine)
        cold = [ScenarioCollector("cold") for _ in executors]
        warm = [ScenarioCollector("warm") for _ in executors]
        started = self._clock()
        if trace.enabled:
            with trace.span("scenario.phase", phase="cold",
                            scenario=scenario.mix.name):
                for _ in range(scenario.cold_ops):
                    for executor, collector in zip(executors, cold):
                        executor.step(collector)
        else:
            for _ in range(scenario.cold_ops):
                for executor, collector in zip(executors, cold):
                    executor.step(collector)
        arrivals = self.arrivals()
        offsets = [offset for offset, _ in arrivals]
        latency = LatencyCollector(late_grace=self.late_grace)
        late_by_client = [0] * len(executors)
        backlog_by_client = [0] * len(executors)

        def execute(index: int) -> None:
            client = arrivals[index][1]
            executors[client].step(warm[client])

        def observe(index: int, late: bool, backlog: int) -> None:
            client = arrivals[index][1]
            if late:
                late_by_client[client] += 1
            if backlog > backlog_by_client[client]:
                backlog_by_client[client] = backlog

        paced = pace(offsets, execute, latency, observe=observe,
                     clock=self._clock, sleep=self._sleep)
        elapsed = self._clock() - started
        clients = [
            ClientScenarioReport(
                client_id=executor.client_id,
                cold=cold_collector.phase,
                warm=warm_collector.phase,
                read_misses=executor.read_misses,
                write_conflicts=executor.write_conflicts,
                late_starts=late_by_client[executor.client_id],
                max_backlog=backlog_by_client[executor.client_id])
            for executor, cold_collector, warm_collector
            in zip(executors, cold, warm)]
        backend_name = getattr(engine, "name", type(engine).__name__)
        stats = engine.stats() if hasattr(engine, "stats") else {}
        if clients and stats.get("busy_retries"):
            clients[0].busy_retries += int(stats["busy_retries"])
            clients[0].busy_wait_seconds += float(
                stats.get("busy_wait_seconds", 0.0) or 0.0)
        if clients and stats.get("remote_reads"):
            clients[0].remote_reads += int(stats["remote_reads"])
        report = ScenarioReport(
            scenario_name=scenario.mix.name,
            clients=clients,
            backend_name=backend_name,
            mode="open-loop",
            elapsed_seconds=elapsed,
            executed_parallel=False,
            sql_round_trips=int(stats.get("sql_round_trips", 0) or 0),
            offered_rate=self.rate,
            arrival_mode=self.mode)
        return OpenLoopReport(
            scenario=report,
            latency=latency,
            offered_rate=self.rate,
            arrival_mode=self.mode,
            operations=len(arrivals),
            elapsed_seconds=paced)


# ---------------------------------------------------------------------- #
# Saturation-knee detection and the rate sweep
# ---------------------------------------------------------------------- #

def find_knee(cells: Sequence[Dict[str, object]],
              divergence: float = 0.10,
              blowup: float = 3.0) -> Optional[float]:
    """The lowest offered rate at which the system saturates, or None.

    A rate saturates when *either* signal fires: achieved throughput
    falls more than ``divergence`` below the offered rate (the engine
    cannot drain the arrivals), or response-time P95 exceeds ``blowup``
    times the lowest-rate baseline (the queue is growing even though
    throughput still keeps up).
    """
    ordered = sorted(cells, key=lambda cell: cell["offered_rate"])
    if not ordered:
        return None
    baseline = float(ordered[0].get("response_p95_ms", 0.0) or 0.0)
    for cell in ordered:
        offered = float(cell["offered_rate"])
        achieved = float(cell.get("throughput", 0.0) or 0.0)
        response_p95 = float(cell.get("response_p95_ms", 0.0) or 0.0)
        diverged = achieved < offered * (1.0 - divergence)
        blown = baseline > 0.0 and response_p95 > blowup * baseline
        if diverged or blown:
            return offered
    return None


def annotate_knee(cells: Sequence[Dict[str, object]],
                  knee: Optional[float]) -> None:
    """Mark each cell with its saturation verdict in place."""
    for cell in cells:
        offered = float(cell["offered_rate"])
        cell["saturated"] = knee is not None and offered >= knee
        cell["knee"] = knee is not None and offered == knee


def run_load_sweep(database: OCBDatabase, scenario: Scenario,
                   rates: Sequence[float], *,
                   operations: Optional[int] = None,
                   mode: str = "poisson", seed: Optional[int] = None,
                   divergence: float = 0.10, blowup: float = 3.0,
                   predict: bool = True,
                   late_grace: float = DEFAULT_LATE_GRACE,
                   store_factory: Optional[Callable[[], object]] = None,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Dict[str, object]:
    """Sweep offered rates, detect the knee, predict waits with the DES.

    Each rate runs against a pristine deepcopy of *database* (mutating
    mixes must not let one rate's inserts warp the next rate's graph).
    When ``predict`` is set, every measured rate is replayed through
    :func:`repro.multiuser.des.simulate_open_arrivals` — identical
    arrival schedule, service times inverse-sampled from the *measured*
    service histogram — and the predicted mean/P95 wait lands next to
    the measured one in each cell.  Returns a JSON-ready ``{"cells":
    [...], "knee": rate-or-None, ...}`` mapping.
    """
    if not rates:
        raise ParameterError("at least one offered rate is required")
    unique = sorted(set(float(rate) for rate in rates))
    if len(unique) != len(rates):
        raise ParameterError(f"offered rates must be unique, got {rates}")
    resolved_seed = seed if seed is not None else \
        (scenario.seed if scenario.seed is not None else DEFAULT_SEED)
    cells: List[Dict[str, object]] = []
    for index, rate in enumerate(unique):
        if progress is not None:
            progress(f"rate {rate:g} op/s "
                     f"({index + 1}/{len(unique)}) ...")
        pristine = copy.deepcopy(database)
        store = store_factory() if store_factory is not None else None
        runner = OpenLoopRunner(pristine, scenario, rate,
                                operations=operations, mode=mode,
                                seed=resolved_seed, store=store,
                                late_grace=late_grace)
        measured = runner.run()
        cell = measured.cell()
        if predict:
            cell.update(_predict_cell(runner, measured))
        cells.append(cell)
    knee = find_knee(cells, divergence=divergence, blowup=blowup)
    annotate_knee(cells, knee)
    return {
        "cells": cells,
        "knee": knee,
        "divergence": divergence,
        "blowup": blowup,
        "arrival_mode": mode,
        "seed": resolved_seed,
    }


def _predict_cell(runner: OpenLoopRunner,
                  measured: OpenLoopReport) -> Dict[str, float]:
    """DES-predicted wait fields for one measured rate."""
    from repro.multiuser.des import simulate_open_arrivals

    offsets = [offset for offset, _ in runner.arrivals()]
    service = measured.latency.service
    if not offsets or not service.count:
        return {}
    rng = LewisPayne(runner.seed).spawn(STREAM_SERVICE)
    services = [service.sample_inverse(rng.random53()) for _ in offsets]
    prediction = simulate_open_arrivals(offsets, services)
    return {
        "predicted_wait_mean_ms": prediction.mean_wait * 1e3,
        "predicted_wait_p95_ms": prediction.p95_wait * 1e3,
        "predicted_response_mean_ms": prediction.mean_response * 1e3,
        "predicted_throughput": prediction.throughput,
        "predicted_utilization": prediction.utilization,
    }
