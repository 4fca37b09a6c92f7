"""Queueing model of multi-user OCB on the discrete-event engine.

A multi-client :class:`~repro.core.scenario.Scenario` run in-process
captures cache *pollution* between clients but not *contention delays*.
This module adds the queueing view the paper's QNAP2 port was built
for: each client is a process that thinks, executes its transaction
against the real store (to learn how many page I/Os it needs), then
queues those I/Os on a shared disk server — so response times include
waiting behind other clients.

The model reports per-client response-time statistics, aggregate
throughput, and disk utilisation, which is what one needs to study how
clustering (fewer I/Os per transaction) translates into multi-user
capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.clustering.base import ClusteringPolicy, NoClustering
from repro.core.database import OCBDatabase
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import Scenario, ScenarioCollector, ScenarioRunner
from repro.errors import WorkloadError
from repro.sim.engine import Environment
from repro.store.storage import ObjectStore

__all__ = ["ClientTimings", "SimulatedRunReport", "SimulatedMultiUser",
           "OpenLoopPrediction", "simulate_open_arrivals"]


@dataclass
class ClientTimings:
    """Response times of one simulated client."""

    client_id: int
    response_times: List[float] = field(default_factory=list)

    @property
    def transactions(self) -> int:
        """Completed transactions."""
        return len(self.response_times)

    @property
    def mean_response(self) -> float:
        """Mean response time in simulated seconds."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    @property
    def max_response(self) -> float:
        """Worst response time."""
        return max(self.response_times) if self.response_times else 0.0


@dataclass
class SimulatedRunReport:
    """Aggregate outcome of one simulated multi-user run."""

    clients: List[ClientTimings]
    makespan: float
    disk_busy: float
    total_ios: int

    @property
    def throughput(self) -> float:
        """Transactions per simulated second."""
        done = sum(c.transactions for c in self.clients)
        return done / self.makespan if self.makespan > 0 else 0.0

    @property
    def mean_response(self) -> float:
        """Mean response time across every transaction of every client."""
        times = [t for c in self.clients for t in c.response_times]
        return sum(times) / len(times) if times else 0.0

    @property
    def disk_utilisation(self) -> float:
        """Fraction of the makespan the disk server was busy."""
        return self.disk_busy / self.makespan if self.makespan > 0 else 0.0


class SimulatedMultiUser:
    """CLIENTN client processes contending for one disk server."""

    def __init__(self, database: OCBDatabase, store: ObjectStore,
                 parameters: WorkloadParameters,
                 policy: Optional[ClusteringPolicy] = None,
                 transactions_per_client: Optional[int] = None,
                 disk_capacity: int = 1) -> None:
        if parameters.clients < 1:
            raise WorkloadError(f"need >= 1 client, got {parameters.clients}")
        self.database = database
        self.store = store
        self.parameters = parameters
        self.policy = policy or NoClustering()
        self.transactions_per_client = (
            transactions_per_client if transactions_per_client is not None
            else parameters.hot_n)
        self.disk_capacity = disk_capacity

    def run(self) -> SimulatedRunReport:
        """Simulate the run; returns timing/throughput statistics."""
        env = Environment()
        disk = env.resource(self.disk_capacity, name="disk")
        cost = self.store.cost_model
        timings = [ClientTimings(client_id=i)
                   for i in range(self.parameters.clients)]
        busy = [0.0]
        total_ios = [0]

        scenario = Scenario.from_workload_parameters(self.parameters)
        executors = ScenarioRunner(self.database, scenario,
                                   policy=self.policy
                                   ).build_executors(self.store)

        def client(index: int):
            executor = executors[index]
            collector = ScenarioCollector(f"client-{index}")
            think = self.parameters.think_time
            for _ in range(self.transactions_per_client):
                if think > 0.0:
                    yield env.timeout(think)
                started = env.now
                before = self.store.snapshot()
                executor.step(collector)
                delta = self.store.snapshot() - before
                # CPU portion: charged without contention.
                cpu = delta.object_accesses * cost.cpu_object_time
                if cpu > 0.0:
                    yield env.timeout(cpu)
                # I/O portion: each page I/O queues on the shared disk.
                ios = delta.total_ios
                total_ios[0] += ios
                for _ in range(ios):
                    request = disk.request()
                    yield request
                    service = cost.io_read_time
                    busy[0] += service
                    yield env.timeout(service)
                    disk.release()
                timings[index].response_times.append(env.now - started)

        for i in range(self.parameters.clients):
            env.process(client(i))
        makespan = env.run()
        return SimulatedRunReport(clients=timings, makespan=makespan,
                                  disk_busy=busy[0], total_ios=total_ios[0])


# ---------------------------------------------------------------------- #
# Open-arrival prediction (the load generator's validation model)
# ---------------------------------------------------------------------- #

@dataclass
class OpenLoopPrediction:
    """Predicted queueing behaviour of one open-arrival schedule."""

    operations: int
    makespan: float
    busy: float
    waits: List[float] = field(default_factory=list)
    responses: List[float] = field(default_factory=list)

    @property
    def mean_wait(self) -> float:
        """Mean queueing delay (arrival → service start), seconds."""
        return sum(self.waits) / len(self.waits) if self.waits else 0.0

    @property
    def p95_wait(self) -> float:
        """95th-percentile queueing delay, seconds."""
        if not self.waits:
            return 0.0
        from repro.stats import percentile
        return percentile(self.waits, 95.0)

    @property
    def mean_response(self) -> float:
        """Mean response time (arrival → completion), seconds."""
        if not self.responses:
            return 0.0
        return sum(self.responses) / len(self.responses)

    @property
    def throughput(self) -> float:
        """Completed operations per simulated second."""
        return self.operations / self.makespan if self.makespan > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of the makespan the server was busy."""
        return self.busy / self.makespan if self.makespan > 0 else 0.0


def simulate_open_arrivals(arrivals: List[float],
                           service_times: List[float],
                           capacity: int = 1) -> OpenLoopPrediction:
    """Simulate open arrivals through a FIFO server on the DES engine.

    *arrivals* are ascending intended start offsets (seconds);
    *service_times* the matching per-operation service durations.  This
    is exactly the queue the single-threaded open-loop driver
    (:mod:`repro.core.loadgen`) physically is — operations arrive on a
    schedule that does not care whether the server is free, queue FIFO
    on one server (``capacity=1``), and leave after their service time —
    so its predicted waits are directly comparable with the driver's
    measured intended-arrival → start delays.  Takes plain lists, not
    runner objects, to stay import-independent of the load generator.
    """
    if len(arrivals) != len(service_times):
        raise WorkloadError(
            f"arrivals and service_times must pair up, got "
            f"{len(arrivals)} vs {len(service_times)}")
    prediction = OpenLoopPrediction(operations=len(arrivals),
                                    makespan=0.0, busy=0.0)
    if not arrivals:
        return prediction
    env = Environment()
    server = env.resource(capacity, name="server")
    busy = [0.0]

    def operation(service: float):
        arrived = env.now
        request = server.request()
        yield request
        prediction.waits.append(env.now - arrived)
        busy[0] += service
        if service > 0.0:
            yield env.timeout(service)
        server.release()
        prediction.responses.append(env.now - arrived)

    def spawner():
        previous = 0.0
        for offset, service in zip(arrivals, service_times):
            gap = offset - previous
            if gap < 0.0:
                raise WorkloadError(
                    "arrival offsets must be ascending, got "
                    f"{offset} after {previous}")
            if gap > 0.0:
                yield env.timeout(gap)
            previous = offset
            env.process(operation(service))

    env.process(spawner())
    prediction.makespan = env.run()
    prediction.busy = busy[0]
    return prediction
