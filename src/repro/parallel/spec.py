"""Serializable work descriptions for the process-parallel harness.

Everything a worker process needs crosses the process boundary as one
picklable :class:`WorkerSpec`: the generated database (the worker's
logical view), the :class:`~repro.core.scenario.WorkloadMix` it runs,
the workload parameters whose per-client Lewis–Payne substream the
worker derives from its ``client_id`` — exactly as an in-process
:class:`~repro.core.scenario.ScenarioRunner` does, which is what makes
the two execution modes logically identical — and the backend name +
options the worker resolves through the registry on its side of the
fork.

:class:`ParallelConfig` collects the harness-level knobs (journal mode,
busy budget, start method); :class:`WorkerResult` carries one worker's
metrics back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.database import OCBDatabase
from repro.core.parameters import WorkloadParameters
from repro.core.scenario import ClientScenarioReport, WorkloadMix
from repro.errors import ParameterError
from repro.store.storage import StoreConfig

__all__ = ["ParallelConfig", "WorkerSpec", "WorkerResult"]

_START_METHODS = (None, "fork", "spawn", "forkserver")


@dataclass(frozen=True)
class ParallelConfig:
    """Harness-level knobs of a process-parallel run."""

    #: Journal mode forced onto shared-file engines.  Multi-process SQLite
    #: needs ``WAL`` (readers never block, writers queue); anything else
    #: is accepted but will serialize aggressively.
    journal_mode: str = "WAL"
    #: Per-connection budget (ms) for retrying locked operations; every
    #: retry is counted by the engine's contention accounting.
    busy_timeout_ms: int = 5000
    #: ``multiprocessing`` start method (``None`` = platform default).
    start_method: Optional[str] = None
    #: Cap on simultaneously live worker processes (``None`` = one per
    #: client, which is the point of a contention benchmark).
    max_workers: Optional[int] = None
    #: ``False`` runs the workers sequentially in this process — same
    #: specs, same results, no parallel wall-clock; the determinism
    #: escape hatch and the fallback when the OS refuses to fork.
    parallel: bool = True
    #: ``synchronous`` pragma for shared SQLite files.  ``NORMAL`` is the
    #: honest WAL setting; the single-user default of ``OFF`` would let
    #: one worker's crash corrupt every other worker's database.
    synchronous: str = "NORMAL"
    #: Shard count for engines with the ``sharded`` capability: the
    #: coordinator partitions storage into this many files and assigns
    #: every worker the home shard of its mutation lane
    #: (``client_id % shards``).  ``None`` keeps the engine's default;
    #: setting it for a non-sharded backend is refused loudly.
    shards: Optional[int] = None
    #: Offered arrival rate (operations/second, summed over workers) for
    #: open-loop pacing of scenario warm phases.  ``None`` keeps the
    #: classic closed loop; a rate splits evenly across workers (each
    #: gets ``rate / clients`` on its own seeded arrival lane) and every
    #: worker records intended-arrival latency + late-start backlog.
    rate: Optional[float] = None
    #: Arrival process for :attr:`rate` (``"poisson"`` or ``"fixed"``).
    arrival_mode: str = "poisson"

    def __post_init__(self) -> None:
        if self.busy_timeout_ms < 0:
            raise ParameterError(
                f"busy_timeout_ms must be >= 0, got {self.busy_timeout_ms}")
        if self.start_method not in _START_METHODS:
            raise ParameterError(
                f"start_method must be one of {_START_METHODS}, "
                f"got {self.start_method!r}")
        if self.max_workers is not None and self.max_workers < 1:
            raise ParameterError(
                f"max_workers must be >= 1, got {self.max_workers}")
        if self.shards is not None and self.shards < 1:
            raise ParameterError(
                f"shards must be >= 1, got {self.shards}")
        if self.rate is not None and self.rate <= 0.0:
            raise ParameterError(
                f"rate must be > 0, got {self.rate}")
        if self.arrival_mode not in ("poisson", "fixed"):
            raise ParameterError(
                f"arrival_mode must be 'poisson' or 'fixed', "
                f"got {self.arrival_mode!r}")


@dataclass
class WorkerSpec:
    """One worker's complete, picklable job description."""

    client_id: int
    database: OCBDatabase
    #: The workload parameters: ``clients`` is the partition width,
    #: ``cold_n``/``hot_n`` the protocol sizes, ``seed`` the substream
    #: seed.
    parameters: WorkloadParameters
    backend: str
    #: The operation mix this client runs.  Mutating mixes on shared
    #: storage run with tolerant write-backs (see the scenario module
    #: docs).
    mix: WorkloadMix
    backend_options: Dict[str, object] = field(default_factory=dict)
    store_config: Optional[StoreConfig] = None
    #: ``True``: attach to storage the coordinator already bulk-loaded
    #: (shared-engine mode); ``False``: build and load a private replica
    #: (engines without the ``concurrent`` capability).
    shared: bool = False
    batch: Optional[bool] = None
    #: Affinity shard of this worker on a sharded engine
    #: (``client_id % shards`` — the residue class its mutation lane
    #: lives in).  ``None`` for non-sharded backends; injected into the
    #: backend options when the worker reconnects on its side of the
    #: fork, so the engine opens its connection set home-shard-first
    #: and accounts ``remote_reads`` / ``remote_writes``.
    home_shard: Optional[int] = None
    #: This worker's share of an open-loop offered rate (ops/second).
    #: ``None`` keeps the closed-loop warm phase; set, the warm phase is
    #: paced by a seeded arrival schedule on the worker's own lane
    #: (substream offset = ``client_id``) and the result's report
    #: carries ``late_starts`` / ``max_backlog``.
    rate: Optional[float] = None
    #: Arrival process for :attr:`rate`.
    arrival_mode: str = "poisson"

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ParameterError(
                f"client_id must be >= 0, got {self.client_id}")
        if self.home_shard is not None and self.home_shard < 0:
            raise ParameterError(
                f"home_shard must be >= 0, got {self.home_shard}")


@dataclass
class WorkerResult:
    """One worker's report, timing and contention counters."""

    client_id: int
    pid: int
    #: The client's cold + warm phases per operation class;
    #: ``report.warm.classic`` is the warm phase per transaction kind.
    report: ClientScenarioReport
    #: Wall-clock of the cold+warm protocol itself.
    wall_seconds: float
    #: Wall-clock of connecting/loading before the protocol started.
    setup_seconds: float
    busy_retries: int = 0
    busy_wait_seconds: float = 0.0
    backend_stats: Dict[str, object] = field(default_factory=dict)

    @property
    def worker_id(self) -> int:
        """Alias of :attr:`client_id` (the report-side naming)."""
        return self.client_id

    @property
    def transactions(self) -> int:
        """Transactions this worker executed (cold + warm)."""
        return (self.report.cold.classic.transaction_count
                + self.report.warm.classic.transaction_count)
