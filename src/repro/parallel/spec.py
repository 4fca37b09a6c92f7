"""Serializable work descriptions for the process-parallel harness.

Everything a worker process needs crosses the process boundary as one
picklable :class:`WorkerSpec`: the generated database (the worker's
logical view) and the :class:`~repro.core.scenario.Scenario` it runs —
the mix, the protocol sizes, the seed whose per-client Lewis–Payne
substream the worker derives from its ``client_id`` exactly as an
in-process :class:`~repro.core.scenario.ScenarioRunner` does (which is
what makes the two execution modes logically identical), and the
backend name + options the worker resolves through the registry on its
side of the fork.

:class:`ParallelConfig` collects the harness-level knobs (journal mode,
busy budget, start method).  A worker's result is the
:class:`~repro.core.scenario.ClientScenarioReport` it builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.database import OCBDatabase
from repro.core.scenario import Scenario
from repro.errors import ParameterError

__all__ = ["ParallelConfig", "WorkerSpec"]

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


@dataclass
class WorkerSpec:
    """One worker's complete, picklable job description."""

    client_id: int
    database: OCBDatabase
    #: The scenario this client runs, its ``backend_options`` resolved
    #: by the coordinator (shared file path, journal mode, busy budget).
    #: ``clients`` is the partition width; mutating mixes on shared
    #: storage run with tolerant write-backs (see the scenario module
    #: docs).
    scenario: Scenario
    #: ``True``: attach to storage the coordinator already bulk-loaded
    #: (shared-engine mode); ``False``: build and load a private replica
    #: (engines without the ``concurrent`` capability).
    shared: bool = False
    #: Affinity shard of this worker on a sharded engine
    #: (``client_id % shards`` — the residue class its mutation lane
    #: lives in).  ``None`` for non-sharded backends; injected into the
    #: backend options when the worker reconnects on its side of the
    #: fork, so the engine opens its connection set home-shard-first
    #: and accounts ``remote_reads`` / ``remote_writes``.
    home_shard: Optional[int] = None

    def __post_init__(self) -> None:
        if self.client_id < 0:
            raise ParameterError(
                f"client_id must be >= 0, got {self.client_id}")
        if self.home_shard is not None and self.home_shard < 0:
            raise ParameterError(
                f"home_shard must be >= 0, got {self.home_shard}")
