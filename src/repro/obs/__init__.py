"""Observability: tracing, profiling, latency histograms, run context.

Four pieces, deliberately dependency-light so the hot paths can import
them without cycles:

* :mod:`repro.obs.trace` — a span/event tracer with a ring-buffered
  in-process collector and an optional JSONL sink.  Emission is guarded
  by a module flag (``trace.enabled``) so a traced-off run executes no
  tracer code at all on the hot paths.
* :mod:`repro.obs.profiler` — :mod:`cProfile` behind the same
  off-by-default module switch: ``--profile FILE`` wraps a whole CLI
  command and answers *which functions* burned the time (the tracer
  answers *which spans*).
* :mod:`repro.obs.latency` — the memory-bounded log-bucketed
  :class:`~repro.obs.latency.LatencyHistogram` and the
  coordinated-omission-correct
  :class:`~repro.obs.latency.LatencyCollector` (response vs service
  time against *intended* arrivals) the open-loop driver records into.
* :mod:`repro.obs.monitor` — :func:`~repro.obs.monitor.system_info`,
  the run context (git rev, platform, CPU count) a recorded result
  carries.
"""

from repro.obs import profiler, trace
from repro.obs.latency import LatencyCollector, LatencyHistogram
from repro.obs.monitor import system_info

__all__ = [
    "profiler",
    "trace",
    "LatencyCollector",
    "LatencyHistogram",
    "system_info",
]
