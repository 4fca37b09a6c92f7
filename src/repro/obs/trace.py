"""Per-operation tracing: timed records in a JSONL file, self time by layer.

The tracer answers the question every benchmark report leaves open:
*where did the wall time actually go* — record decode vs SQL round trip
vs busy-wait backoff vs think time.  Instrumented call sites live in the
kernel (:meth:`repro.core.session.Session.measure`), the SQLite
backend's query paths, the scenario executor and the process-parallel
worker; each one emits a named record with free-form attributes.

Zero overhead when off
----------------------

Tracing is **disabled by default** and every instrumented call site is
guarded by the module flag::

    from repro.obs import trace
    ...
    if trace.enabled:
        trace.emit("sqlite.read_many", started, oids=len(chunk))

so a traced-off run executes no tracer code at all — not even an empty
function call — on the hot paths the kernel batching work optimized.
``tests/obs/test_trace.py`` pins this by replacing :func:`emit` and
:func:`span` with spies and asserting a full ``ocb run`` never calls
them.

Two emission styles
-------------------

* :func:`emit` — post-hoc: the caller passes the ``time.perf_counter()``
  reading it took when the section began; the record starts there and
  ends at the emission instant.  The cheap style for hot paths.  Without
  a start reading it is an instantaneous event.
* :func:`span` — a context manager for structural sections (a protocol
  phase, one scenario operation): it times the body.

Garbage collection
------------------

While tracing is on, and only then, :func:`enable` installs a
``gc.callbacks`` hook that writes one ``gc.collect`` record per
collection, with its ``generation`` and the ``collected`` and
``uncollectable`` counts.  A collection's time would otherwise land in
the self time of whichever record was open; as a record of its own it
is the ``gc`` layer of :func:`summary`.  :func:`disable` removes the
hook, and an untraced run never installs it.

The file is the store
---------------------

:func:`enable` truncates the trace file once, in the process that turns
tracing on; every record is then appended as one JSON line
``{"name", "pid", "start_ns", "end_ns", "attrs"}`` by a single
``write()`` on an append-mode descriptor, so forked worker processes
that inherit it cannot tear or interleave lines.  Nothing is kept in
memory.

:func:`spans` streams a file back and gives each record its parent: the
innermost record of the same pid whose interval contains it.  A record's
self time is its duration minus its children's, so the self times of a
pid sum exactly to the duration of its root records.  :func:`summary`
folds that into per-name rows and per-layer self shares, a record's
layer being the part of its name before the first dot.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs.latency import LatencyHistogram

__all__ = [
    "enabled",
    "enable",
    "disable",
    "emit",
    "span",
    "Span",
    "spans",
    "Row",
    "Summary",
    "summary",
]

#: The one guard every instrumented call site checks before touching the
#: tracer.  Toggled only by :func:`enable` / :func:`disable`.
enabled = False

_fd: Optional[int] = None


#: Start of the collection in progress (``gc.callbacks`` start phase).
_gc_start_ns = 0
#: Set while :func:`_write` formats and writes a record.
_writing = False
#: Collections that ran inside :func:`_write`, written after its record.
_gc_pending: List[Tuple[int, int, Dict[str, object]]] = []


def enable(path: str) -> None:
    """Truncate *path* and append every record to it from now on."""
    global enabled, _fd
    disable()
    _fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
                  0o644)
    enabled = True
    gc.callbacks.append(_on_gc)


def disable() -> None:
    """Turn tracing off and close the trace file."""
    global enabled, _fd
    enabled = False
    if _on_gc in gc.callbacks:
        gc.callbacks.remove(_on_gc)
    _gc_pending.clear()
    if _fd is not None:
        os.close(_fd)
        _fd = None


def _on_gc(phase: str, info: Dict[str, int]) -> None:
    """The ``gc.callbacks`` hook: one ``gc.collect`` record per
    collection, with its generation and what it freed."""
    global _gc_start_ns
    if phase == "start":
        _gc_start_ns = time.perf_counter_ns()
        return
    if not enabled or not _gc_start_ns:
        return
    record = (_gc_start_ns, time.perf_counter_ns(),
              {"generation": info["generation"],
               "collected": info["collected"],
               "uncollectable": info["uncollectable"]})
    _gc_start_ns = 0
    if _writing:
        # A record being written ended before this collection began;
        # writing it first keeps every pid's lines in end order.
        _gc_pending.append(record)
    else:
        _write("gc.collect", *record)


def _write(name: str, start_ns: int, end_ns: int,
           attrs: Dict[str, object]) -> None:
    global _writing
    _writing = True
    try:
        line = json.dumps({"name": name, "pid": os.getpid(),
                           "start_ns": start_ns, "end_ns": end_ns,
                           "attrs": attrs}, sort_keys=True) + "\n"
        os.write(_fd, line.encode("utf-8"))  # type: ignore[arg-type]
    finally:
        _writing = False
    while _gc_pending:
        _write("gc.collect", *_gc_pending.pop(0))


def emit(name: str, start: Optional[float] = None, **attrs: object) -> None:
    """Record a section that began at *start* and ended now.

    *start* is the ``time.perf_counter()`` reading taken when the
    section began (``None``: an instantaneous event).  The record keeps
    that reading as its start, so nothing done between the end of the
    section and this call — evaluating the attributes, a preemption —
    moves the start and lets a child that began just after it escape.
    Callers on hot paths must guard with ``if trace.enabled:`` — this
    function also no-ops when tracing is off, but the guard is what
    keeps the disabled cost at a single attribute read.
    """
    if not enabled:
        return
    end = time.perf_counter_ns()
    _write(name, end if start is None else round(start * 1e9), end, attrs)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[None]:
    """Time the body as one record (written when the body exits)."""
    if not enabled:
        yield
        return
    start = time.perf_counter_ns()
    try:
        yield
    finally:
        _write(name, start, time.perf_counter_ns(), attrs)


class Span(NamedTuple):
    """One record of a trace file, placed in its pid's call tree."""

    name: str
    pid: int
    start_ns: int
    end_ns: int
    attrs: Dict[str, object]
    #: Duration minus the durations of the direct children.
    self_ns: int
    #: The enclosing record's name (``None`` for a root).
    parent: Optional[str] = None


def spans(path: str) -> Iterator[Span]:
    """Stream *path*, yielding every record with its parent and self time.

    A process writes each record the moment it ends, so a pid's lines
    arrive in end order and every child precedes its parent.  Each pid
    keeps a stack of records still waiting for a parent; a new record
    adopts the waiting records that start at or after its own start.
    Records are yielded once their parent is known, so the order is not
    the file's, and memory holds only the records still waiting.
    """
    waiting: Dict[int, List[Span]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            raw = json.loads(line)
            name, pid = raw["name"], raw["pid"]
            start, end = raw["start_ns"], raw["end_ns"]
            stack = waiting.setdefault(pid, [])
            children = 0
            if end > start:
                while stack and stack[-1].start_ns >= start:
                    child = stack.pop()
                    children += child.end_ns - child.start_ns
                    yield child._replace(parent=name)
            stack.append(Span(name, pid, start, end, raw["attrs"],
                              end - start - children))
    for stack in waiting.values():
        yield from stack


class Row(NamedTuple):
    """Per-name totals of a trace, in seconds."""

    name: str
    count: int
    total: float
    self_time: float
    p999: float


class Summary(NamedTuple):
    """What :func:`summary` derives from one trace file."""

    records: int
    #: Summed duration of the root records, over every pid.
    root_ns: int
    #: Per-name rows, largest total first (enclosing records lead).
    rows: List[Row]
    #: Layer -> percent of ``root_ns`` spent in that layer's own code,
    #: largest first; the shares sum to 100.
    layers: List[Tuple[str, float]]


def summary(path: str) -> Summary:
    """Per-name count/total/self/P99.9 rows and per-layer self shares.

    The P99.9 column folds each name's durations through a bounded
    log-bucketed histogram (relative error <= 1 %), so a stall that a
    mean would average away still shows.
    """
    records = root_ns = 0
    totals: Dict[str, List[int]] = {}
    histograms: Dict[str, LatencyHistogram] = {}
    layer_ns: Dict[str, int] = {}
    for record in spans(path):
        records += 1
        duration = record.end_ns - record.start_ns
        if record.parent is None:
            root_ns += duration
        entry = totals.setdefault(record.name, [0, 0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += record.self_ns
        histograms.setdefault(record.name, LatencyHistogram()).record(
            duration / 1e9)
        layer = record.name.split(".", 1)[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + record.self_ns
    rows = [Row(name, count, total / 1e9, own / 1e9,
                histograms[name].percentile(99.9))
            for name, (count, total, own) in totals.items()]
    rows.sort(key=lambda row: row.total, reverse=True)
    layers = [(layer, 100.0 * own / root_ns if root_ns else 0.0)
              for layer, own in layer_ns.items()]
    layers.sort(key=lambda item: item[1], reverse=True)
    return Summary(records, root_ns, rows, layers)
