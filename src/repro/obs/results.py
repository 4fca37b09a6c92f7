"""The one ``BENCH_*.json`` result schema every emission path shares.

Benchmark results used to die with the terminal, and the three harnesses
that did emit JSON (``benchmarks/bench_parallel.py``,
``bench_scenarios.py``, ``ocb scale --json``) each invented their own
shape.  This module is the single writer they now share: a
schema-versioned document of the form ::

    {
      "schema_version": 1,
      "kind": "matrix" | "scale_sweep" | "parallel_scaling"
              | "scenario_contention",
      "name": "...",                    # spec / harness name
      "created": "2026-08-07T12:34:56Z",
      "system": { git_rev, platform, python, cpu_count, hostname, ... },
      "config": { ... },                # the spec that produced the run
      "cells": [ {flat metric mapping}, ... ]
    }

``docs/bench_schema.md`` describes every field; :func:`validate_document`
enforces the contract (hand-rolled — no jsonschema dependency) and is
what the CI ``bench-smoke`` leg runs against freshly emitted files.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ParameterError
from repro.obs.monitor import system_info

__all__ = [
    "SCHEMA_VERSION",
    "KINDS",
    "build_document",
    "validate_document",
    "default_filename",
    "write_document",
    "load_document",
]

SCHEMA_VERSION = 1

#: Document kinds the schema knows.  ``matrix`` is the ``ocb bench``
#: experiment matrix; ``shard_scaling`` is the sharded-vs-single-file
#: write-throughput curve of ``bench_parallel.py --backend
#: sharded-sqlite``; ``load_sweep`` is the ``ocb loadtest``
#: offered-rate sweep (one cell per rate, coordinated-omission-correct
#: latency split + DES-predicted waits); ``decode_fastpath`` is the
#: ``bench_decode.py`` A/B — decoded vs lazy vs structure-only cells
#: over the same mix, with the decode counters alongside the latency
#: tail; the other three are the unified shapes of the pre-existing
#: harnesses.
KINDS = ("matrix", "scale_sweep", "parallel_scaling",
         "scenario_contention", "shard_scaling", "load_sweep",
         "decode_fastpath")

#: Keys every ``system`` mapping must carry.
_SYSTEM_KEYS = ("git_rev", "platform", "python", "cpu_count", "hostname")

#: Keys every cell of a ``matrix`` document must carry (the acceptance
#: surface of a persisted perf trajectory: identity, latency tail,
#: throughput, resources, contention).
MATRIX_CELL_KEYS = (
    "backend", "scenario", "clients", "mode",
    "operations", "throughput", "elapsed_seconds",
    "wall_p50_ms", "wall_p95_ms", "wall_p99_ms",
    "busy_retries", "cpu_seconds", "peak_rss_kb",
)

#: Keys every cell of a ``load_sweep`` document must carry: identity,
#: the offered-vs-achieved pair, the coordinated-omission-correct
#: latency split (response from *intended* arrival, service from actual
#: start), backlog accounting, the knee verdict, and the DES
#: predicted-vs-measured wait pair.  ``wall_p95_ms`` aliases the
#: service-time P95 so the ``--compare`` gate shared with ``ocb bench``
#: regresses on the engine number, not the queueing tail.
LOAD_CELL_KEYS = (
    "backend", "scenario", "clients",
    "offered_rate", "arrival_mode", "operations",
    "throughput", "elapsed_seconds", "wall_p95_ms",
    "response_p50_ms", "response_p95_ms", "response_p99_ms",
    "response_p999_ms",
    "service_p50_ms", "service_p95_ms", "service_p99_ms",
    "service_p999_ms",
    "wait_mean_ms", "late_starts", "max_backlog",
    "saturated", "knee",
)


def build_document(kind: str, cells: Sequence[Mapping[str, object]],
                   config: Optional[Mapping[str, object]] = None,
                   name: str = "ocb",
                   system: Optional[Mapping[str, object]] = None) -> dict:
    """Assemble (and validate) one result document."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "name": name,
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "system": dict(system) if system is not None else system_info(),
        "config": dict(config or {}),
        "cells": [dict(cell) for cell in cells],
    }
    return validate_document(document)


def validate_document(document: object) -> dict:
    """Check *document* against the schema; raises on any violation.

    Returns the document so emission paths can validate inline.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        raise ParameterError(
            f"a BENCH document must be a JSON object, got "
            f"{type(document).__name__}")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    kind = document.get("kind")
    if kind not in KINDS:
        problems.append(f"kind must be one of {KINDS}, got {kind!r}")
    if not isinstance(document.get("name"), str):
        problems.append("name must be a string")
    if not isinstance(document.get("created"), str):
        problems.append("created must be an ISO-8601 string")
    system = document.get("system")
    if not isinstance(system, dict):
        problems.append("system must be a mapping")
    else:
        for key in _SYSTEM_KEYS:
            if key not in system:
                problems.append(f"system is missing {key!r}")
    if not isinstance(document.get("config"), dict):
        problems.append("config must be a mapping")
    cells = document.get("cells")
    if not isinstance(cells, list) or not cells:
        problems.append("cells must be a non-empty list")
    else:
        for index, cell in enumerate(cells):
            if not isinstance(cell, dict):
                problems.append(f"cells[{index}] must be a mapping")
                continue
            if kind == "matrix":
                missing = [key for key in MATRIX_CELL_KEYS
                           if key not in cell]
                if missing:
                    problems.append(
                        f"cells[{index}] is missing {missing}")
            elif kind == "load_sweep":
                missing = [key for key in LOAD_CELL_KEYS
                           if key not in cell]
                if missing:
                    problems.append(
                        f"cells[{index}] is missing {missing}")
    if problems:
        raise ParameterError(
            "invalid BENCH document: " + "; ".join(problems))
    return document  # type: ignore[return-value]


def default_filename(created: Optional[str] = None) -> str:
    """``BENCH_<date>.json`` for *created* (default: today, UTC)."""
    if created:
        date = created.split("T", 1)[0]
    else:
        date = time.strftime("%Y-%m-%d", time.gmtime())
    return f"BENCH_{date}.json"


def write_document(document: Mapping[str, object],
                   path: Optional[str] = None,
                   directory: str = ".") -> str:
    """Validate and persist *document*; returns the written path.

    ``path=None`` derives ``BENCH_<date>.json`` from the document's
    ``created`` stamp inside *directory*.
    """
    document = validate_document(dict(document))
    if path is None:
        path = os.path.join(
            directory, default_filename(str(document.get("created", ""))))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_document(path: str) -> dict:
    """Read and validate a persisted ``BENCH_*.json``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ParameterError(
            f"cannot read BENCH document {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ParameterError(
            f"invalid JSON in BENCH document {path!r}: {exc}") from exc
    return validate_document(document)


def collector_dict(collector) -> Dict[str, object]:
    """A trace collector folded into a JSON-ready side channel."""
    from repro.obs import trace
    return {
        "records": collector.total,
        "dropped": collector.dropped,
        "by_name": [
            {"name": name, "count": count, "total_s": total,
             "mean_ms": mean * 1e3, "p999_ms": p999 * 1e3}
            for name, count, total, mean, p999
            in trace.summary(collector)],
    }
