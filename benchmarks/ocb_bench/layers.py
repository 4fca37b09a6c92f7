"""Per-layer tracing for the OCB bench, done entirely from the outside.

Nothing under ``src/`` is instrumented for the benchmark.  Instead a
:class:`SpanRecorder` times the calls *into* each layer's public
functions:

* a delegating engine proxy (:class:`EngineProxy`) for ``backends.sqlite``
  or ``store.storage``;
* a :class:`TracedSession` subclass of ``core.session.Session``;
* instance wrappers on the clustering policy (``clustering.dstc``) and on
  the store's ``SwizzleTable`` (``store.swizzle``);
* wrappers bound onto ``run_transaction`` (``core.transactions``) and the
  serializer functions (``store.serializer``) at the modules that import
  them, which is where the engines and the executor look them up.

Each span is one tuple ``(name, id, parent id, op id, start ns, end ns,
size)``; spans stay in memory until the caller writes them out.  A
layer's self time is its spans' durations minus the time their direct
children cover, so the self times of one op sum to its root span.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import repro.backends.sqlite as sqlite_module
import repro.core.scenario as scenario_module
import repro.store.storage as storage_module
from repro.clustering.base import NoClustering
from repro.core.session import Session

#: Layer names, in the order the per-layer shares are reported.  A span's
#: layer is the part of its name before the first dot.
LAYERS = ("scenario", "transactions", "session", "dstc", "sqlite",
          "storage", "swizzle", "serializer")

Span = Tuple[str, int, int, int, int, int, int]
SizeOf = Callable[[tuple, object], int]


def _one(args: tuple, result: object) -> int:
    return 1


def _result_len(args: tuple, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _first_arg_len(args: tuple, result: object) -> int:
    return len(args[0])


def _result_int(args: tuple, result: object) -> int:
    return int(result or 0)  # type: ignore[call-overload]


#: Engine methods the proxy times, with the rows each call moves.
ENGINE_METHODS: Dict[str, Dict[str, Optional[SizeOf]]] = {
    "sqlite": {"read_object": _one, "read_many": _result_len,
               "traverse_refs_many": _result_len,
               "write_object": _one, "write_many": _first_arg_len,
               "insert_object": _one, "delete_object": _one,
               "flush": None},
    "storage": {"read_object": _one, "write_object": _one,
                "insert_object": _one, "delete_object": _one,
                "flush": None},
}

#: Module globals rebound while tracing: (module, layer, names, size).
#: The engines and the executor resolve these names at call time, so
#: rebinding them at the import site times every call.
_SITES = (
    (sqlite_module, "serializer",
     ("decode_object", "decode_object_lazy", "decode_refs"), _first_arg_len),
    (sqlite_module, "serializer", ("encode_object",), _result_len),
    (storage_module, "serializer",
     ("decode_object", "decode_object_lazy"), _first_arg_len),
    (storage_module, "serializer", ("encode_object",), _result_len),
    (scenario_module, "transactions", ("run_transaction",), None),
)

_SESSION_METHODS = ("access", "touch", "prefetch", "traverse_refs_many",
                    "write_record", "write_records", "insert_record",
                    "delete_record", "flush", "end_transaction")


class SpanRecorder:
    """Collects nested spans in memory; ``op`` tags spans with an op id."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn: Callable, size: Optional[SizeOf] = None
             ) -> Callable:
        """*fn* wrapped so every call records one span named *name*."""
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        recorder = self

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((name, span_id, parent, recorder.op, start, end,
                          size(args, result) if size is not None else 0))
            return result

        return traced

    def write_jsonl(self, path: str, **tags: object) -> None:
        """Append every span to *path* as one JSON object per line."""
        with open(path, "a", encoding="utf-8") as handle:
            for name, span_id, parent, op, start, end, size in self.spans:
                handle.write(json.dumps({
                    "name": name, "id": span_id, "parent": parent, "op": op,
                    "start_ns": start, "end_ns": end, "size": size,
                    **tags}) + "\n")


class EngineProxy:
    """Delegates to an engine, timing the calls into its public surface."""

    def __init__(self, recorder: SpanRecorder, engine: object,
                 layer: str) -> None:
        self._engine = engine
        for method, size in ENGINE_METHODS[layer].items():
            setattr(self, method, recorder.wrap(
                f"{layer}.{method}", getattr(engine, method), size))

    def __getattr__(self, name: str) -> object:
        return getattr(self._engine, name)


class TracedSession(Session):
    """A ``Session`` whose public access and mutation calls are spans."""

    def __init__(self, recorder: SpanRecorder, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        for method in _SESSION_METHODS:
            setattr(self, method, recorder.wrap(
                f"session.{method}", getattr(self, method)))


@contextmanager
def instrumented(recorder: SpanRecorder, store: object,
                 policy: object) -> Iterator[None]:
    """Rebind the import sites and wrap the policy and swizzle table.

    Everything is restored on exit, so untraced phases before and after
    run the program's own functions.
    """
    saved = []
    for module, layer, names, size in _SITES:
        for name in names:
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name,
                    recorder.wrap(f"{layer}.{name}", original, size))
    wrapped = []
    targets = [(getattr(store, "swizzle", None), "swizzle",
                ("swizzle_in", "unswizzle_page"), _result_int)]
    if not isinstance(policy, NoClustering):
        targets.append((policy, policy.name,
                        ("observe_access", "on_transaction_end"), None))
    for target, layer, names, size in targets:
        if target is None:
            continue
        for name in names:
            setattr(target, name, recorder.wrap(
                f"{layer}.{name}", getattr(target, name), size))
            wrapped.append((target, name))
    try:
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
        for target, name in wrapped:
            delattr(target, name)


def summarize(spans: Sequence[Span], ops: int, engine_layer: str
              ) -> Dict[str, float]:
    """Span-derived per-layer metrics for *ops* traced operations.

    Self-time shares are percentages of the summed root-span time; the
    counts are per op.  ``trace.self_ns`` and ``trace.root_ns`` are the
    raw totals the caller checks against its own op timings.
    """
    covered: Dict[int, int] = defaultdict(int)
    for _name, _id, parent, _op, start, end, _size in spans:
        covered[parent] += end - start
    self_ns: Dict[str, int] = defaultdict(int)
    by_call: Dict[str, int] = defaultdict(int)
    reading_parents = set()
    sizes: Dict[str, int] = defaultdict(int)
    calls: Dict[str, int] = defaultdict(int)
    for name, span_id, parent, _op, start, end, size in spans:
        own = end - start - covered[span_id]
        self_ns[name.split(".", 1)[0]] += own
        by_call[name] += own
        calls[name] += 1
        sizes[name] += size
        if name == f"{engine_layer}.read_object":
            reading_parents.add(parent)
    root_ns = covered[0]
    per_op = 1.0 / ops if ops else 0.0
    metrics = {f"{layer}.self_share": 100.0 * self_ns[layer] / root_ns
               if root_ns else 0.0 for layer in LAYERS}
    metrics.update({f"call.{name}.self_ms_per_op": own * per_op / 1e6
                    for name, own in sorted(by_call.items())})
    serves = [span_id for name, span_id, *_ in spans
              if name in ("session.access", "session.touch")]
    hits = sum(1 for span_id in serves if span_id not in reading_parents)
    rows_read = sum(sizes[f"sqlite.{method}"] for method in
                    ("read_object", "read_many", "traverse_refs_many"))
    rows_used = len(serves) + sizes["sqlite.traverse_refs_many"]
    metrics.update({
        "trace.op_ms": root_ns * per_op / 1e6,
        "trace.self_ns": float(sum(self_ns.values())),
        "trace.root_ns": float(root_ns),
        "session.calls_per_op": sum(
            count for name, count in calls.items()
            if name.startswith("session.")) * per_op,
        "session.prefetch_hit_ratio": hits / len(serves) if serves else 0.0,
        "sqlite.rows_read_per_op": rows_read * per_op,
        "sqlite.useful_row_ratio": min(rows_used, rows_read) / rows_read
        if rows_read else 0.0,
        "serializer.bytes_decoded_per_op": sum(
            sizes[f"serializer.{name}"] for name in
            ("decode_object", "decode_object_lazy", "decode_refs")) * per_op,
        "serializer.bytes_encoded_per_op":
            sizes["serializer.encode_object"] * per_op,
    })
    return metrics
