"""The four OCB bench workloads: inputs, one measured round, checks.

A *round* builds its inputs from the seed, warms the caches with an
untimed cold phase, measures a closed loop of one client (THINK = 0),
optionally re-runs the measured ops under the tracer, and checks the
program's outputs.  :func:`aggregate` folds rounds into the reported
metrics.  ``run.py`` runs every round in a fresh child process; tests
call :func:`run_round` in-process with tiny :class:`Sizes`.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import layers
from repro.backends.memory import MemoryBackend
from repro.backends.sqlite import SQLiteBackend
from repro.clustering.base import NoClustering, PlacementContext
from repro.core.database import OCBDatabase
from repro.core.generation import generate_database, generate_schema
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
)
from repro.core.scenario import (
    ClientExecutor,
    MixEntry,
    ScenarioCollector,
    WorkloadMix,
)
from repro.core.session import Session
from repro.experiments import _dstc_policy
from repro.rand.lewis_payne import LewisPayne
from repro.store.storage import ObjectStore

#: The class graph (Table 1's schema step) is drawn once from this seed;
#: ``--seed`` drives the instances, their references and every op
#: stream.  A schema drawn per seed changes object sizes and fan-out so
#: much that throughput moved 1.7x between seeds, which no bound could
#: absorb.
SCHEMA_SEED = 19980323

#: Lewis-Payne substream base for the op streams of each round.
_STREAM = 0x0CB_BE00


@dataclass(frozen=True)
class Sizes:
    """How big one round is.  Tests pass tiny ones."""

    num_objects: int
    #: Untimed operations that warm the caches before measuring.
    cold_ops: int
    #: SQLite page cache, or the simulated store's LRU buffer, in pages.
    cache_pages: int
    #: ``dstc_recluster`` only: warm transactions per before/after phase.
    phase_ops: int = 0
    #: Caps a time-bounded warm phase; ``None`` bounds it by time alone.
    max_warm_ops: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    """One workload: what runs, on which engine, at which size."""

    name: str
    mix: WorkloadMix
    sizes: Sizes
    #: ``"sqlite"`` (file database) or ``"storage"`` (simulated Texas store).
    engine: str = "sqlite"
    ref_index: bool = False


def _table2_mix(name: str, max_visits: int = 5000) -> WorkloadMix:
    parameters = dataclasses.replace(default_workload_parameters(),
                                     max_visits=max_visits)
    return WorkloadMix.from_workload_parameters(parameters, name=name)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Table 2's mix on a file database 20x the page cache: the decoded
    # read path (session prefetch, read_many, decode_object).
    Workload("ocb_txn", _table2_mix("ocb_txn"),
             Sizes(num_objects=20000, cold_ops=80, cache_pages=128)),
    # Structure-only BFS over a database that fits the cache: per-call
    # overhead of traverse_refs_many + decode_refs, no record decode.
    Workload("graph_walk", WorkloadMix(name="graph_walk", entries=(
        MixEntry("structure_traversal", depth=5, max_visits=500),)),
        Sizes(num_objects=2000, cold_ops=1200, cache_pages=1024)),
    # Writes: encode, write_many, link reindexing and one commit per op.
    Workload("write_mix", WorkloadMix(name="write_mix", entries=(
        MixEntry("insert", weight=0.25),
        MixEntry("update", weight=0.50),
        MixEntry("delete", weight=0.10),
        MixEntry("simple", weight=0.15, depth=2))),
        Sizes(num_objects=20000, cold_ops=600, cache_pages=128),
        ref_index=True),
    # Table 5: DSTC before/after reclustering on the simulated store,
    # 464 pages against a 170-page LRU buffer.
    Workload("dstc_recluster", _table2_mix("dstc_recluster", max_visits=2000),
             Sizes(num_objects=4000, cold_ops=10, cache_pages=170,
                   phase_ops=50),
             engine="storage"),
)}

#: Tiny sizes for tests: each round takes a fraction of a second.
TINY: Dict[str, Sizes] = {
    "ocb_txn": Sizes(num_objects=400, cold_ops=4, cache_pages=16,
                     max_warm_ops=24),
    "graph_walk": Sizes(num_objects=300, cold_ops=10, cache_pages=64,
                        max_warm_ops=40),
    "write_mix": Sizes(num_objects=400, cold_ops=10, cache_pages=16,
                       max_warm_ops=60),
    "dstc_recluster": Sizes(num_objects=400, cold_ops=4, cache_pages=16,
                            phase_ops=12),
}


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #

def build_database(sizes: Sizes, seed: int) -> OCBDatabase:
    """Table 1's database on the pinned schema, instances from *seed*."""
    schema, _removed = generate_schema(
        default_database_parameters(seed=SCHEMA_SEED))
    parameters = dataclasses.replace(
        default_database_parameters(seed=seed),
        num_objects=sizes.num_objects,
        fixed_tref=tuple(tuple(c.tref) for c in schema),
        fixed_cref=tuple(tuple(target or 0 for target in c.cref)
                         for c in schema))
    database, _report = generate_database(parameters)
    return database


def _rng(seed: int, round_index: int, phase: int) -> LewisPayne:
    """The op stream of one phase (0 cold, 1 warm) of one round."""
    return LewisPayne(seed).spawn(_STREAM + 2 * round_index + phase)


# ---------------------------------------------------------------------- #
# Executing ops
# ---------------------------------------------------------------------- #

class _Collector(ScenarioCollector):
    """Remembers the class of the op it recorded last."""

    last = ""

    def record_transaction(self, result, *args, **kwargs) -> None:
        self.last = result.kind.value
        super().record_transaction(result, *args, **kwargs)

    def record_operation(self, result, *args, **kwargs) -> None:
        self.last = result.operation.value
        super().record_operation(result, *args, **kwargs)


class _Tally:
    """Attempted and failed ops of a round, plus the first tracebacks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def step(self, call: Callable[[_Collector], None],
             collector: _Collector) -> bool:
        """One ``ClientExecutor.step``; an exception counts as a failure."""
        self.attempted += 1
        try:
            call(collector)
        except Exception:  # noqa: BLE001 - the run must go on; counted.
            self.failed += 1
            if len(self.errors) < 3:
                self.errors.append(traceback.format_exc(limit=4))
            return False
        return True


#: A measured op counts only when the host probes on both sides of it ran
#: within this factor of the fastest probe of its phase.  The 2-vCPU
#: hosts this was written on alternate, for seconds at a time, between
#: their normal speed and one about 1.6x slower (a busy neighbour on a
#: shared core); ops timed in the slow state say nothing about the program.
FAST_HOST = 1.25

#: Op times are reported scaled to a host whose probe takes this long:
#: a time t measured while the fast-state probes took p microseconds is
#: reported as t * REFERENCE_PROBE_US / p.  Within the fast state the
#: host's speed still drifts by several percent between runs, and op
#: times follow the probe (across ten graph_walk runs, throughput times
#: probe time spread 1.7% where throughput alone spread 6.1%).
REFERENCE_PROBE_US = 70.0

#: Host probes run on each side of a round's set-up.
_SETUP_PROBES = 10


def host_probe(clock: Callable[[], float] = time.perf_counter) -> float:
    """Seconds a fixed pure-Python loop of about 0.07 ms takes right now."""
    start = clock()
    total = 0
    for value in range(2500):
        total += value
    return clock() - start


@dataclass
class _Phase:
    """What one phase executed, as the replay needs it."""

    rng_phase: int
    ops: int
    collector: _Collector
    #: (op class, seconds, host was fast) of every successful op.
    samples: List[Tuple[str, float, bool]] = dataclasses.field(
        default_factory=list)
    #: The phase's host probes that ran in the fast state, in seconds.
    fast_probes: List[float] = dataclasses.field(default_factory=list)


def _run_phase(database: OCBDatabase, mix: WorkloadMix, session: Session,
               rng: LewisPayne, tally: _Tally, *, ops: Optional[int] = None,
               seconds: Optional[float] = None, probe: bool = False,
               recorder: Optional[layers.SpanRecorder] = None,
               rng_phase: int = 0) -> _Phase:
    """Closed loop: *ops* steps, or as many as fit in *seconds*.

    With *probe*, :func:`host_probe` runs between ops (outside their
    timing) and each sample records whether the host was fast around it.
    """
    executor = ClientExecutor(database, mix, session, rng=rng)
    phase = _Phase(rng_phase=rng_phase, ops=0, collector=_Collector("p"))
    clock = time.perf_counter
    call = executor.step
    if recorder is not None:
        call = recorder.wrap("scenario.step", executor.step)
    probes: List[float] = []
    timed: List[Tuple[str, float, int]] = []
    deadline = clock() + seconds if seconds is not None else None
    while True:
        if probe:
            probes.append(host_probe(clock))
        begin = clock()
        if ops is not None and phase.ops >= ops:
            break
        if deadline is not None and begin >= deadline:
            break
        phase.ops += 1
        if recorder is not None:
            recorder.op = phase.ops
        if tally.step(call, phase.collector):
            timed.append((phase.collector.last, clock() - begin,
                          len(probes) - 1))
    limit = FAST_HOST * min(probes) if probes else 0.0
    phase.fast_probes = [value for value in probes if value <= limit]
    phase.samples = [
        (kind, elapsed, not probes or
         (probes[index] <= limit and probes[index + 1] <= limit))
        for kind, elapsed, index in timed]
    return phase


def digest(phases: List[_Phase]) -> List[Dict[str, List[int]]]:
    """Per phase and op class: ops executed and objects they touched."""
    return [{kind: [stats.count, stats.objects]
             for kind, stats in sorted(phase.collector.per_class.items())}
            for phase in phases]


def _replay(workload: Workload, sizes: Sizes, seed: int, round_index: int,
            phases: List[_Phase]) -> List[Dict[str, List[int]]]:
    """The same op streams on the ``memory`` engine, untimed."""
    database = build_database(sizes, seed)
    engine = MemoryBackend()
    database.load_into(engine)
    session = Session(engine, tref_table=database.tref_table(),
                      catalog=database.catalog())
    replayed = [_run_phase(database, workload.mix, session,
                           _rng(seed, round_index, phase.rng_phase),
                           _Tally(), ops=phase.ops)
                for phase in phases]
    return digest(replayed)


def read_back_matches(engine: object, database: OCBDatabase) -> bool:
    """Every live object reads back exactly as the executor's view has it."""
    live = sorted(database.objects)
    if engine.object_count != len(live):
        return False
    stored = engine.read_many(live)
    return all(stored[oid] == database.to_record(oid) for oid in live)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(sizes: Sizes, seed: int, engine: object
            ) -> Tuple[OCBDatabase, Dict[str, float]]:
    """Generate the database and bulk-load *engine*; time both.

    Host probes just before and after scale the times to the reference
    host, as the op times are.
    """
    probes = [host_probe() for _ in range(_SETUP_PROBES)]
    started = time.perf_counter()
    database = build_database(sizes, seed)
    generated = time.perf_counter()
    database.load_into(engine)
    engine.reset_stats()
    loaded = time.perf_counter()
    probes += [host_probe() for _ in range(_SETUP_PROBES)]
    scale = REFERENCE_PROBE_US / (statistics.median(probes) * 1e6)
    return database, {"generate_s": (generated - started) * scale,
                      "bulk_load_s": (loaded - generated) * scale,
                      "setup_as_timed_s": loaded - started}


# ---------------------------------------------------------------------- #
# Rounds
# ---------------------------------------------------------------------- #

def run_round(name: str, seed: int, round_index: int = 0,
              seconds: float = 2.0, trace: bool = False,
              sizes: Optional[Sizes] = None, workdir: str = ".",
              wrap_engine: Optional[Callable[[object], object]] = None,
              spans_path: Optional[str] = None) -> dict:
    """One round of workload *name*; returns a JSON-ready result.

    *seconds* bounds the measured phase of the time-bounded workloads
    (``dstc_recluster`` runs a fixed number of transactions).  With
    *trace* the measured ops run a second time under the tracer.
    *wrap_engine* lets tests put a faulty proxy in front of the engine.
    """
    workload = WORKLOADS[name]
    sizes = sizes or workload.sizes
    run = _recluster_round if workload.engine == "storage" else _sqlite_round
    result = run(workload, sizes, seed, round_index, seconds, trace,
                 workdir, wrap_engine, spans_path)
    result.update(workload=name, seed=seed, round=round_index)
    return result


def _traced_twin(recorder: layers.SpanRecorder, database: OCBDatabase,
                 workload: Workload, engine: object, store: object,
                 policy: object, rng: LewisPayne, ops: int,
                 tally: _Tally) -> _Phase:
    """Re-run *ops* ops of a measured phase with every layer traced."""
    proxy = layers.EngineProxy(recorder, engine, workload.engine)
    session = layers.TracedSession(
        recorder, proxy, policy=policy, tref_table=database.tref_table(),
        catalog=database.catalog())
    with layers.instrumented(recorder, store, policy):
        return _run_phase(database, workload.mix, session, rng, tally,
                          ops=ops, recorder=recorder, rng_phase=1)


def _op_seconds(phase: _Phase) -> float:
    return sum(elapsed for _kind, elapsed, _fast in phase.samples)


#: Per-layer counters one engine reports and the other reads as zero.
_ENGINE_COUNTERS = ("sqlite.round_trips_per_op", "sqlite.rows_per_round_trip",
                    "storage.io_reads_per_op", "storage.buffer_hit_ratio",
                    "swizzle.unswizzled_per_op", "dstc.io_gain",
                    "storage.reorg_ios")


def _layer_metrics(recorder: layers.SpanRecorder, twin: _Phase,
                   measured: _Phase, engine_layer: str,
                   counters: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics of a traced twin, next to its untraced phase."""
    metrics = dict.fromkeys(_ENGINE_COUNTERS, 0.0)
    metrics.update(counters)
    metrics.update(layers.summarize(recorder.spans, twin.ops, engine_layer))
    op_wall_ns = _op_seconds(twin) * 1e9
    metrics["trace.coverage"] = metrics["trace.self_ns"] / op_wall_ns \
        if op_wall_ns else 0.0
    untraced = _op_seconds(measured) / max(len(measured.samples), 1)
    traced = _op_seconds(twin) / max(len(twin.samples), 1)
    metrics["trace.overhead"] = traced / untraced - 1.0 if untraced else 0.0
    return metrics


def _sqlite_round(workload: Workload, sizes: Sizes, seed: int,
                  round_index: int, seconds: float, trace: bool,
                  workdir: str, wrap_engine, spans_path) -> dict:
    path = os.path.join(workdir, f"{workload.name}-{seed}-{round_index}.db")
    if os.path.exists(path):
        os.remove(path)
    tally = _Tally()
    engine = SQLiteBackend(path=path, cache_pages=sizes.cache_pages,
                           ref_index=workload.ref_index)
    try:
        database, setup = _set_up(sizes, seed, engine)
        driven = wrap_engine(engine) if wrap_engine else engine
        session = Session(driven, tref_table=database.tref_table(),
                          catalog=database.catalog())
        phases = [_run_phase(database, workload.mix, session,
                             _rng(seed, round_index, 0), tally,
                             ops=sizes.cold_ops)]
        measured = _run_phase(database, workload.mix, session,
                              _rng(seed, round_index, 1), tally,
                              seconds=seconds, ops=sizes.max_warm_ops,
                              probe=True, rng_phase=1)
        phases.append(measured)
        peak_rss_mb = _peak_rss_mb()
        layer_metrics = None
        if trace:
            recorder = layers.SpanRecorder()
            trips = engine.sql_round_trips
            twin = _traced_twin(recorder, database, workload, driven, None,
                                NoClustering(), _rng(seed, round_index, 1),
                                measured.ops, tally)
            phases.append(twin)
            trips = (engine.sql_round_trips - trips) / max(twin.ops, 1)
            layer_metrics = _layer_metrics(
                recorder, twin, measured, "sqlite",
                {"sqlite.round_trips_per_op": trips})
            layer_metrics["sqlite.rows_per_round_trip"] = \
                layer_metrics["sqlite.rows_read_per_op"] / trips \
                if trips else 0.0
            if spans_path:
                recorder.write_jsonl(spans_path, workload=workload.name,
                                     round=round_index)
        checks = {}
        if workload.mix.mutates:
            checks["read_back"] = read_back_matches(engine, database)
        if tally.failed == 0:
            checks["digest"] = digest(phases) == _replay(
                workload, sizes, seed, round_index, phases)
    finally:
        engine.close()
        os.remove(path)
    return _result(tally, measured.samples, measured.fast_probes, setup,
                   peak_rss_mb, checks, layer_metrics)


def _recluster_round(workload: Workload, sizes: Sizes, seed: int,
                     round_index: int, seconds: float, trace: bool,
                     workdir: str, wrap_engine, spans_path) -> dict:
    """Table 5's protocol: measure, recluster with DSTC, measure again.

    Both phases start from dropped caches and replay the same op
    streams, so their logical digests must match while their page reads
    differ by the gain factor.
    """
    tally = _Tally()
    store = ObjectStore(buffer_pages=sizes.cache_pages)
    database, setup = _set_up(sizes, seed, store)
    driven = wrap_engine(store) if wrap_engine else store
    policy = _dstc_policy(sizes.phase_ops)

    def phase(recorder: Optional[layers.SpanRecorder] = None):
        """(cold phase, warm phase, store counters over the warm phase)."""
        store.drop_caches()
        store.reset_stats()
        session = Session(driven, policy=policy,
                          tref_table=database.tref_table(),
                          catalog=database.catalog())
        cold = _run_phase(database, workload.mix, session,
                          _rng(seed, round_index, 0), tally,
                          ops=sizes.cold_ops)
        before = store.snapshot()
        if recorder is None:
            warm = _run_phase(database, workload.mix, session,
                              _rng(seed, round_index, 1), tally,
                              ops=sizes.phase_ops, probe=True, rng_phase=1)
        else:
            warm = _traced_twin(recorder, database, workload, driven, store,
                                policy, _rng(seed, round_index, 1),
                                sizes.phase_ops, tally)
        return cold, warm, store.snapshot() - before

    before = phase()
    reorganizing = time.perf_counter()
    placement = policy.propose_placement(
        store.current_order(),
        PlacementContext(sizes=database.record_sizes(),
                         page_size=store.page_size))
    permutation = placement is not None and \
        sorted(placement.order) == sorted(store.current_order())
    reorg = store.reorganize(placement.order,
                             aligned_groups=placement.aligned_groups) \
        if permutation else None
    reorg_s = time.perf_counter() - reorganizing
    after = phase()
    peak_rss_mb = _peak_rss_mb()
    reads_before = before[2].io_reads / max(before[1].ops, 1)
    reads_after = after[2].io_reads / max(after[1].ops, 1)
    io_gain = reads_before / reads_after if reads_after else 0.0

    layer_metrics = None
    if trace:
        recorder = layers.SpanRecorder()
        _cold, twin, delta = phase(recorder)
        per_op = 1.0 / max(twin.ops, 1)
        layer_metrics = _layer_metrics(recorder, twin, after[1], "storage", {
            "storage.io_reads_per_op": delta.io_reads * per_op,
            "storage.buffer_hit_ratio": delta.buffer.hit_ratio,
            "swizzle.unswizzled_per_op": delta.swizzle.unswizzled * per_op,
            "dstc.io_gain": io_gain,
            "storage.reorg_ios": float(reorg.total_ios if reorg else 0)})
        if spans_path:
            recorder.write_jsonl(spans_path, workload=workload.name,
                                 round=round_index)

    checks = {"placement_is_permutation": permutation,
              "gain_above_one": io_gain > 1.0}
    if tally.failed == 0:
        checks["digest"] = digest(before[:2]) == digest(after[:2])
    # The phases differ by the gain factor, so each (phase, class) is its
    # own stratum: pooled, every class would be bimodal.
    samples = [(f"{label}/{kind}", elapsed, fast)
               for label, (_cold, warm, _delta) in (("before", before),
                                                    ("after", after))
               for kind, elapsed, fast in warm.samples]
    result = _result(tally, samples,
                     before[1].fast_probes + after[1].fast_probes, setup,
                     peak_rss_mb, checks, layer_metrics)
    result["extras"] = {"io_gain": io_gain, "reorg_s": reorg_s,
                        "reads_before": reads_before,
                        "reads_after": reads_after}
    return result


def _result(tally: _Tally, samples: List[Tuple[str, float, bool]],
            fast_probes: List[float], setup: Dict[str, float],
            peak_rss_mb: float, checks: Dict[str, bool],
            layer_metrics: Optional[Dict[str, float]]) -> dict:
    fast: Dict[str, List[float]] = {}
    for kind, elapsed, host_fast in samples:
        if host_fast:
            fast.setdefault(kind, []).append(elapsed * 1e3)
    result = {
        "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "checks": checks,
        "samples_ms": fast, "measured_ops": len(samples),
        "host_probe_us": statistics.median(fast_probes) * 1e6
        if fast_probes else REFERENCE_PROBE_US,
        "setup_s": setup["generate_s"] + setup["bulk_load_s"],
        "setup_as_timed_s": setup["setup_as_timed_s"],
        "peak_rss_mb": peak_rss_mb,
    }
    if layer_metrics is not None:
        layer_metrics["generation.generate_s"] = setup["generate_s"]
        layer_metrics["engine.bulk_load_s"] = setup["bulk_load_s"]
        checks["trace_sums_to_wall"] = \
            0.95 <= layer_metrics["trace.coverage"] <= 1.0
        result["layers"] = layer_metrics
    return result


# ---------------------------------------------------------------------- #
# Aggregation
# ---------------------------------------------------------------------- #

def mix_latency(mix: WorkloadMix, samples: Dict[str, List[float]]
                ) -> Dict[str, float]:
    """Throughput and latency of the declared mix from per-class samples.

    Each class counts with its mix weight rather than with how often a
    seed happened to draw it: ``ops_per_s`` is 1 / (weighted mean op
    time), ``op_p95_ms`` the 95th percentile of the weighted mixture.
    The median of a mixture of cheap and expensive classes falls in the
    gap between them and jumps between seeds, so ``op_p50_ms`` is the
    weighted mean of the per-class medians.  A key ``"phase/class"``
    splits its class's weight evenly over the phases that ran it.
    """
    weights = {entry.kind: entry.weight for entry in mix.entries}
    kind_of = {key: key.rsplit("/", 1)[-1] for key in samples}
    strata = {key: values for key, values in samples.items()
              if values and weights.get(kind_of[key])}
    phases = Counter(kind_of[key] for key in strata)
    weight = {key: weights[kind_of[key]] / phases[kind_of[key]]
              for key in strata}
    total = sum(weight.values())
    if not total:
        return {"ops_per_s": 0.0, "op_p50_ms": 0.0, "op_p95_ms": 0.0}
    mean_ms = sum(weight[k] * statistics.fmean(v)
                  for k, v in strata.items()) / total
    p50 = sum(weight[k] * statistics.median(v)
              for k, v in strata.items()) / total
    mixture = sorted((value, weight[key] / total / len(values))
                     for key, values in strata.items() for value in values)
    cumulative = 0.0
    for p95, share in mixture:
        cumulative += share
        if cumulative >= 0.95:
            break
    return {"ops_per_s": 1e3 / mean_ms, "op_p50_ms": p50, "op_p95_ms": p95}


def _pool(results: List[dict], normalized: bool) -> Dict[str, List[float]]:
    """Per-class samples of *results*, scaled to the reference host."""
    pooled: Dict[str, List[float]] = {}
    for result in results:
        scale = REFERENCE_PROBE_US / result["host_probe_us"] \
            if normalized else 1.0
        for kind, values in result["samples_ms"].items():
            pooled.setdefault(kind, []).extend(v * scale for v in values)
    return pooled


def round_metrics(mix: WorkloadMix, result: dict) -> Dict[str, float]:
    """The end-to-end metrics of a single round."""
    return {**mix_latency(mix, _pool([result], normalized=True)),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": result["setup_s"]}


def aggregate(name: str, results: List[dict]) -> dict:
    """Fold the rounds of one workload into its reported metrics.

    Throughput and latency pool the host-fast samples of every round,
    each round scaled to the reference host; ``as_timed`` keeps them
    unscaled.  Set-up time and memory are medians over rounds.
    """
    mix = WORKLOADS[name].mix
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    metrics = mix_latency(mix, _pool(results, normalized=True))
    metrics.update(
        peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in results),
        setup_s=statistics.median(r["setup_s"] for r in results),
        error_rate=failed / attempted if attempted else 0.0)
    checks: Dict[str, bool] = {}
    for result in results:
        for check, ok in result["checks"].items():
            checks[check] = checks.get(check, True) and ok
    summary = {
        "metrics": metrics,
        "as_timed": {**mix_latency(mix, _pool(results, normalized=False)),
                     "setup_s": statistics.median(
                         r["setup_as_timed_s"] for r in results)},
        "rounds": [round_metrics(mix, result) for result in results],
        "attempted": attempted, "failed": failed,
        "measured_ops": sum(r["measured_ops"] for r in results),
        "host_fast_ops": sum(len(values) for result in results
                             for values in result["samples_ms"].values()),
        "host_probe_us": [r["host_probe_us"] for r in results],
        "correct": all(checks.values()), "checks": checks,
        "errors": [error for result in results for error in result["errors"]],
    }
    for key in ("extras", "layers"):
        rows = [result[key] for result in results if key in result]
        names = sorted({name for row in rows for name in row})
        if rows:
            summary[key] = {name: statistics.median(row.get(name, 0.0)
                                                    for row in rows)
                            for name in names}
    return summary
