"""``ocb`` — command-line front end for the OCB reproduction.

Subcommands::

    ocb info                      package / experiment overview
    ocb presets                   list parameter presets
    ocb backends                  list registered storage backends
    ocb generate  [--preset P]    generate a database, print statistics
    ocb run       [--preset P]    generate + run the cold/warm protocol
    ocb ops       [--preset P]    run the generic operation mix
    ocb scenario  NAME|SPEC.json  run a declarative WorkloadMix scenario
                                  (presets: ocb scenario --list;
                                  --clients N interleaves N clients on
                                  one engine, --processes N runs them as
                                  real OS processes against shared WAL
                                  storage — mutating mixes genuinely
                                  contend)
    ocb scale     [--workers ...] worker-count sweep: throughput scaling
                                  + contention table
    ocb loadtest  [NAME]          open-loop offered-rate sweep against a
                                  scenario (--rate A,B,C): coordinated-
                                  omission-correct response vs service
                                  latency, saturation-knee detection,
                                  DES predicted-vs-measured waits
    ocb tables --id {1,2,3}       print the paper's parameter tables
    ocb fig4                      reproduce Figure 4 (creation time)
    ocb table4                    reproduce Table 4 (DSTC-CluB vs OCB)
    ocb table5                    reproduce Table 5 (OCB defaults)

Every execution command (``run``, ``ops``, ``scenario``) builds a
:class:`~repro.core.scenario.Scenario`, runs it on the unified kernel
and accepts ``--backend NAME`` (see ``ocb backends``) to target any
registered storage engine; runs against real
engines report wall-clock latency percentiles next to the simulated
costs, and ``run --cold-start`` drops the engine's caches first so the
cold phase is honest on engines that can evict state.  All experiment
commands accept ``--scale``-style size flags so the full paper-scale
runs (slow in pure Python) remain one flag away.

``run``, ``ops``, ``scenario``, ``scale`` and ``loadtest`` accept
``--json`` to print one machine-readable JSON object (flat metric
mappings) instead of the tables; no command writes a file unless a flag
names one.

``run``, ``ops``, ``scenario`` and ``loadtest`` accept ``--trace FILE``
to stream per-operation trace records (:mod:`repro.obs.trace`) to a
JSONL file.  After the run, stderr gets the record count, each layer's
share of self time (a layer is a record name's prefix before the first
dot) and per-name count/total/self/P99.9 rows, all derived from the
whole file, worker processes' records included.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional, Sequence

from repro._version import __version__
from repro.backends import available_backends, backend_names, create_backend
from repro.core.benchmark import OCBBenchmark
from repro.core.generation import generate_database
from repro.core.presets import (
    PRESETS,
    default_database_parameters,
    default_workload_parameters,
    dstc_club_database_parameters,
    preset,
)
from repro.experiments import (
    fig4_series,
    run_fig4,
    run_table4,
    run_table5,
    render_table4,
    render_table5,
)
from repro.reporting.figures import render_line_chart, render_series_table
from repro.reporting.tables import render_kv, render_table
from repro.store.storage import StoreConfig

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="ocb",
        description="OCB, the Object Clustering Benchmark (EDBT '98) — "
                    "Python reproduction")
    parser.add_argument("--version", action="version",
                        version=f"ocb {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="package and experiment overview")
    sub.add_parser("presets", help="list parameter presets")
    sub.add_parser("backends", help="list registered storage backends")

    generate = sub.add_parser("generate", help="generate a database")
    generate.add_argument("--preset", default="default-small",
                          choices=sorted(PRESETS))
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--validate", action="store_true",
                          help="run structural validation after generation")
    generate.add_argument("--backend", default=None,
                          choices=backend_names(),
                          help="also bulk-load the database into this "
                               "backend and report load statistics")
    generate.add_argument("--sqlite-path", default=":memory:",
                          help="database file for --backend sqlite "
                               "(default: in-memory)")

    run = sub.add_parser("run", help="generate and run the workload")
    run.add_argument("--preset", default="default-small",
                     choices=sorted(PRESETS))
    run.add_argument("--buffer-pages", type=int, default=128)
    run.add_argument("--placement", default="sequential",
                     choices=("sequential", "by_class", "depth_first",
                              "breadth_first"))
    run.add_argument("--backend", default="simulated",
                     choices=backend_names(),
                     help="storage engine to drive (default: simulated)")
    run.add_argument("--sqlite-path", default=":memory:",
                     help="database file for --backend sqlite "
                          "(default: in-memory)")
    run.add_argument("--cold-start", action="store_true",
                     help="drop the engine's caches before the cold run "
                          "(honest cold measurements on engines that "
                          "support cache eviction)")
    run.add_argument("--json", action="store_true",
                     help="emit one machine-readable JSON document "
                          "instead of the tables")
    run.add_argument("--trace", default=None, metavar="FILE",
                     help="stream per-operation trace records to a "
                          "JSONL file (per-layer summary on stderr)")

    ops = sub.add_parser("ops", help="run the generic operation mix "
                                     "(insert/update/delete/range/scan)")
    ops.add_argument("--preset", default="default-small",
                     choices=sorted(PRESETS))
    ops.add_argument("--operations", type=int, default=50,
                     help="number of operations to draw from the mix")
    ops.add_argument("--backend", default="simulated",
                     choices=backend_names(),
                     help="storage engine to drive (default: simulated)")
    ops.add_argument("--sqlite-path", default=":memory:",
                     help="database file for --backend sqlite "
                          "(default: in-memory)")
    ops.add_argument("--json", action="store_true",
                     help="emit one machine-readable JSON document "
                          "instead of the tables")
    ops.add_argument("--trace", default=None, metavar="FILE",
                     help="stream per-operation trace records to a "
                          "JSONL file (per-layer summary on stderr)")

    scenario = sub.add_parser(
        "scenario", help="run a declarative WorkloadMix scenario "
                         "(a named preset or a JSON spec file)")
    scenario.add_argument("name", nargs="?", default=None,
                          metavar="NAME|SPEC.json",
                          help="scenario preset name (see --list) or a "
                               "path to a JSON spec file")
    scenario.add_argument("--list", action="store_true",
                          help="list the scenario presets and exit")
    scenario.add_argument("--preset", default="default-small",
                          choices=sorted(PRESETS),
                          help="database preset generating the object "
                               "graph (default: default-small)")
    scenario.add_argument("--backend", default=None,
                          choices=backend_names(),
                          help="override the scenario's storage engine")
    scenario.add_argument("--clients", type=int, default=None,
                          help="override the scenario's client count "
                               "(in-process round-robin)")
    scenario.add_argument("--processes", type=int, default=None,
                          metavar="N",
                          help="run N clients as real OS processes "
                               "against shared storage (mutating mixes "
                               "genuinely contend; overrides --clients)")
    scenario.add_argument("--cold", type=int, default=None, metavar="N",
                          help="override the scenario's cold-phase size")
    scenario.add_argument("--warm", type=int, default=None, metavar="N",
                          help="override the scenario's warm-phase size")
    scenario.add_argument("--seed", type=int, default=None,
                          help="workload RNG seed (default: the "
                               "database seed)")
    scenario.add_argument("--sqlite-path", default=":memory:",
                          help="database file for --backend sqlite, or "
                               "shard directory for sharded-sqlite "
                               "(default: in-memory; process runs "
                               "replace ':memory:' with a temp path)")
    scenario.add_argument("--shards", type=int, default=None, metavar="N",
                          help="shard count for --backend sharded-sqlite "
                               "(default: the worker count of a process "
                               "run, else 4)")
    scenario.add_argument("--journal-mode", default=None,
                          help="journal mode for shared SQLite files "
                               "(default: WAL)")
    scenario.add_argument("--busy-timeout", type=int, default=None,
                          metavar="MS",
                          help="per-connection busy budget in ms for "
                               "shared storage (default: 5000)")
    scenario.add_argument("--json", action="store_true",
                          help="emit one machine-readable JSON document "
                               "instead of the tables")
    scenario.add_argument("--trace", default=None, metavar="FILE",
                          help="stream per-operation trace records to a "
                               "JSONL file (per-layer summary on stderr)")

    scale = sub.add_parser(
        "scale", help="sweep worker-process counts and print the "
                      "throughput-scaling table")
    scale.add_argument("--preset", default="default-small",
                       choices=sorted(PRESETS))
    scale.add_argument("--backend", default="sqlite",
                       choices=backend_names(),
                       help="storage engine to drive (default: sqlite)")
    scale.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                       help="worker counts to sweep (default: 1 2 4)")
    scale.add_argument("--sqlite-path", default=":memory:",
                       help="database file for --backend sqlite, or "
                            "shard directory for sharded-sqlite "
                            "(default: one shared temp path loaded once "
                            "and reused across the whole sweep)")
    scale.add_argument("--shards", type=int, default=None, metavar="N",
                       help="shard count for --backend sharded-sqlite, "
                            "fixed across the sweep (default: the "
                            "largest worker count)")
    scale.add_argument("--journal-mode", default=None,
                       help="journal mode for shared SQLite files "
                            "(default: WAL)")
    scale.add_argument("--busy-timeout", type=int, default=None,
                       metavar="MS",
                       help="per-connection busy budget in ms "
                            "(default: 5000)")
    scale.add_argument("--json", action="store_true",
                       help="emit one machine-readable JSON document "
                            "instead of the table")

    loadtest = sub.add_parser(
        "loadtest", help="open-loop offered-rate sweep against a "
                         "scenario: coordinated-omission-correct "
                         "latency, saturation knee, DES-predicted "
                         "waits")
    loadtest.add_argument("name", nargs="?", default="mixed_oltp",
                          metavar="NAME|SPEC.json",
                          help="scenario preset name or JSON spec file "
                               "(default: mixed_oltp)")
    loadtest.add_argument("--rate", nargs="+", default=["25,100,400"],
                          metavar="A[,B,...]",
                          help="offered arrival rates in op/s, space- or "
                               "comma-separated (default: 25,100,400)")
    loadtest.add_argument("--ops", type=int, default=None, metavar="N",
                          help="paced arrivals per rate (default: the "
                               "scenario's warm-phase size)")
    loadtest.add_argument("--arrivals", default="poisson",
                          choices=("poisson", "fixed"),
                          help="arrival process (default: poisson)")
    loadtest.add_argument("--preset", default="default-small",
                          choices=sorted(PRESETS),
                          help="database preset generating the object "
                               "graph (default: default-small)")
    loadtest.add_argument("--backend", default=None,
                          choices=backend_names(),
                          help="override the scenario's storage engine")
    loadtest.add_argument("--clients", type=int, default=None,
                          help="override the scenario's client count "
                               "(the offered rate splits across lanes)")
    loadtest.add_argument("--seed", type=int, default=None,
                          help="arrival + workload RNG seed (default: "
                               "the scenario seed)")
    loadtest.add_argument("--sqlite-path", default=":memory:",
                          help="database file for --backend sqlite "
                               "(default: in-memory)")
    loadtest.add_argument("--journal-mode", default=None,
                          help="journal mode for SQLite (default: WAL)")
    loadtest.add_argument("--busy-timeout", type=int, default=None,
                          metavar="MS",
                          help="SQLite busy budget in ms (default: 5000)")
    loadtest.add_argument("--divergence", type=float, default=0.10,
                          help="knee gate: achieved throughput this far "
                               "below offered saturates (default: 0.10)")
    loadtest.add_argument("--blowup", type=float, default=3.0,
                          help="knee gate: response P95 beyond this "
                               "multiple of the lowest-rate baseline "
                               "saturates (default: 3.0)")
    loadtest.add_argument("--no-predict", action="store_true",
                          help="skip the DES predicted-wait replay")
    loadtest.add_argument("--json", action="store_true",
                          help="emit one machine-readable JSON document "
                               "instead of the report")
    loadtest.add_argument("--trace", default=None, metavar="FILE",
                          help="stream per-operation trace records "
                               "(loadgen.arrival / loadgen.late_start "
                               "events included) to a JSONL file "
                               "(per-layer summary on stderr)")

    tables = sub.add_parser("tables", help="print the paper's parameter tables")
    tables.add_argument("--id", type=int, required=True, choices=(1, 2, 3))

    fig4 = sub.add_parser(
        "fig4", help="reproduce Figure 4 (best of 3 runs per point)")
    fig4.add_argument("--sizes", type=int, nargs="+",
                      default=[10, 100, 1000, 5000])
    fig4.add_argument("--classes", type=int, nargs="+", default=[1, 20, 50])
    fig4.add_argument("--chart", action="store_true",
                      help="also draw the log-log ASCII chart")

    table4 = sub.add_parser("table4", help="reproduce Table 4")
    table4.add_argument("--objects", type=int, default=16000)
    table4.add_argument("--transactions", type=int, default=20)
    table4.add_argument("--buffer-pages", type=int, default=384)

    table5 = sub.add_parser("table5", help="reproduce Table 5")
    table5.add_argument("--objects", type=int, default=8000)
    table5.add_argument("--transactions", type=int, default=60)
    table5.add_argument("--buffer-pages", type=int, default=340)

    sub.add_parser("qualitative",
                   help="qualitative evaluation grid for the built-in "
                        "clustering policies (paper Section 5)")
    return parser


def _cmd_info() -> str:
    pairs = [
        ("package", f"repro {__version__}"),
        ("paper", "OCB: A Generic Benchmark to Evaluate the Performances "
                  "of OODBs (EDBT '98)"),
        ("authors", "Darmont, Petit, Schneider"),
        ("experiments", "fig4, table4, table5 (see repro.experiments)"),
        ("presets", ", ".join(sorted(PRESETS))),
    ]
    return render_kv(pairs, title="OCB reproduction")


def _cmd_presets() -> str:
    rows = []
    for name in sorted(PRESETS):
        db, wl = preset(name)
        rows.append([name, db.num_classes, db.num_objects,
                     wl.cold_n, wl.hot_n])
    return render_table(["preset", "NC", "NO", "COLDN", "HOTN"], rows,
                        title="Parameter presets")


def _cmd_backends() -> str:
    rows = [[info.name,
             "simulated + wall" if not info.wall_clock_only else "wall only",
             ", ".join(info.capabilities) or "-",
             info.description]
            for info in available_backends()]
    return render_table(["backend", "metrics", "extras", "description"],
                        rows, title="Registered storage backends")


def _cmd_generate(args: argparse.Namespace) -> str:
    db_params, _ = preset(args.preset)
    if args.seed is not None:
        # Dataclasses are frozen; rebuild with the new seed.
        from dataclasses import replace
        db_params = replace(db_params, seed=args.seed)
    database, report = generate_database(db_params, validate=args.validate)
    stats = database.statistics()
    pairs = [
        ("preset", args.preset),
        ("generation time", f"{report.total_seconds:.3f} s"),
        ("removed references", report.removed_references),
        ("objects", stats.num_objects),
        ("classes", stats.num_classes),
        ("total bytes", stats.total_bytes),
        ("avg object bytes", f"{stats.average_object_bytes:.1f}"),
        ("avg fan-out", f"{stats.average_fanout:.2f}"),
    ]
    if args.backend is not None:
        backend = create_backend(args.backend, StoreConfig(),
                                 **_backend_options(args))
        try:
            # Serialize outside the timer: the "bulk load" line measures
            # the engine's insert path, not Python record construction.
            records = database.to_records()
            start = time.perf_counter()
            units = backend.bulk_load(records.values(),
                                      order=sorted(records))
            elapsed = time.perf_counter() - start
            pairs.extend([
                ("backend", args.backend),
                ("bulk load", f"{elapsed:.3f} s"),
                ("storage units", units),
            ])
        finally:
            backend.close()
    return render_kv(pairs, title="Database generated")


def _backend_options(args: argparse.Namespace,
                     backend: Optional[str] = None) -> dict:
    """The engine options the flags set for *backend* (default:
    ``--backend``); only the SQLite engines take any."""
    backend = backend or getattr(args, "backend", None)
    if backend not in ("sqlite", "sharded-sqlite"):
        return {}
    # For sharded-sqlite ``--sqlite-path`` names the shard *directory*;
    # the engine maps ':memory:' to private in-memory shards itself.
    options = {"path": args.sqlite_path,
               "journal_mode": getattr(args, "journal_mode", None),
               "busy_timeout_ms": getattr(args, "busy_timeout", None)}
    if backend == "sharded-sqlite":
        options["shards"] = getattr(args, "shards", None)
    return {key: value for key, value in options.items()
            if value is not None}


def _cmd_run(args: argparse.Namespace) -> str:
    db_params, wl_params = preset(args.preset)
    if args.backend != "simulated" and args.placement != "sequential":
        print(f"note: --placement only affects physical layout on the "
              f"simulated backend; the {args.backend!r} engine manages "
              f"its own layout", file=sys.stderr)
    bench = OCBBenchmark(db_params, wl_params,
                         StoreConfig(buffer_pages=args.buffer_pages),
                         initial_placement=args.placement,
                         backend=args.backend,
                         backend_options=_backend_options(args))
    try:
        result = bench.run(cold_start=args.cold_start)
    finally:
        if bench.backend is not None:
            bench.backend.close()
    warm = result.report.warm.classic
    wall = warm.wall_percentiles()
    if args.json:
        import json
        document = {
            "command": "run",
            "preset": args.preset,
            "backend": result.backend_name,
            "warm_transactions": warm.totals.count,
            "objects_per_txn": warm.totals.visits_per_transaction,
            "reads_per_txn": warm.totals.reads_per_transaction,
            "ios_per_txn": warm.totals.ios_per_transaction,
            "sim_time_per_txn": warm.totals.sim_time_per_transaction,
            "wall_p50_ms": wall.p50 * 1e3,
            "wall_p95_ms": wall.p95 * 1e3,
            "wall_p99_ms": wall.p99 * 1e3,
            "per_kind": [
                {"kind": kind, "n": count, "objects_per_txn": visits,
                 "reads_per_txn": reads, "ios_per_txn": ios,
                 "sim_time_per_txn": sim}
                for kind, count, visits, reads, ios, sim in warm.rows()],
        }
        return json.dumps(document, indent=2)
    lines = [result.describe(), "",
             render_table(
                 ["kind", "n", "objects/txn", "reads/txn", "IOs/txn",
                  "t_sim/txn (s)"],
                 warm.rows(),
                 title="Warm-run metrics per transaction type",
                 precision=3),
             "",
             f"wall-clock latency (warm, {wall.count} txns): "
             f"{wall.describe()}"]
    return "\n".join(lines)


def _cmd_ops(args: argparse.Namespace) -> str:
    db_params, wl_params = preset(args.preset)
    bench = OCBBenchmark(db_params, wl_params,
                         backend=args.backend,
                         backend_options=_backend_options(args))
    try:
        warm = bench.run_generic_operations(args.operations).warm
        stats = bench.backend.stats() if bench.backend is not None else {}
    finally:
        if bench.backend is not None:
            bench.backend.close()
    rows = []
    for operation in sorted(warm.per_class):
        op = warm.per_class[operation]
        rows.append([operation, op.count, op.objects / op.count,
                     op.io_reads / op.count, op.io_writes / op.count,
                     op.wall_time / op.count * 1e3])
    if args.json:
        import json
        document = {
            "command": "ops",
            "preset": args.preset,
            "backend": args.backend,
            "operations": warm.operation_count,
            "sql_round_trips": stats.get("sql_round_trips"),
            "per_operation": [
                {"operation": operation, "n": n, "objects_per_op": objects,
                 "reads_per_op": reads, "writes_per_op": writes,
                 "wall_ms_per_op": wall_ms}
                for operation, n, objects, reads, writes, wall_ms in rows],
        }
        return json.dumps(document, indent=2)
    table = render_table(
        ["operation", "n", "objects/op", "reads/op", "writes/op",
         "wall/op (ms)"],
        rows, title=f"Generic operation mix on {args.backend!r} "
                    f"({args.operations} operations)", precision=3)
    lines = [table]
    if "sql_round_trips" in stats:
        lines.append(f"\nSQL round trips: {stats['sql_round_trips']}")
    return "\n".join(lines)


def _cmd_scenario(args: argparse.Namespace) -> str:
    import json

    from repro.core.presets import SCENARIO_PRESETS, scenario_preset
    from repro.core.scenario import ScenarioRunner
    from repro.reporting import render_scenario_report

    if args.list or args.name is None:
        rows = []
        for name in sorted(SCENARIO_PRESETS):
            scenario = scenario_preset(name)
            kinds = ", ".join(dict.fromkeys(
                entry.kind for entry in scenario.mix.entries
                if entry.weight > 0.0))
            rows.append([name,
                         "yes" if scenario.mix.mutates else "no",
                         scenario.clients, scenario.backend, kinds])
        listing = render_table(
            ["scenario", "mutates", "clients", "backend", "operation mix"],
            rows, title="Scenario presets (ocb scenario NAME)")
        if args.name is None and not args.list:
            return "\n".join([listing, "",
                              "pick a scenario preset or pass a JSON "
                              "spec file"])
        return listing

    scenario = _load_scenario(args.name)

    overrides = {}
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.processes is not None:
        overrides["clients"] = args.processes
    if args.cold is not None:
        overrides["cold_ops"] = args.cold
    if args.warm is not None:
        overrides["warm_ops"] = args.warm
    if args.seed is not None:
        overrides["seed"] = args.seed
    scenario = _configure_scenario(scenario, args, overrides,
                                   for_processes=args.processes is not None)

    db_params, _ = preset(args.preset)
    database, _report = generate_database(db_params)
    runner = ScenarioRunner(database, scenario)
    if args.processes is not None:
        report = runner.run_processes()
    else:
        report = runner.run()
    if args.json:
        return json.dumps(report.to_dict(), indent=2)
    lines = [render_scenario_report(report)]
    if args.processes is not None and not report.executed_parallel \
            and scenario.clients > 1:
        lines.append("note: worker processes were unavailable; the "
                     "clients ran sequentially in-process")
    return "\n".join(lines)


def _load_scenario(name: str):
    """Resolve a scenario argument: preset name or JSON spec file.

    Preset names win; only non-preset arguments are treated as spec
    files (a stray file in the cwd must never shadow a preset).
    """
    import os

    from repro.core.presets import SCENARIO_PRESETS, scenario_preset
    from repro.core.scenario import Scenario
    from repro.errors import ParameterError

    if name.strip().lower() in SCENARIO_PRESETS:
        return scenario_preset(name)
    if name.endswith(".json") or os.path.exists(name):
        try:
            with open(name, "r", encoding="utf-8") as handle:
                return Scenario.from_json(handle.read())
        except OSError as exc:
            raise ParameterError(
                f"cannot read scenario spec {name!r}: {exc}") from exc
    return scenario_preset(name)


def _configure_scenario(scenario, args: argparse.Namespace,
                        overrides: dict, for_processes: bool):
    """Apply CLI *overrides* and ``--backend`` to *scenario*, then its
    engine options.

    A ``--backend`` naming another engine starts from empty
    ``backend_options``: the preset's options belong to its own engine
    (``hot_spot``'s ``shards`` means nothing to plain SQLite).  SQLite
    engines then get the flags' options under the scenario's own and
    the multi-writer settings under both, so in-process and process
    runs benchmark the same engine configuration.  Process runs drop a
    ``':memory:'`` path — it cannot be shared — so the runner creates a
    temp file instead.
    """
    from dataclasses import replace

    from repro.backends.sqlite import multi_writer_options

    overrides = dict(overrides)
    if args.backend is not None and args.backend != scenario.backend:
        overrides["backend"] = args.backend
        overrides["backend_options"] = {}
    if overrides:
        scenario = replace(scenario, **overrides)
    if scenario.backend in ("sqlite", "sharded-sqlite"):
        options = multi_writer_options({
            **_backend_options(args, scenario.backend),
            **scenario.backend_options})
        if for_processes and options.get("path") == ":memory:":
            del options["path"]
        scenario = replace(scenario, backend_options=options)
    return scenario


def _cmd_scale(args: argparse.Namespace) -> str:
    import json
    import os
    import shutil
    import tempfile

    from repro.backends.registry import backend_info
    from repro.backends.sqlite import multi_writer_options
    from repro.core.scenario import Scenario
    from repro.parallel import ParallelRunner
    from repro.reporting import render_scaling_sweep, summarize_parallel_run

    db_params, wl_params = preset(args.preset)
    database, _report = generate_database(db_params)
    info = backend_info(args.backend)
    options = _backend_options(args)
    if info.has_capability("sharded"):
        # One storage layout for the whole sweep: every point attaches
        # to the same shard files, so the count cannot follow the
        # worker count.  ``max(workers)`` keeps the mutation lanes of
        # every smaller width disjoint (shards is a multiple of each).
        options.setdefault("shards", max(args.workers))
    tempdir = None
    if info.has_capability("concurrent") \
            and options.get("path", ":memory:") == ":memory:":
        # One shared file for the whole sweep: the first point bulk
        # loads it, every later point attaches (after a content check)
        # instead of re-loading the identical read-only database.
        tempdir = tempfile.mkdtemp(prefix="ocb-scale-")
        options["path"] = os.path.join(
            tempdir, "shards" if info.has_capability("sharded")
            else "shared.db")
    points = []
    try:
        for workers in args.workers:
            scenario = Scenario.from_workload_parameters(
                wl_params, clients=workers, backend=args.backend,
                backend_options=options)
            points.append(summarize_parallel_run(
                ParallelRunner(database, scenario).run()))
    finally:
        if tempdir is not None:
            shutil.rmtree(tempdir, ignore_errors=True)
    if args.json:
        from repro.obs.monitor import system_info
        settings = multi_writer_options(options)
        return json.dumps({
            "command": "scale",
            "preset": args.preset,
            "backend": args.backend,
            "workers": list(args.workers),
            "journal_mode": settings["journal_mode"],
            "busy_timeout_ms": settings["busy_timeout_ms"],
            "system": system_info(),
            "points": [point.to_dict() for point in points],
        }, indent=2)
    return render_scaling_sweep(points)


def _parse_rates(chunks: Sequence[str]) -> List[float]:
    """``--rate 25,100 400`` → ``[25.0, 100.0, 400.0]``."""
    from repro.errors import ParameterError

    rates: List[float] = []
    for chunk in chunks:
        for token in str(chunk).split(","):
            token = token.strip()
            if not token:
                continue
            try:
                rates.append(float(token))
            except ValueError as exc:
                raise ParameterError(
                    f"invalid offered rate {token!r}") from exc
    if not rates:
        raise ParameterError("at least one offered rate is required")
    return rates


def _cmd_loadtest(args: argparse.Namespace) -> str:
    """Run an offered-rate sweep and render it (or its JSON document)."""
    import json

    from repro.core.loadgen import run_load_sweep
    from repro.reporting import render_load_report

    rates = _parse_rates(args.rate)
    scenario = _load_scenario(args.name)
    overrides = {}
    if args.clients is not None:
        overrides["clients"] = args.clients
    if args.seed is not None:
        overrides["seed"] = args.seed
    scenario = _configure_scenario(scenario, args, overrides,
                                   for_processes=False)
    db_params, _ = preset(args.preset)
    database, _report = generate_database(db_params)
    sweep = run_load_sweep(
        database, scenario, rates, operations=args.ops,
        mode=args.arrivals, seed=args.seed,
        divergence=args.divergence, blowup=args.blowup,
        predict=not args.no_predict,
        progress=lambda line: print(f"ocb loadtest: {line}",
                                    file=sys.stderr))
    document = {
        "command": "loadtest",
        "scenario": scenario.mix.name,
        "backend": scenario.backend,
        "clients": scenario.clients,
        "database_preset": args.preset,
        "rates": sorted(rates),
        "operations": args.ops,
        "arrival_mode": args.arrivals,
        "seed": sweep["seed"],
        "divergence": sweep["divergence"],
        "blowup": sweep["blowup"],
        "knee": sweep["knee"],
        "cells": sweep["cells"],
    }
    if args.json:
        return json.dumps(document, indent=2)
    return render_load_report(document)


def _cmd_tables(args: argparse.Namespace) -> str:
    if args.id == 1:
        p = default_database_parameters()
        rows = [
            ["NC", "Number of classes in the database", p.num_classes],
            ["MAXNREF(i)", "Maximum number of references, per class",
             p.max_nref[0]],
            ["BASESIZE(i)", "Instances base size, per class", p.base_size[0]],
            ["NO", "Total number of objects", p.num_objects],
            ["NREFT", "Number of reference types", p.num_ref_types],
            ["INFCLASS", "Inferior bound, referenced classes", p.inf_class],
            ["SUPCLASS", "Superior bound, referenced classes", p.sup_class],
            ["INFREF", "Inferior bound, referenced objects", p.inf_ref],
            ["SUPREF", "Superior bound, referenced objects", p.sup_ref],
            ["DIST1", "Reference types distribution", p.dist1.describe()],
            ["DIST2", "Class references distribution", p.dist2.describe()],
            ["DIST3", "Objects in classes distribution", p.dist3.describe()],
            ["DIST4", "Objects references distribution", p.dist4.describe()],
        ]
        return render_table(["Name", "Parameter", "Default value"], rows,
                            title="Table 1 - OCB database parameters")
    if args.id == 2:
        w = default_workload_parameters()
        rows = [
            ["SETDEPTH", "Set-oriented Access depth", w.set_depth],
            ["SIMDEPTH", "Simple Traversal depth", w.simple_depth],
            ["HIEDEPTH", "Hierarchy Traversal depth", w.hierarchy_depth],
            ["STODEPTH", "Stochastic Traversal depth", w.stochastic_depth],
            ["COLDN", "Cold-run transactions", w.cold_n],
            ["HOTN", "Warm-run transactions", w.hot_n],
            ["THINK", "Average latency between transactions", w.think_time],
            ["PSET", "Set Access probability", w.p_set],
            ["PSIMPLE", "Simple Traversal probability", w.p_simple],
            ["PHIER", "Hierarchy Traversal probability", w.p_hierarchy],
            ["PSTOCH", "Stochastic Traversal probability", w.p_stochastic],
            ["RAND5", "Root object distribution", w.dist5.describe()],
            ["CLIENTN", "Number of clients", w.clients],
        ]
        return render_table(["Name", "Parameter", "Default value"], rows,
                            title="Table 2 - OCB workload parameters")
    p = dstc_club_database_parameters()
    rows = [
        ["NC", 2], ["MAXNREF", 3], ["BASESIZE", "50 bytes"],
        ["NO", p.num_objects], ["NREFT", 3],
        ["INFCLASS", p.inf_class], ["SUPCLASS", p.sup_class],
        ["INFREF", "PartId - RefZone"], ["SUPREF", "PartId + RefZone"],
        ["DIST1", p.dist1.describe()], ["DIST2", p.dist2.describe()],
        ["DIST3", p.dist3.describe()], ["DIST4", p.dist4.describe()],
    ]
    return render_table(["Name", "Value"], rows,
                        title="Table 3 - OCB approximating DSTC-CluB")


def _cmd_fig4(args: argparse.Namespace) -> str:
    # Single shots of a few milliseconds vary up to 2x; keep the best of 3.
    points = run_fig4(sizes=tuple(args.sizes),
                      class_counts=tuple(args.classes), repeats=3)
    series = fig4_series(points)
    out = [render_series_table(
        series, x_header="objects",
        title="Figure 4 - database creation time (s, best of 3)")]
    if args.chart:
        out.append("")
        out.append(render_line_chart(series, log_x=True, log_y=True,
                                     title="Figure 4 (log-log)",
                                     x_label="objects", y_label="seconds"))
    return "\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    from repro.errors import ReproError
    try:
        return _dispatch(argv)
    except ReproError as exc:
        print(f"ocb: error: {exc}", file=sys.stderr)
        return 1


def _dispatch(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        from repro.obs import trace
        trace.enable(trace_path)
    try:
        return _dispatch_command(parser, args)
    finally:
        if trace_path:
            trace.disable()
            _print_trace_summary(trace_path)


def _print_trace_summary(path: str) -> None:
    """The per-layer self-time table, then the per-name rows, on stderr."""
    from repro.obs import trace
    summary = trace.summary(path)
    print(f"trace: {summary.records} records, "
          f"{summary.root_ns / 1e6:.1f} ms in root records -> {path}",
          file=sys.stderr)
    for layer, share in summary.layers:
        print(f"trace: layer {layer:<10} {share:5.1f}% self",
              file=sys.stderr)
    for row in summary.rows:
        print(f"trace: {row.name}: {row.count} x, "
              f"total {row.total * 1e3:.1f} ms, "
              f"self {row.self_time * 1e3:.1f} ms, "
              f"P99.9 {row.p999 * 1e3:.3f} ms", file=sys.stderr)


def _dispatch_command(parser: argparse.ArgumentParser,
                      args: argparse.Namespace) -> int:
    if args.command == "info":
        print(_cmd_info())
    elif args.command == "presets":
        print(_cmd_presets())
    elif args.command == "backends":
        print(_cmd_backends())
    elif args.command == "generate":
        print(_cmd_generate(args))
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "ops":
        print(_cmd_ops(args))
    elif args.command == "scenario":
        print(_cmd_scenario(args))
    elif args.command == "scale":
        print(_cmd_scale(args))
    elif args.command == "loadtest":
        print(_cmd_loadtest(args))
    elif args.command == "tables":
        print(_cmd_tables(args))
    elif args.command == "fig4":
        print(_cmd_fig4(args))
    elif args.command == "table4":
        rows = run_table4(num_objects=args.objects,
                          transactions=args.transactions,
                          buffer_pages=args.buffer_pages)
        print(render_table4(rows))
    elif args.command == "table5":
        row = run_table5(num_objects=args.objects,
                         transactions=args.transactions,
                         buffer_pages=args.buffer_pages)
        print(render_table5(row))
    elif args.command == "qualitative":
        from repro.clustering.base import NoClustering
        from repro.clustering.dro import DROPolicy
        from repro.clustering.dstc import DSTCPolicy
        from repro.qualitative import assess_policy, render_assessments
        print(render_assessments([assess_policy(NoClustering()),
                                  assess_policy(DSTCPolicy()),
                                  assess_policy(DROPolicy())]))
    else:  # pragma: no cover - argparse enforces choices
        parser.error(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
