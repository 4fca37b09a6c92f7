"""Cross-backend benchmark: the same OCB workload on every engine.

The genericity demonstration — one generated database, one transaction
mix, one RNG seed, executed against every registered backend.  The
logical workload (objects visited per transaction) must be identical
across engines; what differs is *where the time goes*: simulated I/O
for the cost-model store, real wall-clock latency for the others.

Runs as a plain pytest module (no pytest-benchmark required) so the
comparison table is regenerated by the ordinary suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_backends.py -q
"""

from __future__ import annotations

import pytest

from conftest import term_print

from repro.backends import SQLiteBackend, available_backends
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
)
from repro.core.benchmark import OCBBenchmark
from repro.reporting import render_backend_comparison, summarize_backend_run
from repro.store.storage import StoreConfig

#: Scaled-down defaults: 2 000 objects, 20 cold + 200 warm transactions.
DB_SCALE = 0.1
WL_SCALE = 0.02
BUFFER_PAGES = 128
SEED = 19980323  # EDBT '98.


def _run_backend(name: str):
    bench = OCBBenchmark(
        default_database_parameters(scale=DB_SCALE, seed=SEED),
        default_workload_parameters(scale=WL_SCALE),
        StoreConfig(buffer_pages=BUFFER_PAGES),
        backend=name)
    result = bench.run()
    assert bench.backend is not None
    bench.backend.close()
    return result


@pytest.fixture(scope="module")
def backend_results():
    return {info.name: _run_backend(info.name)
            for info in available_backends()}


def test_backend_comparison_table(backend_results):
    summaries = [summarize_backend_run(name, result.report.warm)
                 for name, result in sorted(backend_results.items())]
    term_print(render_backend_comparison(summaries))
    assert len(summaries) >= 3


def test_logical_workload_identical_across_backends(backend_results):
    """Same seed + same graph => every engine visits the same objects."""
    reference = None
    for name, result in sorted(backend_results.items()):
        totals = result.report.warm.transactions().totals
        signature = (totals.count, totals.objects, totals.distinct_objects)
        if reference is None:
            reference = (name, signature)
        else:
            assert signature == reference[1], \
                f"{name} diverged from {reference[0]}: " \
                f"{signature} != {reference[1]}"


def test_only_simulated_reports_simulated_ios(backend_results):
    for name, result in backend_results.items():
        totals = result.report.warm.transactions().totals
        if name == "simulated":
            assert totals.io_reads > 0
            assert totals.sim_time > 0.0
        else:
            assert totals.io_reads == 0
            assert totals.sim_time == 0.0


def test_every_backend_reports_wall_percentiles(backend_results):
    for name, result in backend_results.items():
        warm = result.report.warm.transactions()
        wall = warm.wall_percentiles()
        assert wall.count == warm.totals.count
        assert wall.p50 <= wall.p95 <= wall.p99
        assert wall.p99 > 0.0, f"{name} reported zero wall-clock latency"


class _PerObjectSQLite(SQLiteBackend):
    """SQLite declaring no batched reads: the Session reads per object."""

    supports_batched_reads = False


def _run_set_oriented_sqlite(engine: type):
    """Set-oriented (BFS) workload on a SQLite *engine* class."""
    from repro.core.generation import generate_database
    from repro.core.scenario import Scenario, ScenarioRunner

    database, _ = generate_database(
        default_database_parameters(scale=DB_SCALE, seed=SEED))
    params = default_workload_parameters(scale=WL_SCALE)
    from dataclasses import replace
    params = replace(params, p_set=0.7, p_simple=0.1, p_hierarchy=0.1,
                     p_stochastic=0.1, reverse_probability=0.25)
    scenario = Scenario.from_workload_parameters(params, clients=1)
    store = engine()
    try:
        report = ScenarioRunner(database, scenario, store=store).run()
    finally:
        store.close()
    totals = report.clients[0].warm.transactions().totals
    return ((totals.count, totals.objects, totals.distinct_objects),
            report.sql_round_trips)


def test_sqlite_frontier_batching_saves_round_trips():
    """The tentpole's hot-path win, measured: set-oriented traversals on
    SQLite answer each BFS frontier with one ``IN``-clause ``read_many``
    query, so the batched run issues far fewer SQL round trips than the
    per-object run while visiting exactly the same objects."""
    batched_signature, batched_trips = _run_set_oriented_sqlite(SQLiteBackend)
    looped_signature, looped_trips = _run_set_oriented_sqlite(
        _PerObjectSQLite)
    assert batched_signature == looped_signature, \
        "batching changed the logical workload"
    assert batched_trips < looped_trips, \
        f"batched={batched_trips} >= per-object={looped_trips}"
    saving = 1.0 - batched_trips / looped_trips
    term_print(f"SQLite set-oriented round trips: {looped_trips} per-object "
               f"-> {batched_trips} batched ({saving:.0%} fewer)")
    # The win must be structural, not marginal.
    assert saving > 0.5


def test_sqlite_traversal_answers_frontiers_without_record_decode():
    """The batched *reference* traversal (``traverse_refs_many``):
    expanding a BFS frontier's outgoing edges is one ``IN``-clause
    query that unpacks only each blob's ref vector (``decode_refs``) —
    no record object is built — versus one ``read_many`` round trip
    *plus* a full decode of every record.  Both answer identically;
    the bench quotes the round-trip counts side by side."""
    import time

    from repro.backends import SQLiteBackend
    from repro.core.generation import generate_database

    database, _ = generate_database(
        default_database_parameters(scale=DB_SCALE, seed=SEED))
    records = database.to_records()
    frontier_seed = sorted(records)[::7][:120]

    def expand(backend, fn):
        """Three BFS levels from the seed frontier, via *fn*."""
        backend.reset_stats()
        start = time.perf_counter()
        frontier = list(frontier_seed)
        trips_total = 0
        for _ in range(3):
            refs = fn(backend, frontier)
            frontier = sorted({target for targets in refs.values()
                               for target in targets})
            if not frontier:
                break
        elapsed = time.perf_counter() - start
        trips_total = backend.stats()["sql_round_trips"]
        return trips_total, elapsed

    def via_records(backend, frontier):
        return {oid: record.non_null_refs()
                for oid, record in backend.read_many(frontier).items()}

    def via_structure(backend, frontier):
        return backend.traverse_refs_many(frontier)

    plain = SQLiteBackend(page_size=4096, cache_pages=256)
    plain.bulk_load(records.values(), order=sorted(records))
    structure = SQLiteBackend(page_size=4096, cache_pages=256)
    structure.bulk_load(records.values(), order=sorted(records))

    # Same frontier expansion, same answers.
    assert plain.read_many(frontier_seed).keys() == \
        structure.traverse_refs_many(frontier_seed).keys()
    assert via_records(plain, frontier_seed) == \
        via_structure(structure, frontier_seed)

    record_trips, record_time = expand(plain, via_records)
    structure_trips, structure_time = expand(structure, via_structure)
    term_print(f"SQLite frontier expansion (3 BFS levels): "
               f"{record_trips} round trips decoding records vs "
               f"{structure_trips} structure-only "
               f"({record_time * 1e3:.1f} ms vs "
               f"{structure_time * 1e3:.1f} ms)")
    plain.close()
    structure.close()
    # Same number of set-oriented queries, but the structure-only path
    # never builds a record — it must not cost *more* round trips.
    assert structure_trips <= record_trips
