"""Shared-mode worker processes leave the link index matching the blobs.

Two worker processes run the mutating ``write_heavy`` scenario against
one shared store — a WAL SQLite file, or a directory of shard files —
with the ``links`` index on.  Their rewrites diff link rows against the
stored slots under each connection's write lock, so after the run the
``links`` table of the file (of every shard) must equal the non-NULL
slots of its decoded blobs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backends import ShardedSQLiteBackend, SQLiteBackend
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters
from repro.core.presets import scenario_preset
from repro.core.scenario import ScenarioRunner

CLIENTS = 2


def make_database():
    params = DatabaseParameters(num_classes=6, max_nref=4, base_size=25,
                                num_objects=220, num_ref_types=4, seed=1998)
    database, _ = generate_database(params, validate=True)
    return database


@pytest.mark.parametrize("backend", ["sqlite", "sharded-sqlite"])
def test_shared_write_heavy_keeps_links_matching_blobs(backend, tmp_path):
    path = str(tmp_path / ("shards" if backend == "sharded-sqlite"
                           else "shared.db"))
    scenario = replace(scenario_preset("write_heavy"), clients=CLIENTS,
                       cold_ops=2, warm_ops=40, backend=backend,
                       backend_options={"path": path, "ref_index": True,
                                        "busy_timeout_ms": 10000})
    report = ScenarioRunner(make_database(), scenario).run_processes()
    assert report.mode == "shared"
    assert report.write_operations > 0
    if backend == "sharded-sqlite":
        engine = ShardedSQLiteBackend(path=path, shards=CLIENTS)
        shards = engine._engines
    else:
        engine = SQLiteBackend(path=path, ref_index=True)
        shards = [engine]
    try:
        for shard in shards:
            assert shard.object_count > 0
            assert shard.link_index_drift() == set()
    finally:
        engine.close()
