"""Engine-side counters folded into the merged process report.

:class:`ParallelReport` must surface what only the engines saw — the
record decodes avoided by structure-only frontier answers — summed over
every worker's engine stats. The concurrent read
layer's counters (widest fan-out, pooled wait time) are gone with it.
"""

from __future__ import annotations

from repro.parallel.report import ParallelReport
from repro.parallel.spec import WorkerResult

REMOVED_COUNTERS = ("max_inflight_reads", "pool_wait_seconds")


def _worker_result(client_id, stats):
    return WorkerResult(client_id=client_id, pid=1000 + client_id,
                        report=None, wall_seconds=0.1, setup_seconds=0.01,
                        backend_stats=stats)


def test_parallel_report_folds_the_concurrency_counters():
    report = ParallelReport(workers=[
        _worker_result(0, {"decodes_avoided": 30, "max_inflight_reads": 2,
                           "pool_wait_seconds": 0.25}),
        _worker_result(1, {"decodes_avoided": 12}),
        _worker_result(2, {}),  # an engine without decode accounting
    ])
    assert report.decodes_avoided == 42
    # Stale keys from an older engine's stats are not folded any more.
    for counter in REMOVED_COUNTERS:
        assert not hasattr(report, counter)


def test_parallel_report_counters_default_to_zero():
    report = ParallelReport(workers=[])
    assert report.decodes_avoided == 0
    for counter in REMOVED_COUNTERS:
        assert not hasattr(report, counter)
