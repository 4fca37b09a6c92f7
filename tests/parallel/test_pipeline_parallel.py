"""Engine-side counters folded into the merged process report.

A process run's :class:`~repro.core.scenario.ScenarioReport` must
surface what only the engines saw — the record decodes avoided by
structure-only frontier answers — summed over every worker's engine
stats. The concurrent read layer's counters (widest fan-out, pooled
wait time) are gone with it.
"""

from __future__ import annotations

from repro.core.scenario import ClientScenarioReport, ScenarioPhase, \
    ScenarioReport

REMOVED_COUNTERS = ("max_inflight_reads", "pool_wait_seconds")


def _worker_report(client_id, stats):
    return ClientScenarioReport(client_id=client_id,
                                cold=ScenarioPhase(name="cold"),
                                warm=ScenarioPhase(name="warm"),
                                pid=1000 + client_id, engine_stats=stats)


def test_parallel_report_folds_the_concurrency_counters():
    report = ScenarioReport(scenario_name="pipeline", mode="shared", clients=[
        _worker_report(0, {"decodes_avoided": 30, "max_inflight_reads": 2,
                           "pool_wait_seconds": 0.25}),
        _worker_report(1, {"decodes_avoided": 12}),
        _worker_report(2, {}),  # an engine without decode accounting
    ])
    assert report.decodes_avoided == 42
    assert report.to_dict()["decodes_avoided"] == 42
    # Stale keys from an older engine's stats are not folded any more.
    for counter in REMOVED_COUNTERS:
        assert not hasattr(report, counter)
        assert counter not in report.to_dict()


def test_parallel_report_counters_default_to_zero():
    report = ScenarioReport(scenario_name="pipeline", mode="shared")
    assert report.decodes_avoided == 0
    for counter in REMOVED_COUNTERS:
        assert not hasattr(report, counter)
