"""Reproduction harness for every table and figure of the paper.

One function per experiment:

* :func:`run_fig4`   — Figure 4, database creation time vs. size for 1-,
  20- and 50-class schemas;
* :func:`run_table4` — Table 4, I/Os before/after DSTC reorganization for
  the native DSTC-CluB benchmark and for OCB parameterized per Table 3;
* :func:`run_table5` — Table 5, the same protocol with OCB defaults
  (mixed workload).

Scaled-down sizes are used by default (the paper's full 20 000-object,
10 000-transaction runs take minutes in pure Python); every size knob is
exposed, and EXPERIMENTS.md records paper-vs-measured at the scales used.
The PAPER_* constants hold the published values so benches and tests can
assert the *shape* (orderings, gain ranges) rather than absolute numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.comparators.dstc_club import DSTCClubBenchmark, DSTCClubResult
from repro.comparators.oo1 import OO1Parameters
from repro.core.experiment import ClusteringExperiment, ExperimentResult
from repro.core.generation import generate_database
from repro.core.parameters import DatabaseParameters, WorkloadParameters
from repro.core.presets import (
    default_database_parameters,
    default_workload_parameters,
    dstc_club_database_parameters,
    dstc_club_workload_parameters,
)
from repro.clustering.placements import placement_from_name
from repro.rand.lewis_payne import DEFAULT_SEED
from repro.reporting.figures import Series
from repro.reporting.tables import render_table
from repro.store.storage import StoreConfig

__all__ = [
    "PAPER_FIG4_SIZES",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "Fig4Point",
    "run_fig4",
    "fig4_series",
    "Table4Row",
    "run_table4",
    "run_table5",
    "render_table4",
    "render_table5",
]

#: Figure 4's x axis (number of instances).
PAPER_FIG4_SIZES: Tuple[int, ...] = (10, 100, 1000, 10000, 20000)

#: Table 4 of the paper: label -> (I/Os before, I/Os after, gain factor).
PAPER_TABLE4: Dict[str, Tuple[float, float, float]] = {
    "DSTC-CluB": (66.0, 5.0, 13.2),
    "OCB": (61.0, 7.0, 8.71),
}

#: Table 5 of the paper: OCB default workload.
PAPER_TABLE5: Dict[str, Tuple[float, float, float]] = {
    "OCB": (31.0, 12.0, 2.58),
}


# ---------------------------------------------------------------------- #
# Figure 4 — database creation time
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Fig4Point:
    """One measured generation."""

    num_classes: int
    num_objects: int
    seconds: float


def run_fig4(sizes: Sequence[int] = (10, 100, 1000, 5000),
             class_counts: Sequence[int] = (1, 20, 50),
             seed: int = DEFAULT_SEED,
             repeats: int = 1) -> List[Fig4Point]:
    """Measure database generation time over the (NC, NO) grid.

    ``repeats`` > 1 keeps the fastest run per point (the usual best-of-N
    timing discipline for short measurements).
    """
    points: List[Fig4Point] = []
    for num_classes in class_counts:
        for num_objects in sizes:
            best = float("inf")
            for _ in range(max(1, repeats)):
                params = DatabaseParameters(
                    num_classes=num_classes,
                    max_nref=10,
                    base_size=50,
                    num_objects=num_objects,
                    seed=seed)
                start = time.perf_counter()
                generate_database(params)
                best = min(best, time.perf_counter() - start)
            points.append(Fig4Point(num_classes=num_classes,
                                    num_objects=num_objects,
                                    seconds=best))
    return points


def fig4_series(points: Sequence[Fig4Point]) -> Series:
    """Regroup Fig. 4 points into plottable series keyed by class count."""
    series: Series = {}
    for point in points:
        series.setdefault(f"{point.num_classes} classes", []).append(
            (float(point.num_objects), point.seconds))
    for pts in series.values():
        pts.sort()
    return series


# ---------------------------------------------------------------------- #
# Table 4 — DSTC-CluB vs. OCB-mimicking-CluB
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Table4Row:
    """One measured row next to the paper's."""

    label: str
    ios_before: float
    ios_after: float
    gain: float
    clustering_overhead_ios: int
    paper_before: float
    paper_after: float
    paper_gain: float


def _dstc_policy(transactions: int) -> DSTCPolicy:
    """The DSTC tuning used by the reproduction experiments.

    The thresholds are set to their most inclusive values because the
    scaled runs cross each link only a handful of times (the "T" in DSTC
    is exactly this tunability); the observation window spans the whole
    measured phase so nothing is aged out before consolidation.
    """
    return DSTCPolicy(DSTCParameters(
        observation_period=max(1, transactions),
        selection_threshold=1,
        consolidation_weight=1.0,
        unit_weight_threshold=1.0,
        unit_strategy="greedy"))


def run_table4(num_objects: int = 16000,
               transactions: int = 20,
               buffer_pages: int = 384,
               club_depth: int = 4,
               ocb_depth: int = 4,
               seed: int = DEFAULT_SEED) -> List[Table4Row]:
    """Both Table 4 rows at a configurable scale.

    Row 1 runs the *native* DSTC-CluB benchmark (OO1 database, depth-7
    traversals); row 2 runs OCB parameterized per Table 3 to approximate
    it.  RefZone is 1 % of the population, as in OO1.  The default depths
    are scaled down from OO1's 7 hops so the traversal footprint stays
    proportional to the scaled database (EXPERIMENTS.md, exp. T4); buffer
    size follows the paper's RAM/database ratio (8 MB vs ~15 MB).
    """
    ref_zone = max(1, num_objects // 100)
    rows: List[Table4Row] = []

    # Row 1 — native DSTC-CluB.
    club = DSTCClubBenchmark(
        parameters=OO1Parameters(num_parts=num_objects, ref_zone=ref_zone,
                                 traversal_depth=club_depth, seed=seed),
        store_config=StoreConfig(buffer_pages=buffer_pages),
        policy=_dstc_policy(transactions),
        transactions=transactions)
    club_result: DSTCClubResult = club.run()
    paper = PAPER_TABLE4["DSTC-CluB"]
    rows.append(Table4Row(
        label="DSTC-CluB",
        ios_before=club_result.ios_before,
        ios_after=club_result.ios_after,
        gain=club_result.gain_factor,
        clustering_overhead_ios=club_result.clustering_overhead_ios,
        paper_before=paper[0], paper_after=paper[1], paper_gain=paper[2]))

    # Row 2 — OCB parameterized per Table 3.  The OO1 database above holds
    # parts *and* connections; OCB's approximation folds connections into
    # direct part-to-part references, so the object count is matched to
    # the OO1 run's total population for a comparable database size.
    ocb_objects = num_objects * 2
    db_params = dstc_club_database_parameters(
        num_objects=ocb_objects, ref_zone=max(1, ocb_objects // 100),
        seed=seed)
    wl_params = dstc_club_workload_parameters(
        transactions=transactions, cold=max(1, transactions // 10),
        depth=ocb_depth)
    ocb_result = _run_ocb_experiment(db_params, wl_params, buffer_pages,
                                     transactions, label="OCB")
    paper = PAPER_TABLE4["OCB"]
    rows.append(Table4Row(
        label="OCB",
        ios_before=ocb_result.ios_before,
        ios_after=ocb_result.ios_after,
        gain=ocb_result.gain_factor,
        clustering_overhead_ios=ocb_result.clustering_overhead_ios,
        paper_before=paper[0], paper_after=paper[1], paper_gain=paper[2]))
    return rows


def _run_ocb_experiment(db_params: DatabaseParameters,
                        wl_params: WorkloadParameters,
                        buffer_pages: int,
                        transactions: int,
                        label: str) -> ExperimentResult:
    database, _report = generate_database(db_params)
    store = StoreConfig(buffer_pages=buffer_pages).build()
    records = database.to_records()
    order = placement_from_name("sequential")(records)
    store.bulk_load(records.values(), order=order)
    store.reset_stats()
    experiment = ClusteringExperiment(
        database, store, _dstc_policy(transactions), wl_params, label=label)
    return experiment.run()


# ---------------------------------------------------------------------- #
# Table 5 — OCB defaults (mixed workload)
# ---------------------------------------------------------------------- #

def run_table5(num_objects: int = 8000,
               transactions: int = 60,
               buffer_pages: int = 340,
               seed: int = DEFAULT_SEED) -> Table4Row:
    """Table 5: the before/after protocol under OCB's default mix.

    The defaults keep the same buffer/database ratio as :func:`run_table4`
    so the two tables are comparable — the shape to reproduce is the
    *drop* in gain factor once the workload stops being a single
    stereotyped traversal (paper: 13.2/8.71 -> 2.58).
    """
    db_params = default_database_parameters(
        scale=num_objects / 20000, seed=seed)
    base = default_workload_parameters()
    wl_params = WorkloadParameters(
        set_depth=base.set_depth,
        simple_depth=base.simple_depth,
        hierarchy_depth=base.hierarchy_depth,
        stochastic_depth=base.stochastic_depth,
        cold_n=max(1, transactions // 5),
        hot_n=transactions,
        p_set=base.p_set, p_simple=base.p_simple,
        p_hierarchy=base.p_hierarchy, p_stochastic=base.p_stochastic,
        max_visits=2000)
    result = _run_ocb_experiment(db_params, wl_params, buffer_pages,
                                 transactions, label="OCB")
    paper = PAPER_TABLE5["OCB"]
    return Table4Row(
        label="OCB",
        ios_before=result.ios_before,
        ios_after=result.ios_after,
        gain=result.gain_factor,
        clustering_overhead_ios=result.clustering_overhead_ios,
        paper_before=paper[0], paper_after=paper[1], paper_gain=paper[2])


# ---------------------------------------------------------------------- #
# Rendering
# ---------------------------------------------------------------------- #

_TABLE_HEADERS = ("Benchmark", "I/Os before", "I/Os after", "Gain",
                  "paper before", "paper after", "paper gain")


def render_table4(rows: Sequence[Table4Row]) -> str:
    """Measured Table 4 next to the paper's values."""
    body = [[r.label, r.ios_before, r.ios_after, r.gain,
             r.paper_before, r.paper_after, r.paper_gain] for r in rows]
    return render_table(_TABLE_HEADERS, body,
                        title="Table 4 — Texas/DSTC, OCB vs DSTC-CluB")


def render_table5(row: Table4Row) -> str:
    """Measured Table 5 next to the paper's values."""
    body = [[row.label, row.ios_before, row.ios_after, row.gain,
             row.paper_before, row.paper_after, row.paper_gain]]
    return render_table(_TABLE_HEADERS, body,
                        title="Table 5 — Texas/DSTC with OCB defaults")
