"""Ablation — clustering gain vs. buffer capacity.

The paper's hardware fixes the RAM/database ratio at roughly 8 MB / 15 MB.
This ablation sweeps the buffer pool to show the two regimes around it:

* tiny buffers: every traversal is cold; clustering compresses the
  per-traversal footprint, but nothing is retained across transactions;
* buffers near the clustered hot-set size: the clustered layout suddenly
  *fits*, and the gain factor jumps (the Table 4 operating point);
* buffers larger than the whole database: everything is cached either
  way and the gain collapses toward 1.

Shape contract: gain(best intermediate buffer) > gain(huge buffer).
"""

from __future__ import annotations

import pytest

from conftest import term_print
from repro.clustering.dstc import DSTCParameters, DSTCPolicy
from repro.comparators.dstc_club import DSTCClubBenchmark
from repro.comparators.oo1 import OO1Parameters
from repro.store.storage import StoreConfig

PARTS = 6000
TRANSACTIONS = 12
BUFFERS = (48, 192, 320, 1600)  # Pages; the store is ~520 pages.

_GAINS = {}


def run_club(buffer_pages: int):
    policy = DSTCPolicy(DSTCParameters(
        observation_period=TRANSACTIONS, selection_threshold=1,
        consolidation_weight=1.0, unit_weight_threshold=1.0))
    club = DSTCClubBenchmark(
        parameters=OO1Parameters(num_parts=PARTS, ref_zone=PARTS // 100,
                                 traversal_depth=4),
        store_config=StoreConfig(buffer_pages=buffer_pages),
        policy=policy,
        transactions=TRANSACTIONS, warmup=3)
    return club.run()


@pytest.mark.parametrize("buffer_pages", BUFFERS)
def test_buffer_sweep(benchmark, buffer_pages):
    """Gain factor at one buffer size."""
    result = benchmark.pedantic(lambda: run_club(buffer_pages),
                                rounds=1, iterations=1)
    _GAINS[buffer_pages] = result.gain_factor
    benchmark.extra_info["buffer_pages"] = buffer_pages
    benchmark.extra_info["ios_before"] = round(result.ios_before, 2)
    benchmark.extra_info["ios_after"] = round(result.ios_after, 2)
    benchmark.extra_info["gain"] = round(result.gain_factor, 2)


def test_buffer_sweep_shape(benchmark):
    """Intermediate buffers beat a database-sized buffer."""
    def collect():
        for buffer_pages in BUFFERS:
            if buffer_pages not in _GAINS:
                _GAINS[buffer_pages] = run_club(buffer_pages).gain_factor
        return dict(_GAINS)

    gains = benchmark.pedantic(collect, rounds=1, iterations=1)
    best_mid = max(gains[b] for b in BUFFERS[:-1])
    whole_db = gains[BUFFERS[-1]]
    assert best_mid > whole_db
    assert best_mid > 1.5
    term_print()
    term_print("buffer sweep gains:",
          {b: round(g, 2) for b, g in sorted(gains.items())})
