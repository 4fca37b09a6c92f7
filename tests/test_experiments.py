"""Experiment harness tests — the paper's shapes at miniature scale.

The benchmark suite (benchmarks/) runs the calibrated scales; here the
same harness runs tiny instances so that every shape invariant the
reproduction promises is asserted on every test run.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    PAPER_FIG4_SIZES,
    PAPER_TABLE4,
    PAPER_TABLE5,
    fig4_series,
    render_table4,
    render_table5,
    run_fig4,
    run_table4,
    run_table5,
)


class TestPaperConstants:
    def test_fig4_sizes(self):
        assert PAPER_FIG4_SIZES == (10, 100, 1000, 10000, 20000)

    def test_table4_values(self):
        assert PAPER_TABLE4["DSTC-CluB"] == (66.0, 5.0, 13.2)
        assert PAPER_TABLE4["OCB"] == (61.0, 7.0, 8.71)

    def test_table5_values(self):
        assert PAPER_TABLE5["OCB"] == (31.0, 12.0, 2.58)


class TestFig4:
    def test_grid_measured(self):
        points = run_fig4(sizes=(10, 200), class_counts=(1, 5), repeats=1)
        assert len(points) == 4
        assert all(p.seconds >= 0.0 for p in points)

    def test_time_grows_with_size(self):
        points = run_fig4(sizes=(50, 4000), class_counts=(10,), repeats=2)
        by_size = {p.num_objects: p.seconds for p in points}
        assert by_size[4000] > by_size[50]

    def test_series_regrouping(self):
        points = run_fig4(sizes=(10, 20), class_counts=(1, 2))
        series = fig4_series(points)
        assert set(series) == {"1 classes", "2 classes"}
        for pts in series.values():
            assert pts == sorted(pts)


@pytest.mark.slow
class TestTable4Shape:
    """The headline: DSTC wins big on the stereotyped traversal workload."""

    @pytest.fixture(scope="class")
    def rows(self):
        return run_table4(num_objects=4000, transactions=10,
                          buffer_pages=96, club_depth=4, ocb_depth=4)

    def test_two_rows(self, rows):
        assert [r.label for r in rows] == ["DSTC-CluB", "OCB"]

    def test_clustering_always_wins(self, rows):
        for row in rows:
            assert row.gain > 1.0, row
            assert row.ios_after < row.ios_before

    def test_overhead_accounted(self, rows):
        for row in rows:
            assert row.clustering_overhead_ios > 0

    def test_render(self, rows):
        text = render_table4(rows)
        assert "Table 4" in text
        assert "DSTC-CluB" in text
        assert "paper" in text


@pytest.mark.slow
class TestTable5Shape:
    """Mixed workload: the gain factor drops but stays above 1."""

    def test_gain_smaller_than_table4_but_positive(self):
        table4 = run_table4(num_objects=4000, transactions=10,
                            buffer_pages=96, club_depth=4, ocb_depth=4)
        table5 = run_table5(num_objects=1500, transactions=20,
                            buffer_pages=64)
        assert table5.gain > 1.0
        assert table5.gain < max(row.gain for row in table4)

    def test_render(self):
        row = run_table5(num_objects=1000, transactions=10, buffer_pages=48)
        text = render_table5(row)
        assert "Table 5" in text


@pytest.mark.slow
class TestDefaultTables:
    """Tables 4 and 5 at their default arguments, pinned to two decimals.

    The simulated store's accounting is deterministic, so a change to
    the read, fault or eviction path that moves any of these numbers
    changes the reproduced tables.
    """

    def test_table4(self):
        rows = run_table4()
        assert [(row.label, round(row.ios_before, 2), round(row.ios_after, 2),
                 row.clustering_overhead_ios) for row in rows] == [
            ("DSTC-CluB", 53.90, 8.95, 2771),
            ("OCB", 38.55, 9.70, 1983)]

    def test_table5(self):
        row = run_table5()
        assert (round(row.ios_before, 2), round(row.ios_after, 2),
                row.clustering_overhead_ios) == (305.37, 195.45, 1853)
