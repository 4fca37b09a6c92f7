"""ProcessPool: ordered fan-out, fallbacks, error propagation."""

from __future__ import annotations

import os

import pytest

from repro.errors import ParameterError
from repro.parallel import ProcessPool


def _square(x):
    return x * x


def _pid_of(_):
    return os.getpid()


def _explode(x):
    raise ValueError(f"boom {x}")


def _explode_oserror(x):
    raise OSError(f"work failed {x}")


class TestProcessPool:
    def test_rejects_zero_processes(self):
        with pytest.raises(ParameterError):
            ProcessPool(processes=0)

    def test_results_in_submission_order(self):
        pool = ProcessPool(processes=3)
        assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_empty_items(self):
        pool = ProcessPool(processes=2)
        assert pool.map(_square, []) == []
        assert pool.executed_parallel is False

    def test_single_item_still_uses_a_worker_process(self):
        """The one-worker scaling point must pay the same spawn cost as
        every wider point, or the speedup baseline lies."""
        pool = ProcessPool(processes=4)
        (pid,) = pool.map(_pid_of, [0])
        assert pool.executed_parallel is True
        assert pid != os.getpid()

    def test_parallel_false_runs_sequentially(self):
        pool = ProcessPool(processes=4, parallel=False)
        assert pool.map(_pid_of, [0, 1]) == [os.getpid(), os.getpid()]
        assert pool.executed_parallel is False

    def test_parallel_map_uses_worker_processes(self):
        pool = ProcessPool(processes=2)
        pids = pool.map(_pid_of, [0, 1])
        assert pool.executed_parallel is True
        assert all(pid != os.getpid() for pid in pids)

    def test_each_item_runs_in_its_own_process(self):
        # A free worker must never pick up a second item: N clients are
        # N OS processes whenever there are processes enough.
        pool = ProcessPool(processes=6)
        pids = pool.map(_pid_of, range(4))
        assert len(set(pids)) == 4

    def test_spawns_at_most_processes(self):
        pool = ProcessPool(processes=2)
        pids = pool.map(_pid_of, range(5))
        assert len(set(pids)) == 2
        assert pids[0] == pids[2] == pids[4]  # Dealt round robin.

    def test_worker_exception_propagates(self):
        pool = ProcessPool(processes=2)
        with pytest.raises(ValueError, match="boom"):
            pool.map(_explode, [1, 2])

    def test_sequential_exception_propagates(self):
        pool = ProcessPool(processes=2, parallel=False)
        with pytest.raises(ValueError, match="boom 1"):
            pool.map(_explode, [1, 2])

    def test_executed_parallel_resets_between_maps(self):
        pool = ProcessPool(processes=2)
        pool.map(_square, [1, 2])
        assert pool.executed_parallel is True
        pool.parallel = False
        pool.map(_square, [5])
        assert pool.executed_parallel is False

    def test_worker_exception_is_not_masked_by_fallback(self):
        """An OSError raised by the *work* propagates — it must never be
        mistaken for pool-creation failure and silently re-run."""
        pool = ProcessPool(processes=2)
        with pytest.raises(OSError, match="work failed"):
            pool.map(_explode_oserror, [1, 2])
        assert pool.executed_parallel is False
