"""A small, honest process pool for the parallel harness.

Runs a callable over items in worker processes, with the three
properties the benchmark needs and ``concurrent.futures`` does not
promise:

* **ordered results** — ``map`` returns results in submission order so
  worker *k* is always client *k*;
* **graceful degradation** — environments where process spawning is
  unavailable (locked-down sandboxes, or an explicit
  ``parallel=False``) fall back to running the same callable
  sequentially in-process; :attr:`ProcessPool.executed_parallel` records
  which path actually ran so reports never claim parallel wall-clock
  they did not measure;
* **one process per item** — items are dealt to the worker processes
  round robin before any starts, so with at least as many processes as
  items every item runs in a process of its own (N clients are N OS
  processes), never two on whichever worker happened to be free.

Each worker is a plain :class:`multiprocessing.Process` that sends its
results back over its own pipe; the parent starts no helper threads.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.connection import Connection
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ParameterError

__all__ = ["ProcessPool"]

_T = TypeVar("_T")
_R = TypeVar("_R")


def _serve(fn: Callable[[_T], _R], items: Sequence[_T],
           connection: Connection) -> None:
    """Worker body: run *items* in order, send back results or the error."""
    try:
        message = (True, [fn(item) for item in items])
    except Exception as exc:  # noqa: BLE001 - re-raised by the parent.
        message = (False, exc)
    connection.send(message)
    connection.close()


class ProcessPool:
    """Run a callable over items in worker processes, in order."""

    def __init__(self, processes: int,
                 start_method: Optional[str] = None,
                 parallel: bool = True) -> None:
        if processes < 1:
            raise ParameterError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self.start_method = start_method
        self.parallel = parallel
        #: Whether the last :meth:`map` actually ran in worker processes.
        self.executed_parallel = False

    def map(self, fn: Callable[[_T], _R], items: Sequence[_T]) -> List[_R]:
        """Apply *fn* to every item; results in submission order.

        Worker exceptions propagate to the caller (the first failing
        worker's, once every worker has finished).  Only a failure to
        *start* the workers (forbidden fork, no process support) falls
        back to running the items sequentially in this process, with
        :attr:`executed_parallel` left ``False``; an error raised by the
        work itself is never masked.  A single item still runs in a
        worker process — the one-worker point of a scaling sweep must
        pay the same spawn and pickling costs every wider point pays.
        """
        items = list(items)
        self.executed_parallel = False
        if not items:
            return []
        if not self.parallel:
            return [fn(item) for item in items]
        workers = min(self.processes, len(items))
        try:
            started = self._start(fn, [items[k::workers]
                                       for k in range(workers)])
        except (OSError, ImportError):
            # The OS refused us processes; degrade honestly.
            return [fn(item) for item in items]
        shares = self._collect(started)
        results: List[_R] = [None] * len(items)  # type: ignore[list-item]
        for k, share in enumerate(shares):
            results[k::workers] = share
        self.executed_parallel = True
        return results

    def _start(self, fn: Callable[[_T], _R], shares: List[List[_T]]
               ) -> List[tuple]:
        """Start one process per share; all or none are left running."""
        context = multiprocessing.get_context(self.start_method)
        started: List[tuple] = []
        try:
            for share in shares:
                receiver, sender = context.Pipe(duplex=False)
                process = context.Process(target=_serve,
                                          args=(fn, share, sender))
                process.start()
                sender.close()  # The child holds its own copy.
                started.append((process, receiver))
        except BaseException:
            self._stop(started)
            raise
        return started

    def _collect(self, started: List[tuple]) -> list:
        """Each worker's results, in worker order; raise the first error.

        Every pipe is drained before its process is joined (a child
        blocks in ``send`` until its results are read).
        """
        messages = []
        try:
            for process, receiver in started:
                try:
                    messages.append(receiver.recv())
                except EOFError:
                    process.join()
                    raise BrokenProcessPool(
                        f"worker pid {process.pid} exited with code "
                        f"{process.exitcode} before sending its results"
                    ) from None
                process.join()
        finally:
            self._stop(started)
        for ok, payload in messages:
            if not ok:
                raise payload
        return [payload for _, payload in messages]

    @staticmethod
    def _stop(started: List[tuple]) -> None:
        """Close every pipe; end any worker still running."""
        for process, receiver in started:
            receiver.close()
            if process.is_alive():
                process.terminate()
            process.join()
