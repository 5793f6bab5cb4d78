"""Threads inside a process: the pool the fast kernels' element blocks share.

The paper's solver runs threads inside each rank.  Here
:class:`~repro.kernels.backend.FastBackend` hands the element blocks of one
dispatch (every cluster due at an LTS micro step) to one per-process
:class:`BlockPool`, whose threads claim them one at a time from a shared
counter; every NumPy/BLAS call of a block releases the GIL, so the blocks run
on separate cores.

The thread count is derived, never configured (:func:`thread_budget`): the
CPUs this process may run on (``os.sched_getaffinity``), divided by the
processes the run forks onto them -- a rank worker or a sweep worker declares
that share with :func:`share_cpus` when it starts -- and by the threads each
BLAS call already runs on, so kernel threads never oversubscribe the cores.
A 2-rank run on 2 CPUs therefore steps one thread per rank, and a
single-process run with ``OPENBLAS_NUM_THREADS=2`` on 2 CPUs one thread.

The pool never crosses a ``fork``: a forked child starts with no pool and a
share of one, and builds its own pool at its first threaded batch.
"""

from __future__ import annotations

import itertools
import os
import queue
import threading
from functools import partial

__all__ = ["BlockPool", "block_pool", "blas_threads", "share_cpus", "thread_budget"]

#: processes sharing this process's CPUs (set by rank and sweep workers)
_share = 1
#: threads per BLAS call, read once per process
_blas: int | None = None
#: this process's pool (``None`` until the first threaded batch)
_pool: BlockPool | None = None
#: guards building the pool against two threads reaching it at once
_pool_lock = threading.Lock()


def share_cpus(n_processes: int) -> None:
    """Declare that this process shares its CPUs with ``n_processes - 1``
    sibling processes of the same run (called once by each worker)."""
    global _share
    _share = max(1, int(n_processes))


def blas_threads() -> int:
    """Threads one BLAS call of this process runs on: the count the OpenBLAS
    mapped into the process reports, or 1 where none is mapped (or ``/proc``
    cannot say)."""
    global _blas
    if _blas is None:
        _blas = _openblas_threads() or 1
    return _blas


def _openblas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                return int(function())
    return None


def thread_budget() -> int:
    """Kernel threads of this process: its CPUs divided by the processes
    sharing them and by the BLAS threads of each call (at least 1)."""
    affinity = getattr(os, "sched_getaffinity", None)  # Linux only
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    return max(1, cpus // (_share * blas_threads()))


def block_pool() -> BlockPool:
    """This process's pool, (re)built at the current :func:`thread_budget`."""
    global _pool
    n_threads = thread_budget()
    with _pool_lock:
        if _pool is None or _pool.n_threads != n_threads:
            if _pool is not None:
                _pool.close()
            _pool = BlockPool(n_threads)
        return _pool


def _forget_after_fork() -> None:
    # the parent's worker threads do not exist in the child, and the child
    # declares its own share (its BLAS keeps the parent's thread count)
    global _pool, _pool_lock, _share
    _pool, _pool_lock, _share = None, threading.Lock(), 1


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_forget_after_fork)


class BlockPool:
    """The calling thread plus ``n_threads - 1`` daemon workers.

    :meth:`run` calls ``work(item, slot)`` once per item: each thread (the
    caller is slot 0) claims the next unclaimed item from a shared counter,
    so a thread that drew short items takes more of them.  One batch runs at
    a time.
    """

    def __init__(self, n_threads: int):
        self.n_threads = n_threads
        self._lock = threading.Lock()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._inboxes = [queue.SimpleQueue() for _ in range(n_threads - 1)]
        for i, inbox in enumerate(self._inboxes, start=1):
            threading.Thread(
                target=self._serve, args=(inbox,), name=f"repro-kernels-{i}", daemon=True
            ).start()

    def _serve(self, inbox) -> None:
        while (task := inbox.get()) is not None:
            try:
                task()
                outcome = None
            except BaseException as error:  # handed to the caller of run()
                outcome = error
            # drop the batch before run() can return: an idle worker must not
            # keep a dropped solver's arrays alive until the next dispatch
            del task
            self._done.put(outcome)

    def run(self, items: list, work) -> None:
        """``work(item, slot)`` for every item on ``min(len(items),
        n_threads)`` threads.  The first error stops every thread from
        claiming further items (each finishes the one it runs, none runs
        twice) and is re-raised once every thread has returned; the pool
        then serves the next batch as usual."""
        claim = itertools.count().__next__  # atomic under the GIL
        errors: list = []

        def claim_items(slot: int) -> None:
            while not errors:
                i = claim()
                if i >= len(items):
                    return
                try:
                    work(items[i], slot)
                except BaseException as error:
                    errors.append(error)

        helpers = self._inboxes[: min(len(items), self.n_threads) - 1]
        with self._lock:
            for slot, inbox in enumerate(helpers, start=1):
                inbox.put(partial(claim_items, slot))
            claim_items(0)
            errors += [error for error in (self._done.get() for _ in helpers) if error is not None]
        if errors:
            raise errors[0]

    def close(self) -> None:
        """Let the workers exit (the pool is unusable afterwards)."""
        for inbox in self._inboxes:
            inbox.put(None)
