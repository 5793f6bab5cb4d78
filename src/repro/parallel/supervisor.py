"""Worker processes: how one starts, watches its parent, and stops.

Rank workers (:mod:`repro.distributed.process_engine`) and sweep workers
(:mod:`repro.sweep.orchestrator`) both start with :func:`start_worker` and
stop with :func:`stop_workers`.  The one orphan policy: a SIGKILLed parent
can neither send a stop command nor close a pipe (under fork every worker
inherits the parent ends of its siblings' pipes, so there is no EOF), and
the worker may sit anywhere when it happens -- in a command wait,
mid-member, or in a halo receive whose sender already left.  So every
worker watches for its reparenting on its own thread and ends itself with
``os._exit`` (nothing is left to report to) within :data:`ORPHAN_POLL_S`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

from ..kernels.threads import share_cpus

__all__ = ["ORPHAN_POLL_S", "worker_context", "start_worker", "stop_workers"]

#: how often a worker's watchdog checks whether its parent is gone
ORPHAN_POLL_S = 1.0


def worker_context():
    """``fork`` where the platform has it (children share the parent's built
    state for free); workers get only picklable arguments, so spawn works too."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _exit_when_orphaned(parent_pid: int) -> None:
    while os.getppid() == parent_pid:
        time.sleep(ORPHAN_POLL_S)
    os._exit(1)


def _supervised(parent_pid: int, n_workers: int, target, args: tuple) -> None:
    """The child side of :func:`start_worker`.

    ``parent_pid`` comes from the parent: read here, ``os.getppid()`` would
    already name the adoptive parent if the real one was SIGKILLed while
    this worker was starting, and the watchdog could never fire.
    """
    if os.getppid() != parent_pid:
        return  # orphaned during start-up: do not even run the target
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,), daemon=True).start()
    share_cpus(n_workers)  # the workers split the host's cores
    target(*args)


def start_worker(ctx, target, args, n_workers: int, daemon: bool = False):
    """Start ``target(*args)`` in a supervised child, one of ``n_workers``
    siblings.  ``daemon`` workers die with a parent that exits normally but
    cannot start workers of their own."""
    process = ctx.Process(
        target=_supervised, args=(os.getpid(), n_workers, target, tuple(args)), daemon=daemon
    )
    process.start()
    return process


def stop_workers(procs, grace_s: float) -> None:
    """Join ``procs`` within ``grace_s`` seconds, then terminate the rest."""
    deadline = time.monotonic() + grace_s
    for process in procs:
        process.join(timeout=max(0.0, deadline - time.monotonic()))
    for process in procs:
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
