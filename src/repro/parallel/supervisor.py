"""Worker processes: how a pool of them starts, is waited on, and stops.

Rank workers (:mod:`repro.distributed.engine`) and sweep workers
(:mod:`repro.sweep.orchestrator`) are both a :class:`WorkerPool`: one
supervised process per slot on its own pipe.  The pool decides how they
start, how the parent waits on them and how they stop; each caller keeps
only its policy for a dead worker.  The one orphan policy: a SIGKILLed
parent can neither send a stop message nor close a pipe (under fork every
worker inherits the parent ends of its siblings' pipes, so there is no
EOF), and the worker may sit anywhere when it happens -- in a command
wait, mid-member, or in a halo receive whose sender already left.  So
every worker watches for its reparenting on its own thread and ends itself
with ``os._exit`` (nothing is left to report to) within
:data:`ORPHAN_POLL_S`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing import connection

from ..kernels.threads import share_cpus

__all__ = ["ORPHAN_POLL_S", "WorkerPool", "worker_context", "start_worker", "stop_workers"]

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


class WorkerPool:
    """One supervised worker per slot, each on its own pipe.

    Worker ``slot`` runs ``target(conn, *args[slot])``: it answers the
    messages on ``conn`` until ``None``.  A start that fails stops the
    workers already started, and the error propagates.  The worker's end of
    a pipe lives in that worker alone, so its death closes the pipe, and
    Linux tells two deaths apart: the parent's end reads EOF if the worker
    had taken the last message (``"died"``) and ``ECONNRESET`` if it was
    still unread (``"unread"``).
    """

    #: the start method every pool forks with (see :func:`worker_context`)
    ctx = worker_context()

    def __init__(self, target, args: list[tuple], daemon: bool = False):
        self.target, self.args, self.daemon = target, args, daemon
        self.size = len(args)
        self.conns: list = [None] * self.size
        self.procs: list = [None] * self.size
        try:
            for slot in range(self.size):
                self._start(slot)
        except BaseException:
            self.stop(grace_s=0.0)
            raise

    def _start(self, slot: int) -> None:
        parent_end, child_end = self.ctx.Pipe()
        with child_end:  # closed in the parent once the worker holds it
            self.procs[slot] = start_worker(
                self.ctx, self.target, (child_end, *self.args[slot]), self.size,
                daemon=self.daemon,
            )
        self.conns[slot] = parent_end

    def send(self, slot: int, message) -> None:
        """Hand worker ``slot`` a message (``OSError`` if it is gone)."""
        self.conns[slot].send(message)

    def restart(self, slot: int) -> None:
        """Reap the dead worker in ``slot`` and start another on a fresh pipe."""
        self.procs[slot].join()
        self.conns[slot].close()
        self._start(slot)

    def wait(self, slots) -> list[tuple]:
        """Block on the pipes and process sentinels of ``slots`` together
        until one settles; ``(slot, outcome, detail)`` per settled slot:
        ``("reply", message)``, or ``("unread" | "died", exit code)``."""
        watched = {self.conns[slot]: slot for slot in slots}
        watched.update({self.procs[slot].sentinel: slot for slot in slots})
        settled = {}
        for ready in connection.wait(list(watched)):
            slot = watched[ready]
            if slot not in settled:
                settled[slot] = self._outcome(slot)
        return [(slot, *outcome) for slot, outcome in settled.items()]

    def _outcome(self, slot: int) -> tuple:
        conn, process = self.conns[slot], self.procs[slot]
        if not conn.poll():
            # woken by the sentinel, which can close before the worker's
            # pipe end does: reap it, so the pipe shows how it died
            process.join()
        outcome = "died"  # taken -- or a process it forked still holds its end
        try:
            if conn.poll():
                return "reply", conn.recv()
        except ConnectionResetError:
            outcome = "unread"
        except EOFError:
            pass
        process.join()
        return outcome, process.exitcode

    def stop(self, grace_s: float) -> None:
        """Send every worker ``None``, join them within ``grace_s`` seconds,
        then terminate the rest."""
        started = [slot for slot in range(self.size) if self.procs[slot] is not None]
        for slot in started:
            try:
                self.conns[slot].send(None)
            except OSError:
                pass  # that worker is already gone
        stop_workers([self.procs[slot] for slot in started], grace_s)
        for slot in started:
            self.conns[slot].close()
