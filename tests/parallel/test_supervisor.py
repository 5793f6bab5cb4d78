"""The worker supervisor: start-up orphan check, watchdog, CPU share, stop.

Rank workers and sweep workers start through the same wrapper, so these
are tested once here on bare targets; the end-to-end SIGKILL tests of both
pools live with the process backend and the sweep orchestrator.
"""

import os
import signal
import time
from pathlib import Path

import pytest

from repro.kernels import threads
from repro.parallel.supervisor import (
    ORPHAN_POLL_S,
    _supervised,
    start_worker,
    stop_workers,
    worker_context,
)


def _report(results) -> None:
    results.put(("ran", os.getpid(), threads._share))


def _sleep_forever() -> None:
    while True:
        time.sleep(0.05)


def _ignore_sentinel(tasks) -> None:
    tasks.get()  # the stop sentinel arrives ... and is ignored
    _sleep_forever()


def _start_orphan(results) -> None:
    """Start a supervised grandchild, report its pid, and die at once."""
    grandchild = start_worker(worker_context(), _sleep_forever, (), 1)
    results.put(grandchild.pid)
    results.close()
    results.join_thread()  # the pid is on the pipe before the exit
    os._exit(0)  # no join of the grandchild: it is orphaned


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # a zombie is gone


def test_worker_runs_target_with_its_cpu_share():
    ctx = worker_context()
    results = ctx.Queue()
    worker = start_worker(ctx, _report, (results,), 3)
    assert results.get(timeout=30) == ("ran", worker.pid, 3)
    stop_workers([worker], grace_s=10.0)
    assert worker.exitcode == 0


def test_worker_of_a_dead_parent_never_runs_its_target():
    """A parent SIGKILLed while its worker starts is only noticed if the
    worker compares against the pid the *parent* handed it: by the time the
    worker runs, ``os.getppid()`` already names the adoptive parent."""
    ctx = worker_context()
    results = ctx.Queue()
    dead_parent = os.getpid() + 1  # anything but the worker's real parent
    worker = ctx.Process(target=_supervised, args=(dead_parent, 1, _report, (results,)))
    worker.start()
    worker.join(timeout=30)
    assert worker.exitcode == 0
    assert results.empty()


def test_stop_workers_reaps_a_worker_that_ignores_its_sentinel():
    ctx = worker_context()
    tasks = ctx.Queue()
    worker = start_worker(ctx, _ignore_sentinel, (tasks,), 1)
    tasks.put(None)
    start = time.monotonic()
    stop_workers([worker], grace_s=0.5)
    assert not worker.is_alive()
    assert worker.exitcode == -signal.SIGTERM
    assert time.monotonic() - start < 5.0


def test_orphaned_worker_exits_on_its_own():
    ctx = worker_context()
    results = ctx.Queue()
    parent = start_worker(ctx, _start_orphan, (results,), 1)
    grandchild = results.get(timeout=30)
    parent.join(timeout=30)
    deadline = time.monotonic() + 15 * ORPHAN_POLL_S
    while _running(grandchild) and time.monotonic() < deadline:
        time.sleep(0.1)
    if _running(grandchild):
        os.kill(grandchild, signal.SIGKILL)
        pytest.fail("the orphaned worker never exited")
