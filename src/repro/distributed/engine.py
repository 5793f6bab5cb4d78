"""The rank side of the multi-rank engine (Sec. V-C): one worker per rank.

A :class:`RankWorker` owns one rank's
:class:`~repro.distributed.stepper.RankSolver`, its
:class:`~repro.parallel.communicator.ProcessCommunicator` endpoint and its
telemetry lane, and serves the commands of
:class:`~repro.distributed.process_engine.ProcessLtsEngine` until ``exit``:
``cycles`` (step ``n`` macro cycles; the reply is how a rank reports --
time, update count, cumulative traffic, the receiver samples and trace
events since the last reply, the lane snapshot and peak RSS), ``dofs`` /
``set_dofs`` and ``state`` / ``restore``.  A failing command replies
``("error", traceback)`` and ends the loop.

The same loop runs on either host of ``solver.backend``: ``"process"``
forks one supervised worker process per rank over ``multiprocessing``
pipes and queues; ``"serial"`` runs one thread per rank over
:class:`queue.SimpleQueue` channels.  Thread-hosted ranks share the
process's kernel :class:`~repro.kernels.threads.BlockPool`, which runs one
dispatch at a time; no rank waits on a halo receive inside a dispatch, so
they cannot deadlock on it.  A blocked halo receive waits at most the
per-message ``comm_timeout`` on both hosts.
"""

from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import dataclass, replace

import numpy as np

from ..observability import TelemetryConfig, peak_rss_mb
from ..parallel.communicator import ProcessCommunicator
from ..parallel.supervisor import start_worker, stop_workers, worker_context
from ..source.receivers import Receiver, ReceiverSet
from .stepper import RankSolver
from .subdomain import RankSubdomain

__all__ = ["RankSetup", "RankWorker", "ProcessHost", "ThreadHost"]


@dataclass
class RankSetup:
    """What a rank worker is built from (its channels come per spawn).
    ``sources`` and ``receivers`` address local element ids; a worker
    records into receiver copies with lists of its own."""

    subdomain: RankSubdomain
    sources: list
    receivers: list[Receiver]
    n_fused: int
    kernels: str
    comm_timeout: float
    telemetry: TelemetryConfig
    #: the driver lane's trace epoch: perf_counter is the system-wide
    #: monotonic clock, so every rank lane lands on the driver's timeline
    epoch: float


class RankWorker:
    """One rank behind the command protocol (see the module doc)."""

    def __init__(self, setup: RankSetup, inbound, outbound: dict):
        sub = setup.subdomain
        self.comm = ProcessCommunicator(
            sub.rank, sub.n_ranks, inbound, outbound, timeout=setup.comm_timeout
        )
        self.lane = setup.telemetry.build(rank=sub.rank, epoch=setup.epoch)
        shims = [replace(r, times=[], samples=[]) for r in setup.receivers]
        self.receivers = ReceiverSet.from_receivers(shims) if shims else None
        self.solver = RankSolver(
            sub,
            self.comm,
            sources=setup.sources,
            receivers=self.receivers,
            n_fused=setup.n_fused,
            kernels=setup.kernels,
            telemetry=self.lane,
        )
        #: per receiver, the samples already reported
        self._reported: dict[str, int] = {}

    def serve(self, ctrl) -> None:
        """Answer commands until ``exit`` or the first error."""
        try:
            while True:
                command, payload = ctrl.recv()
                if command == "exit":
                    ctrl.send(("ok", None))
                    return
                ctrl.send(("ok", self._handle(command, payload)))
        except Exception:
            try:
                ctrl.send(("error", traceback.format_exc()))
            except Exception:
                pass

    def _handle(self, command: str, payload):
        solver = self.solver
        if command == "cycles":
            return self._cycles(payload)
        if command == "dofs":
            return solver.dofs
        if command == "set_dofs":
            solver.dofs = np.array(payload)
        elif command == "state":
            return dict(
                solver.state_arrays(),
                time=solver.time,
                n_element_updates=int(solver.n_element_updates),
            )
        elif command == "restore":
            solver.restore_state(payload, payload["time"], payload["n_element_updates"])
        else:
            raise RuntimeError(f"rank {solver.rank}: unknown command {command!r}")
        return None

    def _cycles(self, n: int) -> dict:
        for _ in range(n):
            self.solver.step_cycle()
        # checked once per command, after the last batched cycle: a
        # mid-batch check would race with a faster peer's run-ahead sends
        if not self.comm.all_delivered():
            raise RuntimeError(
                f"rank {self.solver.rank}: undelivered halo payloads after a macro cycle"
            )
        reply = {
            "time": self.solver.time,
            "n_element_updates": int(self.solver.n_element_updates),
            "stats": self.comm.stats.as_dict(),
            "records": self._new_records(),
            # RUSAGE_CHILDREN only counts *terminated* children, so a live
            # worker process reports its own peak RSS
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.lane.enabled:
            reply["telemetry"] = self.lane.snapshot()
            reply["trace_events"] = self.lane.drain_events()
        return reply

    def _new_records(self) -> list:
        """Per-receiver ``(name, times, samples)`` recorded since the last
        report (and mark them reported)."""
        if self.receivers is None:
            return []
        increments = []
        for receiver in self.receivers.receivers:
            start = self._reported.get(receiver.name, 0)
            increments.append(
                (receiver.name, receiver.times[start:], receiver.samples[start:])
            )
            self._reported[receiver.name] = len(receiver.times)
        return increments


def _peers(inbound: list, rank: int) -> dict:
    return {d: q for d, q in enumerate(inbound) if d != rank}


def _serve_process(setup: RankSetup, inbound, outbound: dict, ctrl) -> None:
    """A worker process: build the rank, then serve it."""
    try:
        worker = RankWorker(setup, inbound, outbound)
    except Exception:
        ctrl.send(("error", traceback.format_exc()))
        return
    worker.serve(ctrl)


class ProcessHost:
    """One forked worker process per rank (``solver.backend = "process"``).

    The workers are supervised daemons: they split the host's cores, exit
    on their own once the parent is gone, and ``stop`` terminates whatever
    has not exited within the grace period.
    """

    def __init__(self, setups: list[RankSetup]):
        ctx = worker_context()  # fork shares the built subdomains for free
        inbound = [ctx.Queue() for _ in setups]
        self.ctrls, self.handles = [], []
        for r, setup in enumerate(setups):
            parent_end, child_end = ctx.Pipe()
            self.handles.append(
                start_worker(
                    ctx, _serve_process, (setup, inbound[r], _peers(inbound, r), child_end),
                    len(setups), daemon=True,
                )
            )
            self.ctrls.append(parent_end)

    def stop(self, grace_s: float) -> None:
        stop_workers(self.handles, grace_s)


class _QueueEnd:
    """One end of an in-process duplex channel: the ``send`` / ``poll`` /
    ``recv`` of a :class:`multiprocessing.connection.Connection`, passing
    objects by reference."""

    def __init__(self, inbox: queue.SimpleQueue, outbox: queue.SimpleQueue):
        self._inbox, self.send, self._held = inbox, outbox.put, []

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            self._held = self._held or [self._inbox.get(timeout=timeout)]
        except queue.Empty:
            return False
        return True

    def recv(self):
        return self._held.pop() if self._held else self._inbox.get()


class ThreadHost:
    """One thread per rank in this process (``solver.backend = "serial"``).

    :attr:`workers` are the live :class:`RankWorker` objects; read them
    only while the engine waits for no reply.  A thread cannot be killed,
    so ``stop`` wakes every wait instead -- ``None`` in a halo inbound ends
    a blocked receive with an error, ``exit`` ends a command wait -- and
    joins the threads (a grace period has nothing to cut short).
    """

    def __init__(self, setups: list[RankSetup]):
        self._inbound = [queue.SimpleQueue() for _ in setups]
        self.workers = [
            RankWorker(setup, self._inbound[r], _peers(self._inbound, r))
            for r, setup in enumerate(setups)
        ]
        self.ctrls, self.handles = [], []
        for worker in self.workers:
            commands, replies = queue.SimpleQueue(), queue.SimpleQueue()
            thread = threading.Thread(
                target=worker.serve, args=(_QueueEnd(commands, replies),),
                name=f"repro-rank-{worker.solver.rank}", daemon=True,
            )
            thread.start()
            self.ctrls.append(_QueueEnd(replies, commands))
            self.handles.append(thread)

    def stop(self, grace_s: float) -> None:
        for inbound, ctrl in zip(self._inbound, self.ctrls):
            inbound.put(None)
            ctrl.send(("exit", None))
        for thread in self.handles:
            thread.join()
