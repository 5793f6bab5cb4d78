"""The rank side of the multi-rank engine (Sec. V-C): one worker per rank.

A :class:`RankWorker` owns one rank's
:class:`~repro.distributed.stepper.RankSolver`, its
:class:`~repro.parallel.communicator.ProcessCommunicator` endpoint and its
telemetry lane, and serves the commands of
:class:`~repro.distributed.process_engine.ProcessLtsEngine` until ``None``:
``cycle`` (step one macro cycle; the reply is how a rank reports: time,
update count and peak RSS, and what changed since the last reply -- the
halo traffic, the receiver samples and the lane's regions, counters and
trace events), ``dofs`` (the rank's DOFs: with the time and the update
count, its whole state at a macro-cycle boundary) and ``restore`` (a
rank's DOFs, time and update count in).  A failing command replies
``("error", traceback)`` and ends the loop.  Before its first command a
worker builds its rank -- the solver assembles the rank's own operator rows
(:meth:`~repro.kernels.discretization.Discretization.restricted`) -- and
replies once: ``("ok", None)`` when it is ready, or the build's error.

:func:`start_ranks` forks one rank worker per rank, as the paper runs one
process per rank with threads inside it: a
:class:`~repro.parallel.supervisor.WorkerPool` of daemons whose pipes carry
the commands, with the halo packs travelling over ``multiprocessing``
queues.  A blocked halo receive waits at most the per-message
``comm_timeout``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass

from ..observability import Telemetry, peak_rss_mb
from ..parallel.communicator import MessageStats, ProcessCommunicator
from ..parallel.supervisor import WorkerPool
from ..source.receivers import Receiver, ReceiverSet
from .stepper import RankSolver
from .subdomain import RankSubdomain

__all__ = ["RankSetup", "RankWorker", "start_ranks"]


@dataclass
class RankSetup:
    """What a rank worker is built from (its channels come per spawn).
    ``sources`` and ``receivers`` address local element ids; the receivers
    start with empty recordings, and each forked worker records into its
    own copy of them."""

    subdomain: RankSubdomain
    sources: list
    receivers: list[Receiver]
    n_fused: int
    kernels: str
    comm_timeout: float
    #: the rank's fresh lane, with the driver lane's switches and trace
    #: epoch (perf_counter is the system-wide monotonic clock, so every rank
    #: lane lands on the driver's timeline); each spawn forks it empty
    telemetry: Telemetry


class RankWorker:
    """One rank behind the command protocol (see the module doc)."""

    def __init__(self, setup: RankSetup, inbound, outbound: dict):
        sub = setup.subdomain
        self.comm = ProcessCommunicator(
            sub.rank, sub.n_ranks, inbound, outbound, timeout=setup.comm_timeout
        )
        self.lane = setup.telemetry
        self.receivers = (
            ReceiverSet.from_receivers(setup.receivers) if setup.receivers else None
        )
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
        """Answer commands until ``None`` or the first error."""
        try:
            for command, payload in iter(ctrl.recv, None):
                ctrl.send(("ok", self._handle(command, payload)))
        except Exception:
            try:
                ctrl.send(("error", traceback.format_exc()))
            except Exception:
                pass

    def _handle(self, command: str, payload):
        solver = self.solver
        if command == "cycle":
            return self._cycle()
        if command == "dofs":
            return solver.dofs
        if command == "restore":
            solver.restore_state(payload, payload["time"], payload["n_element_updates"])
            return None
        raise RuntimeError(f"rank {solver.rank}: unknown command {command!r}")

    def _cycle(self) -> dict:
        self.solver.step_cycle()
        # race-free after every cycle: no peer starts the next one (and
        # sends into it) before every rank has replied to this command
        if not self.comm.all_delivered():
            raise RuntimeError(
                f"rank {self.solver.rank}: undelivered halo payloads after a macro cycle"
            )
        stats, self.comm.stats = self.comm.stats, MessageStats()
        return {
            "time": self.solver.time,
            "n_element_updates": int(self.solver.n_element_updates),
            "stats": stats,
            "records": self._new_records(),
            "telemetry": self.lane.drain(),
            # RUSAGE_CHILDREN only counts *terminated* children, so a live
            # worker process reports its own peak RSS, and its solver's
            # resident MiB by owner
            "peak_rss_mb": peak_rss_mb(),
            "memory_owners": self.solver.memory_owners(),
        }

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


def _serve_rank(ctrl, setup: RankSetup, inbound, outbound: dict) -> None:
    """A worker process: build the rank, report it ready (or its build
    error), then serve it."""
    try:
        worker = RankWorker(setup, inbound, outbound)
    except Exception:
        ctrl.send(("error", traceback.format_exc()))
        return
    ctrl.send(("ok", None))
    worker.serve(ctrl)


def start_ranks(setups: list[RankSetup]) -> WorkerPool:
    """One forked rank worker per setup, on fresh halo queues.

    The workers are daemons (a rank starts no workers of its own), so they
    also die with a parent that exits without stopping them.
    """
    inbound = [WorkerPool.ctx.Queue() for _ in setups]
    args = [
        (setup, inbound[r], {d: q for d, q in enumerate(inbound) if d != r})
        for r, setup in enumerate(setups)
    ]
    return WorkerPool(_serve_rank, args, daemon=True)
