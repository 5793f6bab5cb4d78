"""Process-per-rank clustered-LTS execution with overlapped halo exchange.

:class:`ProcessLtsEngine` is the :class:`~repro.distributed.engine.MultiRankEngine`
whose rank solvers live in ``multiprocessing`` workers, one per rank, behind
commands: the ranks advance through the rate-2 schedule concurrently, and
the halo payloads cross real process boundaries through
:class:`~repro.parallel.process_comm.ProcessCommunicator`.

Within each micro step a worker predicts its boundary rows, posts the due
sends (non-blocking -- a feeder thread ships them), computes its interior
rows while the messages are in flight, and only then corrects, blocking on
whatever payloads have not arrived yet.  This is the paper's communication
hiding (Sec. V-C) made real: wall-clock now improves with ranks, while the
results stay bit-identical to the single-rank and serial-backend runs.

Orchestration notes:

* the parent holds the global discretization, the partition map and the
  global receiver set; per-cycle each worker reports its time, update count,
  cumulative traffic counters and the receiver samples recorded since its
  last report, which the parent mirrors so summaries and checkpoints never
  need a live worker round-trip beyond a state gather,
* :meth:`close` gathers the per-rank states into a parent-side cache and
  shuts the workers down; stepping a closed engine transparently respawns
  them from the cache, so runners can aggressively release the processes, and
* workers start and stop through :mod:`repro.parallel.supervisor`: they are
  daemons, exit on their own once the parent is gone, and every blocking
  receive carries a timeout, so a crashed peer surfaces as an error instead
  of a hang.
"""

from __future__ import annotations

import traceback

import numpy as np

from ..core.clustering import Clustering
from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..observability import TelemetryConfig, merge_snapshots, peak_rss_mb
from ..parallel.communicator import MessageStats
from ..parallel.process_comm import ProcessCommunicator
from ..parallel.supervisor import start_worker, stop_workers, worker_context
from ..source.receivers import Receiver, ReceiverSet
from .engine import MultiRankEngine, rank_state
from .stepper import RankSolver
from .subdomain import RankSubdomain

__all__ = ["ProcessLtsEngine"]

#: seconds a blocked halo receive waits before the run aborts (a healthy peer
#: on a big mesh can legitimately compute for a while; ``solver.comm_timeout``
#: overrides it)
DEFAULT_COMM_TIMEOUT_S = 120.0


def _rank_worker(
    rank: int,
    subdomain: RankSubdomain,
    sources: list,
    shims: list[Receiver],
    n_fused: int,
    kernels: str,
    inbound,
    outbound: dict,
    ctrl,
    comm_timeout: float,
    telemetry_config: TelemetryConfig,
    telemetry_epoch: float,
) -> None:
    """One rank's event loop: build the local solver, serve parent commands."""
    try:
        comm = ProcessCommunicator(
            rank, subdomain.n_ranks, inbound, outbound, timeout=comm_timeout
        )
        receivers = ReceiverSet.from_receivers(shims) if shims else None
        # the lane uses the parent's trace epoch: perf_counter is the
        # system-wide monotonic clock, so all rank lanes share one timeline
        lane = telemetry_config.build(rank=rank, epoch=telemetry_epoch)
        solver = RankSolver(
            subdomain,
            comm,
            sources=sources,
            receivers=receivers,
            n_fused=n_fused,
            kernels=kernels,
            telemetry=lane,
        )
        #: per-receiver number of samples already shipped to the parent --
        #: replies carry only the increment, so the per-cycle IPC volume
        #: stays constant over the run instead of growing with its length
        reported: dict[str, int] = {}
        while True:
            command, payload = ctrl.recv()  # the watchdog ends an orphaned wait
            if command == "cycles":
                for _ in range(payload):
                    solver.step_cycle()
                # checked once per command, after the last batched cycle: a
                # mid-batch check would race with a faster peer's run-ahead
                # sends for the next cycle
                if not comm.all_delivered():
                    raise RuntimeError(
                        f"rank {rank}: undelivered halo payloads after a macro cycle"
                    )
                reply = {
                    "time": solver.time,
                    "n_element_updates": int(solver.n_element_updates),
                    "stats": comm.stats.as_dict(),
                    "records": _new_records(receivers, reported),
                    # RUSAGE_CHILDREN only counts *terminated* children, so a
                    # live worker must report its own peak RSS for the run
                    # ledger's per-cycle memory column
                    "peak_rss_mb": peak_rss_mb(),
                }
                if lane.enabled:
                    # cumulative metric snapshot plus the trace-event
                    # *increment* (drained), mirroring the records protocol:
                    # per-cycle IPC stays proportional to new work
                    reply["telemetry"] = lane.snapshot()
                    reply["trace_events"] = lane.drain_events()
                ctrl.send(("ok", reply))
            elif command == "dofs":
                ctrl.send(("ok", solver.dofs))
            elif command == "set_dofs":
                solver.dofs = np.asarray(payload).copy()
                ctrl.send(("ok", None))
            elif command == "state":
                ctrl.send(("ok", rank_state(solver)))
            elif command == "restore":
                solver.restore_state(payload, payload["time"], payload["n_element_updates"])
                ctrl.send(("ok", None))
            elif command == "exit":
                ctrl.send(("ok", None))
                return
            else:
                raise RuntimeError(f"rank {rank}: unknown command {command!r}")
    except Exception:
        try:
            ctrl.send(("error", traceback.format_exc()))
        except Exception:
            pass


def _new_records(receivers: ReceiverSet | None, reported: dict[str, int]) -> list:
    """Per-receiver recordings made since the last report (and mark them)."""
    if receivers is None:
        return []
    increments = []
    for receiver in receivers.receivers:
        start = reported.get(receiver.name, 0)
        increments.append(
            (
                receiver.name,
                list(receiver.times[start:]),
                [np.asarray(s) for s in receiver.samples[start:]],
            )
        )
        reported[receiver.name] = len(receiver.times)
    return increments


class ProcessLtsEngine(MultiRankEngine):
    """Multi-rank clustered LTS: the rank solvers live in worker processes."""

    transport = "queue"

    def __init__(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        sources: list | None = None,
        receivers: ReceiverSet | None = None,
        n_fused: int = 0,
        kernels=None,
        telemetry=None,
        comm_timeout: float | None = None,
    ):
        super().__init__(
            disc, clustering, partitions, sources=sources, receivers=receivers,
            n_fused=n_fused, kernels=kernels, telemetry=telemetry,
        )
        if self.n_ranks < 2:
            raise ValueError("the process backend needs at least two ranks")
        # workers rebuild their backend from the kind name (backends hold
        # per-process caches, so the instance itself is never shipped)
        self.kernels = make_backend(kernels).name
        self.comm_timeout = float(
            DEFAULT_COMM_TIMEOUT_S if comm_timeout is None else comm_timeout
        )
        self._rank_shims = [self._local_receivers(sub, own_lists=True) for sub in self.subdomains]

        self._time = 0.0
        self._n_element_updates = 0
        self._rank_stats = [MessageStats().as_dict() for _ in range(self.n_ranks)]
        self._stats_base = MessageStats()
        #: per-rank worker peak RSS (MiB), max over worker generations
        self._rank_peak_rss = [0.0] * self.n_ranks
        #: per-rank mirrors of the workers' cumulative telemetry snapshots
        #: (current spawn) and the merged history of earlier spawns --
        #: exactly the _rank_stats/_stats_base split used for traffic
        self._rank_telemetry: list[dict] = [{} for _ in range(self.n_ranks)]
        self._telemetry_base: list[dict] = [{} for _ in range(self.n_ranks)]
        self._rank_trace_events: list[list] = [[] for _ in range(self.n_ranks)]
        #: the per-rank states :meth:`close` gathered (``None`` while live)
        self._cache: list[dict] | None = None
        self._procs: list = []
        self._ctrls: list = []
        self._alive = False
        self._failed = False
        # fork shares the already-built subdomains with the workers for free
        self._ctx = worker_context()
        self._spawn()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        ctx = self._ctx
        inbound = [ctx.Queue() for _ in range(self.n_ranks)]
        self._procs, self._ctrls = [], []
        for r in range(self.n_ranks):
            parent_end, child_end = ctx.Pipe()
            outbound = {d: inbound[d] for d in range(self.n_ranks) if d != r}
            process = start_worker(
                ctx,
                _rank_worker,
                (
                    r,
                    self.subdomains[r],
                    self._rank_sources[r],
                    self._rank_shims[r],
                    self.n_fused,
                    self.kernels,
                    inbound[r],
                    outbound,
                    child_end,
                    self.comm_timeout,
                    self.telemetry_config,
                    # perf_counter is the system-wide monotonic clock: the
                    # driver's epoch puts every worker generation's lanes on
                    # the driver's timeline
                    self.telemetry.epoch,
                ),
                self.n_ranks,  # the ranks split the host's cores
                daemon=True,
            )
            self._procs.append(process)
            self._ctrls.append(parent_end)
        self._alive = True

    def _ensure_alive(self) -> None:
        if self._alive:
            return
        if self._failed:
            # a worker died mid-run: the dynamic state is gone, and quietly
            # respawning zero-state workers would resurrect the run as a
            # blank simulation
            raise RuntimeError(
                "the process engine lost its workers mid-run; the dynamic "
                "state is unrecoverable -- rebuild the runner (or resume "
                "from the last checkpoint)"
            )
        # traffic accounted before the shutdown must survive the respawn
        for stats in self._rank_stats:
            self._stats_base.merge(stats)
        self._rank_stats = [MessageStats().as_dict() for _ in range(self.n_ranks)]
        # ... and so must the telemetry accrued by the previous workers
        for r in range(self.n_ranks):
            if self._rank_telemetry[r]:
                self._telemetry_base[r] = merge_snapshots(
                    [self._telemetry_base[r], self._rank_telemetry[r]]
                )
        self._rank_telemetry = [{} for _ in range(self.n_ranks)]
        self._spawn()
        if self._cache is not None:
            # fresh workers record into empty receiver shims and report only
            # new samples, so the parent's recordings need no push-back
            self._command_all("restore", self._cache)
            self._cache = None

    def _collect(self) -> list:
        """One reply from every worker; surfaces worker errors eagerly."""
        replies: list = [None] * len(self._ctrls)
        remaining = set(range(len(self._ctrls)))
        while remaining:
            for index in list(remaining):
                ctrl = self._ctrls[index]
                if not ctrl.poll(0.02):
                    if not self._procs[index].is_alive():
                        self._failed = True
                        self._terminate()
                        raise RuntimeError(
                            f"rank {index} worker died without a reply"
                        )
                    continue
                status, payload = ctrl.recv()
                if status == "error":
                    self._failed = True
                    self._terminate()
                    raise RuntimeError(f"rank {index} worker failed:\n{payload}")
                replies[index] = payload
                remaining.discard(index)
        return replies

    def _command_all(self, command: str, payloads=None) -> list:
        self._ensure_alive()
        for index, ctrl in enumerate(self._ctrls):
            payload = payloads[index] if payloads is not None else None
            try:
                ctrl.send((command, payload))
            except (BrokenPipeError, OSError) as error:
                self._failed = True
                self._terminate()
                raise RuntimeError(f"rank {index} worker is gone") from error
        return self._collect()

    def _terminate(self, grace_s: float = 0.0) -> None:
        stop_workers(self._procs, grace_s)
        self._alive = False

    def close(self) -> None:
        """Gather the per-rank states into the parent and stop the workers.

        The engine stays fully usable: reads are served from the cache and
        stepping transparently respawns the workers from it.
        """
        if not self._alive:
            return
        # stats and receiver recordings only change inside "cycles" commands,
        # so the per-cycle mirrors are already current here
        self._cache = self._command_all("state")
        for ctrl in self._ctrls:
            ctrl.send(("exit", None))
        self._collect()
        self._terminate(grace_s=5.0)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            if getattr(self, "_alive", False):
                self._terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the stepper protocol's per-rank primitives
    # ------------------------------------------------------------------
    @property
    def concurrent_lanes(self) -> int:
        """The ranks advance in parallel: each lane spans the wall clock."""
        return self.n_ranks

    @property
    def time(self) -> float:
        return self._time

    @property
    def n_element_updates(self) -> int:
        return self._n_element_updates

    def _rank_dofs(self) -> list[np.ndarray]:
        if self._cache is not None:
            return [state["dofs"] for state in self._cache]
        return self._command_all("dofs")

    def _set_rank_dofs(self, per_rank: list[np.ndarray]) -> None:
        self._command_all("set_dofs", per_rank)

    def _rank_states(self) -> list[dict]:
        if self._cache is not None:
            return self._cache
        return self._command_all("state")

    def _restore_ranks(self, states: list[dict]) -> None:
        self._command_all("restore", states)
        self._time = float(states[0]["time"])
        self._n_element_updates = int(sum(s["n_element_updates"] for s in states))

    def _step_ranks(self) -> None:
        """All ranks advance one macro cycle, concurrently."""
        replies = self._command_all("cycles", [1] * self.n_ranks)
        self._time = float(replies[0]["time"])
        self._n_element_updates = sum(r["n_element_updates"] for r in replies)
        self._rank_stats = [r["stats"] for r in replies]
        self._rank_peak_rss = [
            max(prev, float(reply.get("peak_rss_mb", 0.0)))
            for prev, reply in zip(self._rank_peak_rss, replies)
        ]
        self._merge_records([r["records"] for r in replies])
        if self.telemetry_config.enabled:
            self._rank_telemetry = [r.get("telemetry", {}) for r in replies]
            for events, reply in zip(self._rank_trace_events, replies):
                events.extend(reply.get("trace_events", []))

    def _merge_records(self, per_rank_records: list) -> None:
        """Append the workers' newly reported samples to the global receivers
        (replies carry increments, see ``_new_records``)."""
        if self.receiver_set is None:
            return
        for records in per_rank_records:
            for name, times, samples in records:
                receiver = self.receiver_set[name]
                receiver.times.extend(float(t) for t in times)
                receiver.samples.extend(np.asarray(s) for s in samples)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> MessageStats:
        """Measured communication statistics, aggregated over the workers."""
        total = MessageStats()
        total.merge(self._stats_base)
        for stats in self._rank_stats:
            total.merge(stats)
        return total

    @property
    def rank_peak_rss_mb(self) -> list[float]:
        """Per-rank worker peak RSS in MiB (zeros before the first cycle)."""
        return list(self._rank_peak_rss)

    def _rank_snapshots(self) -> list[dict]:
        """Cumulative per-rank telemetry, current workers plus prior spawns."""
        snapshots = []
        for r in range(self.n_ranks):
            merged = merge_snapshots([self._telemetry_base[r], self._rank_telemetry[r]])
            merged["rank"] = r
            merged["lane"] = f"rank {r}"
            snapshots.append(merged)
        return snapshots

    def _rank_trace_lanes(self) -> list[tuple]:
        return [
            (f"rank {r}", r, list(events))
            for r, events in enumerate(self._rank_trace_events)
        ]
