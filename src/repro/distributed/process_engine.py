"""Process-per-rank clustered-LTS execution with overlapped halo exchange.

:class:`ProcessLtsEngine` presents the same facade as the in-process
:class:`~repro.distributed.engine.DistributedLtsEngine` (``dofs``, ``time``,
``n_element_updates``, ``set_initial_condition``, ``step_cycle``, ``run``,
gather/restore, measured communication stats), but each rank runs in its own
``multiprocessing`` worker: the ranks advance through the rate-2 schedule
concurrently, and the halo payloads cross real process boundaries through
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
  cumulative traffic counters and receiver recordings, which the parent
  mirrors so summaries and checkpoints never need a live worker round-trip
  beyond a state gather,
* :meth:`close` gathers the dynamic state into a parent-side cache and shuts
  the workers down; stepping a closed engine transparently respawns them
  from the cache, so runners can aggressively release the processes, and
* workers are daemons and every blocking receive carries a timeout, so a
  crashed peer surfaces as an error instead of a hang.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback

import numpy as np

from ..core.clustering import Clustering
from ..core.lts_scheduler import schedule_cycle
from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..kernels.threads import share_cpus
from ..observability import TelemetryConfig, merge_snapshots, peak_rss_mb
from ..parallel.communicator import MessageStats
from ..parallel.exchange import HaloIndex
from ..parallel.process_comm import ProcessCommunicator
from ..source.moment_tensor import DiscretePointSource
from ..source.receivers import Receiver, ReceiverSet
from .engine import modelled_exchange_per_cycle, remap_local_sources
from .stepper import RankSolver
from .subdomain import RankSubdomain

__all__ = ["ProcessLtsEngine"]

#: seconds a blocked halo receive waits before the run aborts (a healthy peer
#: on a big mesh can legitimately compute for a while; ``solver.comm_timeout``
#: overrides it)
DEFAULT_COMM_TIMEOUT_S = 120.0

#: how often a worker's watchdog checks whether the worker has been orphaned
#: (parent SIGKILLed and the worker reparented)
_ORPHAN_POLL_S = 1.0


def _exit_when_orphaned(parent_pid: int) -> None:
    """Watchdog thread of a rank worker: end the process once the parent is gone.

    A SIGKILLed parent can neither send ``exit`` nor close the command pipe
    (under fork every worker inherits the parent ends of its *peers'* pipes,
    so there is no EOF), and the worker may sit anywhere when it happens:
    in the command wait, mid-cycle, or in a halo receive whose sender has
    already left.  Checks inside the stepping loop cannot cover the last
    case and race with the peers' checks (the rank that notices first exits
    and strands the others in a receive until the halo timeout), so every
    worker watches for the reparenting on its own thread.  ``os._exit``:
    nothing is left to report to.
    """
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(1)


def _shim_receiver_set(shims: list[Receiver]) -> ReceiverSet | None:
    """A minimal ReceiverSet over prebuilt (rank-local) receiver shims."""
    if not shims:
        return None
    shim_set = ReceiverSet.__new__(ReceiverSet)
    shim_set.receivers = list(shims)
    shim_set._by_element = {}
    for shim in shims:
        shim_set._by_element.setdefault(shim.element, []).append(shim)
    return shim_set


def _rank_worker(
    rank: int,
    subdomain: RankSubdomain,
    sources: list,
    shims: list[Receiver],
    n_fused: int,
    kernels: str,
    cluster_time_steps: np.ndarray,
    inbound,
    outbound: dict,
    ctrl,
    comm_timeout: float,
    telemetry_config: TelemetryConfig,
    telemetry_epoch: float,
    parent_pid: int,
) -> None:
    """One rank's event loop: build the local solver, serve parent commands.

    ``parent_pid`` comes from the parent: read here, ``os.getppid()`` would
    already name the adoptive parent if the real one was SIGKILLed while
    this worker was starting, and the orphan watchdog could never fire.
    """
    if os.getppid() != parent_pid:
        return  # orphaned during spawn: do not even build the solver
    threading.Thread(target=_exit_when_orphaned, args=(parent_pid,), daemon=True).start()
    share_cpus(subdomain.n_ranks)  # the ranks split the host's cores
    try:
        comm = ProcessCommunicator(
            rank, subdomain.n_ranks, inbound, outbound, timeout=comm_timeout
        )
        receivers = _shim_receiver_set(shims)
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
        n_clusters = len(cluster_time_steps)
        dt0 = float(cluster_time_steps[0])
        macro_dt = float(cluster_time_steps[-1])
        #: per-receiver number of samples already shipped to the parent --
        #: replies carry only the increment, so the per-cycle IPC volume
        #: stays constant over the run instead of growing with its length
        reported: dict[str, int] = {}
        while True:
            command, payload = ctrl.recv()  # the watchdog ends an orphaned wait
            if command == "cycles":
                for _ in range(payload):
                    for entry in schedule_cycle(n_clusters):
                        solver.begin_micro_step(entry)
                        solver.advance_interior(entry)
                        solver.finish_micro_step(entry, dt0)
                    solver.time += macro_dt
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
                ctrl.send(
                    (
                        "ok",
                        {
                            "dofs": solver.dofs,
                            "b1": solver.buffers.b1,
                            "b2": solver.buffers.b2,
                            "b3": solver.buffers.b3,
                            "step_index": np.array(
                                [c.step_index for c in solver.clusters], dtype=np.int64
                            ),
                            "time": solver.time,
                            "n_element_updates": int(solver.n_element_updates),
                        },
                    )
                )
            elif command == "restore":
                solver.dofs = payload["dofs"].copy()
                solver.buffers.b1 = payload["b1"].copy()
                solver.buffers.b2 = payload["b2"].copy()
                solver.buffers.b3 = payload["b3"].copy()
                for cluster, index in zip(solver.clusters, payload["step_index"]):
                    cluster.step_index = int(index)
                solver.time = float(payload["time"])
                solver.n_element_updates = int(payload["n_element_updates"])
                ctrl.send(("ok", None))
            elif command == "set_records":
                if receivers is not None:
                    by_name = {r.name: r for r in receivers.receivers}
                    for name, times, samples in payload:
                        shim = by_name.get(name)
                        if shim is not None:
                            shim.times = [float(t) for t in times]
                            shim.samples = [np.asarray(s) for s in samples]
                            reported[name] = len(shim.times)
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


class ProcessLtsEngine:
    """Multi-rank clustered LTS with one worker process per rank."""

    def __init__(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        sources: list | None = None,
        receivers: ReceiverSet | None = None,
        n_fused: int = 0,
        kernels=None,
        comm_timeout: float | None = None,
        telemetry: TelemetryConfig | None = None,
        telemetry_epoch: float | None = None,
    ):
        partitions = np.asarray(partitions, dtype=np.int64)
        if len(partitions) != disc.n_elements:
            raise ValueError("partitions do not match the discretization")
        self.disc = disc
        self.clustering = clustering
        self.partitions = partitions
        self.n_ranks = int(partitions.max()) + 1
        if self.n_ranks < 2:
            raise ValueError("the process backend needs at least two ranks")
        self.n_fused = n_fused
        # workers rebuild their backend from the kind name (backends hold
        # per-process caches, so the instance itself is never shipped)
        self.kernels = make_backend(kernels).name
        self.receiver_set = receivers
        self.comm_timeout = float(
            DEFAULT_COMM_TIMEOUT_S if comm_timeout is None else comm_timeout
        )

        self._global_sources = [
            s if isinstance(s, DiscretePointSource) else DiscretePointSource(disc, s)
            for s in (sources or [])
        ]
        self.subdomains = [
            RankSubdomain(disc, clustering, partitions, r) for r in range(self.n_ranks)
        ]
        self._rank_sources = [self._local_sources(sub) for sub in self.subdomains]
        self._rank_shims = [self._local_shims(sub) for sub in self.subdomains]

        self.halo = HaloIndex.from_partitions(disc.mesh.neighbors, partitions)
        #: macro cycles stepped by THIS engine instance -- the denominator
        #: for per-cycle traffic (a restored engine's counters start at zero)
        self.cycles_stepped = 0

        self._time = 0.0
        self._n_element_updates = 0
        self._rank_stats = [MessageStats().as_dict() for _ in range(self.n_ranks)]
        self._stats_base = MessageStats()
        #: per-rank worker peak RSS (MiB), max over worker generations
        self._rank_peak_rss = [0.0] * self.n_ranks
        self.telemetry_config = telemetry if telemetry is not None else TelemetryConfig()
        #: one shared trace epoch for every worker generation, so lanes of a
        #: respawned engine continue on the same timeline
        self._telemetry_epoch = (
            telemetry_epoch if telemetry_epoch is not None else time.perf_counter()
        )
        #: per-rank mirrors of the workers' cumulative telemetry snapshots
        #: (current spawn) and the merged history of earlier spawns --
        #: exactly the _rank_stats/_stats_base split used for traffic
        self._rank_telemetry: list[dict] = [{} for _ in range(self.n_ranks)]
        self._telemetry_base: list[dict] = [{} for _ in range(self.n_ranks)]
        self._rank_trace_events: list[list] = [[] for _ in range(self.n_ranks)]
        self._cache: dict | None = None
        self._procs: list = []
        self._ctrls: list = []
        self._alive = False
        self._failed = False
        # fork shares the already-built subdomains with the workers for free;
        # everything shipped is picklable, so spawn-only platforms also work
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        self._spawn()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _local_sources(self, subdomain: RankSubdomain) -> list:
        return remap_local_sources(self._global_sources, self.partitions, subdomain)

    def _local_shims(self, subdomain: RankSubdomain) -> list[Receiver]:
        """Rank-local receiver shims with their *own* recording lists.

        Unlike the serial engine's shims these cannot share list objects with
        the global receivers -- they live in another process; the recordings
        are merged back after every cycle instead.
        """
        if self.receiver_set is None:
            return []
        shims = []
        for receiver in self.receiver_set.receivers:
            if self.partitions[receiver.element] != subdomain.rank:
                continue
            shims.append(
                Receiver(
                    name=receiver.name,
                    location=receiver.location,
                    element=int(subdomain.local_of_global[receiver.element]),
                    basis_values=receiver.basis_values,
                )
            )
        return shims

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
            process = ctx.Process(
                target=_rank_worker,
                args=(
                    r,
                    self.subdomains[r],
                    self._rank_sources[r],
                    self._rank_shims[r],
                    self.n_fused,
                    self.kernels,
                    np.asarray(self.clustering.cluster_time_steps),
                    inbound[r],
                    outbound,
                    child_end,
                    self.comm_timeout,
                    self.telemetry_config,
                    self._telemetry_epoch,
                    os.getpid(),
                ),
                daemon=True,
            )
            process.start()
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
            state = self._cache
            for ctrl, sub in zip(self._ctrls, self.subdomains):
                ctrl.send(
                    (
                        "restore",
                        {
                            "dofs": state["dofs"][sub.owned],
                            "b1": state["b1"][sub.owned],
                            "b2": state["b2"][sub.owned],
                            "b3": state["b3"][sub.owned],
                            "step_index": state["step_index"],
                            "time": state["time"],
                            "n_element_updates": state["rank_updates"][sub.rank],
                        },
                    )
                )
            self._collect()
            self.rebind_receivers()
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

    def _terminate(self) -> None:
        for process in self._procs:
            if process.is_alive():
                process.terminate()
        for process in self._procs:
            process.join(timeout=5)
        self._alive = False

    def close(self) -> None:
        """Gather the dynamic state into the parent and stop the workers.

        The engine stays fully usable: reads are served from the cache and
        stepping transparently respawns the workers from it.
        """
        if not self._alive:
            return
        # stats and receiver recordings only change inside "cycles" commands,
        # so the per-cycle mirrors are already current here
        states = self._command_all("state")
        self._cache = {
            "dofs": self._gather([s["dofs"] for s in states]),
            "b1": self._gather([s["b1"] for s in states]),
            "b2": self._gather([s["b2"] for s in states]),
            "b3": self._gather([s["b3"] for s in states]),
            "step_index": states[0]["step_index"],
            "time": states[0]["time"],
            "rank_updates": [s["n_element_updates"] for s in states],
        }
        for ctrl in self._ctrls:
            ctrl.send(("exit", None))
        self._collect()
        for process in self._procs:
            process.join(timeout=5)
        self._terminate()

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            if getattr(self, "_alive", False):
                self._terminate()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # single-solver facade
    # ------------------------------------------------------------------
    @property
    def macro_dt(self) -> float:
        return float(self.clustering.cluster_time_steps[-1])

    @property
    def time(self) -> float:
        return self._time

    @property
    def n_element_updates(self) -> int:
        return self._n_element_updates

    @property
    def dofs(self) -> np.ndarray:
        if not self._alive and self._cache is not None:
            return self._cache["dofs"]
        return self._gather(self._command_all("dofs"))

    def _gather(self, per_rank: list[np.ndarray]) -> np.ndarray:
        template = per_rank[0]
        out = np.empty(
            (self.disc.n_elements,) + template.shape[1:], dtype=template.dtype
        )
        for array, sub in zip(per_rank, self.subdomains):
            out[sub.owned] = array
        return out

    def set_initial_condition(self, func) -> None:
        """Project the initial condition globally and scatter it to the ranks."""
        global_dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)
        self._command_all(
            "set_dofs", [global_dofs[sub.owned] for sub in self.subdomains]
        )

    def rebind_receivers(self) -> None:
        """Push the parent-side receiver recordings into the worker shims
        (after a checkpoint restore replaced them).

        Each rank only receives the history of the receivers it owns -- the
        others would be discarded worker-side anyway.
        """
        if self.receiver_set is None or not self._alive:
            return
        payloads = []
        for sub in self.subdomains:
            payloads.append(
                [
                    (r.name, list(r.times), [np.asarray(s) for s in r.samples])
                    for r in self.receiver_set.receivers
                    if self.partitions[r.element] == sub.rank
                ]
            )
        self._command_all("set_records", payloads)

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
    # time stepping
    # ------------------------------------------------------------------
    def step_cycle(self) -> None:
        """Advance all ranks by one macro cycle, concurrently."""
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
        self.cycles_stepped += 1

    def run(self, t_end: float) -> np.ndarray:
        """Advance to at least ``t_end`` (full macro cycles); returns the DOFs."""
        if t_end < self.time:
            raise ValueError("t_end lies in the past")
        n_cycles = int(np.ceil((t_end - self.time) / self.macro_dt - 1e-12))
        for _ in range(n_cycles):
            self.step_cycle()
        return self.dofs

    # ------------------------------------------------------------------
    # checkpoint interchange with the single-rank solver
    # ------------------------------------------------------------------
    def _state_arrays(self) -> dict:
        if not self._alive and self._cache is not None:
            return self._cache
        states = self._command_all("state")
        return {
            "dofs": self._gather([s["dofs"] for s in states]),
            "b1": self._gather([s["b1"] for s in states]),
            "b2": self._gather([s["b2"] for s in states]),
            "b3": self._gather([s["b3"] for s in states]),
            "step_index": states[0]["step_index"],
        }

    def gather_buffers(self) -> dict[str, np.ndarray]:
        state = self._state_arrays()
        return {"b1": state["b1"], "b2": state["b2"], "b3": state["b3"]}

    def step_indices(self) -> np.ndarray:
        """Per-cluster step counters (identical on every rank)."""
        return np.asarray(self._state_arrays()["step_index"], dtype=np.int64)

    def _updates_per_cycle(self, subdomain: RankSubdomain) -> int:
        counts = subdomain.clustering.counts
        n_clusters = subdomain.clustering.n_clusters
        steps = 2 ** (n_clusters - 1 - np.arange(n_clusters))
        return int(np.sum(counts * steps))

    def restore(
        self,
        dofs: np.ndarray,
        b1: np.ndarray,
        b2: np.ndarray,
        b3: np.ndarray,
        step_index: np.ndarray,
        time: float,
        n_element_updates: int,
    ) -> None:
        """Scatter a globally stored dynamic state onto the rank workers.

        The global element-update count is re-distributed deterministically
        (per-rank updates per cycle are fixed by the clustering), exactly as
        the serial engine does.
        """
        per_cycle = [self._updates_per_cycle(sub) for sub in self.subdomains]
        total_per_cycle = int(sum(per_cycle))
        if total_per_cycle and n_element_updates % total_per_cycle != 0:
            raise ValueError("element-update count is not at a macro-cycle boundary")
        cycles = n_element_updates // total_per_cycle if total_per_cycle else 0
        step_index = np.asarray(step_index, dtype=np.int64)
        payloads = [
            {
                "dofs": dofs[sub.owned],
                "b1": b1[sub.owned],
                "b2": b2[sub.owned],
                "b3": b3[sub.owned],
                "step_index": step_index,
                "time": float(time),
                "n_element_updates": int(cycles * updates),
            }
            for sub, updates in zip(self.subdomains, per_cycle)
        ]
        self._command_all("restore", payloads)
        self._time = float(time)
        self._n_element_updates = int(cycles * total_per_cycle)
        self._cache = None

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

    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative per-rank telemetry, current workers plus prior spawns."""
        snapshots = []
        for r in range(self.n_ranks):
            merged = merge_snapshots(
                [self._telemetry_base[r], self._rank_telemetry[r]]
            )
            merged["rank"] = r
            merged["lane"] = f"rank {r}"
            snapshots.append(merged)
        return snapshots

    def merged_telemetry(self) -> dict:
        """Cross-rank merged regions/counters of the workers' lanes."""
        return merge_snapshots(self.telemetry_snapshots())

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export."""
        return [
            (f"rank {r}", r, list(events))
            for r, events in enumerate(self._rank_trace_events)
        ]

    def modelled_exchange_per_cycle(self) -> dict:
        """The Fig-10 machine model's view of the same halo, for validation."""
        return modelled_exchange_per_cycle(
            self.halo,
            self.clustering,
            self.disc.order,
            self.n_fused,
            itemsize=np.dtype(self.disc.dtype).itemsize,
        )
