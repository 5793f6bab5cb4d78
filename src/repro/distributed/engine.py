"""Multi-rank clustered-LTS execution engines (Sec. V-C).

A multi-rank engine drives one :class:`~repro.distributed.stepper.RankSolver`
per partition through the shared rate-2 schedule: at every micro step the
ranks predict their due clusters, ship the face-local compressed halo
payloads, and correct.  The engines implement the stepper protocol of
:mod:`repro.core.stepper` (``dofs``, ``time``, ``n_element_updates``,
``step_cycle``, ``state_arrays``/``restore_state`` in the global-array
checkpoint layout, telemetry lanes, ``comm_summary``), so the scenario runner
drives them exactly like a single-rank solver and single-rank and
distributed checkpoints stay interchangeable.

:class:`MultiRankEngine` holds everything the two engines share: the
partition, subdomains, rank-local sources and receivers, the halo, the
global gather, the restore's update-count split and the traffic accounting.
Both exchange halo packs through the one queue communicator,
:class:`~repro.parallel.communicator.ProcessCommunicator`, one endpoint per
rank; the subclasses differ only in where the rank solvers live:
:class:`DistributedLtsEngine` keeps them in a Python list and interleaves
them over in-process queues (the serial oracle of the MPI path);
:class:`~repro.distributed.process_engine.ProcessLtsEngine` runs each in a
worker process behind commands, over ``multiprocessing`` queues.
"""

from __future__ import annotations

import copy
import queue
from dataclasses import replace

import numpy as np

from ..core.clustering import Clustering
from ..core.lts_scheduler import schedule_cycle, updates_per_cycle
from ..kernels.discretization import Discretization
from ..observability import TelemetryConfig
from ..parallel.communicator import MessageStats, ProcessCommunicator
from ..parallel.exchange import HaloIndex, exchange_volumes_per_cycle
from ..source.moment_tensor import DiscretePointSource
from ..source.receivers import Receiver, ReceiverSet
from .stepper import RankSolver
from .subdomain import RankSubdomain

__all__ = ["MultiRankEngine", "DistributedLtsEngine"]


def rank_state(solver: RankSolver) -> dict:
    """One rank's dynamic state: its local :meth:`state_arrays` plus its
    clock and update count (what :meth:`MultiRankEngine._restore_ranks`
    hands back)."""
    return dict(
        solver.state_arrays(),
        time=solver.time,
        n_element_updates=int(solver.n_element_updates),
    )


class MultiRankEngine:
    """The stepper protocol over a partitioned mesh (see the module doc).

    ``telemetry`` is the driver lane: it records the macro-cycle spans and
    sits beside the per-rank lanes, whose switches and trace epoch it sets.
    Subclasses provide ``time``, ``n_element_updates`` and the per-rank
    primitives ``_rank_dofs``, ``_set_rank_dofs``, ``_rank_states``,
    ``_restore_ranks``, ``_step_ranks``, ``_endpoint_stats``,
    ``_rank_snapshots`` and ``_rank_trace_lanes``.
    """

    #: lanes recording wall time at once (phase totals are divided by it)
    concurrent_lanes = 1

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
    ):
        partitions = np.asarray(partitions, dtype=np.int64)
        if len(partitions) != disc.n_elements:
            raise ValueError("partitions do not match the discretization")
        self.disc = disc
        self.clustering = clustering
        self.partitions = partitions
        self.n_ranks = int(partitions.max()) + 1
        self.n_fused = n_fused
        self.kernels = kernels
        self.receiver_set = receivers
        self.telemetry = (
            telemetry if telemetry is not None else TelemetryConfig().build(lane="driver")
        )
        self.telemetry_config = TelemetryConfig(
            enabled=self.telemetry.enabled, trace=self.telemetry.trace_enabled
        )
        self.subdomains = [
            RankSubdomain(disc, clustering, partitions, r) for r in range(self.n_ranks)
        ]
        global_sources = [
            s if isinstance(s, DiscretePointSource) else DiscretePointSource(disc, s)
            for s in (sources or [])
        ]
        self._rank_sources = [
            self._local_sources(global_sources, sub) for sub in self.subdomains
        ]
        self.halo = HaloIndex.from_partitions(disc.mesh.neighbors, partitions)
        #: macro cycles stepped by THIS engine instance -- the denominator
        #: for per-cycle traffic (a restored engine's counters start at zero)
        self.cycles_stepped = 0
        self._ledger_bytes = 0

    # ------------------------------------------------------------------
    # rank-local sources and receivers
    # ------------------------------------------------------------------
    def _local_sources(self, global_sources: list, subdomain: RankSubdomain) -> list:
        """One rank's point sources, element ids remapped to local order."""
        local = []
        for source in global_sources:
            if self.partitions[source.element] != subdomain.rank:
                continue
            remapped = copy.copy(source)
            remapped.element = int(subdomain.local_of_global[source.element])
            local.append(remapped)
        return local

    def _local_receivers(self, subdomain: RankSubdomain, own_lists: bool) -> list[Receiver]:
        """The receivers a rank owns, re-addressed to its local ids.

        The shims share the global receivers' ``times``/``samples`` lists
        (recordings land in the global set directly) unless ``own_lists``:
        a worker process cannot share them and reports increments instead.
        """
        if self.receiver_set is None:
            return []
        shims = []
        for receiver in self.receiver_set.receivers:
            if self.partitions[receiver.element] != subdomain.rank:
                continue
            shim = replace(receiver, element=int(subdomain.local_of_global[receiver.element]))
            if own_lists:
                shim.times, shim.samples = [], []
            shims.append(shim)
        return shims

    # ------------------------------------------------------------------
    # the stepper protocol
    # ------------------------------------------------------------------
    @property
    def macro_dt(self) -> float:
        return float(self.clustering.cluster_time_steps[-1])

    @property
    def dofs(self) -> np.ndarray:
        """The global DOF array, gathered from the ranks."""
        return self._gather(self._rank_dofs())

    def _gather(self, per_rank: list[np.ndarray]) -> np.ndarray:
        template = per_rank[0]
        out = np.empty((self.disc.n_elements,) + template.shape[1:], dtype=template.dtype)
        for array, sub in zip(per_rank, self.subdomains):
            out[sub.owned] = array
        return out

    def set_initial_condition(self, func) -> None:
        """Project the initial condition globally and scatter it to the ranks."""
        global_dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)
        self._set_rank_dofs([global_dofs[sub.owned] for sub in self.subdomains])

    def step_cycle(self) -> None:
        """Advance all ranks by one macro cycle (one ``cycle`` span on the
        driver lane, marking cycle boundaries in the timeline)."""
        with self.telemetry.region("cycle"):
            self._step_ranks()
        self.cycles_stepped += 1

    def state_arrays(self) -> dict:
        """The per-rank state gathered into the single-rank global arrays
        (the per-cluster step counters are identical on every rank)."""
        states = self._rank_states()
        arrays = {
            name: self._gather([state[name] for state in states])
            for name in ("dofs", "b1", "b2", "b3")
        }
        arrays["step_index"] = np.asarray(states[0]["step_index"], dtype=np.int64)
        return arrays

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Scatter a globally stored state onto the ranks and rebind the
        rank receivers to the (restored) global recordings.

        The global element-update count is re-distributed deterministically
        (per-rank updates per cycle are fixed by the clustering), so a
        restored engine continues with exactly the accounting of an
        uninterrupted run.
        """
        per_cycle = [updates_per_cycle(sub.clustering.counts) for sub in self.subdomains]
        total_per_cycle = sum(per_cycle)
        if total_per_cycle and n_element_updates % total_per_cycle != 0:
            raise ValueError("element-update count is not at a macro-cycle boundary")
        cycles = n_element_updates // total_per_cycle if total_per_cycle else 0
        step_index = np.asarray(arrays["step_index"], dtype=np.int64)
        self._restore_ranks(
            [
                {
                    **{name: arrays[name][sub.owned] for name in ("dofs", "b1", "b2", "b3")},
                    "step_index": step_index,
                    "time": float(time),
                    "n_element_updates": int(cycles * updates),
                }
                for sub, updates in zip(self.subdomains, per_cycle)
            ]
        )

    def close(self) -> None:
        """Release the ranks' resources (nothing to do in-process)."""

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> MessageStats:
        """Measured communication statistics, merged over the rank endpoints."""
        total = MessageStats()
        for stats in self._endpoint_stats():
            total.merge(stats)
        return total

    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative snapshots: one lane per rank, then the driver lane."""
        return self._rank_snapshots() + [self.telemetry.snapshot()]

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export
        (draining is destructive: export once per run)."""
        driver = self.telemetry
        return self._rank_trace_lanes() + [(driver.lane, self.n_ranks, driver.drain_events())]

    @property
    def rank_peak_rss_mb(self) -> list[float]:
        """Per-rank worker peak RSS in MiB (in-process ranks report none)."""
        return []

    def modelled_exchange_per_cycle(self) -> dict:
        """The Fig-10 machine model's view of the same halo, for validation.

        Payloads travel in the run precision times the fused width, so the
        model is evaluated at that value size; the measured traffic must
        match it exactly.
        """
        return exchange_volumes_per_cycle(
            self.halo,
            self.clustering.cluster_ids,
            self.clustering.n_clusters,
            order=self.disc.order,
            bytes_per_value=np.dtype(self.disc.dtype).itemsize * max(1, self.n_fused),
        )

    def comm_summary(self) -> dict:
        """The ``comm`` block of the run summary: measured traffic next to
        the machine model's prediction for the same halo."""
        stats = self.stats
        model = self.modelled_exchange_per_cycle()
        cycles = self.cycles_stepped
        n_halo_faces = int(self.halo.n_faces)
        n_boundary = sum(sub.n_boundary_elements for sub in self.subdomains)
        return {
            "transport": "queue",
            "cycles_measured": cycles,
            "n_halo_faces": n_halo_faces,
            # every cut face is a halo face of both its sides
            "cut_faces": n_halo_faces // 2,
            # how much of the mesh sits on partition boundaries -- the work
            # that cannot be hidden behind the overlap
            "n_boundary_elements": n_boundary,
            "boundary_element_fraction": n_boundary / len(self.partitions),
            "halo_bytes_per_element_update": model["total_bytes"]
            / updates_per_cycle(self.clustering.counts),
            "n_messages": stats.n_messages,
            "n_bytes": stats.n_bytes,
            "per_pair": {k: dict(v) for k, v in stats.per_pair.items()},
            "measured_bytes_per_cycle": stats.n_bytes / cycles if cycles else 0.0,
            "measured_messages_per_cycle": stats.n_messages / cycles if cycles else 0.0,
            "model": model,
        }

    def ledger_columns(self) -> dict:
        """The run ledger's per-cycle traffic and worker-memory columns.

        ``sent_bytes_per_rank`` folds the ``"src->dst"`` pair stats per
        sender: an imbalanced halo shows up there before it shows up as
        exposed receive-wait time.
        """
        stats = self.stats
        n_bytes = int(stats.n_bytes)
        sent = [0] * self.n_ranks
        for pair, entry in stats.per_pair.items():
            sent[int(pair.split("->", 1)[0])] += int(entry["bytes"])
        columns = {
            "comm_messages": int(stats.n_messages),
            "comm_bytes": n_bytes,
            "cycle_comm_bytes": n_bytes - self._ledger_bytes,
            "sent_bytes_per_rank": sent,
        }
        self._ledger_bytes = n_bytes
        workers = self.rank_peak_rss_mb
        if any(workers):
            columns["worker_peak_rss_mb"] = list(workers)
        return columns


class DistributedLtsEngine(MultiRankEngine):
    """In-process multi-rank clustered LTS: the rank solvers live in a list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        inbound = [queue.SimpleQueue() for _ in range(self.n_ranks)]
        #: one endpoint per rank; the ranks step in lockstep, every pack is
        #: flushed before its receive, so a receive never waits (timeout 0)
        self.comms = [
            ProcessCommunicator(
                r,
                self.n_ranks,
                inbound[r],
                {d: inbound[d] for d in range(self.n_ranks) if d != r},
                timeout=0.0,
            )
            for r in range(self.n_ranks)
        ]
        #: one telemetry lane per rank on the driver lane's trace epoch, so
        #: the exported Chrome-trace lanes line up on one timeline
        self._rank_telemetry = [
            self.telemetry_config.build(rank=r, epoch=self.telemetry.epoch)
            for r in range(self.n_ranks)
        ]
        self.ranks = [
            RankSolver(
                sub,
                comm,
                sources=sources,
                n_fused=self.n_fused,
                kernels=self.kernels,
                telemetry=lane,
            )
            for sub, comm, sources, lane in zip(
                self.subdomains, self.comms, self._rank_sources, self._rank_telemetry
            )
        ]
        self._bind_receivers()

    def _bind_receivers(self) -> None:
        """Give every rank the shims of its receivers, which share the
        global recording lists (rebuilt after a restore replaced them)."""
        for rank, sub in zip(self.ranks, self.subdomains):
            shims = self._local_receivers(sub, own_lists=False)
            rank.receivers = ReceiverSet.from_receivers(shims) if shims else None

    @property
    def time(self) -> float:
        return self.ranks[0].time

    @property
    def n_element_updates(self) -> int:
        return int(sum(rank.n_element_updates for rank in self.ranks))

    # -- per-rank primitives --------------------------------------------
    def _rank_dofs(self) -> list[np.ndarray]:
        return [rank.dofs for rank in self.ranks]

    def _set_rank_dofs(self, per_rank: list[np.ndarray]) -> None:
        for rank, dofs in zip(self.ranks, per_rank):
            rank.dofs = dofs.copy()

    def _rank_states(self) -> list[dict]:
        return [rank_state(rank) for rank in self.ranks]

    def _restore_ranks(self, states: list[dict]) -> None:
        for rank, state in zip(self.ranks, states):
            rank.restore_state(state, state["time"], state["n_element_updates"])
        self._bind_receivers()

    def _step_ranks(self) -> None:
        """One macro cycle with overlapped halo exchange.

        Per micro step every rank first predicts only its *boundary* rows,
        posts the due sends, and predicts the *interior* rows afterwards --
        the same boundary-first structure the process backend uses to hide
        message latency behind interior work (here the queues are
        in-process, so the ordering only proves the structure is sound).
        """
        dt0 = float(self.clustering.cluster_time_steps[0])
        for entry in schedule_cycle(self.clustering.n_clusters):
            for rank in self.ranks:
                rank.begin_micro_step(entry)
            for rank in self.ranks:
                rank.advance_interior(entry)
            for rank in self.ranks:
                rank.finish_micro_step(entry, dt0)
        for rank in self.ranks:
            rank.time += self.macro_dt
        if not all(comm.all_delivered() for comm in self.comms):
            raise RuntimeError("halo exchange left undelivered messages after a macro cycle")

    def _endpoint_stats(self) -> list[MessageStats]:
        return [comm.stats for comm in self.comms]

    def _rank_snapshots(self) -> list[dict]:
        return [lane.snapshot() for lane in self._rank_telemetry]

    def _rank_trace_lanes(self) -> list[tuple]:
        return [(lane.lane, lane.rank, lane.drain_events()) for lane in self._rank_telemetry]
