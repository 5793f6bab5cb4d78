"""The multi-rank clustered-LTS engine (Sec. V-C).

:class:`ProcessLtsEngine` drives one :class:`~repro.distributed.engine.RankWorker`
per partition through the rate-2 schedule.  Per micro step a rank predicts
its boundary rows, posts the due halo packs, predicts its interior rows
while they travel and then corrects, blocking only on packs not yet in --
the paper's communication hiding.  The ranks advance concurrently, one
forked worker process each (:func:`~repro.distributed.engine.start_ranks`),
bit-identical to the single-rank solver.

The engine implements the stepper protocol of :mod:`repro.core.stepper` in
the single-rank checkpoint layout: a rank's state at a macro-cycle boundary
is its DOFs, time and update count, and the one way a rank gets a state is
the ``restore`` command (:meth:`_scatter`).  A ``cycle`` reply carries the
rank's time and update count and what changed since its last reply (halo
traffic, receiver samples, the lane's regions, counters and trace events);
the engine adds the changes into one
:class:`~repro.parallel.communicator.MessageStats` total, the global
receivers and one mirror lane per rank, so summaries never need a worker
round-trip.  :meth:`close` caches the per-rank DOFs and stops the workers;
the next command respawns them and restores the cache, and the fresh
workers' replies add to the same totals.  A start -- the first one and
every respawn -- returns once every rank has reported its solver built
(each worker assembles its own operator rows), so a rank whose build
raises fails the start, naming the rank.  The engine waits on
every rank's pipe and process together
(:meth:`~repro.parallel.supervisor.WorkerPool.wait`), so a rank that errors
or dies is seen at once: it stops every worker and fails the engine, and
commands raise until :meth:`restore_state` supplies a state for fresh
workers on fresh channels.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from ..core.clustering import Clustering
from ..core.lts_scheduler import updates_per_cycle
from ..core.stepper import restored_dofs
from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..observability import Telemetry
from ..parallel.communicator import MessageStats
from ..parallel.exchange import HaloIndex, exchange_volumes_per_cycle
from ..source.moment_tensor import DiscretePointSource
from ..source.receivers import ReceiverSet
from .engine import RankSetup, start_ranks
from .subdomain import RankSubdomain

__all__ = ["ProcessLtsEngine"]

#: seconds a blocked halo receive waits before the run aborts (a healthy peer
#: on a big mesh can legitimately compute for a while; ``solver.comm_timeout``
#: overrides it)
DEFAULT_COMM_TIMEOUT_S = 120.0


class ProcessLtsEngine:
    """The stepper protocol over a partitioned mesh (see the module doc).

    ``telemetry`` is the driver lane: it records the macro-cycle spans and
    sits beside the per-rank lanes, whose switches and trace epoch it sets.
    """

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
        partitions = np.asarray(partitions, dtype=np.int64)
        if len(partitions) != disc.n_elements:
            raise ValueError("partitions do not match the discretization")
        self.disc = disc
        self.clustering = clustering
        self.partitions = partitions
        self.n_ranks = int(partitions.max()) + 1
        if self.n_ranks < 2:
            raise ValueError("a multi-rank engine needs at least two ranks")
        self.n_fused = n_fused
        # every rank builds its own backend from the kind name (a backend
        # holds per-rank scratch and caches, so the instance is never shared)
        self.kernels = make_backend(kernels).name
        self.comm_timeout = float(
            DEFAULT_COMM_TIMEOUT_S if comm_timeout is None else comm_timeout
        )
        self.receiver_set = receivers
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(enabled=False, lane="driver")
        )
        self.subdomains = [
            RankSubdomain(disc, clustering, partitions, r) for r in range(self.n_ranks)
        ]
        sources = [
            s if isinstance(s, DiscretePointSource) else DiscretePointSource(disc, s)
            for s in (sources or [])
        ]
        self._setups = [self._rank_setup(sub, sources) for sub in self.subdomains]
        self.halo = HaloIndex.from_partitions(disc.mesh.neighbors, partitions)
        #: macro cycles stepped by THIS engine instance -- the denominator
        #: for per-cycle traffic (a restored engine's counters start at zero)
        self.cycles_stepped = 0
        self._ledger_bytes = 0

        self.time = 0.0
        self.n_element_updates = 0
        #: the ranks advance in parallel: each lane spans the wall clock
        self.concurrent_lanes = self.n_ranks
        #: measured halo traffic, summed over the ranks' replies
        self.stats = MessageStats()
        #: one mirror lane per rank: the sum of its replies' increments
        self._lanes = [self._rank_lane(r) for r in range(self.n_ranks)]
        #: per-rank worker-process peak RSS (MiB), max over worker generations
        self._rank_peak_rss = [0.0] * self.n_ranks
        #: per-rank solver memory owners (MiB) of the latest reply
        self._rank_owners: list[dict] = [{}] * self.n_ranks
        #: the per-rank DOFs the next workers start from (``None``: none)
        self._cache: list[np.ndarray] | None = None
        self._failed = False
        self._start()

    def _rank_setup(self, sub: RankSubdomain, sources: list) -> RankSetup:
        """The recipe of rank ``sub.rank``'s worker: its sources and
        receivers, re-addressed to its local element ids (the receivers
        with empty recordings, which each forked worker appends to alone)."""
        owned = [copy.copy(s) for s in sources if self.partitions[s.element] == sub.rank]
        for source in owned:
            source.element = int(sub.local_of_global[source.element])
        receivers = [
            replace(receiver, element=int(sub.local_of_global[receiver.element]),
                    times=[], samples=[])
            for receiver in (self.receiver_set.receivers if self.receiver_set is not None else [])
            if self.partitions[receiver.element] == sub.rank
        ]
        return RankSetup(
            sub, owned, receivers, self.n_fused, self.kernels, self.comm_timeout,
            self._rank_lane(sub.rank),
        )

    def _rank_lane(self, rank: int) -> Telemetry:
        """A rank lane with the driver lane's switches and trace epoch."""
        driver = self.telemetry
        return Telemetry(enabled=driver.enabled, trace=driver.trace_enabled,
                         rank=rank, epoch=driver.epoch)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Fork the rank workers and wait until every rank is built: a rank
        whose build raises fails the engine here, naming the rank."""
        self._pool = start_ranks(self._setups)
        self._collect()

    def _ensure_alive(self) -> None:
        if self._pool is not None:
            return
        if self._failed:
            # the dynamic state died with the workers, and quietly starting
            # blank ones would resurrect the run as a zero-state simulation
            raise RuntimeError(
                "the multi-rank engine lost its workers mid-run; the dynamic "
                "state is unrecoverable -- restore a state (or resume from "
                "the last checkpoint)"
            )
        self._start()
        cache, self._cache = self._cache, None
        if cache is not None:
            # fresh workers record into empty receiver shims and report only
            # new samples, so the global recordings need no push-back
            self._scatter(cache)

    def _fail(self, message: str):
        """Stop every worker, mark the engine failed and name the cause."""
        self._failed = True
        self._stop(grace_s=0.0)
        return RuntimeError(message)

    def _stop(self, grace_s: float) -> None:
        pool, self._pool = self._pool, None
        pool.stop(grace_s)

    def _collect(self) -> list:
        """One reply from every worker; any error or death fails the engine."""
        replies: list = [None] * self.n_ranks
        pending = set(range(self.n_ranks))
        while pending:
            for rank, outcome, message in self._pool.wait(pending):
                if outcome != "reply":
                    raise self._fail(f"rank {rank} worker died without a reply")
                status, payload = message
                if status == "error":
                    raise self._fail(f"rank {rank} worker failed:\n{payload}")
                replies[rank] = payload
                pending.discard(rank)
        return replies

    def _command_all(self, command: str, payloads=None) -> list:
        self._ensure_alive()
        for rank in range(self.n_ranks):
            try:
                self._pool.send(rank, (command, None if payloads is None else payloads[rank]))
            except OSError as error:
                raise self._fail(f"rank {rank} worker is gone") from error
        return self._collect()

    def close(self) -> None:
        """Gather the per-rank DOFs into the cache and stop the workers.

        The engine stays fully usable: reads are served from the cache and
        stepping respawns the workers from it.
        """
        if self._pool is None:
            return
        # traffic, telemetry and receiver recordings only change inside
        # "cycle" commands, so the totals are already current here
        self._cache = self._command_all("dofs")
        self._stop(grace_s=5.0)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            if getattr(self, "_pool", None) is not None:
                self._stop(grace_s=0.0)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the stepper protocol
    # ------------------------------------------------------------------
    @property
    def macro_dt(self) -> float:
        return float(self.clustering.cluster_time_steps[-1])

    @property
    def dofs(self) -> np.ndarray:
        """The global DOF array, gathered from the ranks."""
        if self._cache is not None:
            return self._gather(self._cache)
        return self._gather(self._command_all("dofs"))

    def _gather(self, per_rank: list[np.ndarray]) -> np.ndarray:
        template = per_rank[0]
        out = np.empty((self.disc.n_elements,) + template.shape[1:], dtype=template.dtype)
        for array, sub in zip(per_rank, self.subdomains):
            out[sub.owned] = array
        return out

    def _scatter(self, per_rank_dofs: list[np.ndarray]) -> None:
        """``restore`` every rank to its DOFs at the engine's time and update
        count.

        The global element-update count is re-distributed deterministically
        (per-rank updates per cycle are fixed by the clustering), so a
        restored engine continues with exactly the accounting of an
        uninterrupted run.
        """
        per_cycle = [updates_per_cycle(sub.clustering.counts) for sub in self.subdomains]
        cycles = self.n_element_updates // max(sum(per_cycle), 1)
        self._command_all("restore", [
            {"dofs": dofs, "time": self.time, "n_element_updates": cycles * updates}
            for dofs, updates in zip(per_rank_dofs, per_cycle)
        ])

    def set_initial_condition(self, func) -> None:
        """Project the initial condition globally and scatter it to the ranks."""
        global_dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)
        self._scatter([global_dofs[sub.owned] for sub in self.subdomains])

    def step_cycle(self) -> None:
        """Advance all ranks by one macro cycle, concurrently (one ``cycle``
        span on the driver lane marks the cycle boundaries)."""
        with self.telemetry.region("cycle"):
            replies = self._command_all("cycle")
        self.cycles_stepped += 1
        self.time = float(replies[0]["time"])
        self.n_element_updates = sum(r["n_element_updates"] for r in replies)
        for rank, reply in enumerate(replies):
            self.stats.merge(reply["stats"])
            self._lanes[rank].absorb(reply["telemetry"])
            self._rank_peak_rss[rank] = max(
                self._rank_peak_rss[rank], float(reply["peak_rss_mb"])
            )
            self._rank_owners[rank] = reply["memory_owners"]
            for name, times, samples in reply["records"]:
                receiver = self.receiver_set[name]
                receiver.times.extend(float(t) for t in times)
                receiver.samples.extend(np.asarray(s) for s in samples)

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Scatter a global ``arrays["dofs"]`` onto the ranks (other entries
        are ignored).  A closed or failed engine keeps the DOFs for the
        fresh workers its next command starts."""
        disc = self.disc
        fused = (self.n_fused,) if self.n_fused else ()
        shape = (disc.n_elements, disc.n_vars, disc.n_basis) + fused
        # validated here, before any rank sees the state: a mis-shaped array
        # fails by name, as on one rank
        dofs = restored_dofs(arrays, shape, disc.dtype)
        per_cycle = updates_per_cycle(self.clustering.counts)
        if per_cycle and n_element_updates % per_cycle != 0:
            raise ValueError("element-update count is not at a macro-cycle boundary")
        self.time = float(time)
        self.n_element_updates = int(n_element_updates)
        per_rank = [dofs[sub.owned] for sub in self.subdomains]
        if self._pool is None:
            self._failed = False
            self._cache = per_rank
        else:
            self._scatter(per_rank)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative snapshots: one lane per rank, then the driver lane."""
        return [lane.snapshot() for lane in [*self._lanes, self.telemetry]]

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export
        (draining is destructive: export once per run)."""
        lanes = [*self._lanes, self.telemetry]
        return [(lane.lane, tid, lane.drain_events()) for tid, lane in enumerate(lanes)]

    def memory_block(self) -> dict:
        """The summary's ``memory`` entries: the workers' self-reported peak
        RSS (the parent's ``RUSAGE_CHILDREN`` misses still-live workers) and
        each rank solver's resident MiB by owner, once every rank reported."""
        block = {}
        if any(self._rank_peak_rss):
            block["worker_peak_rss_mb"] = list(self._rank_peak_rss)
        if all(self._rank_owners):
            block["rank_owned_mb"] = list(self._rank_owners)
        return block

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
        if any(self._rank_peak_rss):
            columns["worker_peak_rss_mb"] = list(self._rank_peak_rss)
        return columns
