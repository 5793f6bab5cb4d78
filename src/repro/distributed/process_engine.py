"""The multi-rank clustered-LTS engine (Sec. V-C).

:class:`ProcessLtsEngine` drives one :class:`~repro.distributed.engine.RankWorker`
per partition through the rate-2 schedule.  Per micro step a rank predicts
its boundary rows, posts the due halo packs, predicts its interior rows
while they travel and then corrects, blocking only on packs not yet in --
the paper's communication hiding.  The ranks advance concurrently, one
forked worker process each (:class:`~repro.distributed.engine.ProcessHost`),
bit-identical to the single-rank solver.

The engine implements the stepper protocol of :mod:`repro.core.stepper` in
the single-rank checkpoint layout.  It mirrors what each ``cycles`` reply
carries (time, update count, traffic, telemetry, new receiver samples), so
summaries never need a worker round-trip.  :meth:`close` caches the
per-rank states and stops the workers; the next command respawns them from
the cache.  A worker error or death stops every worker and fails the
engine: commands raise until :meth:`restore_state` supplies a state for
fresh workers on fresh channels.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from ..core.clustering import Clustering
from ..core.lts_scheduler import updates_per_cycle
from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..observability import TelemetryConfig, merge_snapshots
from ..parallel.communicator import MessageStats
from ..parallel.exchange import HaloIndex, exchange_volumes_per_cycle
from ..source.moment_tensor import DiscretePointSource
from ..source.receivers import ReceiverSet
from .engine import ProcessHost, RankSetup
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
            telemetry if telemetry is not None else TelemetryConfig().build(lane="driver")
        )
        self.telemetry_config = TelemetryConfig(
            enabled=self.telemetry.enabled, trace=self.telemetry.trace_enabled
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
        #: the current workers' cumulative traffic and telemetry mirrors, and
        #: the merged history of earlier worker generations
        self._rank_stats = [MessageStats().as_dict() for _ in range(self.n_ranks)]
        self._stats_base = MessageStats()
        self._rank_telemetry: list[dict] = [{} for _ in range(self.n_ranks)]
        self._telemetry_base: list[dict] = [{} for _ in range(self.n_ranks)]
        self._rank_trace_events: list[list] = [[] for _ in range(self.n_ranks)]
        #: per-rank worker-process peak RSS (MiB), max over worker generations
        self._rank_peak_rss = [0.0] * self.n_ranks
        #: the per-rank states the next workers start from (``None``: none)
        self._cache: list[dict] | None = None
        self._failed = False
        self._host = ProcessHost(self._setups)

    def _rank_setup(self, sub: RankSubdomain, sources: list) -> RankSetup:
        """The recipe of rank ``sub.rank``'s worker: its sources and
        receivers, re-addressed to its local element ids."""
        owned = [copy.copy(s) for s in sources if self.partitions[s.element] == sub.rank]
        for source in owned:
            source.element = int(sub.local_of_global[source.element])
        receivers = [
            replace(receiver, element=int(sub.local_of_global[receiver.element]))
            for receiver in (self.receiver_set.receivers if self.receiver_set is not None else [])
            if self.partitions[receiver.element] == sub.rank
        ]
        return RankSetup(
            sub, owned, receivers, self.n_fused, self.kernels, self.comm_timeout,
            self.telemetry_config, self.telemetry.epoch,
        )

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _ensure_alive(self) -> None:
        if self._host is not None:
            return
        if self._failed:
            # the dynamic state died with the workers, and quietly starting
            # blank ones would resurrect the run as a zero-state simulation
            raise RuntimeError(
                "the multi-rank engine lost its workers mid-run; the dynamic "
                "state is unrecoverable -- restore a state (or resume from "
                "the last checkpoint)"
            )
        # traffic and telemetry accounted before the shutdown survive it
        for stats in self._rank_stats:
            self._stats_base.merge(stats)
        self._rank_stats = [MessageStats().as_dict() for _ in range(self.n_ranks)]
        self._telemetry_base = [
            merge_snapshots([base, current])
            for base, current in zip(self._telemetry_base, self._rank_telemetry)
        ]
        self._rank_telemetry = [{} for _ in range(self.n_ranks)]
        self._host = ProcessHost(self._setups)
        if self._cache is not None:
            # fresh workers record into empty receiver shims and report only
            # new samples, so the global recordings need no push-back
            self._command_all("restore", self._cache)
            self._cache = None

    def _fail(self, message: str):
        """Stop every worker, mark the engine failed and name the cause."""
        self._failed = True
        self._stop(grace_s=0.0)
        return RuntimeError(message)

    def _stop(self, grace_s: float) -> None:
        host, self._host = self._host, None
        host.stop(grace_s)

    def _collect(self) -> list:
        """One reply from every worker; surfaces worker errors eagerly."""
        host = self._host
        replies: list = [None] * self.n_ranks
        remaining = set(range(self.n_ranks))
        while remaining:
            for index in sorted(remaining):
                # liveness first: a worker that replied and then ended has
                # its reply readable by the time the poll looks
                alive = host.handles[index].is_alive()
                if not host.ctrls[index].poll(0.02):
                    if not alive:
                        raise self._fail(f"rank {index} worker died without a reply")
                    continue
                try:
                    status, payload = host.ctrls[index].recv()
                except (EOFError, OSError):  # a killed worker's pipe end
                    raise self._fail(f"rank {index} worker died without a reply") from None
                if status == "error":
                    raise self._fail(f"rank {index} worker failed:\n{payload}")
                replies[index] = payload
                remaining.discard(index)
        return replies

    def _command_all(self, command: str, payloads=None) -> list:
        self._ensure_alive()
        for index, ctrl in enumerate(self._host.ctrls):
            try:
                ctrl.send((command, None if payloads is None else payloads[index]))
            except (BrokenPipeError, OSError) as error:
                raise self._fail(f"rank {index} worker is gone") from error
        return self._collect()

    def close(self) -> None:
        """Gather the per-rank states into the cache and stop the workers.

        The engine stays fully usable: reads are served from the cache and
        stepping respawns the workers from it.
        """
        if self._host is None:
            return
        # stats and receiver recordings only change inside "cycles"
        # commands, so the mirrors are already current here
        self._cache = self._command_all("state")
        self._command_all("exit")
        self._stop(grace_s=5.0)

    def __del__(self):  # pragma: no cover - interpreter-shutdown safety net
        try:
            if getattr(self, "_host", None) is not None:
                self._stop(grace_s=0.0)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # the stepper protocol
    # ------------------------------------------------------------------
    @property
    def macro_dt(self) -> float:
        return float(self.clustering.cluster_time_steps[-1])

    def _states(self) -> list[dict]:
        return self._cache if self._cache is not None else self._command_all("state")

    @property
    def dofs(self) -> np.ndarray:
        """The global DOF array, gathered from the ranks."""
        if self._cache is not None:
            return self._gather([state["dofs"] for state in self._cache])
        return self._gather(self._command_all("dofs"))

    def _gather(self, per_rank: list[np.ndarray]) -> np.ndarray:
        template = per_rank[0]
        out = np.empty((self.disc.n_elements,) + template.shape[1:], dtype=template.dtype)
        for array, sub in zip(per_rank, self.subdomains):
            out[sub.owned] = array
        return out

    def set_initial_condition(self, func) -> None:
        """Project the initial condition globally and scatter it to the ranks."""
        global_dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)
        self._command_all("set_dofs", [global_dofs[sub.owned] for sub in self.subdomains])

    def step_cycle(self) -> None:
        """Advance all ranks by one macro cycle, concurrently (one ``cycle``
        span on the driver lane marks the cycle boundaries)."""
        with self.telemetry.region("cycle"):
            replies = self._command_all("cycles", [1] * self.n_ranks)
        self.cycles_stepped += 1
        self.time = float(replies[0]["time"])
        self.n_element_updates = sum(r["n_element_updates"] for r in replies)
        self._rank_stats = [r["stats"] for r in replies]
        self._rank_peak_rss = [
            max(prev, float(reply["peak_rss_mb"]))
            for prev, reply in zip(self._rank_peak_rss, replies)
        ]
        if self.receiver_set is not None:
            for reply in replies:
                for name, times, samples in reply["records"]:
                    receiver = self.receiver_set[name]
                    receiver.times.extend(float(t) for t in times)
                    receiver.samples.extend(np.asarray(s) for s in samples)
        if self.telemetry_config.enabled:
            self._rank_telemetry = [r["telemetry"] for r in replies]
            for events, reply in zip(self._rank_trace_events, replies):
                events.extend(reply["trace_events"])

    def state_arrays(self) -> dict:
        """The per-rank state gathered into the single-rank global arrays
        (the per-cluster step counters are identical on every rank)."""
        states = self._states()
        arrays = {
            name: self._gather([state[name] for state in states])
            for name in ("dofs", "b1", "b2", "b3")
        }
        arrays["step_index"] = np.asarray(states[0]["step_index"], dtype=np.int64)
        return arrays

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Scatter a globally stored state onto the ranks.

        The global element-update count is re-distributed deterministically
        (per-rank updates per cycle are fixed by the clustering), so a
        restored engine continues with exactly the accounting of an
        uninterrupted run.  A closed or failed engine keeps the state for
        the fresh workers its next command starts.
        """
        per_cycle = [updates_per_cycle(sub.clustering.counts) for sub in self.subdomains]
        total_per_cycle = sum(per_cycle)
        if total_per_cycle and n_element_updates % total_per_cycle != 0:
            raise ValueError("element-update count is not at a macro-cycle boundary")
        cycles = n_element_updates // total_per_cycle if total_per_cycle else 0
        step_index = np.asarray(arrays["step_index"], dtype=np.int64)
        states = [
            {
                **{name: arrays[name][sub.owned] for name in ("dofs", "b1", "b2", "b3")},
                "step_index": step_index,
                "time": float(time),
                "n_element_updates": int(cycles * updates),
            }
            for sub, updates in zip(self.subdomains, per_cycle)
        ]
        if self._host is None:
            self._failed = False
            self._cache = states
        else:
            self._command_all("restore", states)
        self.time = float(time)
        self.n_element_updates = int(n_element_updates)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def stats(self) -> MessageStats:
        """Measured communication statistics, merged over the rank endpoints
        of every worker generation."""
        total = MessageStats()
        for stats in [self._stats_base, *self._rank_stats]:
            total.merge(stats)
        return total

    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative snapshots: one lane per rank, then the driver lane."""
        snapshots = []
        for r in range(self.n_ranks):
            merged = merge_snapshots([self._telemetry_base[r], self._rank_telemetry[r]])
            merged["rank"] = r
            merged["lane"] = f"rank {r}"
            snapshots.append(merged)
        return snapshots + [self.telemetry.snapshot()]

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export
        (draining is destructive: export once per run)."""
        lanes = [(f"rank {r}", r, list(events)) for r, events in enumerate(self._rank_trace_events)]
        driver = self.telemetry
        return lanes + [(driver.lane, self.n_ranks, driver.drain_events())]

    @property
    def rank_peak_rss_mb(self) -> list[float]:
        """Per-rank worker-process peak RSS in MiB (zeros before the first
        cycle)."""
        return list(self._rank_peak_rss)

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
            columns["worker_peak_rss_mb"] = self.rank_peak_rss_mb
        return columns
