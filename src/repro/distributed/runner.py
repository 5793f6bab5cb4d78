"""Scenario orchestration for distributed (multi-rank) runs.

:class:`DistributedRunner` is a :class:`~repro.scenarios.runner.ScenarioRunner`
whose execution engine is multi-rank: the mesh is split with the weighted
dual-graph partitioner (update-frequency element weights, Sec. V-C), one
rank-local clustered-LTS stepper advances each subdomain, and
partition-boundary data travels as face-local compressed payloads.  The
spec's ``solver.backend`` picks the engine: ``"serial"`` steps the ranks
in-process through the simulated communicator
(:class:`~repro.distributed.engine.DistributedLtsEngine`), ``"process"``
runs one worker process per rank with overlapped halo exchange
(:class:`~repro.distributed.process_engine.ProcessLtsEngine`).  DOFs,
seismograms and element-update counts are bit-identical to the single-rank
runner under either backend; the run summary additionally reports the
*measured* communication traffic next to the machine model's prediction for
the same halo.

Checkpoints are written in the single-rank format (per-rank state is
gathered into global arrays), so distributed and single-rank checkpoints
are interchangeable: ``resume`` follows the spec's ``n_ranks``.
"""

from __future__ import annotations

import numpy as np

from ..core.lts_scheduler import updates_per_cycle
from ..kernels.discretization import Discretization
from ..parallel.partition import element_weights, partition_dual_graph
from ..scenarios.runner import ScenarioRunner
from .engine import DistributedLtsEngine, per_rank_sent_bytes
from .process_engine import ProcessLtsEngine

__all__ = ["DistributedRunner"]


class DistributedRunner(ScenarioRunner):
    """Drives one scenario through the multi-rank execution engine."""

    def _build_solver(self, disc: Discretization, sources: list):
        spec = self.spec
        n_ranks = spec.solver.n_ranks
        if n_ranks < 2:
            raise ValueError("DistributedRunner needs solver.n_ranks >= 2")
        engine_cls = (
            ProcessLtsEngine if spec.solver.backend == "process" else DistributedLtsEngine
        )
        # the runner's own lane becomes the "driver" lane (preprocessing,
        # checkpoint I/O) next to the engine's per-rank lanes; sharing the
        # epoch puts all lanes on one trace timeline
        self.telemetry.lane = "driver"
        engine_kwargs = {}
        if spec.solver.backend == "process":
            # the recv timeout only exists on the process engine; the serial
            # engine's simulated communicator never blocks
            if spec.solver.comm_timeout is not None:
                engine_kwargs["comm_timeout"] = spec.solver.comm_timeout
        self.engine = engine_cls(
            disc,
            self.clustering,
            self._partitions(disc, n_ranks),
            sources=sources,
            receivers=self.receivers,
            n_fused=spec.solver.n_fused,
            kernels=spec.solver.kernels,
            telemetry=self.telemetry_config,
            telemetry_epoch=self.telemetry.epoch,
            **engine_kwargs,
        )
        return self.engine

    def _partitions(self, disc: Discretization, n_ranks: int) -> np.ndarray:
        """One partition per rank, balanced by LTS update-frequency weights.

        A preprocessing pass that already produced a matching partition count
        is reused (its reordering made the partitions contiguous); otherwise
        the weighted partitioner runs on the final mesh.
        """
        if self.preprocessed is not None:
            partitions = np.asarray(self.preprocessed.partitions, dtype=np.int64)
            if int(partitions.max()) + 1 == n_ranks:
                return partitions
        weights = element_weights(
            self.clustering.cluster_ids, self.clustering.n_clusters
        )
        return partition_dual_graph(disc.mesh.neighbors, weights, n_ranks).partitions

    # -- run lifecycle --------------------------------------------------
    def step_cycle(self) -> None:
        # the macro-cycle span lives on the driver lane (the rank lanes are
        # separate objects here), marking cycle boundaries in the timeline
        with self.telemetry.region("cycle"):
            super().step_cycle()

    def run(
        self,
        *,
        checkpoint_path=None,
        checkpoint_every: int | None = None,
    ) -> dict:
        """Run to completion, then release any rank worker processes.

        The process engine caches its state on close, so summaries, output
        writers and checkpoints keep working after the release -- and
        stepping again transparently respawns the workers.
        """
        try:
            return super().run(
                checkpoint_path=checkpoint_path, checkpoint_every=checkpoint_every
            )
        finally:
            close = getattr(self.engine, "close", None)
            if close is not None:
                close()

    # -- accounting -----------------------------------------------------
    def summary(self) -> dict:
        """Single-rank summary plus measured-vs-modelled communication."""
        out = super().summary()
        stats = self.engine.stats
        model = self.engine.modelled_exchange_per_cycle()
        # normalise by the cycles THIS engine stepped: a resumed run's
        # counters do not include the pre-checkpoint traffic
        cycles = self.engine.cycles_stepped
        out["n_ranks"] = self.engine.n_ranks
        out["backend"] = self.spec.solver.backend
        n_halo_faces = int(self.engine.halo.n_faces)
        n_boundary = sum(sub.n_boundary_elements for sub in self.engine.subdomains)
        out["comm"] = {
            "transport": "queue" if self.spec.solver.backend == "process" else "simulated",
            "cycles_measured": cycles,
            "n_halo_faces": n_halo_faces,
            # every cut face is a halo face of both its sides
            "cut_faces": n_halo_faces // 2,
            # how much of the mesh sits on partition boundaries -- the work
            # that cannot be hidden behind the overlap
            "n_boundary_elements": n_boundary,
            "boundary_element_fraction": n_boundary / len(self.engine.partitions),
            "halo_bytes_per_element_update": model["total_bytes"]
            / updates_per_cycle(self.clustering.counts),
            "n_messages": stats.n_messages,
            "n_bytes": stats.n_bytes,
            "per_pair": {k: dict(v) for k, v in stats.per_pair.items()},
            "measured_bytes_per_cycle": stats.n_bytes / cycles if cycles else 0.0,
            "measured_messages_per_cycle": stats.n_messages / cycles if cycles else 0.0,
            "model": model,
        }
        workers = getattr(self.engine, "rank_peak_rss_mb", None)
        if workers and any(workers):
            # the parent's RUSAGE_CHILDREN misses still-live workers, so the
            # summary carries the workers' self-reported peaks
            out["memory"]["worker_peak_rss_mb"] = list(workers)
        return out

    def _cycle_record(self, cycle_wall_s: float) -> dict:
        record = super()._cycle_record(cycle_wall_s)
        stats = self.engine.stats
        n_bytes = int(stats.n_bytes)
        record["comm_messages"] = int(stats.n_messages)
        record["comm_bytes"] = n_bytes
        record["cycle_comm_bytes"] = n_bytes - getattr(
            self, "_ledger_prev_comm_bytes", 0
        )
        self._ledger_prev_comm_bytes = n_bytes
        record["sent_bytes_per_rank"] = per_rank_sent_bytes(
            stats.per_pair, self.engine.n_ranks
        )
        workers = getattr(self.engine, "rank_peak_rss_mb", None)
        if workers and any(workers):
            record["worker_peak_rss_mb"] = list(workers)
            record["peak_rss_mb"] = max([record["peak_rss_mb"], *workers])
        return record

    # -- telemetry ------------------------------------------------------
    def _telemetry_snapshots(self) -> list[dict]:
        return self.engine.telemetry_snapshots() + [self.telemetry.snapshot()]

    def _trace_lanes(self) -> list[tuple]:
        lanes = self.engine.trace_lanes()
        lanes.append(
            (self.telemetry.lane, self.engine.n_ranks, self.telemetry.drain_events())
        )
        return lanes

    def _concurrent_lanes(self) -> int:
        # process-backend ranks advance in parallel (each lane spans the
        # wall clock); the serial engine interleaves them in one process
        if self.spec.solver.backend == "process":
            return self.engine.n_ranks
        return 1

    def telemetry_block(self) -> dict:
        block = super().telemetry_block()
        stats = self.engine.stats
        block["counters"]["comm/messages"] = int(stats.n_messages)
        block["counters"]["comm/bytes"] = int(stats.n_bytes)
        return block

    # -- checkpoint / restart -------------------------------------------
    def _solver_state_arrays(self) -> dict:
        buffers = self.engine.gather_buffers()
        return {
            "step_index": self.engine.step_indices(),
            "b1": buffers["b1"],
            "b2": buffers["b2"],
            "b3": buffers["b3"],
        }

    def _restore_solver_state(self, data, meta: dict) -> None:
        self.engine.restore(
            dofs=data["dofs"],
            b1=data["b1"],
            b2=data["b2"],
            b3=data["b3"],
            step_index=data["step_index"],
            time=float(meta["time"]),
            n_element_updates=int(meta["n_element_updates"]),
        )

    def _after_restore(self) -> None:
        # the restore replaced the global receivers' recording lists; the
        # per-rank shims must share the new list objects
        self.engine.rebind_receivers()
