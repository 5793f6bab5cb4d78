"""The next-generation clustered local time stepping solver (Sec. V).

The driver advances the mesh cluster by cluster following the rate-2
schedule of :mod:`repro.core.lts_scheduler`:

* when a cluster starts one of its intervals it *predicts* (time +
  integrate + traces + volume): the Cauchy-Kowalevski time kernel is
  evaluated, the three buffers ``B1/B2/B3`` are filled (eq. 17), and the
  volume increment and the projected own traces are stored;
* when the interval ends the cluster *corrects* (gather + both surface
  halves): the face-neighbours' data is gathered from the buffers (same
  step: ``B1``, smaller step: ``B3``, larger step: ``B2`` or ``B1 - B2``
  depending on the sub-step parity -- exactly the walkthrough of Fig. 6;
  the rows are static per cluster and parity), the local and neighbouring
  surface kernels run and the DOFs advance.

With a single cluster the scheme degenerates to GTS and reproduces the GTS
solver bit-for-bit, which the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from ..kernels.backend import make_backend
from ..kernels.discretization import N_ELASTIC, Discretization
from ..mesh.reorder import cluster_ranges
from ..observability import NULL_TELEMETRY
from ..source.receivers import ReceiverSet
from .buffers import BOUNDARY, LARGER, SAME, SMALLER, LtsBuffers
from .clustering import Clustering
from .lts_scheduler import schedule_cycle
from .stepper import SingleRankStepper

__all__ = ["ClusteredLtsSolver"]


class _ClusterData:
    """Static per-cluster data of the LTS driver: the cluster's run of the
    cluster-ordered mesh as a ``range`` (what a backend's ``local_update`` is
    handed) and as the equal ``slice`` (a view of every per-element array)."""

    def __init__(self, disc: Discretization, clustering: Clustering, cluster: int, run: range):
        self.cluster_id = cluster
        self.elements = run
        self.batch = slice(run.start, run.stop)
        self.dt = float(clustering.cluster_time_steps[cluster])
        neighbors = disc.mesh.neighbors[self.batch]
        self.neighbors = neighbors
        neighbor_clusters = np.where(
            neighbors >= 0, clustering.cluster_ids[np.maximum(neighbors, 0)], -1
        )
        relations = np.full(neighbors.shape, BOUNDARY, dtype=np.int64)
        relations[(neighbors >= 0) & (neighbor_clusters == cluster)] = SAME
        relations[(neighbors >= 0) & (neighbor_clusters == cluster - 1)] = SMALLER
        relations[(neighbors >= 0) & (neighbor_clusters == cluster + 1)] = LARGER
        invalid = (neighbors >= 0) & (np.abs(neighbor_clusters - cluster) > 1)
        if np.any(invalid):
            raise ValueError(
                "clustering is not normalised: face neighbours differ by more than one cluster"
            )
        self.relations = relations
        #: per-cluster kernel scratch workspace (attached by the solver;
        #: ``None`` for the reference backend, which allocates per call)
        self.workspace = None
        #: the backend's correction gather plans into the buffer store, per
        #: step parity (attached by the solver)
        self.neighbor_plans: tuple = ()
        # prediction storage: the volume increment and the projected own
        # traces the correction's surface kernels read
        self.pending_local_delta: np.ndarray | None = None
        self.pending_traces: np.ndarray | None = None
        self.step_index = 0


class ClusteredLtsSolver(SingleRankStepper):
    """Clustered rate-2 local time stepping ADER-DG solver.

    The discretization must be assembled in cluster order (Sec. VI,
    :func:`~repro.mesh.reorder.reorder_elements`); an unsorted clustering
    raises :class:`~repro.mesh.reorder.ClusterOrderError`.
    """

    def __init__(
        self,
        disc: Discretization,
        clustering: Clustering,
        sources: list | None = None,
        receivers: ReceiverSet | None = None,
        n_fused: int = 0,
        kernels=None,
        telemetry=None,
    ):
        if len(clustering.cluster_ids) != disc.n_elements:
            raise ValueError("clustering does not match the discretization")
        ranges = cluster_ranges(clustering.cluster_ids, clustering.n_clusters)
        if np.any(clustering.cluster_time_steps[clustering.cluster_ids] > disc.time_steps + 1e-12):
            raise ValueError("clustered time steps exceed the CFL limit of some elements")
        self.disc = disc
        self.clustering = clustering
        self.n_fused = n_fused
        self.receivers = receivers
        self.sources = [self._bind_source(s) for s in (sources or [])]
        self._sources_by_element = {}
        for source in self.sources:
            self._sources_by_element.setdefault(int(source.element), []).append(source)

        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.backend = make_backend(kernels)
        self.backend.telemetry = self.telemetry
        self.dofs = disc.allocate_dofs(n_fused=n_fused)
        self.buffers = LtsBuffers(disc, n_fused=n_fused)
        self.clusters = [
            _ClusterData(disc, clustering, l, range(start, stop))
            for l, (start, stop) in enumerate(ranges)
        ]
        for cluster in self.clusters:
            cluster.workspace = self.backend.make_workspace()
            cluster.neighbor_plans = tuple(
                self.backend.neighbor_plan(
                    disc, self.dofs, cluster.elements,
                    self.buffers.face_rows(cluster.neighbors, cluster.relations, parity),
                )
                for parity in (0, 1)
            )
        self.time = 0.0
        self.n_element_updates = 0

    # ------------------------------------------------------------------
    @property
    def macro_dt(self) -> float:
        """Duration of one macro cycle (one step of the largest cluster)."""
        return float(self.clustering.cluster_time_steps[-1])

    # ------------------------------------------------------------------
    def _predict(self, cluster: _ClusterData) -> None:
        """Time kernel, buffer fill and volume update of one cluster."""
        if cluster.workspace is not None:
            self._bind_pending(cluster)
        else:  # the reference kernels' fresh results are adopted, not copied
            cluster.pending_local_delta = cluster.pending_traces = None
        if len(cluster.elements):
            with self.telemetry.region("predict"):
                self._predict_elements(cluster, slice(0, len(cluster.elements)))

    def _bind_pending(self, cluster: _ClusterData) -> bool:
        """Bind the cluster's prediction storage (``False``: empty cluster).

        The volume increment and the own traces outlive the prediction
        until the correction reads them, so they live in the cluster's
        workspace under names of their own: a micro step allocates nothing.
        """
        n = len(cluster.elements)
        if n == 0:
            cluster.pending_local_delta = cluster.pending_traces = None
            return False
        shape = (n,) + self.dofs.shape[1:]
        traces = (n, 4, N_ELASTIC, self.disc.n_face_basis) + self.dofs.shape[3:]
        cluster.pending_local_delta = self._pending(cluster, "pending_delta", shape)
        cluster.pending_traces = self._pending(cluster, "pending_traces", traces)
        return True

    def _pending(self, cluster: _ClusterData, name: str, shape: tuple) -> np.ndarray:
        if cluster.workspace is None:  # the reference kernels keep no scratch
            return np.empty(shape, dtype=self.dofs.dtype)
        return cluster.workspace.scratch(name, shape, self.dofs.dtype)

    def _predict_elements(self, cluster: _ClusterData, rows: slice) -> None:
        """The element-local prediction of a row range of the cluster batch:
        CK time kernel, buffer fill, volume update.

        Shared between the full-cluster ``_predict`` and the distributed
        rank stepper's boundary/interior split -- every contraction is
        element-local, so any partition of the batch produces bit-identical
        per-element results.  The increment and the traces are written into
        the cluster's bound pending rows (unbound: the whole cluster's
        results are adopted), and the buffers are filled per element block
        while its integrals are in cache.
        """
        if rows.start == rows.stop:
            return
        first, step_index = cluster.elements.start, cluster.step_index

        def fill(block: slice, integral: np.ndarray, half: np.ndarray) -> None:
            self.buffers.fill(block, integral, half, step_index)

        out = None
        if cluster.pending_local_delta is not None:
            out = (cluster.pending_local_delta[rows], cluster.pending_traces[rows])
        delta, _, _, traces = self.backend.local_update(
            self.disc, self.dofs, cluster.dt, range(first + rows.start, first + rows.stop),
            ws=cluster.workspace, needs_half=True, out=out, fill=fill,
        )
        if out is None:
            cluster.pending_local_delta, cluster.pending_traces = delta, traces

    def _halo(self, cluster: _ClusterData):
        """Received neighbour coefficients of a correction (a hook: the
        distributed rank stepper returns ``(faces, payloads)``)."""
        return None

    def _correct(self, cluster: _ClusterData, cluster_start_time: float) -> None:
        """Both surface halves and the DOF advance of one cluster: the
        backend gathers the neighbours straight from the buffer store."""
        if len(cluster.elements) == 0:
            cluster.step_index += 1
            return
        with self.telemetry.region("correct"):
            halo = self._halo(cluster)
            self.backend.correct(
                self.disc, self.dofs, cluster.elements, cluster.pending_local_delta,
                cluster.pending_traces, self.buffers.store,
                cluster.neighbor_plans[cluster.step_index % 2],
                ws=cluster.workspace, halo=halo,
            )
        cluster.pending_local_delta = None
        cluster.pending_traces = None

        t_new = cluster_start_time + cluster.dt
        for element, sources in self._sources_by_element.items():
            if element in cluster.elements:
                for source in sources:
                    source.inject(self.dofs, cluster_start_time, t_new)
        if self.receivers is not None:
            self.receivers.record_elements(cluster.elements, t_new, self.dofs)

        self.n_element_updates += len(cluster.elements)
        if self.telemetry.enabled:
            self.telemetry.inc(
                f"updates/cluster{cluster.cluster_id}", len(cluster.elements)
            )
        cluster.step_index += 1

    # ------------------------------------------------------------------
    def step_cycle(self) -> None:
        """Advance the whole mesh by one macro cycle (largest cluster step)."""
        n_clusters = self.clustering.n_clusters
        dt0 = float(self.clustering.cluster_time_steps[0])
        for entry in schedule_cycle(n_clusters):
            for l in entry["predict"]:
                self._predict(self.clusters[l])
            for l in entry["correct"]:
                cluster = self.clusters[l]
                start = self.time + (entry["micro_step"] + 1) * dt0 - cluster.dt
                self._correct(cluster, start)
        self.time += self.macro_dt

    # ------------------------------------------------------------------
    def state_arrays(self) -> dict:
        """DOFs plus the per-cluster step counters and the three buffers."""
        return {
            "dofs": self.dofs,
            "step_index": np.array(
                [cluster.step_index for cluster in self.clusters], dtype=np.int64
            ),
            "b1": self.buffers.b1,
            "b2": self.buffers.b2,
            "b3": self.buffers.b3,
        }

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        super().restore_state(arrays, time, n_element_updates)
        for cluster, step_index in zip(self.clusters, arrays["step_index"]):
            cluster.step_index = int(step_index)
        self.buffers.b1 = arrays["b1"]
        self.buffers.b2 = arrays["b2"]
        self.buffers.b3 = arrays["b3"]
