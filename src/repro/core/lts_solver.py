"""The next-generation clustered local time stepping solver (Sec. V).

The driver advances the mesh cluster by cluster following the rate-2
schedule of :mod:`repro.core.lts_scheduler`:

* when a cluster starts one of its intervals it *predicts* (time +
  integrate + volume): the Cauchy-Kowalevski time kernel is evaluated, the
  three buffers ``B1/B2/B3`` are filled (eq. 17), and the volume increment
  goes toward the DOFs (the backend keeps it until the correction);
* when the interval ends the cluster *corrects* (own traces + gather +
  both surface halves): the own traces are projected from the cluster's
  ``B1`` rows, which nothing overwrites before this correction, the
  face-neighbours' data is gathered from the buffers (same step: ``B1``,
  smaller step: ``B3``, larger step: ``B2`` or ``B1 - B2`` depending on
  the sub-step parity -- exactly the walkthrough of Fig. 6; the rows are
  static per cluster and parity), the local and neighbouring surface
  kernels run and the DOFs advance.  Between the two phases a cluster
  holds nothing but its DOFs and its buffer rows.

Every cluster due at a micro step predicts in one kernel dispatch, and every
cluster whose interval ends after it corrects in one more: the clusters
write disjoint rows, so the backend shares all their element blocks among
its threads at once (the smallest clusters, which step most often, no
longer pay a dispatch each).

With every element in cluster 0 the scheme is GTS
(:mod:`repro.core.gts_solver`), which the test suite holds bitwise to the
independent one-step update :func:`~repro.kernels.update.gts_step`.
"""

from __future__ import annotations

import numpy as np

from ..kernels.backend import make_backend
from ..kernels.discretization import Discretization
from ..mesh.reorder import cluster_ranges
from ..observability import NULL_TELEMETRY, resident_nbytes
from ..source.moment_tensor import DiscretePointSource, MomentTensorSource, PointForceSource
from ..source.receivers import ReceiverSet
from .buffers import B2, BOUNDARY, LARGER, SAME, SMALLER, BufferFill, BufferLayout, LtsBuffers
from .clustering import Clustering
from .lts_scheduler import micro_steps_per_cycle, schedule_cycle
from .stepper import HalfAppliedStepError, restored_dofs

__all__ = ["ClusteredLtsSolver", "HalfAppliedStepError"]


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
        #: ``None`` for the reference backend, whose block calls allocate
        #: their own block-sized temporaries)
        self.workspace = None
        #: the backend's correction gather plans into the buffer store, per
        #: step parity (attached by the solver)
        self.neighbor_plans: tuple = ()
        #: per step parity, the backend's items of each stepping phase
        #: (built on first use)
        self.items: list[dict | None] = [None, None]


class ClusteredLtsSolver:
    """Clustered rate-2 local time stepping ADER-DG solver: the single-rank
    stepper of :mod:`repro.core.stepper`'s protocol.

    The discretization must be assembled in cluster order (Sec. VI,
    :func:`~repro.mesh.reorder.reorder_elements`); an unsorted clustering
    raises :class:`~repro.mesh.reorder.ClusterOrderError`.  A step whose
    kernel dispatch raises part-way sets ``_failed``, and every later step
    is refused until :meth:`restore_state`.
    """

    #: one lane records the wall clock: phase totals need no normalisation
    concurrent_lanes = 1
    #: why the last step left a half-applied state (``None``: clean)
    _failed: str | None = None

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
        # the element operators are assembled with the solver, not in its
        # first step
        disc.assemble_element_operators()
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
        self.buffers = LtsBuffers(disc, n_fused=n_fused, layout=self._buffer_layout())
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

    def _bind_source(self, source) -> DiscretePointSource:
        if isinstance(source, DiscretePointSource):
            return source
        if isinstance(source, (MomentTensorSource, PointForceSource, list, tuple)):
            # a list/tuple is a fused per-slot source ensemble sharing one
            # location; DiscretePointSource stacks it along the fused axis
            return DiscretePointSource(self.disc, source)
        raise TypeError(f"unsupported source type: {type(source)!r}")

    def _buffer_layout(self) -> BufferLayout:
        """The buffer rows with a reader, by each element's face neighbours."""
        ids, neighbors = self.clustering.cluster_ids, self.disc.mesh.neighbors
        return BufferLayout.for_neighbors(ids, np.where(neighbors >= 0, ids[neighbors], -1))

    # ------------------------------------------------------------------
    # the items of a cluster's prediction and correction
    # ------------------------------------------------------------------
    def _items(self, cluster: _ClusterData, micro_step: int) -> dict:
        """The cluster's kernel items of each phase for its step at
        ``micro_step``: ``{"predict": [...], "correct": [...]}``.  The step
        parity is ``(micro_step >> l) & 1``: every cycle starts all clusters
        anew, and all but the largest (whose parity nothing reads: no ``B3``
        rows, no larger neighbour) step an even number of times per cycle."""
        parity = (micro_step >> cluster.cluster_id) & 1
        items = cluster.items[parity]
        if items is None:
            items = cluster.items[parity] = self._cluster_items(cluster, parity)
        return items

    def _cluster_items(self, cluster: _ClusterData, parity: int) -> dict:
        return {
            "predict": self._prediction(cluster, parity, slice(0, len(cluster.elements))),
            "correct": self._correction(cluster, parity),
        }

    def _prediction(self, cluster: _ClusterData, parity: int, rows: slice) -> list:
        """The items of the element-local prediction of a row range of the
        cluster batch: CK time kernel, buffer fill, volume update.

        Every contraction is element-local, so any partition of the batch
        (the distributed rank stepper's boundary/interior split) produces
        bit-identical per-element results.  The buffers are filled per
        element block while its integrals are in cache; the half-step
        integral is computed only for a row range with ``B2`` rows.
        """
        if rows.start == rows.stop:
            return []
        first = cluster.elements.start
        elements = range(first + rows.start, first + rows.stop)
        half, _ = self.buffers.layout.run_rows(B2, slice(elements.start, elements.stop))
        return self.backend.prediction(
            self.disc, self.dofs, cluster.dt, elements, BufferFill(self.buffers, parity),
            ws=cluster.workspace, needs_half=half.stop > half.start,
        )

    def _correction(self, cluster: _ClusterData, parity: int) -> list:
        """The items of both surface halves and the DOF advance of the
        cluster: the backend projects the own traces from the cluster's
        ``B1`` rows and gathers the neighbours, both straight from the
        buffer store."""
        if len(cluster.elements) == 0:
            return []
        return self.backend.correction(
            self.disc, self.dofs, cluster.elements, self.buffers.store,
            cluster.neighbor_plans[parity], ws=cluster.workspace, halo=self._halo(cluster),
        )

    def _halo(self, cluster: _ClusterData):
        """Received neighbour coefficients of a correction (a hook: the
        distributed rank stepper returns ``(faces, payloads)``, read when
        the correction runs)."""
        return None

    # ------------------------------------------------------------------
    # the micro-step phases
    # ------------------------------------------------------------------
    def _dispatch(self, phase: str, micro_step: int, clusters: list[int]) -> None:
        """One kernel dispatch of the ``phase`` items of ``clusters`` at
        ``micro_step``.

        A dispatch that raises leaves some clusters advanced and some not:
        every later step is refused until :meth:`restore_state` brings a
        whole state back.
        """
        items = [
            item for l in clusters for item in self._items(self.clusters[l], micro_step)[phase]
        ]
        if not items:
            return
        try:
            self.backend.run(items, self.dofs)
        except BaseException as error:
            self._failed = f"the {phase} dispatch of clusters {clusters} raised {error!r}"
            raise

    def predict_step(self, entry: dict) -> None:
        """Predict every cluster starting an interval at this micro step."""
        with self.telemetry.region("predict"):
            self._dispatch("predict", entry["micro_step"], entry["predict"])

    def correct_step(self, entry: dict, dt0: float) -> None:
        """Correct every cluster whose interval ends after this micro step,
        then inject its sources and record its receivers.  The one clock
        starts a cycle at :attr:`time` and adds ``dt0`` per micro step (for
        GTS: ``t += dt``); an interval runs from the clock at its first
        micro step to the clock after its last."""
        step = entry["micro_step"]
        if step == 0:
            self._clock = [self.time]
        self._clock.append(self._clock[-1] + dt0)
        with self.telemetry.region("correct"):
            self._receive()
            self._dispatch("correct", step, entry["correct"])
        for l in entry["correct"]:
            self._advance(self.clusters[l], self._clock[step + 1 - 2**l], self._clock[step + 1])
        if step + 1 == micro_steps_per_cycle(self.clustering.n_clusters):
            self.time = self._clock[-1]

    def _receive(self) -> None:
        """Bring in what the step's corrections read besides the buffers (a
        hook: the distributed rank stepper drains its halo packs)."""

    def _advance(self, cluster: _ClusterData, t_start: float, t_new: float) -> None:
        """What follows a cluster's correction: sources over its interval
        ``[t_start, t_new]``, receivers at its end and the update count."""
        if len(cluster.elements):
            for element, sources in self._sources_by_element.items():
                if element in cluster.elements:
                    for source in sources:
                        source.inject(self.dofs, t_start, t_new)
            if self.receivers is not None:
                self.receivers.record_elements(cluster.elements, t_new, self.dofs)
            self.n_element_updates += len(cluster.elements)
            if self.telemetry.enabled:
                self.telemetry.inc(
                    f"updates/cluster{cluster.cluster_id}", len(cluster.elements)
                )

    def step_cycle(self) -> None:
        """Advance the whole mesh by one macro cycle (largest cluster step)."""
        if self._failed is not None:
            raise HalfAppliedStepError(
                f"refusing to step from a half-applied state at t = {self.time}: {self._failed}; "
                "restore a checkpoint first"
            )
        dt0 = float(self.clustering.cluster_time_steps[0])
        for entry in schedule_cycle(self.clustering.n_clusters):
            self.predict_step(entry)
            self.correct_step(entry, dt0)

    def run(self, t_end: float) -> np.ndarray:
        """Advance to at least ``t_end`` (full macro cycles); returns the DOFs."""
        if t_end < self.time:
            raise ValueError("t_end lies in the past")
        n_cycles = int(np.ceil((t_end - self.time) / self.macro_dt - 1e-12))
        for _ in range(n_cycles):
            self.step_cycle()
        return self.dofs

    def set_initial_condition(self, func) -> None:
        """L2-project an initial condition ``func(points) -> values``."""
        self.dofs = self.disc.project_initial_condition(func, n_fused=self.n_fused)

    def restore_state(self, arrays, time: float, n_element_updates: int) -> None:
        """Copy ``arrays["dofs"]`` in (other entries are ignored): the
        solver steps its own DOF array, never the caller's."""
        np.copyto(self.dofs, restored_dofs(arrays, self.dofs.shape, self.dofs.dtype))
        self._failed = None
        self.time = float(time)
        self.n_element_updates = int(n_element_updates)

    def memory_owners(self) -> dict:
        """MiB held per owner, from the owners' own arrays (each base array
        once, :func:`~repro.observability.resident_nbytes`): the state
        ``dofs``, the ``lts_buffers``, the discretization's
        ``operators``, the backend's ``kernel_scratch`` (per-thread block
        scratch; the reference backend's increments) and the batch
        ``workspaces`` (cached operators, gather plans, kept integrals)."""
        held = {
            "dofs": self.dofs,
            "lts_buffers": self.buffers.store,
            "operators": vars(self.disc),
            "kernel_scratch": self.backend.scratch_arrays(),
            "workspaces": [c.workspace.held() for c in self.clusters if c.workspace is not None],
        }
        return {name: resident_nbytes(value) / 2**20 for name, value in held.items()}

    def memory_block(self) -> dict:
        """The summary's ``memory`` entries: resident MiB by owner."""
        return {"owned_mb": self.memory_owners()}

    def ledger_columns(self) -> dict:
        """No per-cycle ledger columns beyond the runner's own."""
        return {}

    def telemetry_snapshots(self) -> list[dict]:
        """Cumulative per-lane snapshots: the solver's one lane."""
        return [self.telemetry.snapshot()]

    def trace_lanes(self) -> list[tuple]:
        """``(lane_name, tid, events)`` triples for the Chrome-trace export
        (draining is destructive: export once per run)."""
        return [(self.telemetry.lane, self.telemetry.rank, self.telemetry.drain_events())]

    def comm_summary(self) -> None:
        """A single rank exchanges no halo."""
        return None

    def close(self) -> None:
        """Nothing to release: the solver holds no worker processes."""
