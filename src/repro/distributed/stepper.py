"""The per-rank clustered-LTS stepper of a distributed run.

A :class:`RankSolver` is a :class:`~repro.core.lts_solver.ClusteredLtsSolver`
running on one rank's :class:`~repro.distributed.subdomain.RankSubdomain`:
the global discretization restricted to the rank's rows (assembled for
those rows alone when the solver is built, in the worker that steps it,
timed as the rank lane's ``preprocess.operators`` region),
local DOFs, local LTS buffers, local element-ids everywhere.  Three things
are added on top of the shared driver logic:

* :meth:`predict_step` -- inside the one stepping walk of
  :meth:`~repro.core.lts_solver.ClusteredLtsSolver.step_cycle` -- splits the
  prediction of a cluster along the subdomain's boundary/interior
  partition (two adjacent slices of the cluster's run of local ids): per
  micro step the halo-adjacent rows of every due cluster are predicted in
  one kernel dispatch, the due sends are posted, and the remaining rows
  follow in one more, overlapping the message transfer,
* :meth:`send_due` ships one pack per destination rank and micro step: the
  face-local compressed payloads (``9 x F`` values per face -- the buffer
  data already multiplied with the *receiver's* neighbouring flux matrix
  ``F_bar``) of every face due to that rank, projected by the backend in
  one pass over the step's send plan; each ``send`` ships its pack as one
  message at once (the communicator copies it, so the projection scratch
  is free for the next micro step), and
* the corrections of a micro step first drain every incoming pack due up
  to that step (in step order, a later payload overwriting an earlier one:
  a faster sender refreshes its accumulated ``B3`` twice per receiver
  step) into the rank's halo store and then run in one dispatch; the
  :meth:`_halo` hook hands each correcting cluster's run of the store to
  the backend as ``(flat face ids, payloads)``.  The receive plans are
  static, so the receive is deterministic and blocks correctly on
  asynchronous channels.

Because every kernel contraction is per element or per face, splitting a
cluster batch into two sub-batches produces bit-identical per-element
results, and because the sender performs exactly the ``F_bar``
multiplication the receiver would have performed on the same buffer values,
the distributed update is bit-identical to the single-rank solver.
"""

from __future__ import annotations

import numpy as np

from ..core.lts_solver import ClusteredLtsSolver, _ClusterData
from ..kernels.discretization import N_ELASTIC
from ..observability import NULL_TELEMETRY
from .subdomain import RankSubdomain

__all__ = ["RankSolver"]


class RankSolver(ClusteredLtsSolver):
    """Clustered LTS on one rank's subdomain with halo communication.

    Relies on the subdomain's local element order: a cluster is one run of
    local ids (``cluster.batch`` is a slice) whose leading rows are the
    boundary rows, so both halves of a split prediction address DOFs,
    buffers and operators through slices.  A prediction hands its
    correction nothing but the DOFs and the rank's buffer store: the
    correction projects the own traces from the cluster's ``B1`` rows,
    whichever half filled them.
    """

    def __init__(
        self,
        subdomain: RankSubdomain,
        communicator,
        sources: list | None = None,
        receivers=None,
        n_fused: int = 0,
        kernels=None,
        telemetry=None,
    ):
        self.subdomain = subdomain
        self.comm = communicator
        self.rank = subdomain.rank
        with (telemetry if telemetry is not None else NULL_TELEMETRY).region(
            "preprocess.operators"
        ):
            disc = subdomain.disc.restricted(subdomain.owned, subdomain.local_neighbors)
        super().__init__(
            disc,
            subdomain.clustering,
            sources=sources,
            receivers=receivers,
            n_fused=n_fused,
            kernels=kernels,
            telemetry=telemetry,
        )
        #: per cluster: the ascending flat face ids ``4 row + face`` of its
        #: received halo faces (np.nonzero order: by row, then face)
        self._halo_faces = [plan.rows * 4 + plan.faces for plan in subdomain.recv_plans]
        #: the rank-level halo store: the latest received payload of every
        #: halo face, cluster-major (a cluster's faces are one run of rows)
        self.halo_store = np.zeros(
            (subdomain.n_halo_faces, N_ELASTIC, self.disc.n_face_basis) + self.dofs.shape[3:],
            dtype=self.dofs.dtype,
        )
        #: the backend's projection plan of every micro step's sends
        self._projections = [
            self.backend.face_plan(plan.rows, plan.classes) for plan in subdomain.send_plans
        ]
        self._send_workspace = self.backend.make_workspace()
        #: the micro step being corrected, and the first one not yet drained
        self._micro_step = 0
        self._next_drain = 0

    def _buffer_layout(self):
        """The subdomain's buffer rows: the per-element rule on the global
        neighbours, so every row a remote reader needs is stored."""
        return self.subdomain.buffer_layout

    # ------------------------------------------------------------------
    # split prediction (overlap structure)
    # ------------------------------------------------------------------
    def _cluster_items(self, cluster: _ClusterData, parity: int) -> dict:
        """The halo-adjacent rows' prediction, the purely local rows' and
        the correction of a cluster (the boundary rows lead the batch, so
        the buffers every due send reads are filled first)."""
        l = cluster.cluster_id
        return {
            "boundary": self._prediction(cluster, parity, self.subdomain.boundary_rows[l]),
            "interior": self._prediction(cluster, parity, self.subdomain.interior_rows[l]),
            "correct": self._correction(cluster, parity),
        }

    def predict_step(self, entry: dict) -> None:
        """Predict the boundary rows of every due cluster, post the due
        sends and predict the interior rows while the sends are in flight;
        the corrections of :meth:`correct_step` then drain up to this step."""
        with self.telemetry.region("predict.boundary"):
            self._dispatch("boundary", entry["micro_step"], entry["predict"])
        with self.telemetry.region("send"):
            self.send_due(entry["micro_step"])
        with self.telemetry.region("predict.interior"):
            self._dispatch("interior", entry["micro_step"], entry["predict"])
        self._micro_step = entry["micro_step"]
        if self._micro_step == 0:
            self._next_drain = 0

    # ------------------------------------------------------------------
    def send_due(self, micro_step: int) -> None:
        """Send this micro step's halo packs, one message per destination;
        each pack leaves as soon as it is sent."""
        plan = self.subdomain.send_plans[micro_step]
        if not plan.packs:
            return
        payloads = self.backend.project_faces(
            self.disc, self.buffers.store, self._projections[micro_step], ws=self._send_workspace
        )
        for dst, run in plan.packs:
            self.comm.send(payloads[run], src=self.rank, dst=dst, tag=micro_step)

    def _drain(self) -> None:
        """Unpack every incoming pack due up to the current micro step into
        the halo store, in step order (a later payload overwrites an earlier
        one of the same face)."""
        while self._next_drain <= self._micro_step:
            step = self._next_drain
            for pack in self.subdomain.recv_packs[step]:
                self.halo_store[pack.rows] = self.comm.recv(pack.src, self.rank, step)
            self._next_drain = step + 1

    def _receive(self) -> None:
        """Drain the packs due up to the step before its corrections run."""
        with self.telemetry.region("recv_wait"):
            self._drain()

    def _halo(self, cluster: _ClusterData):
        """The cluster's ``(faces, payloads)`` run of the halo store for the
        backend's correction, or ``None`` without halo faces."""
        plan = self.subdomain.recv_plans[cluster.cluster_id]
        if len(plan.rows) == 0:
            return None
        return self._halo_faces[cluster.cluster_id], self.halo_store[plan.store]
