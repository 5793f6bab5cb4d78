"""The per-rank clustered-LTS stepper of a distributed run.

A :class:`RankSolver` is a :class:`~repro.core.lts_solver.ClusteredLtsSolver`
running on one rank's :class:`~repro.distributed.subdomain.RankSubdomain`:
local DOFs, local LTS buffers, local element-ids everywhere.  Three things
are added on top of the shared driver logic:

* the prediction of a cluster is split along the subdomain's
  boundary/interior partition (two adjacent slices of the cluster's run of
  local ids): :meth:`predict_boundary` runs the time
  kernel, buffer fill and local update for the halo-adjacent rows only, so
  the due sends can be posted immediately, and :meth:`predict_interior`
  computes the remaining rows afterwards -- with a process-backed
  communicator the interior work overlaps the message transfer,
* :meth:`send_due` ships the face-local compressed halo payloads of the
  current micro step (``9 x F`` values per face -- the buffer data already
  multiplied with the *receiver's* neighbouring flux matrix ``F_bar``), and
* the :meth:`_halo` hook receives a correcting cluster's due payloads
  first and hands them to the backend's correction as ``(flat face ids,
  payloads)``, which writes them into the neighbour coefficients of the
  partition-boundary faces before the flux solve.  Each face consumes
  exactly the statically known number of due messages
  (:attr:`RecvPlan.counts`), so the receive is deterministic and blocks
  correctly on asynchronous channels.

Because every kernel contraction is element-local, splitting a cluster batch
into two sub-batches produces bit-identical per-element results, and because
the sender performs exactly the ``F_bar`` multiplication the receiver would
have performed on the same buffer values, the distributed update is
bit-identical to the single-rank solver.
"""

from __future__ import annotations

import numpy as np

from ..core.lts_solver import ClusteredLtsSolver, _ClusterData
from ..kernels.discretization import N_ELASTIC
from .subdomain import RankSubdomain

__all__ = ["RankSolver"]


class RankSolver(ClusteredLtsSolver):
    """Clustered LTS on one rank's subdomain with halo communication.

    Relies on the subdomain's local element order: a cluster is one run of
    local ids (``cluster.batch`` is a slice) whose leading rows are the
    boundary rows, so both halves of a split prediction address DOFs,
    buffers and operators through slices, and what a prediction hands to
    its correction lives in the cluster's kernel workspace.
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
        super().__init__(
            subdomain.view,
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

    # ------------------------------------------------------------------
    # split prediction (overlap structure)
    # ------------------------------------------------------------------
    def predict_boundary(self, cluster: _ClusterData) -> None:
        """Predict the halo-adjacent rows of a cluster and stage the batch.

        Binds the full-batch pending arrays and fills the boundary rows, so
        the buffers every due send reads from are fresh before
        :meth:`send_due` runs.
        """
        n = len(cluster.elements)
        if n == 0:
            cluster.pending_local_delta = None
            cluster.pending_traces = None
            return
        dofs, disc = self.dofs, self.disc
        traces = (n, 4, N_ELASTIC, disc.n_face_basis) + dofs.shape[3:]
        cluster.pending_local_delta = self._pending(cluster, "pending_delta", (n,) + dofs.shape[1:])
        cluster.pending_traces = self._pending(cluster, "pending_traces", traces)
        self._predict_rows(cluster, self.subdomain.boundary_rows[cluster.cluster_id])

    def predict_interior(self, cluster: _ClusterData) -> None:
        """Predict the purely local rows (overlaps in-flight halo messages)."""
        if len(cluster.elements) == 0:
            return
        self._predict_rows(cluster, self.subdomain.interior_rows[cluster.cluster_id])

    def _pending(self, cluster: _ClusterData, name: str, shape: tuple) -> np.ndarray:
        """Cluster-sized storage that outlives the two ``local_update`` calls
        of a split prediction (whose own outputs share one scratch): kept in
        the cluster's workspace, so a micro step allocates nothing."""
        if cluster.workspace is None:  # the reference kernels keep no scratch
            return np.empty(shape, dtype=self.dofs.dtype)
        return cluster.workspace.scratch(name, shape, self.dofs.dtype)

    def _predict_rows(self, cluster: _ClusterData, rows: slice) -> None:
        """The shared prediction body on one row range of the cluster batch.

        The subdomain's local order makes a cluster one run of local ids,
        so the rows' elements are a slice as well.
        """
        if rows.start == rows.stop:
            return
        first = cluster.elements.start
        delta, local_traces = self._predict_elements(
            cluster, range(first + rows.start, first + rows.stop)
        )
        cluster.pending_local_delta[rows] = delta
        cluster.pending_traces[rows] = local_traces

    # ------------------------------------------------------------------
    # the shared micro-step walk (used by the serial engine, which
    # interleaves ranks per phase, and by the process workers, which run a
    # whole cycle per rank -- one implementation keeps them in lockstep)
    # ------------------------------------------------------------------
    def begin_micro_step(self, entry: dict) -> None:
        """Boundary predictions of the due clusters plus the due sends."""
        with self.telemetry.region("predict.boundary"):
            for l in entry["predict"]:
                self.predict_boundary(self.clusters[l])
        with self.telemetry.region("send"):
            self.send_due(entry["micro_step"])
            flush = getattr(self.comm, "flush", None)
            if flush is not None:
                flush()

    def advance_interior(self, entry: dict) -> None:
        """Interior predictions (overlap: the sends are already in flight)."""
        with self.telemetry.region("predict.interior"):
            for l in entry["predict"]:
                self.predict_interior(self.clusters[l])

    def finish_micro_step(self, entry: dict, dt0: float) -> None:
        """Corrections of the clusters whose interval ends after this step."""
        for l in entry["correct"]:
            cluster = self.clusters[l]
            start = self.time + (entry["micro_step"] + 1) * dt0 - cluster.dt
            self._correct(cluster, start)

    # ------------------------------------------------------------------
    def send_due(self, micro_step: int) -> None:
        """Send every halo payload due at this micro step of the cycle."""
        for batch in self.subdomain.send_schedule[micro_step]:
            elements = batch.local_elements
            if batch.kind == "b1":
                data = self.buffers.b1[elements]
            elif batch.kind == "b3":
                data = self.buffers.b3[elements]
            elif batch.kind == "b2":
                data = self.buffers.b2[elements]
            else:  # "b1_minus_b2": the second sub-step of a faster receiver
                data = self.buffers.b1_minus_b2[elements]
            mats = self.disc.neighbor_flux_matrices[batch.fbar_indices]
            payloads = np.einsum("nvb...,nbf->nvf...", data, mats)
            for n in range(len(batch.tags)):
                self.comm.send(
                    payloads[n],
                    src=self.rank,
                    dst=int(batch.dst_ranks[n]),
                    tag=int(batch.tags[n]),
                )

    def _halo(self, cluster: _ClusterData):
        """Receive the cluster's due halo payloads: ``(faces, payloads)``
        for the backend's correction, or ``None`` without halo faces."""
        plan = self.subdomain.recv_plans[cluster.cluster_id]
        if len(plan.rows) == 0:
            return None
        disc = self.disc
        payloads = self._pending(
            cluster, "halo_payloads",
            (len(plan.rows), N_ELASTIC, disc.n_face_basis) + self.dofs.shape[3:],
        )
        with self.telemetry.region("recv_wait"):
            for n, (src, tag, count) in enumerate(zip(plan.src_ranks, plan.tags, plan.counts)):
                # consume the statically known number of due messages and keep
                # the freshest payload: a faster sender refreshes its
                # accumulated B3 twice per receiver step.  The count (not a
                # "pending" poll) is what makes the receive correct on
                # blocking channels.
                for _ in range(count):
                    payload = self.comm.recv(int(src), self.rank, int(tag))
                payloads[n] = payload
        return self._halo_faces[cluster.cluster_id], payloads
