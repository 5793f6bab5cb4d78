"""Per-rank subdomains of a global discretization (Sec. V-C, Sec. VI).

A distributed run splits the mesh into one subdomain per rank along the
weighted dual-graph partitioning.  Each rank owns the elements of its
partition: DOFs, LTS buffers and every element-local operator live in
*local* element order (the global-to-local map is part of the subdomain),
and the only remote data a rank ever touches are the face-local compressed
halo payloads received through the communicator.

The local order is the paper's (time cluster, communication role) order
(Sec. VI): a rank's elements are sorted by cluster, within a cluster the
halo-adjacent (*boundary*) elements come before the purely local
(*interior*) ones, ties by global id.  Every cluster is therefore one
contiguous run of local ids and its boundary and interior rows are two
contiguous ranges, so the rank stepper addresses DOFs, buffers and operators
through slices.  It is a property of the local numbering only -- the global
mesh is not permuted, and gather/restore go through :attr:`RankSubdomain.owned`.

All halo bookkeeping is precomputed here once at setup:

* the *send schedule* lists, per micro step of a macro cycle, which owned
  boundary faces must ship which buffer (``B1``, ``B3``, ``B2`` or
  ``B1 - B2`` following the sub-step parity rules of Fig. 6) to which rank,
  already grouped into vectorised batches, and
* the *receive plans* list, per cluster, where incoming payloads land in the
  cluster's neighbour-coefficient array (plus how many messages each face
  must wait for, so a receiver can block deterministically), and
* the per-cluster *boundary/interior split*: the leading rows of the cluster
  batch own at least one halo face, the rest are purely local.  The steppers predict
  the boundary rows first, post the halo sends, and only then compute the
  interior rows -- which is what lets a process-backed run hide the message
  latency behind interior work.

This removes every per-exchange Python-level lookup from the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.clustering import Clustering
from ..core.lts_scheduler import micro_steps_per_cycle
from ..kernels.discretization import Discretization
from ..mesh.reorder import reorder_elements

__all__ = ["SubdomainDisc", "RankSubdomain", "SendBatch", "RecvPlan"]


class _LocalMesh:
    """The tiny mesh facade a rank-local solver needs: local face neighbours.

    Cross-rank (ghost) and true boundary faces are both ``-1``; the halo
    receive plans carry the ghost-face information separately.
    """

    def __init__(self, neighbors: np.ndarray):
        self.neighbors = neighbors

    @property
    def n_elements(self) -> int:
        return self.neighbors.shape[0]


class SubdomainDisc:
    """Element-local view of a global :class:`Discretization` for one rank.

    Per-element operator arrays are gathered into local (owned) element order
    once; shared reference-element data and the deduplicated neighbouring
    flux matrices stay references to the global objects.  The ADER-DG kernels
    run unmodified on local element ids and -- since every kernel contraction
    is element-local -- produce bit-identical per-element results.
    """

    def __init__(self, disc: Discretization, owned: np.ndarray, local_neighbors: np.ndarray):
        self.order = disc.order
        self.n_mechanisms = disc.n_mechanisms
        self.omegas = disc.omegas
        self.ref = disc.ref
        self.precision = disc.precision
        self.dtype = disc.dtype
        # precision-cast operator views shared with the global discretization
        self.k_time = disc.k_time
        self.k_vol = disc.k_vol
        self.ftilde = disc.ftilde
        self.fhat = disc.fhat
        self.n_basis = disc.n_basis
        self.n_face_basis = disc.n_face_basis
        self.n_vars = disc.n_vars
        self.time_steps = disc.time_steps[owned]
        self.star_elastic = disc.star_elastic[owned]
        self.star_anelastic = disc.star_anelastic[owned]
        self.coupling = disc.coupling[owned]
        self.flux_local_elastic = disc.flux_local_elastic[owned]
        self.flux_local_anelastic = disc.flux_local_anelastic[owned]
        self.flux_neigh_elastic = disc.flux_neigh_elastic[owned]
        self.flux_neigh_anelastic = disc.flux_neigh_anelastic[owned]
        # shared: the global unique F_bar set; rows are gathered per rank but
        # keep indexing into the global matrix pool
        self.neighbor_flux_matrices = disc.neighbor_flux_matrices
        self.neighbor_flux_index = disc.neighbor_flux_index[owned]
        self.mesh = _LocalMesh(local_neighbors)

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    def allocate_dofs(self, n_fused: int = 0, dtype=None) -> np.ndarray:
        shape: tuple[int, ...] = (self.n_elements, self.n_vars, self.n_basis)
        if n_fused > 0:
            shape = shape + (n_fused,)
        return np.zeros(shape, dtype=self.dtype if dtype is None else dtype)


@dataclass(frozen=True)
class SendBatch:
    """One vectorised batch of halo sends due at a micro step.

    ``kind`` names the buffer representation the receivers need at this
    point of the schedule: ``b1`` (same-step neighbours), ``b3`` (the owner
    is in the smaller cluster; partial then accumulated), ``b2`` /
    ``b1_minus_b2`` (the owner is in the larger cluster; first/second
    sub-step of the receiver).
    """

    kind: str
    local_elements: np.ndarray  #: (n,) local ids of the owning elements
    fbar_indices: np.ndarray  #: (n,) receiver-side F_bar matrix per face
    dst_ranks: np.ndarray  #: (n,)
    tags: np.ndarray  #: (n,) message tag (global element * 4 + face)


@dataclass(frozen=True)
class RecvPlan:
    """Where one cluster's incoming halo payloads land during a correction.

    ``counts`` is the number of messages due on each face's channel per
    correction of this cluster (2 when the sender sits in the smaller /
    faster cluster and refreshes its accumulated ``B3`` twice, 1 otherwise);
    the receiver consumes exactly that many and keeps the freshest, which
    works both with the instant in-process mailboxes and with blocking
    process-backed channels where "pending" cannot be observed race-free.
    """

    rows: np.ndarray  #: (n,) row within the cluster's element batch
    faces: np.ndarray  #: (n,) local face id of the receiving element
    src_ranks: np.ndarray  #: (n,)
    tags: np.ndarray  #: (n,) tag of the matching send
    counts: np.ndarray  #: (n,) messages due per correction on this channel


class RankSubdomain:
    """Everything one rank needs: local operators, maps and halo plans.

    ``owned[local_id] = global_id`` lists the partition's elements in
    (cluster, boundary-before-interior, global id) order and
    ``local_of_global`` is its inverse (``-1`` for foreign elements); every
    plan below is expressed in these local ids.  ``boundary_rows[c]`` /
    ``interior_rows[c]`` are the two row ranges (slices) of cluster ``c``'s
    batch.
    """

    def __init__(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        rank: int,
    ):
        partitions = np.asarray(partitions, dtype=np.int64)
        neighbors = disc.mesh.neighbors
        n_global = disc.n_elements
        self.rank = int(rank)
        self.n_ranks = int(partitions.max()) + 1

        members = np.where(partitions == rank)[0]
        own_neighbors = neighbors[members]  # (E, 4) global ids
        same_rank = (own_neighbors >= 0) & (
            partitions[np.maximum(own_neighbors, 0)] == rank
        )
        is_interior = ~((own_neighbors >= 0) & ~same_rank).any(axis=1)
        order = reorder_elements(clustering.cluster_ids[members], communication_role=is_interior)
        self.owned = members[order]
        own_neighbors, same_rank = own_neighbors[order], same_rank[order]
        self.local_of_global = np.full(n_global, -1, dtype=np.int64)
        self.local_of_global[self.owned] = np.arange(len(self.owned))

        local_neighbors = np.where(
            same_rank, self.local_of_global[np.maximum(own_neighbors, 0)], -1
        )
        self.view = SubdomainDisc(disc, self.owned, local_neighbors)

        self.clustering = Clustering(
            cluster_ids=clustering.cluster_ids[self.owned],
            cluster_time_steps=clustering.cluster_time_steps,
            lam=clustering.lam,
            dt_min=clustering.dt_min,
        )

        ghost = (own_neighbors >= 0) & ~same_rank
        self.n_halo_faces = int(ghost.sum())
        self._build_send_schedule(disc, clustering, partitions, own_neighbors, ghost)
        self._build_recv_plans(disc, clustering, partitions, own_neighbors, ghost)
        self._split_boundary_interior(clustering, ghost)

    # ------------------------------------------------------------------
    def _build_send_schedule(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        own_neighbors: np.ndarray,
        ghost: np.ndarray,
    ) -> None:
        """Per-micro-step batches of due halo sends (one macro cycle).

        An owned boundary face sends at the *faster* side's frequency: when
        the owner is in the same or a smaller cluster it ships its freshly
        filled ``B1``/``B3`` after every own prediction; when the owner is in
        the larger cluster it ships ``B2`` or ``B1 - B2`` at every prediction
        of the (faster) receiver, following the receiver's sub-step parity.
        The parity pattern repeats every macro cycle, so the schedule is
        static.
        """
        neighbor_faces = disc.mesh.neighbor_faces[self.owned]
        rows, faces = np.nonzero(ghost)
        local_elements = rows  # row into owned order IS the local element id
        global_neighbors = own_neighbors[rows, faces]
        c_own = clustering.cluster_ids[self.owned[rows]]
        c_neigh = clustering.cluster_ids[global_neighbors]
        fbar_indices = disc.neighbor_flux_index[
            global_neighbors, neighbor_faces[rows, faces]
        ]
        if np.any(fbar_indices < 0):
            raise RuntimeError("halo face without a neighbouring flux matrix")
        dst_ranks = partitions[global_neighbors]
        tags = self.owned[rows] * 4 + faces

        n_clusters = clustering.n_clusters
        schedule: list[list[SendBatch]] = []
        for s in range(micro_steps_per_cycle(n_clusters)):
            owner_predicts = s % (2**c_own) == 0
            receiver_predicts = s % (2**c_neigh) == 0
            receiver_parity = (s // np.maximum(2**c_neigh, 1)) % 2
            masks = (
                ("b1", (c_own == c_neigh) & owner_predicts),
                ("b3", (c_own < c_neigh) & owner_predicts),
                ("b2", (c_own > c_neigh) & receiver_predicts & (receiver_parity == 0)),
                ("b1_minus_b2", (c_own > c_neigh) & receiver_predicts & (receiver_parity == 1)),
            )
            batches = [
                SendBatch(
                    kind=kind,
                    local_elements=local_elements[mask],
                    fbar_indices=fbar_indices[mask],
                    dst_ranks=dst_ranks[mask],
                    tags=tags[mask],
                )
                for kind, mask in masks
                if np.any(mask)
            ]
            schedule.append(batches)
        self.send_schedule = schedule

    def _build_recv_plans(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        own_neighbors: np.ndarray,
        ghost: np.ndarray,
    ) -> None:
        """Per-cluster landing sites of incoming halo payloads.

        Rows index into the cluster's element batch in the same (ascending
        local id) order the per-cluster driver uses, so a received payload
        can be written straight into the neighbour-coefficient array.
        """
        neighbor_faces = disc.mesh.neighbor_faces[self.owned]
        local_cluster_ids = self.clustering.cluster_ids
        plans: list[RecvPlan] = []
        for cluster in range(clustering.n_clusters):
            batch = np.where(local_cluster_ids == cluster)[0]
            batch_ghost = ghost[batch]
            rows, faces = np.nonzero(batch_ghost)
            senders = own_neighbors[batch[rows], faces]
            plans.append(
                RecvPlan(
                    rows=rows,
                    faces=faces,
                    src_ranks=partitions[senders],
                    tags=senders * 4 + neighbor_faces[batch[rows], faces],
                    counts=2 ** np.maximum(0, cluster - clustering.cluster_ids[senders]),
                )
            )
        self.recv_plans = plans

    def _split_boundary_interior(self, clustering: Clustering, ghost: np.ndarray) -> None:
        """Per-cluster boundary/interior row ranges of the cluster batch.

        A *boundary* row owns at least one halo face: its freshly filled
        buffers feed a send of the current micro step, so it must be
        predicted before the sends are posted.  All remaining rows are
        *interior* and can be predicted while the messages are in flight.
        The local order puts a cluster's boundary rows first, so both are
        slices of the cluster batch.
        """
        local_cluster_ids = self.clustering.cluster_ids
        n_rows = np.bincount(local_cluster_ids, minlength=clustering.n_clusters)
        n_boundary = np.bincount(
            local_cluster_ids[ghost.any(axis=1)], minlength=clustering.n_clusters
        )
        self.boundary_rows = [slice(0, int(b)) for b in n_boundary]
        self.interior_rows = [slice(int(b), int(n)) for b, n in zip(n_boundary, n_rows)]

    # ------------------------------------------------------------------
    @property
    def n_owned(self) -> int:
        return len(self.owned)

    @property
    def n_boundary_elements(self) -> int:
        return sum(rows.stop for rows in self.boundary_rows)
