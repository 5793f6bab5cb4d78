"""Per-rank subdomains of a global discretization (Sec. V-C, Sec. VI).

A distributed run splits the mesh into one subdomain per rank along the
weighted dual-graph partitioning.  Each rank owns the elements of its
partition: DOFs, LTS buffers and every element-local operator live in
*local* element order (the global-to-local map is part of the subdomain),
and the only remote data a rank ever touches are the face-local compressed
halo payloads received through the communicator.  A subdomain holds maps
and plans only; the rank's operators are the global
:class:`~repro.kernels.discretization.Discretization` restricted to its
rows (:meth:`~repro.kernels.discretization.Discretization.restricted`),
which the rank's solver assembles for those rows alone in the worker that
steps it.

The local order is the paper's (time cluster, communication role) order
(Sec. VI): a rank's elements are sorted by cluster, within a cluster the
halo-adjacent (*boundary*) elements come before the purely local
(*interior*) ones, ties by global id.  Every cluster is therefore one
contiguous run of local ids and its boundary and interior rows are two
contiguous ranges, so the rank stepper addresses DOFs, buffers and operators
through slices.  On a setup-built run it is the global order restricted to
the rank (:mod:`repro.mesh.reorder`); the sort serves any other partition.

All halo bookkeeping is precomputed here once at setup, vectorised over the
halo faces.  A halo message is one *pack* per (source rank, destination
rank, micro step): the face-local payloads of every face due between the
pair at that step, in ascending sender tag (``4 * global element + face``)
order, so both sides agree on the layout without exchanging metadata.

* the *send plans* list, per micro step of a macro cycle, each due owned
  face's row in the flat LTS buffer store (``B1``, ``B3``, ``B2`` or
  ``B1 - B2`` following the sub-step parity rules of Fig. 6, at the rank
  store's per-element :class:`~repro.core.buffers.BufferLayout` rows), the
  receiver's ``F_bar`` class and one run of faces per destination rank,
* the *halo store* is one rank-level array of received payloads, one row
  per halo face, cluster-major; the *receive plans* list, per cluster, its
  run of store rows and where they land in the cluster batch, and the
  *receive packs* list, per micro step, the store rows of each incoming
  message, and
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

from ..core.buffers import LARGER, SAME, SMALLER, BufferLayout
from ..core.clustering import Clustering
from ..core.lts_scheduler import micro_steps_per_cycle
from ..kernels.discretization import Discretization
from ..mesh.reorder import reorder_elements
from ..parallel.partition import cut_faces

__all__ = ["RankSubdomain", "SendPlan", "RecvPack", "RecvPlan"]


@dataclass(frozen=True)
class SendPlan:
    """The halo packs one rank ships at one micro step.

    The arrays run over the step's due faces in (destination rank, sender
    tag) order; ``packs`` names each destination's run of them, which
    travels as one message.  ``rows`` index the flat
    :attr:`~repro.core.buffers.LtsBuffers.store`: the buffer the receiver
    reads at this point of the schedule (``B1`` for a same-step neighbour,
    ``B3`` when the owner is the faster side, ``B2`` / ``B1 - B2`` on the
    faster receiver's first / second sub-step).
    """

    rows: np.ndarray  #: (n,) buffer-store row the face's payload is projected from
    classes: np.ndarray  #: (n,) the receiver's F_bar class of the face
    tags: np.ndarray  #: (n,) sender tag 4 * global element + face
    packs: tuple[tuple[int, slice], ...]  #: (dst, run) per destination rank


@dataclass(frozen=True)
class RecvPack:
    """One incoming message of a micro step: the halo-store rows its
    payloads land in, in the sender's tag order."""

    src: int
    rows: np.ndarray  #: (n,) halo-store rows
    tags: np.ndarray  #: (n,) sender tags of the payloads (ascending)


@dataclass(frozen=True)
class RecvPlan:
    """One cluster's halo faces: its run of halo-store rows and where the
    payloads land in the cluster's neighbour coefficients."""

    rows: np.ndarray  #: (n,) row within the cluster's element batch
    faces: np.ndarray  #: (n,) local face id of the receiving element
    store: slice  #: the cluster's rows of the halo store


class RankSubdomain:
    """Everything one rank needs: its maps and halo plans, and what its
    operators are assembled from.

    ``owned[local_id] = global_id`` lists the partition's elements in
    (cluster, boundary-before-interior, global id) order and
    ``local_of_global`` is its inverse (``-1`` for foreign elements); every
    plan below is expressed in these local ids.  ``boundary_rows[c]`` /
    ``interior_rows[c]`` are the two row ranges (slices) of cluster ``c``'s
    batch.  ``disc`` is the global discretization and ``local_neighbors``
    the owned elements' face neighbours in local ids (``-1`` across the
    partition boundary): the rank's solver steps
    ``disc.restricted(owned, local_neighbors)``, assembled where it runs.
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

        members = np.flatnonzero(partitions == rank)
        ghost = cut_faces(neighbors, partitions)
        order = reorder_elements(clustering.cluster_ids[members], None, ghost[members].any(axis=1))
        self.owned = members[order]
        own_neighbors, ghost = neighbors[self.owned], ghost[self.owned]  # (E, 4) global ids
        same_rank = (own_neighbors >= 0) & ~ghost
        self.local_of_global = np.full(n_global, -1, dtype=np.int64)
        self.local_of_global[self.owned] = np.arange(len(self.owned))

        self.disc = disc
        self.local_neighbors = np.where(
            same_rank, self.local_of_global[np.maximum(own_neighbors, 0)], -1
        )

        self.clustering = Clustering(
            cluster_ids=clustering.cluster_ids[self.owned],
            cluster_time_steps=clustering.cluster_time_steps,
            lam=clustering.lam,
            dt_min=clustering.dt_min,
        )

        #: the rank's LTS buffer rows: the per-element rule decided on the
        #: global neighbours, so every row a remote reader needs is stored
        self.buffer_layout = BufferLayout.for_neighbors(
            self.clustering.cluster_ids,
            np.where(own_neighbors >= 0, clustering.cluster_ids[own_neighbors], -1),
        )

        self.n_halo_faces = int(ghost.sum())
        self._build_halo_plans(disc, clustering, partitions, own_neighbors, ghost)
        self._split_boundary_interior(clustering, ghost)

    # ------------------------------------------------------------------
    def _build_halo_plans(
        self,
        disc: Discretization,
        clustering: Clustering,
        partitions: np.ndarray,
        own_neighbors: np.ndarray,
        ghost: np.ndarray,
    ) -> None:
        """Send plans, receive packs and receive plans of one macro cycle.

        A halo face travels at the *faster* side's frequency, every
        ``2**min(c_own, c_remote)`` micro steps: an owner in the same or the
        smaller cluster ships its freshly filled ``B1``/``B3`` after each own
        prediction, an owner in the larger cluster ships ``B2`` or ``B1 -
        B2`` at each prediction of the (faster) receiver, following the
        receiver's sub-step parity.  The rule is symmetric, so a face is due
        in both directions at the same steps, and the pattern repeats every
        macro cycle, so every plan is static.

        The halo faces are taken in ``np.nonzero`` order (local id, then
        face), which is cluster-major: halo face ``h`` is row ``h`` of the
        halo store and every cluster's faces are one run of it.
        """
        rows, faces = np.nonzero(ghost)  # a row of owned order IS the local id
        remote = own_neighbors[rows, faces]
        remote_faces = disc.mesh.neighbor_faces[self.owned[rows], faces]
        classes = disc.neighbor_flux_index[remote, remote_faces]
        if np.any(classes < 0):
            raise RuntimeError("halo face without a neighbouring flux matrix")
        peers = partitions[remote]
        send_tags = self.owned[rows] * 4 + faces
        recv_tags = remote * 4 + remote_faces
        c_own = self.clustering.cluster_ids[rows]
        c_remote = clustering.cluster_ids[remote]

        steps = np.arange(micro_steps_per_cycle(clustering.n_clusters))[:, None]
        due = steps % 2 ** np.minimum(c_own, c_remote) == 0  # (steps, faces)
        # what the receiver reads of this side: its relation code and, from
        # a larger owner, its own sub-step parity
        relations = np.select([c_own < c_remote, c_own > c_remote], [SMALLER, LARGER], SAME)
        parity = steps // 2**c_remote % 2
        buffer_rows = self.buffer_layout.rows(rows, relations, parity)

        send_order = np.lexsort((send_tags, peers))
        recv_order = np.lexsort((recv_tags, peers))
        self.send_plans: list[SendPlan] = []
        self.recv_packs: list[tuple[RecvPack, ...]] = []
        for s in range(len(steps)):
            sent = send_order[due[s, send_order]]
            self.send_plans.append(SendPlan(
                rows=buffer_rows[s, sent], classes=classes[sent], tags=send_tags[sent],
                packs=_runs(peers[sent]),
            ))
            received = recv_order[due[s, recv_order]]
            self.recv_packs.append(tuple(
                RecvPack(src=src, rows=received[run], tags=recv_tags[received[run]])
                for src, run in _runs(peers[received])
            ))

        n_clusters = clustering.n_clusters
        bounds = np.searchsorted(c_own, np.arange(n_clusters + 1))
        first = np.searchsorted(self.clustering.cluster_ids, np.arange(n_clusters))
        self.recv_plans = [
            RecvPlan(rows=rows[a:b] - first[c], faces=faces[a:b], store=slice(int(a), int(b)))
            for c, (a, b) in enumerate(zip(bounds[:-1], bounds[1:]))
        ]

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


def _runs(sorted_ranks: np.ndarray) -> tuple[tuple[int, slice], ...]:
    """``((rank, slice), ...)``: the runs of an ascending rank array."""
    ranks, first, count = np.unique(sorted_ranks, return_index=True, return_counts=True)
    return tuple((int(r), slice(int(a), int(a + n))) for r, a, n in zip(ranks, first, count))
