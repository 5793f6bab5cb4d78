"""Halo exchange with the paper's face-local compression (Sec. V-C).

Across the distributed-memory boundary EDGE does not send the full
``9 x B`` time buffers: the buffer data is first multiplied with the
neighbouring flux matrix ``F_bar`` (a ``B -> F`` reduction), so that only
``9 x F`` values per face travel through MPI -- the receiving element would
have performed exactly this multiplication anyway.  A message is one buffer
per neighbouring rank: the payloads of every face due between a rank pair,
packed in ascending tag order.  This module implements the
per-partition-boundary accounting (bytes and packs per macro cycle) and the
exchange of face-local data through the simulated communicator.

:class:`HaloIndex` precomputes the per-face index arrays (owning element,
face, neighbour, ranks, tags) once, so that repeated exchanges and the
per-cycle accounting are vectorised instead of re-deriving them with
Python-level lookups on every call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..basis.functions import basis_size, face_basis_size
from .communicator import SimulatedCommunicator, pair_key

__all__ = [
    "HaloFace",
    "HaloIndex",
    "build_halo",
    "build_halo_index",
    "exchange_volumes_per_cycle",
    "exchange_face_data",
]

N_ELASTIC = 9


@dataclass(frozen=True)
class HaloFace:
    """One element face on a partition boundary."""

    element: int  #: owning element (global id)
    face: int  #: local face id of the owning element
    neighbor_element: int  #: element on the other side (global id)
    owner_rank: int
    neighbor_rank: int


@dataclass(frozen=True)
class HaloIndex:
    """Vectorised index arrays over all partition-boundary faces.

    Computed once at setup; every array has one entry per directed halo face
    (each cut face appears twice, once from each side).  ``tags`` is the
    unique tag ``element * 4 + face`` of the owning side, which orders the
    payloads inside a pack identically on both sides.
    """

    elements: np.ndarray  #: (H,) owning element per halo face
    faces: np.ndarray  #: (H,) local face id of the owning element
    neighbor_elements: np.ndarray  #: (H,) element on the other side
    owner_ranks: np.ndarray  #: (H,)
    neighbor_ranks: np.ndarray  #: (H,)
    tags: np.ndarray  #: (H,) payload tag of the owning side

    @property
    def n_faces(self) -> int:
        return len(self.elements)

    @classmethod
    def from_partitions(cls, neighbors: np.ndarray, partitions: np.ndarray) -> "HaloIndex":
        """All element faces whose neighbour lives on a different partition."""
        neighbors = np.asarray(neighbors, dtype=np.int64)
        partitions = np.asarray(partitions, dtype=np.int64)
        cut = (neighbors >= 0) & (
            partitions[np.maximum(neighbors, 0)] != partitions[:, None]
        )
        elements, faces = np.nonzero(cut)
        neighbor_elements = neighbors[elements, faces]
        return cls(
            elements=elements,
            faces=faces,
            neighbor_elements=neighbor_elements,
            owner_ranks=partitions[elements],
            neighbor_ranks=partitions[neighbor_elements],
            tags=elements * 4 + faces,
        )

    @classmethod
    def from_halo(cls, halo: list[HaloFace]) -> "HaloIndex":
        """Index arrays of an explicit :func:`build_halo` face list."""
        elements = np.array([f.element for f in halo], dtype=np.int64)
        faces = np.array([f.face for f in halo], dtype=np.int64)
        return cls(
            elements=elements,
            faces=faces,
            neighbor_elements=np.array([f.neighbor_element for f in halo], dtype=np.int64),
            owner_ranks=np.array([f.owner_rank for f in halo], dtype=np.int64),
            neighbor_ranks=np.array([f.neighbor_rank for f in halo], dtype=np.int64),
            tags=elements * 4 + faces,
        )


def build_halo(neighbors: np.ndarray, partitions: np.ndarray) -> list[HaloFace]:
    """All element faces whose neighbour lives on a different partition."""
    index = HaloIndex.from_partitions(neighbors, partitions)
    return [
        HaloFace(
            element=int(index.elements[h]),
            face=int(index.faces[h]),
            neighbor_element=int(index.neighbor_elements[h]),
            owner_rank=int(index.owner_ranks[h]),
            neighbor_rank=int(index.neighbor_ranks[h]),
        )
        for h in range(index.n_faces)
    ]


def build_halo_index(halo: list[HaloFace] | HaloIndex) -> HaloIndex:
    """Normalise a halo description to precomputed index arrays."""
    if isinstance(halo, HaloIndex):
        return halo
    return HaloIndex.from_halo(halo)


def exchange_volumes_per_cycle(
    halo: list[HaloFace] | HaloIndex,
    cluster_ids: np.ndarray,
    n_clusters: int,
    order: int,
    face_local: bool = True,
    bytes_per_value: int = 4,
) -> dict:
    """Bytes and messages per LTS macro cycle over all partition boundaries.

    ``face_local = True`` uses the compressed ``9 x F`` representation,
    ``False`` the full ``9 x B`` buffers.  A face's payload travels at the
    faster side's update frequency (the buffers have to be refreshed that
    often), every ``2**min(c_own, c_neighbor)`` micro steps.  A message is
    one pack per (src, dst, micro step) with at least one due face, so a
    rank pair sends at its fastest face's frequency: ``n_messages``;
    ``n_payloads`` counts the face payloads those packs carry.

    The returned dict is JSON-native; ``per_pair`` maps the directed rank
    pair ``"src->dst"`` to its modelled bytes per cycle, so a distributed
    run's *measured* traffic can be validated entry by entry.
    """
    index = build_halo_index(halo)
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    values = N_ELASTIC * (face_basis_size(order) if face_local else basis_size(order))
    fastest = np.minimum(cluster_ids[index.elements], cluster_ids[index.neighbor_elements])
    frequencies = 2 ** (n_clusters - 1 - fastest).astype(np.int64)
    face_bytes = values * bytes_per_value * frequencies
    pairs, pair_of_face = np.unique(
        np.stack([index.owner_ranks, index.neighbor_ranks], axis=1), axis=0, return_inverse=True
    )
    pair_of_face = pair_of_face.reshape(-1)
    pair_bytes = np.bincount(pair_of_face, weights=face_bytes, minlength=len(pairs))
    pair_fastest = np.full(len(pairs), n_clusters - 1, dtype=np.int64)
    np.minimum.at(pair_fastest, pair_of_face, fastest)
    per_pair = {
        pair_key(int(src), int(dst)): float(n_bytes)
        for (src, dst), n_bytes in zip(pairs, pair_bytes)
    }
    return {
        "total_bytes": float(face_bytes.sum()),
        "n_messages": int((2 ** (n_clusters - 1 - pair_fastest)).sum()),
        "n_payloads": int(frequencies.sum()),
        "n_halo_faces": float(index.n_faces),
        "values_per_face": float(values),
        "max_pair_bytes": max(per_pair.values()) if per_pair else 0.0,
        "per_pair": per_pair,
    }


def exchange_face_data(
    communicator: SimulatedCommunicator,
    halo: list[HaloFace] | HaloIndex,
    face_data: dict[tuple[int, int], np.ndarray],
) -> dict[tuple[int, int], np.ndarray]:
    """Exchange per-face payloads across partition boundaries, one pack
    per directed rank pair.

    ``face_data`` maps ``(element, face)`` of the *owning* side to the
    (already face-local compressed) payload to send; each (owner rank,
    neighbour rank) pair ships its faces' payloads stacked in ascending tag
    order as one message, and the receiver splits the pack in the same
    order.  The returned dict maps ``(neighbor_element, element)`` -- the
    receiving element plus the sending element, which identifies the shared
    face uniquely (two conforming tetrahedra share at most one face).  The
    function verifies that every send is matched by a receive (no lost
    messages).
    """
    index = build_halo_index(halo)
    order = np.lexsort((index.tags, index.neighbor_ranks, index.owner_ranks))
    pairs = np.stack([index.owner_ranks[order], index.neighbor_ranks[order]], axis=1)
    _, first = np.unique(pairs, axis=0, return_index=True)
    runs = np.split(order, first[1:])
    for run in runs:
        pack = np.stack([face_data[(int(index.elements[h]), int(index.faces[h]))] for h in run])
        communicator.send(
            pack, src=int(index.owner_ranks[run[0]]), dst=int(index.neighbor_ranks[run[0]])
        )
    received: dict[tuple[int, int], np.ndarray] = {}
    for run in runs:
        pack = communicator.recv(
            src=int(index.owner_ranks[run[0]]), dst=int(index.neighbor_ranks[run[0]])
        )
        for payload, h in zip(pack, run):
            # the mirror entry: the neighbour element receives data sent by this face
            received[(int(index.neighbor_elements[h]), int(index.elements[h]))] = payload
    if len(received) != index.n_faces:
        raise RuntimeError("halo exchange dropped payloads (duplicate face keys)")
    if not communicator.all_delivered():
        raise RuntimeError("halo exchange left undelivered messages")
    return received
