"""Halo accounting with the paper's face-local compression (Sec. V-C).

Across the distributed-memory boundary EDGE does not send the full
``9 x B`` time buffers: the buffer data is first multiplied with the
neighbouring flux matrix ``F_bar`` (a ``B -> F`` reduction), so that only
``9 x F`` values per face travel through MPI -- the receiving element would
have performed exactly this multiplication anyway.  A message is one buffer
per neighbouring rank: the payloads of every face due between a rank pair,
packed in ascending tag order.

:class:`HaloIndex` lists every partition-boundary face once, vectorised
(owning element, face, neighbour, ranks, tags), and
:func:`exchange_volumes_per_cycle` is the machine model's accounting of
that halo (bytes and packs per macro cycle).  The exchange itself is the
rank subdomains' send and receive plans
(:mod:`repro.distributed.subdomain`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..basis.functions import face_basis_size
from .communicator import pair_key
from .partition import cut_faces

__all__ = ["HaloIndex", "exchange_volumes_per_cycle"]

N_ELASTIC = 9


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
        neighbors, partitions = np.asarray(neighbors), np.asarray(partitions, dtype=np.int64)
        elements, faces = np.nonzero(cut_faces(neighbors, partitions))
        neighbor_elements = neighbors[elements, faces]
        return cls(
            elements=elements,
            faces=faces,
            neighbor_elements=neighbor_elements,
            owner_ranks=partitions[elements],
            neighbor_ranks=partitions[neighbor_elements],
            tags=elements * 4 + faces,
        )


def exchange_volumes_per_cycle(
    halo: HaloIndex,
    cluster_ids: np.ndarray,
    n_clusters: int,
    order: int,
    bytes_per_value: int = 4,
) -> dict:
    """Bytes and messages per LTS macro cycle over all partition boundaries.

    A face's payload is the compressed ``9 x F`` representation (the
    ``9 x B`` alternative is :mod:`repro.core.legacy_lts`'s comparison); it
    travels at the faster side's update frequency (the buffers have to be refreshed that
    often), every ``2**min(c_own, c_neighbor)`` micro steps.  A message is
    one pack per (src, dst, micro step) with at least one due face, so a
    rank pair sends at its fastest face's frequency: ``n_messages``;
    ``n_payloads`` counts the face payloads those packs carry.

    The returned dict is JSON-native; ``per_pair`` maps the directed rank
    pair ``"src->dst"`` to its modelled bytes per cycle, so a distributed
    run's *measured* traffic can be validated entry by entry.
    """
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    values = N_ELASTIC * face_basis_size(order)
    fastest = np.minimum(cluster_ids[halo.elements], cluster_ids[halo.neighbor_elements])
    frequencies = 2 ** (n_clusters - 1 - fastest).astype(np.int64)
    face_bytes = values * bytes_per_value * frequencies
    pairs, pair_of_face = np.unique(
        np.stack([halo.owner_ranks, halo.neighbor_ranks], axis=1), axis=0, return_inverse=True
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
        "n_halo_faces": float(halo.n_faces),
        "values_per_face": float(values),
        "max_pair_bytes": max(per_pair.values()) if per_pair else 0.0,
        "per_pair": per_pair,
    }
