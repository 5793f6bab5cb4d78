"""Mesh reordering by time cluster, partition and communication role.

The preprocessing pipeline (Sec. VI) reorders the mesh "based on the
elements' partitions, time clusters, and finally by their role with respect
to communication in the distributed memory parallelization".  The reordering
turns the per-cluster loops of the core solver into iterations over
contiguous blocks and greatly simplifies the bookkeeping of the LTS scheme.

Here the time cluster is the *leading* key: a single process steps the whole
mesh, so every cluster must be one contiguous block of the global order
(EDGE writes one file per partition, where partition-major and cluster-major
coincide).  One role rule: the *boundary* elements, which send halo data,
lead their (cluster, partition) block, so a rank's local order
(:class:`~repro.distributed.subdomain.RankSubdomain`) is the global order
restricted to its partition.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClusterOrderError", "reorder_elements", "cluster_ranges"]


class ClusterOrderError(ValueError):
    """The element order does not make every time cluster one contiguous run."""


def reorder_elements(
    clusters: np.ndarray,
    partitions: np.ndarray | None = None,
    boundary: np.ndarray | None = None,
) -> np.ndarray:
    """The (cluster, partition, boundary first, id) element permutation,
    ``permutation[new_id] = old_id``.

    Parameters
    ----------
    clusters:
        Per-element time-cluster id (0-based, cluster 0 has the smallest step).
    partitions:
        Optional per-element partition (rank) id; one partition by default.
    boundary:
        Optional per-element flag of the elements with a face in another
        partition (:func:`~repro.parallel.partition.cut_faces`): they lead
        their block, so their sends can overlap the other elements' work.
    """
    clusters = np.asarray(clusters, dtype=np.int64)
    interior = None if boundary is None else ~np.asarray(boundary, dtype=bool)
    keys = [np.arange(len(clusters))]
    for key in (interior, partitions):
        key = np.zeros_like(clusters) if key is None else np.asarray(key, dtype=np.int64)
        if key.shape != clusters.shape:
            raise ValueError("per-element keys must all have the clusters' shape")
        keys.append(key)
    return np.lexsort(keys + [clusters])


def cluster_ranges(sorted_clusters: np.ndarray, n_clusters: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, end)`` index ranges per cluster in a reordered mesh.

    Raises :class:`ClusterOrderError` if the cluster array is not sorted
    (i.e. the mesh was not reordered first).
    """
    sorted_clusters = np.asarray(sorted_clusters, dtype=np.int64)
    if np.any(np.diff(sorted_clusters) < 0):
        raise ClusterOrderError(
            "time clusters are not contiguous: build the mesh in cluster order "
            "(repro.mesh.reorder.reorder_elements) before assembling the discretization"
        )
    bounds = np.searchsorted(sorted_clusters, np.arange(n_clusters + 1), side="left")
    return [(int(bounds[c]), int(bounds[c + 1])) for c in range(n_clusters)]
