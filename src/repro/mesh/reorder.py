"""Mesh reordering by time cluster, partition and communication role.

The preprocessing pipeline (Sec. VI) reorders the mesh "based on the
elements' partitions, time clusters, and finally by their role with respect
to communication in the distributed memory parallelization".  The reordering
turns the per-cluster loops of the core solver into iterations over
contiguous blocks and greatly simplifies the bookkeeping of the LTS scheme.

Here the time cluster is the *leading* key: a single process steps the whole
mesh, so every cluster must be one contiguous block of the global order
(EDGE writes one file per partition, where partition-major and cluster-major
coincide).  The rank-local subdomains of a distributed run re-sort their own
elements the same way (:class:`~repro.distributed.subdomain.RankSubdomain`).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ClusterOrderError", "reorder_elements", "cluster_ranges"]


class ClusterOrderError(ValueError):
    """The element order does not make every time cluster one contiguous run."""


def reorder_elements(
    clusters: np.ndarray,
    partitions: np.ndarray | None = None,
    communication_role: np.ndarray | None = None,
) -> np.ndarray:
    """The (cluster, partition, comm-role, id) element permutation,
    ``permutation[new_id] = old_id``.

    Parameters
    ----------
    clusters:
        Per-element time-cluster id (0-based, cluster 0 has the smallest step).
    partitions:
        Optional per-element partition (rank) id; one partition by default.
    communication_role:
        Optional per-element integer ordering the elements within each
        (cluster, partition) block -- e.g. the elements that send data to
        other partitions last (the pipeline) or first (a rank's local order),
        so the solver can issue their sends early and overlap communication
        with the other elements' work.
    """
    clusters = np.asarray(clusters, dtype=np.int64)
    keys = [np.arange(len(clusters))]
    for key in (communication_role, partitions):
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
