"""Next-generation clustered local time stepping: the clustering (Sec. V-A).

Elements are grouped into ``N_c`` rate-2 time clusters

``C_1 = [lambda dt_min, 2 lambda dt_min), ..., C_Nc = [2^{Nc-1} lambda dt_min, inf)``

with the user-set number of clusters (including the open-ended last cluster)
and the tuning parameter ``lambda in (0.5, 1]`` that this paper introduces.
All elements of cluster ``C_l`` advance with the cluster's lower-bound time
step ``2^{l-1} lambda dt_min``.  The clustering is normalised so that
face-neighbouring elements differ by at most one cluster, which removes
corner cases from the buffer scheme at a negligible loss of algorithmic
efficiency (< 1.5 % in the studied settings).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .speedup import load_fractions, theoretical_speedup

__all__ = ["Clustering", "assign_clusters", "normalize_clusters", "derive_clustering", "optimize_lambda"]


@dataclass(frozen=True)
class Clustering:
    """A complete LTS clustering of a mesh.

    Attributes
    ----------
    cluster_ids:
        Per-element cluster index (0-based; cluster 0 has the smallest step).
    cluster_time_steps:
        The time step of each cluster, ``2^l * lambda * dt_min``.
    lam:
        The lambda parameter used.
    dt_min:
        The minimum CFL time step of the mesh.
    """

    cluster_ids: np.ndarray
    cluster_time_steps: np.ndarray
    lam: float
    dt_min: float

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_time_steps)

    @property
    def counts(self) -> np.ndarray:
        """Number of elements per cluster."""
        return np.bincount(self.cluster_ids, minlength=self.n_clusters)

    def speedup(self) -> float:
        """Theoretical speedup over GTS of this clustering."""
        return theoretical_speedup(self.cluster_ids, self.cluster_time_steps, self.dt_min)

    def load_fractions(self) -> np.ndarray:
        """Fraction of the total computational load carried by each cluster."""
        return load_fractions(self.cluster_ids, self.cluster_time_steps)

    def element_time_steps(self) -> np.ndarray:
        """The actual (clustered) time step each element advances with."""
        return self.cluster_time_steps[self.cluster_ids]

    def permuted(self, permutation: np.ndarray) -> "Clustering":
        """The same clustering on a mesh permuted by ``permutation``
        (``permutation[new_id] = old_id``, as :meth:`TetMesh.permuted`)."""
        return Clustering(
            cluster_ids=self.cluster_ids[permutation],
            cluster_time_steps=self.cluster_time_steps,
            lam=self.lam,
            dt_min=self.dt_min,
        )


def assign_clusters(time_steps: np.ndarray, n_clusters: int, lam: float) -> np.ndarray:
    """Assign each element to its rate-2 cluster (eq. 16), without normalisation."""
    time_steps = np.asarray(time_steps, dtype=np.float64)
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if not 0.5 < lam <= 1.0:
        raise ValueError("lambda must lie in (0.5, 1]")
    if np.any(time_steps <= 0):
        raise ValueError("time steps must be positive")
    dt_min = float(time_steps.min())
    ratios = time_steps / (lam * dt_min)
    # cluster l covers [2^l, 2^{l+1}) in units of lambda * dt_min
    ids = np.floor(np.log2(np.maximum(ratios, 1.0))).astype(np.int64)
    return np.clip(ids, 0, n_clusters - 1)


def normalize_clusters(cluster_ids: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Lower cluster assignments until face neighbours differ by at most one.

    ``neighbors`` is the ``(K, 4)`` face-neighbour array of the mesh (boundary
    faces marked by negative entries).  Elements are only ever *moved down*
    (to smaller time steps), matching the paper's example of moving an
    element from ``C_3`` to ``C_2``.
    """
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64).copy()
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[0] != len(cluster_ids):
        raise ValueError("neighbors must have shape (n_elements, n_faces)")
    for _ in range(int(cluster_ids.max()) + 2):
        neighbor_ids = np.where(neighbors >= 0, cluster_ids[np.maximum(neighbors, 0)], np.iinfo(np.int64).max)
        limit = neighbor_ids.min(axis=1) + 1
        new_ids = np.minimum(cluster_ids, limit)
        if np.array_equal(new_ids, cluster_ids):
            return new_ids
        cluster_ids = new_ids
    return cluster_ids


def derive_clustering(
    time_steps: np.ndarray,
    n_clusters: int,
    lam: float,
    neighbors: np.ndarray | None = None,
) -> Clustering:
    """Build a (normalised) clustering for the given per-element time steps."""
    time_steps = np.asarray(time_steps, dtype=np.float64)
    ids = assign_clusters(time_steps, n_clusters, lam)
    if neighbors is not None:
        ids = normalize_clusters(ids, neighbors)
    dt_min = float(time_steps.min())
    cluster_dts = lam * dt_min * 2.0 ** np.arange(n_clusters)
    return Clustering(cluster_ids=ids, cluster_time_steps=cluster_dts, lam=lam, dt_min=dt_min)


def optimize_lambda(
    time_steps: np.ndarray,
    n_clusters: int,
    neighbors: np.ndarray | None = None,
    increment: float = 0.01,
) -> Clustering:
    """Grid-search the lambda parameter (Sec. V-A's preprocessing step).

    Tests ``lambda in {0.5 + increment, ..., 1.0}`` and returns the clustering
    with the largest theoretical speedup over GTS.
    """
    if increment <= 0 or increment > 0.5:
        raise ValueError("increment must lie in (0, 0.5]")
    best: Clustering | None = None
    lam = 1.0
    candidates = np.arange(1.0, 0.5, -increment)
    for lam in candidates:
        clustering = derive_clustering(time_steps, n_clusters, float(lam), neighbors)
        if best is None or clustering.speedup() > best.speedup():
            best = clustering
    assert best is not None
    return best
