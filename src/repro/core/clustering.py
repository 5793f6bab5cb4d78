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
    time_steps = _checked_steps(time_steps, n_clusters)
    _check_lambda(lam)
    return _levels(time_steps, lam * float(time_steps.min()), n_clusters).astype(np.int64)


def _checked_steps(time_steps, n_clusters: int) -> np.ndarray:
    time_steps = np.asarray(time_steps, dtype=np.float64)
    if n_clusters < 1:
        raise ValueError("need at least one cluster")
    if np.any(time_steps <= 0):
        raise ValueError("time steps must be positive")
    return time_steps


def _check_lambda(lam) -> None:
    if not np.all((0.5 < lam) & (lam <= 1.0)):
        raise ValueError("lambda must lie in (0.5, 1]")


def _levels(time_steps: np.ndarray, unit, n_clusters: int, out=None) -> np.ndarray:
    """The cluster of each step in ``time_steps``, as floats, for the cluster
    unit ``unit = lambda * dt_min`` (a scalar, or an array broadcasting with
    ``time_steps``; into ``out`` when given): cluster l covers
    ``[2^l, 2^{l+1})`` units, the last one is open-ended.  Non-decreasing in
    the step."""
    # every ratio is >= 1: a step is >= dt_min >= lambda * dt_min
    levels = np.divide(time_steps, unit, out=out)
    np.log2(levels, out=levels)
    np.floor(levels, out=levels)
    return np.minimum(levels, n_clusters - 1, out=levels)


def _hop_minima(values: np.ndarray, neighbors: np.ndarray, depth: int) -> np.ndarray:
    """The smallest of ``values`` within ``d`` face hops of each element,
    for ``d = 0, ..., depth``: shape ``(depth + 1, K)``.

    ``neighbors`` is the ``(K, n_faces)`` face-neighbour array of the mesh
    (boundary faces marked by negative entries); hop ``d + 1`` of element
    ``e`` is hop ``d`` of ``e`` and of the elements its faces point at.
    """
    values = np.asarray(values)
    neighbors = np.asarray(neighbors, dtype=np.int64)
    if neighbors.ndim != 2 or neighbors.shape[0] != len(values):
        raise ValueError("neighbors must have shape (n_elements, n_faces)")
    # a boundary face points at its own element, which changes no minimum
    faces = np.where(neighbors >= 0, neighbors, np.arange(len(values))[:, None]).T
    minima = np.empty((depth + 1, len(values)), dtype=values.dtype)
    minima[0] = values
    for d in range(1, depth + 1):
        np.copyto(minima[d], minima[d - 1])
        for face in faces:
            np.minimum(minima[d], minima[d - 1][face], out=minima[d])
    return minima


def _lowest_by_hops(ids_by_hops: np.ndarray) -> np.ndarray:
    """``min over d of ids_by_hops[..., d, :] + d``: the normalised ids
    from the cluster ids of the hop minima (axis -2 is the hop count;
    ``ids_by_hops`` is overwritten)."""
    ids_by_hops += np.arange(ids_by_hops.shape[-2], dtype=ids_by_hops.dtype)[:, None]
    return ids_by_hops.min(axis=-2)


def normalize_clusters(cluster_ids: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Lower cluster assignments until face neighbours differ by at most one.

    ``neighbors`` is the ``(K, 4)`` face-neighbour array of the mesh (boundary
    faces marked by negative entries).  Elements are only ever *moved down*
    (to smaller time steps), matching the paper's example of moving an
    element from ``C_3`` to ``C_2``.

    The result is the fixpoint of lowering every element to one above its
    smallest face neighbour, in closed form: element ``e`` ends in the
    minimum over ``d >= 0`` of ``(the smallest id within d face hops of e)
    + d``.  The cluster of a step is non-decreasing in the step, so the
    smallest id within ``d`` hops is the cluster of the smallest step
    there, which is how :func:`optimize_lambda` normalises every candidate
    from one set of hop minima of the steps.
    """
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    # a smallest id d hops away lowers an element only when it is more
    # than d below the element's own id
    depth = max(int(cluster_ids.max() - cluster_ids.min()) - 1, 0)
    return _lowest_by_hops(_hop_minima(cluster_ids, neighbors, depth))


def _cluster_time_steps(unit, n_clusters: int) -> np.ndarray:
    """``2^l * unit`` for every cluster ``l`` (along a new last axis)."""
    return unit * 2.0 ** np.arange(n_clusters)


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
    return Clustering(
        cluster_ids=ids, cluster_time_steps=_cluster_time_steps(lam * dt_min, n_clusters),
        lam=lam, dt_min=dt_min,
    )


#: the most values one temporary of the lambda search holds
_CHUNK_VALUES = 2**16


def optimize_lambda(
    time_steps: np.ndarray,
    n_clusters: int,
    neighbors: np.ndarray | None = None,
    increment: float = 0.01,
) -> Clustering:
    """Grid-search the lambda parameter (Sec. V-A's preprocessing step).

    Tests ``lambda in {1.0, 1.0 - increment, 1.0 - 2 increment, ...} > 0.5``
    and returns the clustering (normalised when ``neighbors`` is given) with
    the largest theoretical speedup over GTS; of equal speedups the largest
    lambda wins.  Nothing of the normalisation depends on lambda: the
    hop minima of the steps (the smallest within d face hops) are taken
    once, and each candidate's normalised ids are
    :func:`normalize_clusters`' closed form over their clusters, as many
    candidates at a time as keep a temporary within ``2^16`` values (one
    at least).  The result is :func:`derive_clustering`'s at the winning
    lambda, bit for bit.
    """
    if increment <= 0 or increment > 0.5:
        raise ValueError("increment must lie in (0, 0.5]")
    time_steps = _checked_steps(time_steps, n_clusters)
    candidates = np.arange(1.0, 0.5, -increment)
    _check_lambda(candidates)
    dt_min = float(time_steps.min())
    minima = (time_steps[None] if neighbors is None
              else _hop_minima(time_steps, neighbors, max(n_clusters - 2, 0)))
    chunk = max(1, _CHUNK_VALUES // minima.size)
    work = np.empty((min(chunk, len(candidates)),) + minima.shape)

    def normalized_ids(units: np.ndarray) -> np.ndarray:
        by_hops = _levels(minima, units[:, None, None], n_clusters, out=work[:len(units)])
        return _lowest_by_hops(by_hops).astype(np.int64)

    gts_cost = len(time_steps) / dt_min
    speedups = np.empty(len(candidates))
    for start in range(0, len(candidates), chunk):
        units = candidates[start:start + chunk] * dt_min
        inverse = 1.0 / _cluster_time_steps(units[:, None], n_clusters)
        for i, ids in enumerate(normalized_ids(units), start):
            speedups[i] = gts_cost / np.take(inverse[i - start], ids).sum()
    lam = float(candidates[np.argmax(speedups)])  # the first maximum, as a strict ">" keeps
    return Clustering(
        cluster_ids=normalized_ids(np.array([lam * dt_min]))[0],
        cluster_time_steps=_cluster_time_steps(lam * dt_min, n_clusters),
        lam=lam, dt_min=dt_min,
    )
