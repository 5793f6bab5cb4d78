"""Weighted dual-graph partitioning (Sec. V-C).

The preprocessing pipeline assigns each element a weight that reflects its
update frequency (cluster ``C_1`` gets ``2^{Nc-1}``, ..., ``C_Nc`` gets 1)
and each dual-graph edge a weight reflecting the communication volume and
frequency across the shared face, and hands the graph to a graph
partitioner.  EDGE uses an external partitioner; this module implements a
deterministic recursive weighted bisection of the dual graph:

* a bisection orders the elements of the (sub-)graph by breadth-first
  discovery from a pseudo-peripheral element -- the far end of a BFS from
  the far end of a BFS -- and cuts the order at the weighted median, so one
  half is a connected ball around one end of the graph and the cut is a thin
  surface between them; two such orders (one from each end) are tried and
  the one with the smaller :func:`face_weights` cut, i.e. the fewer modelled
  halo bytes per macro cycle, wins,
* ``k`` parts are ``k // 2`` and ``k - k // 2`` parts of the two halves
  (the split sits at that weight fraction), recursively, and
* a boundary refinement pass moves elements from overloaded to underloaded
  neighbouring parts where that does not raise the weighted cut.

Nothing depends on the element numbering: the partitioner sees the graph
only, so a mesh whose index order is not a space-filling order (the box
generator emits elements tet-type-major: consecutive ids are *not*
neighbours) still gets compact subdomains.  The result shows the behaviour
the paper reports in Fig. 7: balanced *weighted* loads and therefore
deliberately unbalanced element counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PartitionResult", "cut_faces", "element_weights", "face_weights", "partition_dual_graph"]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of a weighted mesh partitioning."""

    partitions: np.ndarray  #: (K,) partition id per element
    n_partitions: int
    element_weights: np.ndarray  #: (K,) weights used for balancing

    @property
    def element_counts(self) -> np.ndarray:
        return np.bincount(self.partitions, minlength=self.n_partitions)

    @property
    def weighted_loads(self) -> np.ndarray:
        return np.bincount(
            self.partitions, weights=self.element_weights, minlength=self.n_partitions
        )

    def load_imbalance(self) -> float:
        """Maximum weighted load divided by the mean weighted load."""
        loads = self.weighted_loads
        return float(loads.max() / loads.mean())

    def element_count_spread(self) -> float:
        """Largest over smallest element count -- the quantity of Fig. 7."""
        counts = self.element_counts
        if counts.min() == 0:
            return float("inf")
        return float(counts.max() / counts.min())

    def cut_edges(self, adjacency: list[np.ndarray] | np.ndarray) -> int:
        """Number of dual-graph edges cut by the partitioning."""
        if isinstance(adjacency, np.ndarray):
            flat = adjacency.ravel()
            owners = np.repeat(np.arange(len(adjacency)), adjacency.shape[1])
        else:
            flat = np.concatenate([np.asarray(n, dtype=np.int64) for n in adjacency])
            owners = np.repeat(np.arange(len(adjacency)), [len(n) for n in adjacency])
        # each edge once, from its lower-numbered end (which also skips -1)
        once = flat > owners
        return int(np.count_nonzero(self.partitions[flat[once]] != self.partitions[owners[once]]))


def cut_faces(neighbors: np.ndarray, partitions: np.ndarray) -> np.ndarray:
    """``(K, 4)`` mask of the halo faces: those whose neighbour lies in
    another partition (an element with one is a *boundary* element)."""
    return (neighbors >= 0) & (partitions[np.maximum(neighbors, 0)] != partitions[:, None])


def element_weights(cluster_ids: np.ndarray, n_clusters: int) -> np.ndarray:
    """Computation weights: cluster ``C_l`` updates ``2^{Nc-1-l}`` times per cycle."""
    cluster_ids = np.asarray(cluster_ids, dtype=np.int64)
    if np.any(cluster_ids < 0) or np.any(cluster_ids >= n_clusters):
        raise ValueError("cluster ids out of range")
    return 2.0 ** (n_clusters - 1 - cluster_ids)


def _exchange_frequencies(weights: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """Per-face exchange frequency implied by update-frequency element weights.

    Data crosses a face at the faster side's frequency, i.e. the larger of
    the two elements' weights; boundary faces exchange nothing.
    """
    other = weights[np.maximum(neighbors, 0)]
    return np.where(neighbors >= 0, np.maximum(weights[:, None], other), 0.0)


def face_weights(
    cluster_ids: np.ndarray, neighbors: np.ndarray, n_clusters: int, values_per_face: int
) -> np.ndarray:
    """Communication weights per face: exchanged values times exchange frequency.

    The paper's dual-graph edge weight.  The partitioner minimises the same
    quantity (it derives the frequencies from its element weights; the
    constant ``values_per_face`` does not move a minimum).
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    weights = element_weights(cluster_ids, n_clusters)
    return values_per_face * _exchange_frequencies(weights, neighbors)


#: passes of the boundary refinement (it stops early once nothing moves)
_REFINE_PASSES = 4


def partition_dual_graph(
    neighbors: np.ndarray, weights: np.ndarray, n_partitions: int
) -> PartitionResult:
    """Partition the dual graph into ``n_partitions`` weighted-balanced parts.

    Recursive weighted bisection along breadth-first orders from
    pseudo-peripheral elements, then a boundary refinement that evens out
    the weighted loads without raising the weighted cut (see the module
    docstring).  ``weights`` are per-element update frequencies
    (:func:`element_weights`, or ones); the cut is weighted by the exchange
    frequency they imply per face (:func:`face_weights`).  Deterministic:
    the same graph and weights give the same partition.
    """
    neighbors = np.asarray(neighbors, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    n_elements = len(weights)
    if n_partitions < 1:
        raise ValueError("need at least one partition")
    if n_partitions > n_elements:
        raise ValueError("more partitions than elements")
    if np.any(weights <= 0):
        raise ValueError("element weights must be positive")

    partitions = np.zeros(n_elements, dtype=np.int64)
    if n_partitions > 1:
        edge_weights = _exchange_frequencies(weights, neighbors)
        graph = _Bisector(neighbors, weights, edge_weights)
        graph.split(np.arange(n_elements), n_partitions, 0, partitions)
        _refine(neighbors, weights, edge_weights, partitions, n_partitions)
    return PartitionResult(
        partitions=partitions, n_partitions=n_partitions, element_weights=weights
    )


class _Bisector:
    """Recursive bisection state: the graph plus two reusable element masks."""

    def __init__(self, neighbors: np.ndarray, weights: np.ndarray, edge_weights: np.ndarray):
        self.neighbors = neighbors
        self.weights = weights
        self.edge_weights = edge_weights
        self.in_graph = np.zeros(len(weights), dtype=bool)
        self.in_left = np.zeros(len(weights), dtype=bool)

    def split(self, members: np.ndarray, n_parts: int, first: int, partitions: np.ndarray) -> None:
        """Assign parts ``first .. first + n_parts - 1`` to ``members``."""
        if n_parts == 1:
            partitions[members] = first
            return
        n_left = n_parts // 2
        self.in_graph[members] = True
        # pseudo-peripheral ends: the last element of a BFS is far from its
        # root, the last element of a BFS from there is far from that
        far_end = self._bfs_order(members, members[0])[-1]
        best = None
        for _ in range(2):
            order = self._bfs_order(members, far_end)
            far_end = order[-1]
            # leave each side at least one element per part it must hold
            cut_at = min(
                max(_weighted_cut_position(self.weights[order], n_left / n_parts), n_left),
                len(order) - (n_parts - n_left),
            )
            cut = self._cut_weight(order[:cut_at])
            if best is None or cut < best[0]:
                best = (cut, order, cut_at)
        self.in_graph[members] = False
        _, order, cut_at = best
        self.split(np.sort(order[:cut_at]), n_left, first, partitions)
        self.split(np.sort(order[cut_at:]), n_parts - n_left, first + n_left, partitions)

    def _bfs_order(self, members: np.ndarray, root: int) -> np.ndarray:
        """Breadth-first discovery order of the ``in_graph`` sub-graph from
        ``root`` (level by level, children in their parents' order); a
        disconnected remainder continues from its lowest-numbered element."""
        neighbors = self.neighbors
        seen = ~self.in_graph
        seen[root] = True
        levels = []
        frontier = np.array([root])
        n_open = len(members) - 1
        while True:
            while len(frontier):
                levels.append(frontier)
                reached = neighbors[frontier].ravel()
                reached = reached[reached >= 0]
                reached = reached[~seen[reached]]
                _, first_seen = np.unique(reached, return_index=True)
                frontier = reached[np.sort(first_seen)]
                seen[frontier] = True
                n_open -= len(frontier)
            if n_open == 0:
                return np.concatenate(levels)
            frontier = members[~seen[members]][:1]
            seen[frontier] = True
            n_open -= 1

    def _cut_weight(self, left: np.ndarray) -> float:
        """Edge weight between ``left`` and the rest of the ``in_graph`` sub-graph."""
        self.in_left[left] = True
        reached = self.neighbors[left]
        safe = np.maximum(reached, 0)
        crossing = (reached >= 0) & self.in_graph[safe] & ~self.in_left[safe]
        self.in_left[left] = False
        return float(self.edge_weights[left][crossing].sum())


def _weighted_cut_position(ordered_weights: np.ndarray, fraction: float) -> int:
    """How many leading elements come closest to ``fraction`` of the weight
    (the shorter prefix on a tie)."""
    prefix_weights = np.concatenate(([0.0], np.cumsum(ordered_weights)))
    return int(np.argmin(np.abs(prefix_weights - fraction * prefix_weights[-1])))


def _refine(
    neighbors: np.ndarray,
    weights: np.ndarray,
    edge_weights: np.ndarray,
    partitions: np.ndarray,
    n_partitions: int,
) -> None:
    """Boundary refinement, in place: move a boundary element to its least
    loaded neighbouring part when that brings the two loads closer together
    and does not raise the weighted cut."""
    loads = np.bincount(partitions, weights=weights, minlength=n_partitions)
    for _ in range(_REFINE_PASSES):
        moved = 0
        for k in np.flatnonzero(cut_faces(neighbors, partitions).any(axis=1)):
            own = partitions[k]
            faces = neighbors[k] >= 0
            parts = partitions[neighbors[k][faces]]
            candidates = parts[parts != own]
            if len(candidates) == 0:
                continue
            best = candidates[np.argmin(loads[candidates])]
            if loads[own] - weights[k] <= loads[best] + weights[k] - 1e-12:
                continue
            face_weight = edge_weights[k][faces]
            if face_weight[parts == best].sum() < face_weight[parts == own].sum():
                continue  # the move would lengthen the cut
            partitions[k] = best
            loads[own] -= weights[k]
            loads[best] += weights[k]
            moved += 1
        if moved == 0:
            break
