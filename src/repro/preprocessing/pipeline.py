"""The spec-driven stages of EDGE's preprocessing pipeline (Sec. VI, Fig. 8).

The pipeline turns a velocity model and a handful of user rules (a
:class:`~repro.scenarios.spec.ScenarioSpec`) into everything the core solver
needs, in the paper's order:

1. velocity-aware meshing (target edge lengths from elements per wavelength),
2. per-element material sampling and CFL time steps,
3. derivation of the LTS clusters and the optimal lambda,
4. element/face weights and weighted partitioning (one part per rank), and
5. reordering by (time cluster, partition, boundary first, id) -- cluster
   first, so every cluster is one contiguous block of the global order.

:func:`repro.scenarios.runner.build_setup` runs all five, caching each
stage when given a :class:`~repro.preprocessing.cache.PreprocessingCache`,
and assembles the operators once, in the final element order: no run is
partitioned anywhere else.  This class holds the spec's policy for steps
3-5; steps 1-2 are plain calls there.
"""

from __future__ import annotations

import numpy as np

from ..core.clustering import Clustering, derive_clustering, optimize_lambda
from ..mesh.reorder import reorder_elements
from ..mesh.tet_mesh import TetMesh
from ..observability import NULL_TELEMETRY
from ..parallel.partition import cut_faces, element_weights, partition_dual_graph

__all__ = ["PreprocessingPipeline"]


class PreprocessingPipeline:
    """Steps 3-5 of Fig. 8 under one spec's clustering and preprocessing
    blocks, each timed as a ``preprocess.*`` region of ``telemetry``."""

    def __init__(self, spec, telemetry=None):
        self.spec = spec
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    def derive_clustering(self, mesh: TetMesh, time_steps: np.ndarray) -> Clustering:
        """Step 3: LTS clustering (Sec. V-A) in *original* element order.

        An explicit lambda wins, otherwise the grid search picks it.
        """
        policy = self.spec.clustering
        with self.telemetry.region("preprocess.clustering"):
            if policy.lam is None:
                return optimize_lambda(
                    time_steps, policy.n_clusters, mesh.neighbors, policy.increment
                )
            return derive_clustering(time_steps, policy.n_clusters, policy.lam, mesh.neighbors)

    def derive_partition(self, mesh: TetMesh, clustering: Clustering) -> np.ndarray:
        """Step 4: weighted partitioning (Sec. V-C) of the dual graph in
        cluster order (the partitioner breaks ties by element number), per
        element of ``mesh``."""
        with self.telemetry.region("preprocess.partition"):
            by_cluster = reorder_elements(clustering.cluster_ids)
            new_ids = np.append(np.argsort(by_cluster), -1)  # boundary (-1) stays -1
            weights = element_weights(clustering.cluster_ids[by_cluster], clustering.n_clusters)
            return partition_dual_graph(
                new_ids[mesh.neighbors[by_cluster]], weights, self.spec.n_partitions
            ).partitions[new_ids[:-1]]

    def derive_permutation(
        self, mesh: TetMesh, clustering: Clustering, partitions: np.ndarray
    ) -> np.ndarray:
        """Step 5: the (cluster, partition, boundary first, id) reordering
        permutation (Sec. VI), original -> solver element order."""
        with self.telemetry.region("preprocess.reorder"):
            boundary = cut_faces(mesh.neighbors, partitions).any(axis=1)
            return reorder_elements(clustering.cluster_ids, partitions, boundary)
