"""EDGE's end-to-end preprocessing pipeline (Sec. VI, Fig. 8).

The pipeline turns a velocity model and a handful of user rules into
everything the core solver needs, in the paper's order:

1. velocity-aware meshing (target edge lengths from elements per wavelength),
2. per-element material sampling,
3. derivation of the LTS clusters and the optimal lambda,
4. element/face weights and weighted partitioning,
5. reordering by (time cluster, partition, communication role) -- cluster
   first, so every cluster is one contiguous block of the global order, and
6. writing per-partition files (mesh chunk + annotation data) that the solver
   can read back without any startup communication.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.clustering import Clustering, derive_clustering, optimize_lambda
from ..equations.material import MaterialTable
from ..mesh.generation import layered_box_mesh
from ..mesh.geometry import cfl_time_steps
from ..mesh.refinement import elements_per_wavelength_rule
from ..mesh.reorder import reorder_elements
from ..mesh.tet_mesh import TetMesh
from ..observability import NULL_TELEMETRY
from ..parallel.partition import PartitionResult, element_weights, partition_dual_graph

__all__ = ["PreprocessedModel", "PreprocessingPipeline"]


@dataclass
class PreprocessedModel:
    """Everything the core solver needs, in solver (reordered) element order."""

    mesh: TetMesh
    materials: MaterialTable
    time_steps: np.ndarray
    clustering: Clustering
    partitions: np.ndarray
    order: int
    n_mechanisms: int

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    def summary(self) -> dict[str, float]:
        """Key figures of the preprocessed model (printed by the examples)."""
        return {
            "n_elements": float(self.n_elements),
            "n_clusters": float(self.clustering.n_clusters),
            "lambda": float(self.clustering.lam),
            "theoretical_speedup": float(self.clustering.speedup()),
            "n_partitions": float(self.partitions.max() + 1),
        }


class PreprocessingPipeline:
    """Configurable implementation of the preprocessing of Fig. 8."""

    def __init__(
        self,
        velocity_model,
        extent: tuple[float, float, float, float, float, float],
        max_frequency: float,
        elements_per_wavelength: float = 2.0,
        order: int = 4,
        n_mechanisms: int = 3,
        n_clusters: int = 3,
        n_partitions: int = 1,
        cfl: float = 0.5,
        jitter: float = 0.15,
        optimize_lambda_increment: float = 0.01,
        lam: float | None = None,
        topography=None,
        seed: int = 0,
        telemetry=None,
    ):
        self.velocity_model = velocity_model
        self.extent = extent
        self.max_frequency = max_frequency
        self.elements_per_wavelength = elements_per_wavelength
        self.order = order
        self.n_mechanisms = n_mechanisms
        self.n_clusters = n_clusters
        self.n_partitions = n_partitions
        self.cfl = cfl
        self.jitter = jitter
        self.optimize_lambda_increment = optimize_lambda_increment
        self.lam = lam
        self.topography = topography
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # ------------------------------------------------------------------
    def build_mesh(self) -> TetMesh:
        """Step 1: velocity-aware tetrahedral meshing."""
        rule = elements_per_wavelength_rule(
            self.velocity_model.min_shear_velocity,
            self.max_frequency,
            self.elements_per_wavelength,
            self.order,
        )
        x0, x1, y0, y1, z0, z1 = self.extent
        horizontal = rule(z1)  # resolution demanded by the slowest (shallow) material
        with self.telemetry.region("preprocess.mesh"):
            return layered_box_mesh(
                extent=self.extent,
                edge_length_of_depth=rule,
                horizontal_edge_length=horizontal,
                jitter=self.jitter,
                seed=self.seed,
                topography=self.topography,
            )

    def run(self) -> PreprocessedModel:
        """Execute the full pipeline and return the preprocessed model."""
        mesh = self.build_mesh()
        with self.telemetry.region("preprocess.materials"):
            materials = MaterialTable.from_velocity_model(
                self.velocity_model, mesh.centroids
            )
        time_steps = self.derive_time_steps(mesh, materials)
        clustering = self.derive_clustering(mesh, time_steps)
        partitions = self.derive_partition(mesh, clustering).partitions
        permutation = self.derive_permutation(mesh, clustering, partitions)
        return self.assemble(mesh, materials, time_steps, clustering, partitions, permutation)

    # -- explicit stages (the preprocessing cache's unit of storage) ----
    def derive_time_steps(self, mesh: TetMesh, materials: MaterialTable) -> np.ndarray:
        """Step 2b: per-element CFL time steps."""
        with self.telemetry.region("preprocess.time_steps"):
            return cfl_time_steps(
                mesh.insphere_radii, materials.max_wave_speed, self.order, self.cfl
            )

    def derive_clustering(self, mesh: TetMesh, time_steps: np.ndarray) -> Clustering:
        """Step 3: LTS clustering (Sec. V-A) in *original* element order.

        An explicit lambda wins, otherwise the grid search runs (or
        lambda = 1 when the search is disabled).
        """
        with self.telemetry.region("preprocess.clustering"):
            if self.lam is not None:
                return derive_clustering(
                    time_steps, self.n_clusters, self.lam, mesh.neighbors
                )
            if self.optimize_lambda_increment > 0:
                return optimize_lambda(
                    time_steps, self.n_clusters, mesh.neighbors,
                    self.optimize_lambda_increment,
                )
            return derive_clustering(time_steps, self.n_clusters, 1.0, mesh.neighbors)

    def derive_partition(self, mesh: TetMesh, clustering: Clustering) -> PartitionResult:
        """Step 4: weighted partitioning (Sec. V-C)."""
        with self.telemetry.region("preprocess.partition"):
            weights = element_weights(clustering.cluster_ids, clustering.n_clusters)
            return partition_dual_graph(mesh.neighbors, weights, self.n_partitions)

    def derive_permutation(
        self, mesh: TetMesh, clustering: Clustering, partitions: np.ndarray
    ) -> np.ndarray:
        """Step 5: the (cluster, partition, communication-role) reordering
        permutation (Sec. VI), original -> solver element order."""
        with self.telemetry.region("preprocess.reorder"):
            send_role = np.any(
                (mesh.neighbors >= 0)
                & (
                    partitions[np.maximum(mesh.neighbors, 0)]
                    != partitions[:, None]
                ),
                axis=1,
            ).astype(np.int64)
            return reorder_elements(clustering.cluster_ids, partitions, send_role)

    def assemble(
        self,
        mesh: TetMesh,
        materials: MaterialTable,
        time_steps: np.ndarray,
        clustering: Clustering,
        partitions: np.ndarray,
        permutation: np.ndarray,
    ) -> PreprocessedModel:
        """Apply the reordering permutation and package the model.

        Pure array shuffling -- cheap and deterministic, so the cache stores
        the partitions and the permutation and replays this step rather than
        persisting whole reordered meshes.
        """
        return PreprocessedModel(
            mesh=mesh.permuted(permutation),
            materials=materials.subset(permutation),
            time_steps=time_steps[permutation],
            clustering=clustering.permuted(permutation),
            partitions=partitions[permutation],
            order=self.order,
            n_mechanisms=self.n_mechanisms,
        )
