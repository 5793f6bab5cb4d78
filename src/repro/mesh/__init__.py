"""Unstructured tetrahedral mesh substrate."""

from .connectivity import build_face_connectivity, element_face_vertices
from .generation import (
    box_mesh,
    graded_axis,
    layered_box_mesh,
    single_tet_mesh,
    two_tet_mesh,
)
from .geometry import (
    GeometryCache,
    cfl_time_steps,
    compute_geometry,
    map_physical_to_reference,
    map_reference_to_physical,
)
from .refinement import (
    characteristic_lengths,
    edge_length_profile_from_velocity,
    elements_per_wavelength_rule,
)
from .reorder import ClusterOrderError, cluster_ranges, reorder_elements
from .tet_mesh import (
    BOUNDARY_ABSORBING,
    BOUNDARY_ANALYTIC,
    BOUNDARY_FREE_SURFACE,
    BOUNDARY_NONE,
    TetMesh,
)

__all__ = [
    "TetMesh",
    "BOUNDARY_NONE",
    "BOUNDARY_FREE_SURFACE",
    "BOUNDARY_ABSORBING",
    "BOUNDARY_ANALYTIC",
    "build_face_connectivity",
    "element_face_vertices",
    "box_mesh",
    "graded_axis",
    "layered_box_mesh",
    "single_tet_mesh",
    "two_tet_mesh",
    "GeometryCache",
    "compute_geometry",
    "cfl_time_steps",
    "map_reference_to_physical",
    "map_physical_to_reference",
    "elements_per_wavelength_rule",
    "edge_length_profile_from_velocity",
    "characteristic_lengths",
    "ClusterOrderError",
    "reorder_elements",
    "cluster_ranges",
]
