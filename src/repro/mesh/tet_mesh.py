"""Unstructured conforming tetrahedral mesh container.

The mesh is the central spatial data structure of the solver: EDGE operates
on conforming unstructured tetrahedral meshes (Sec. III-A).  The container
stores vertices and element connectivity and computes, on demand and cached,

* face-neighbour connectivity (which element is adjacent across each of the
  four faces, and which local face of the neighbour it is),
* affine element geometry (Jacobians, volumes, face areas/normals, insphere
  radii), and
* boundary tags per element face.

Boundary tags
-------------
Faces without a neighbour carry an integer tag.  The solver interprets

* ``BOUNDARY_FREE_SURFACE`` - traction-free surface (top of the model),
* ``BOUNDARY_ABSORBING``    - first-order outflow/absorbing face,
* ``BOUNDARY_ANALYTIC``     - ghost state supplied by a user callback
  (used by the convergence studies).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .connectivity import build_face_connectivity, neighbor_face_classes
from .geometry import GeometryCache, compute_geometry

__all__ = [
    "TetMesh",
    "BOUNDARY_NONE",
    "BOUNDARY_FREE_SURFACE",
    "BOUNDARY_ABSORBING",
    "BOUNDARY_ANALYTIC",
]

BOUNDARY_NONE = 0
BOUNDARY_FREE_SURFACE = 1
BOUNDARY_ABSORBING = 2
BOUNDARY_ANALYTIC = 3


@dataclass
class TetMesh:
    """A conforming unstructured tetrahedral mesh.

    Parameters
    ----------
    vertices:
        Array of shape ``(n_vertices, 3)`` with vertex coordinates.
    elements:
        Integer array of shape ``(n_elements, 4)`` with vertex ids per
        tetrahedron.  Elements are re-oriented on construction so that all
        signed volumes are positive.
    boundary_tags:
        Optional ``(n_elements, 4)`` integer array of boundary condition tags
        for boundary faces (ignored for interior faces).  Defaults to
        ``BOUNDARY_ABSORBING`` everywhere.
    """

    vertices: np.ndarray
    elements: np.ndarray
    boundary_tags: np.ndarray | None = None
    _connectivity: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False
    )
    _geometry: GeometryCache | None = field(default=None, init=False, repr=False)
    #: ``(K,)`` id each element had in the mesh as generated (the identity
    #: unless the mesh is a :meth:`permuted` one)
    original_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise ValueError("vertices must have shape (n_vertices, 3)")
        if self.elements.ndim != 2 or self.elements.shape[1] != 4:
            raise ValueError("elements must have shape (n_elements, 4)")
        if self.elements.size and self.elements.max() >= len(self.vertices):
            raise ValueError("element refers to a vertex that does not exist")
        self._fix_orientation()
        self.original_ids = np.arange(self.n_elements)
        if self.boundary_tags is None:
            self.boundary_tags = np.full(self.elements.shape, BOUNDARY_ABSORBING, dtype=np.int32)
        else:
            self.boundary_tags = np.asarray(self.boundary_tags, dtype=np.int32)
            if self.boundary_tags.shape != self.elements.shape:
                raise ValueError("boundary_tags must have shape (n_elements, 4)")

    def _fix_orientation(self) -> None:
        verts = self.vertices[self.elements]  # (K, 4, 3)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        e3 = verts[:, 3] - verts[:, 0]
        signed = np.einsum("kd,kd->k", np.cross(e1, e2), e3)
        flipped = signed < 0
        if np.any(flipped):
            self.elements = self.elements.copy()
            self.elements[flipped, 2], self.elements[flipped, 3] = (
                self.elements[flipped, 3],
                self.elements[flipped, 2],
            )
        if np.any(np.isclose(signed, 0.0)):
            raise ValueError("mesh contains degenerate (zero-volume) tetrahedra")

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def _ensure_connectivity(self) -> None:
        if self._connectivity is None:
            self._connectivity = build_face_connectivity(self.elements)

    @property
    def neighbors(self) -> np.ndarray:
        """``(K, 4)`` neighbour element id per face, or ``-1`` on the boundary."""
        self._ensure_connectivity()
        return self._connectivity[0]

    @property
    def neighbor_faces(self) -> np.ndarray:
        """``(K, 4)`` local face id of the neighbour across each face (or -1)."""
        self._ensure_connectivity()
        return self._connectivity[1]

    @property
    def neighbor_face_classes(self) -> np.ndarray:
        """``(K, 4)`` orientation code of how each face meets its neighbour
        (or -1); see
        :func:`repro.mesh.connectivity.neighbor_face_classes`."""
        return neighbor_face_classes(self.elements, self.neighbors)

    @property
    def is_boundary_face(self) -> np.ndarray:
        """Boolean ``(K, 4)`` mask of boundary faces."""
        return self.neighbors < 0

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> GeometryCache:
        if self._geometry is None:
            self._geometry = compute_geometry(self.vertices, self.elements)
        return self._geometry

    @property
    def volumes(self) -> np.ndarray:
        return self.geometry.volumes

    @property
    def insphere_radii(self) -> np.ndarray:
        return self.geometry.insphere_radii

    @property
    def centroids(self) -> np.ndarray:
        return self.geometry.centroids

    # ------------------------------------------------------------------
    # derived meshes
    # ------------------------------------------------------------------
    def permuted(self, permutation: np.ndarray) -> "TetMesh":
        """Return a new mesh with elements re-ordered by ``permutation``.

        ``permutation[i]`` is the old element id that becomes new element ``i``.
        Geometry and face connectivity already computed on this mesh are
        carried over as row gathers (connectivity remapped to the new ids)
        instead of being recomputed: both are per element, so the result is
        equal to a recomputation.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        n = self.n_elements
        if not (
            permutation.shape == (n,)
            and (n == 0 or (permutation.min() >= 0 and permutation.max() < n))
            and np.all(np.bincount(permutation, minlength=n) == 1)
        ):
            raise ValueError("permutation must be a bijection over the elements")
        # a shallow copy skips the constructor: these rows were validated
        # and oriented when this mesh was built
        mesh = copy.copy(self)
        mesh.elements = self.elements[permutation]
        mesh.boundary_tags = self.boundary_tags[permutation]
        mesh.original_ids = self.original_ids[permutation]
        mesh._geometry = mesh._connectivity = None
        if self._geometry is not None:
            mesh._geometry = GeometryCache(
                **{
                    name: getattr(self._geometry, name)[permutation]
                    for name in GeometryCache.__dataclass_fields__
                }
            )
        if self._connectivity is not None:
            neighbors, neighbor_faces = self._connectivity
            # new id of every old id, plus a trailing -1 that boundary
            # entries (-1) index
            new_ids = np.empty(n + 1, dtype=np.int64)
            new_ids[permutation] = np.arange(n)
            new_ids[n] = -1
            mesh._connectivity = (new_ids[neighbors[permutation]], neighbor_faces[permutation])
        return mesh

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TetMesh(n_vertices={self.n_vertices}, n_elements={self.n_elements})"
