"""The ADER-DG reference tetrahedron and its precomputed operator matrices.

This module assembles every matrix of the discrete formulation (Sec. III of
the paper) that only depends on the reference element:

* the (identity) mass matrix ``M`` of the orthonormal basis,
* the stiffness matrices used by the time kernel (Cauchy--Kowalevski
  procedure, eq. 6/7) and by the volume kernel (eq. 8/9),
* the four local flux matrices ``F̃_i`` (B x F) projecting an element's trace
  onto the face basis and their test-side counterparts ``F̂_i`` (F x B),
  pre-multiplied by the inverse mass matrix as in the paper,
* the neighbouring flux matrices ``F̄`` (B x F), one per way a face can meet
  its neighbour (:data:`NEIGHBOR_ORIENTATIONS`): each projects the
  neighbour's trace onto the face basis.  For conforming affine meshes the
  map from a face's parametrisation into its neighbour's reference element
  only depends on where the face's three vertices sit among the
  neighbour's four, so the 24 matrices are reference-element data; a
  :class:`~repro.kernels.discretization.Discretization` keeps the ones its
  mesh uses (the paper's 12 under EDGE's canonical vertex ordering).

Geometry conventions
--------------------
Reference tetrahedron vertices::

    v0 = (0, 0, 0), v1 = (1, 0, 0), v2 = (0, 1, 0), v3 = (0, 0, 1)

Faces are ordered ``(0,2,1), (0,1,3), (0,3,2), (1,2,3)`` with outward
normals ``-z, -y, -x, (1,1,1)/sqrt(3)``.  Each face is parametrised over the
reference triangle ``{(u, v): u, v >= 0, u + v <= 1}`` by
``X_i(u, v) = a + u (b - a) + v (c - a)`` with ``(a, b, c)`` the face's
vertex triple.  All face matrices use the parametric measure ``du dv``; the
physical area scaling ``2 |S_i| / |J_k|`` is folded into the element-local
flux solvers, exactly as EDGE folds it into ``Ã±``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

from .functions import TetBasis, TriBasis, basis_size, face_basis_size
from .quadrature import tetrahedron_quadrature, triangle_quadrature

__all__ = ["ReferenceElement", "REFERENCE_VERTICES", "FACE_VERTEX_IDS", "NEIGHBOR_ORIENTATIONS",
           "ORIENTATION_CODES", "orientation_code", "reference_element"]

#: Vertices of the reference tetrahedron, shape (4, 3).
REFERENCE_VERTICES = np.array(
    [
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ]
)

#: Local vertex ids of the four reference faces (outward orientation).
FACE_VERTEX_IDS = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))

#: Every way a face can meet its neighbour: the positions ``(p0, p1, p2)``
#: of the face's vertices (in ``FACE_VERTEX_IDS`` order) in the neighbour's
#: vertex tuple -- all 24 ordered triples of distinct reference vertices, in
#: ascending orientation code (:func:`orientation_code`).  Face ``i`` of the
#: reference element itself is the triple ``FACE_VERTEX_IDS[i]``.
NEIGHBOR_ORIENTATIONS = tuple(permutations(range(4), 3))


def orientation_code(p0, p1, p2):
    """The integer ``(p0 * 4 + p1) * 4 + p2`` of an orientation (or of
    arrays of its three positions)."""
    return (p0 * 4 + p1) * 4 + p2


#: The orientation code of each entry of :data:`NEIGHBOR_ORIENTATIONS`
#: (what :func:`repro.mesh.connectivity.neighbor_face_classes` returns per face).
ORIENTATION_CODES = orientation_code(*np.array(NEIGHBOR_ORIENTATIONS).T)

#: Outward unit normals of the reference faces, shape (4, 3).
REFERENCE_FACE_NORMALS = np.array(
    [
        [0.0, 0.0, -1.0],
        [0.0, -1.0, 0.0],
        [-1.0, 0.0, 0.0],
        [1.0, 1.0, 1.0] / np.sqrt(3.0),
    ]
)


class ReferenceElement:
    """Precomputed reference-element operators for a given order ``O``."""

    def __init__(self, order: int):
        self.order = order
        self.n_basis = basis_size(order)
        self.n_face_basis = face_basis_size(order)
        self.basis = TetBasis(order)
        self.face_basis = TriBasis(order)

        # Volume quadrature exact for products of two basis functions and a
        # gradient (degree <= 2 (O-1)); order + 2 points per direction give
        # exactness 2 O + 3 which is comfortably enough.
        self.volume_quadrature = tetrahedron_quadrature(order + 2)
        self.face_quadrature = triangle_quadrature(order + 2)

        self._assemble_volume_operators()
        self._assemble_face_operators()

    # ------------------------------------------------------------------
    # volume operators
    # ------------------------------------------------------------------
    def _assemble_volume_operators(self) -> None:
        quad = self.volume_quadrature
        psi = self.basis.evaluate(quad.points)  # (nq, B)
        dpsi = self.basis.evaluate_gradient(quad.points)  # (nq, B, 3)
        w = quad.weights

        mass = np.einsum("q,qb,qc->bc", w, psi, psi)
        self.mass = mass
        self.inv_mass = np.linalg.inv(mass)

        # Ktilde_c[b, b'] = int dpsi_b/dxi_c * psi_b' dxi
        ktilde = np.einsum("q,qbc,qa->cba", w, dpsi, psi)  # (3, B, B)
        self.ktilde = ktilde
        # Time-kernel (CK) differentiation operators: Q^{(d+1)} = ... Q^{(d)} @ k_time_c
        self.k_time = np.einsum("cba,ad->cbd", ktilde, self.inv_mass)
        # Volume-kernel stiffness operators: V += Astar_c @ (T @ k_vol_c)
        self.k_vol = np.einsum("cab,ad->cbd", ktilde, self.inv_mass)

    # ------------------------------------------------------------------
    # face operators
    # ------------------------------------------------------------------
    def face_parametrization(self, face: int | tuple | np.ndarray, uv: np.ndarray) -> np.ndarray:
        """Map reference-triangle points ``uv`` onto reference-tet face
        ``face``: a face id, a vertex triple of :data:`NEIGHBOR_ORIENTATIONS`,
        or an array ``(..., 3)`` of triples (one point set per triple)."""
        vertex_ids = FACE_VERTEX_IDS[face] if np.ndim(face) == 0 else face
        vertices = REFERENCE_VERTICES[np.asarray(vertex_ids)][..., None, :]  # (..., 3, 1, 3)
        a, b, c = vertices[..., 0, :, :], vertices[..., 1, :, :], vertices[..., 2, :, :]
        uv = np.atleast_2d(np.asarray(uv, dtype=np.float64))
        return a + uv[:, 0:1] * (b - a) + uv[:, 1:2] * (c - a)

    def _assemble_face_operators(self) -> None:
        quad = self.face_quadrature
        w = quad.weights
        chi = self.face_basis.evaluate(quad.points)  # (nqf, F)
        self.face_basis_at_quad = chi

        # F̄ of every orientation; F̃_i is the one of face i's own vertex triple.
        # The basis is evaluated once, on the stacked points of all of them.
        points = self.face_parametrization(NEIGHBOR_ORIENTATIONS, quad.points)
        values = self.basis.evaluate(points.reshape(-1, 3)).reshape(len(points), len(w), -1)
        psi = dict(zip(NEIGHBOR_ORIENTATIONS, values))
        self.neighbor_flux = np.stack(
            [np.einsum("q,qb,qf->bf", w, psi[t], chi) for t in NEIGHBOR_ORIENTATIONS]
        )
        faces = [NEIGHBOR_ORIENTATIONS.index(t) for t in FACE_VERTEX_IDS]
        self.ftilde = self.neighbor_flux[faces]
        self.fhat = np.stack([ft.T @ self.inv_mass for ft in self.ftilde])
        self.fsurf = np.stack(
            [np.einsum("q,qb,qc->bc", w, psi[t], psi[t]) for t in FACE_VERTEX_IDS]
        )
        self.face_quad_points = self.face_parametrization(FACE_VERTEX_IDS, quad.points)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def project_function(self, func, n_quad: int | None = None) -> np.ndarray:
        """L2-project ``func(points) -> (n_points, n_vars)`` onto the basis.

        Returns the modal coefficients with shape ``(n_vars, B)`` such that
        ``coeffs @ psi(xi)`` approximates ``func`` on the reference element.
        """
        quad = tetrahedron_quadrature(n_quad or (self.order + 3))
        psi = self.basis.evaluate(quad.points)
        values = np.asarray(func(quad.points), dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        rhs = np.einsum("q,qv,qb->vb", quad.weights, values, psi)
        return rhs @ self.inv_mass.T

    def evaluate_solution(self, coeffs: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Evaluate modal coefficients ``(..., B)`` at reference points ``xi``."""
        psi = self.basis.evaluate(xi)  # (n_points, B)
        return np.einsum("...b,pb->...p", coeffs, psi)


@lru_cache(maxsize=8)
def reference_element(order: int) -> ReferenceElement:
    """Cached factory for :class:`ReferenceElement` instances."""
    return ReferenceElement(order)
