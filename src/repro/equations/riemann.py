"""Riemann solvers / flux solver matrices for element faces.

The surface kernel (eqs. 10-13) applies element-local "flux solver" matrices
``A~-_{k,i}`` (acting on the element's own trace) and ``A~+_{k,i}`` (acting
on the face-neighbour's trace).  This module provides the per-face building
blocks; :mod:`repro.kernels.discretization` assembles the per-mesh arrays
and folds in the ``|S_i| / |J_k|`` geometry scaling.

Every builder takes leading batch dimensions: materials ``(...)`` and unit
normals ``(..., 3)`` broadcast against each other and the matrices come back
as ``(..., 9, 9)`` (``(..., 6, 9)`` for the anelastic rows).  A single face
is the batch of one, and each face of a batch gets bit-for-bit the matrix
the single-face call gives -- the assembly therefore passes whole blocks
of faces (a chunk's Godunov faces, its free-surface faces), never one face
at a time.  It fills the Rusanov and anelastic solvers of the other faces
in place, from the nonzero tables these builders fill their dense
matrices from, bitwise their values.

Two flux choices are implemented:

``rusanov``
    Local Lax-Friedrichs flux.  Simple, robust and sufficient for all LTS
    correctness studies (the LTS-vs-GTS comparisons do not depend on the
    choice of flux).
``godunov``
    Face-aligned upwind flux: the trace is rotated into a face-aligned frame,
    split with the 1-D elastic upwind matrices of the respective side's
    material, and rotated back.  Used for the convergence/accuracy studies.

The anelastic flux rows act on the elastic traces only (eqs. 12-13) and use a
central average; the relaxation frequencies and coupling moduli are applied
by the kernels.
"""

from __future__ import annotations

import numpy as np

from .anelastic import anelastic_jacobians
from .elastic import JACOBIAN_NONZEROS, elastic_jacobians, jacobian_values

__all__ = [
    "FLUX_KINDS",
    "tangent_vectors",
    "stress_rotation_matrix",
    "elastic_rotation_matrix",
    "elastic_normal_jacobian",
    "anelastic_normal_jacobian",
    "elastic_upwind_split",
    "rusanov_flux_matrices",
    "godunov_flux_matrices",
    "free_surface_ghost_operator",
    "absorbing_ghost_operator",
]

FLUX_KINDS = ("rusanov", "godunov")

#: index pairs of the 6-component stress ordering (xx, yy, zz, xy, yz, xz)
_STRESS_PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))


# ----------------------------------------------------------------------
# rotations
# ----------------------------------------------------------------------
def tangent_vectors(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit tangents completing ``normal`` to a right-handed frame.

    Vectorised over leading dimensions; ``normal`` must contain unit vectors.
    """
    normal = np.asarray(normal, dtype=np.float64)
    helper = np.zeros_like(normal)
    # pick the coordinate axis least aligned with the normal
    smallest = np.argmin(np.abs(normal), axis=-1)
    idx = np.expand_dims(smallest, axis=-1)
    np.put_along_axis(helper, idx, 1.0, axis=-1)
    s = np.cross(normal, helper)
    s /= np.linalg.norm(s, axis=-1, keepdims=True)
    t = np.cross(normal, s)
    return s, t


def stress_rotation_matrix(rotation: np.ndarray) -> np.ndarray:
    """6x6 transformation of symmetric stress tensors under a 3x3 rotation.

    For ``sigma_global = R sigma_local R^T`` expressed on the 6-component
    ordering ``(xx, yy, zz, xy, yz, xz)``.  Vectorised over leading dims.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    shape = rotation.shape[:-2]
    out = np.empty(shape + (6, 6), dtype=np.float64)
    for row, (i, j) in enumerate(_STRESS_PAIRS):
        for col, (a, b) in enumerate(_STRESS_PAIRS):
            term = rotation[..., i, a] * rotation[..., j, b]
            if a != b:
                term = term + rotation[..., i, b] * rotation[..., j, a]
            out[..., row, col] = term
    return out


def elastic_rotation_matrix(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotation ``T`` (and its inverse) of the 9 elastic variables into a
    face-aligned frame whose first axis is ``normal``.

    Returns ``(T, T_inv)`` with shapes ``(..., 9, 9)``; ``q_global = T q_face``.
    """
    normal = np.asarray(normal, dtype=np.float64)
    s, t = tangent_vectors(normal)
    # R columns are the face frame expressed in global coordinates
    rot = np.stack([normal, s, t], axis=-1)
    shape = rot.shape[:-2]
    big = np.zeros(shape + (9, 9), dtype=np.float64)
    big_inv = np.zeros_like(big)
    big[..., :6, :6] = stress_rotation_matrix(rot)
    big[..., 6:, 6:] = rot
    rot_t = np.swapaxes(rot, -1, -2)
    big_inv[..., :6, :6] = stress_rotation_matrix(rot_t)
    big_inv[..., 6:, 6:] = rot_t
    return big, big_inv


# ----------------------------------------------------------------------
# normal Jacobians
# ----------------------------------------------------------------------
def elastic_normal_jacobian(lam, mu, rho, normal: np.ndarray) -> np.ndarray:
    """``A n_x + B n_y + C n_z``, shape ``(..., 9, 9)``.

    The materials ``(...)`` and the unit normals ``(..., 3)`` broadcast over
    their leading batch dimensions.  Every nonzero of the Jacobians belongs
    to one direction, so the combination is a fill of 24 products -- the
    sum over directions adds only zeros to them (``+ 0.0`` gives a zero
    product the sign that sum gives it).
    """
    values = jacobian_values(lam, mu, rho)
    normal = np.asarray(normal, dtype=np.float64)
    an = np.zeros(np.broadcast_shapes(values["lam"].shape, normal.shape[:-1]) + (9, 9))
    for d, row, column, name in JACOBIAN_NONZEROS:
        np.multiply(normal[..., d], values[name], out=an[..., row, column])
    an += 0.0
    return an


def anelastic_normal_jacobian(normal: np.ndarray) -> np.ndarray:
    """Normal combination of the (material independent) anelastic blocks.

    Vectorised over leading dimensions of ``normal``; returns ``(..., 6, 9)``.
    """
    jac = anelastic_jacobians()  # (3, 6, 9)
    normal = np.asarray(normal, dtype=np.float64)
    return np.einsum("...d,dij->...ij", normal, jac)


# ----------------------------------------------------------------------
# upwind splitting
# ----------------------------------------------------------------------
def elastic_upwind_split(lam, mu, rho) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative parts of the 1-D (x-direction) elastic Jacobian.

    ``A = A_plus + A_minus`` with ``A_plus`` having the non-negative and
    ``A_minus`` the non-positive wave speeds.  Computed via the numerical
    eigendecomposition of the 9x9 Jacobian (its eigenvalues are
    ``+-v_p, +-v_s (x2)`` and ``0 (x3)``; the matrix is diagonalisable).
    The materials broadcast to the leading batch dimensions of the
    ``(..., 9, 9)`` results; each distinct ``(lam, mu, rho)`` is decomposed
    once.
    """
    materials = np.stack(np.broadcast_arrays(lam, mu, rho), axis=-1).astype(np.float64)
    distinct, inverse = np.unique(materials.reshape(-1, 3), axis=0, return_inverse=True)
    a = elastic_jacobians(*distinct.T)[:, 0]
    eigvals, eigvecs = np.linalg.eig(a)
    eigvals = np.real(eigvals)[:, None, :]
    eigvecs = np.real(eigvecs)
    inv_vecs = np.linalg.inv(eigvecs)
    plus = (eigvecs * np.maximum(eigvals, 0.0)) @ inv_vecs
    minus = (eigvecs * np.minimum(eigvals, 0.0)) @ inv_vecs
    shape = materials.shape[:-1] + (9, 9)
    inverse = inverse.ravel()  # numpy 2.0 returns it as a column
    return plus[inverse].reshape(shape), minus[inverse].reshape(shape)


# ----------------------------------------------------------------------
# flux solver matrices; all arguments share leading batch dimensions
# ----------------------------------------------------------------------
def rusanov_flux_matrices(
    lam_local, mu_local, rho_local, lam_neigh, mu_neigh, rho_neigh, normal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local Lax-Friedrichs flux matrices ``(G_local, G_neigh)``.

    The numerical normal flux is ``F* = G_local q_k + G_neigh q_kn`` with
    ``G_local = (A_n(k) + s I)/2`` and ``G_neigh = (A_n(kn) - s I)/2`` where
    ``s`` is the largest wave speed across the interface.
    """
    an_local = elastic_normal_jacobian(lam_local, mu_local, rho_local, normal)
    an_neigh = elastic_normal_jacobian(lam_neigh, mu_neigh, rho_neigh, normal)
    vp_local = np.sqrt((lam_local + 2.0 * mu_local) / rho_local)
    vp_neigh = np.sqrt((lam_neigh + 2.0 * mu_neigh) / rho_neigh)
    s_eye = np.maximum(vp_local, vp_neigh)[..., None, None] * np.eye(9)
    return 0.5 * (an_local + s_eye), 0.5 * (an_neigh - s_eye)


def godunov_flux_matrices(
    lam_local, mu_local, rho_local, lam_neigh, mu_neigh, rho_neigh, normal: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Face-aligned upwind flux matrices ``(G_local, G_neigh)``.

    Outgoing characteristics use the local material's positive split,
    incoming characteristics the neighbour material's negative split
    (Dumbser & Kaeser style upwinding).
    """
    t_mat, t_inv = elastic_rotation_matrix(normal)
    plus_local, _ = elastic_upwind_split(lam_local, mu_local, rho_local)
    _, minus_neigh = elastic_upwind_split(lam_neigh, mu_neigh, rho_neigh)
    return t_mat @ plus_local @ t_inv, t_mat @ minus_neigh @ t_inv


# ----------------------------------------------------------------------
# boundary ghost operators
# ----------------------------------------------------------------------
def free_surface_ghost_operator(normal: np.ndarray) -> np.ndarray:
    """Ghost-state operator of a traction-free surface, ``(..., 9, 9)`` for
    unit normals ``(..., 3)``.

    The ghost trace equals the interior trace with the three traction
    components (``sigma'_nn, sigma'_ns, sigma'_nt`` in the face-aligned
    frame) negated; particle velocities are kept.  The flux solver applied to
    this ghost state then enforces (approximately) zero traction at the face.
    """
    t_mat, t_inv = elastic_rotation_matrix(normal)
    mirror = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    return t_mat @ mirror @ t_inv


def absorbing_ghost_operator(normal: np.ndarray) -> np.ndarray:
    """Ghost-state operator of a first-order absorbing (outflow) face."""
    return np.eye(9)
