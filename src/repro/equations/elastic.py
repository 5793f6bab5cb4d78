"""Elastic wave equations: Jacobians and element-local star matrices.

The elastic part of the variable vector is ordered as in the paper,
``q_e = (sig_xx, sig_yy, sig_zz, sig_xy, sig_yz, sig_xz, u, v, w)``, and the
system reads ``q_t + A q_x + B q_y + C q_z = E q`` with the sparse Jacobians
``A_e, B_e, C_e in R^{9x9}`` of Dumbser & Kaeser (paper ref. [23]).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "N_ELASTIC_VARS",
    "STRESS_INDICES",
    "VELOCITY_INDICES",
    "JACOBIAN_NONZEROS",
    "elastic_jacobians",
    "jacobian_values",
    "elastic_star_matrices",
    "wave_speeds",
]

N_ELASTIC_VARS = 9
STRESS_INDICES = (0, 1, 2, 3, 4, 5)
VELOCITY_INDICES = (6, 7, 8)


#: the 24 nonzeros of the three elastic Jacobians as ``(direction, row,
#: column, name)``: ``A_d[row, column] = jacobian_values(...)[name]``.  No
#: entry is nonzero in two directions, so a normal combination has exactly
#: one term per nonzero
JACOBIAN_NONZEROS = (
    # x-direction
    (0, 0, 6, "lam2mu"), (0, 1, 6, "lam"), (0, 2, 6, "lam"), (0, 3, 7, "mu"),
    (0, 5, 8, "mu"), (0, 6, 0, "inv_rho"), (0, 7, 3, "inv_rho"), (0, 8, 5, "inv_rho"),
    # y-direction
    (1, 0, 7, "lam"), (1, 1, 7, "lam2mu"), (1, 2, 7, "lam"), (1, 3, 6, "mu"),
    (1, 4, 8, "mu"), (1, 6, 3, "inv_rho"), (1, 7, 1, "inv_rho"), (1, 8, 4, "inv_rho"),
    # z-direction
    (2, 0, 8, "lam"), (2, 1, 8, "lam"), (2, 2, 8, "lam2mu"), (2, 4, 7, "mu"),
    (2, 5, 6, "mu"), (2, 6, 5, "inv_rho"), (2, 7, 4, "inv_rho"), (2, 8, 2, "inv_rho"),
)


def jacobian_values(lam, mu, rho) -> dict:
    """The Jacobian entries by :data:`JACOBIAN_NONZEROS` name (each the
    negated material coefficient), broadcast against each other."""
    lam, mu, rho = np.broadcast_arrays(
        np.asarray(lam, dtype=np.float64),
        np.asarray(mu, dtype=np.float64),
        np.asarray(rho, dtype=np.float64),
    )
    if np.any(rho <= 0):
        raise ValueError("density must be positive")
    return {
        "lam2mu": -(lam + 2.0 * mu),
        "lam": -lam,
        "mu": -mu,
        "inv_rho": -(1.0 / rho),
    }


def elastic_jacobians(lam, mu, rho) -> np.ndarray:
    """The three elastic Jacobians ``(A_e, B_e, C_e)``, shape ``(..., 3, 9, 9)``.

    ``lam``, ``mu`` and ``rho`` broadcast against each other; their common
    shape becomes the leading batch dimensions (scalars give ``(3, 9, 9)``).
    """
    values = jacobian_values(lam, mu, rho)
    jac = np.zeros(values["lam"].shape + (3, 9, 9))
    for d, row, column, name in JACOBIAN_NONZEROS:
        jac[..., d, row, column] = values[name]
    return jac


def elastic_star_matrices(
    inverse_jacobians: np.ndarray, lam: np.ndarray, mu: np.ndarray, rho: np.ndarray
) -> np.ndarray:
    """Element-local star matrices ``Abar_e_{k,c}`` of eq. (6)/(8).

    ``Abar_{k,c} = sum_d (dxi_c / dx_d) A_d`` combines the physical Jacobians
    with the element's inverse affine map so that the kernels can operate in
    reference coordinates.  Returns shape ``(K, 3, 9, 9)``.
    """
    jac = elastic_jacobians(lam, mu, rho)  # (K, 3, 9, 9)
    inverse_jacobians = np.asarray(inverse_jacobians, dtype=np.float64)
    return np.einsum("kcd,kdij->kcij", inverse_jacobians, jac)


def wave_speeds(lam: np.ndarray, mu: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P- and S-wave speeds from Lame parameters."""
    lam = np.asarray(lam, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    rho = np.asarray(rho, dtype=np.float64)
    vp = np.sqrt((lam + 2.0 * mu) / rho)
    vs = np.sqrt(mu / rho)
    return vp, vs
