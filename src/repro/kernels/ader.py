"""ADER time kernel: Cauchy-Kowalevski procedure and time integration.

Implements eqs. (4)-(7) of the paper.  The time derivatives of the modal
DOFs are obtained by repeatedly substituting spatial for temporal derivatives
via the governing PDE; a Taylor series in time then yields the time-integrated
DOFs over arbitrary sub-intervals, which is exactly what the LTS buffers
``B1/B2/B3`` (eq. 17) require.

All functions operate on *batches* of elements (an index array selects the
elements of one time cluster) and transparently support EDGE's fused
(ensemble) mode through a trailing ensemble axis handled by einsum ellipses.
The intermediate products ``(d^d/dt^d Q_e) K_c`` are computed once and reused
for the elastic and all anelastic derivative computations, mirroring the
data-reuse the paper describes after eq. (7).  The star and coupling
operators are contracted block by block, without their structural zeros
(see :meth:`~repro.kernels.discretization.Discretization.element_operators`).
"""

from __future__ import annotations

import math

import numpy as np

from .discretization import N_ELASTIC, N_STRESS, Discretization

__all__ = [
    "compute_time_derivatives",
    "time_integrate",
    "time_integrated_dofs",
    "taylor_evaluate",
]


def _element_blocks(disc: Discretization, elements) -> tuple:
    """A batch's compact element operators as per-direction blocks (the
    direction last): stress rows x velocities ``(E, 6, 3, 3)``, velocity
    rows x stresses ``(E, 3, 6, 3)``, anelastic rows x velocities ``(E, 6,
    3, 3)`` and the coupling stress rows ``(E, 6, m, 6)``."""
    star_s = disc.star_stress[elements]
    n, n_velocity = len(star_s), N_ELASTIC - N_STRESS
    return (
        star_s.reshape(n, N_STRESS, n_velocity, 3),
        disc.star_velocity[elements].reshape(n, n_velocity, N_STRESS, 3),
        disc.star_anelastic[elements].reshape(n, disc.star_anelastic.shape[1], n_velocity, 3),
        disc.coupling[elements].reshape(n, N_STRESS, disc.n_mechanisms, 6),
    )


def compute_time_derivatives(
    disc: Discretization, dofs: np.ndarray, elements: np.ndarray | slice = slice(None)
) -> list[np.ndarray]:
    """Time derivatives ``d^d/dt^d Q_k`` for ``d = 0 .. O-1``.

    Parameters
    ----------
    disc:
        The discretization.
    dofs:
        Global DOF array ``(K, N_q, B[, n_fused])``.
    elements:
        Element ids (or slice) selecting the batch to operate on.

    Returns
    -------
    list of arrays
        ``O`` arrays of shape ``(E, N_q, B[, n_fused])``.
    """
    batch = dofs[elements]
    star_s, star_v, star_a, coupling = _element_blocks(disc, elements)
    omegas = disc.omegas
    n_mech = disc.n_mechanisms
    k_time = disc.k_time  # (3, B, B), cast to the run precision

    derivatives = [batch]
    current = batch
    for _ in range(1, disc.order):
        nxt = np.zeros_like(current)
        elastic_prev = current[:, :N_ELASTIC]
        # intermediate results (d^d Q_e) K_c, reused by elastic and anelastic parts
        anelastic_common = None
        for c in range(3):
            tmp = np.einsum("evb...,bd->evd...", elastic_prev, k_time[c])
            # the stresses read the velocities and vice versa
            nxt[:, :N_STRESS] -= np.einsum("eij,ejb...->eib...", star_s[..., c], tmp[:, N_STRESS:])
            nxt[:, N_STRESS:N_ELASTIC] -= np.einsum(
                "eij,ejb...->eib...", star_v[..., c], tmp[:, :N_STRESS]
            )
            if n_mech:
                contrib = np.einsum("eij,ejb...->eib...", star_a[..., c], tmp[:, N_STRESS:])
                anelastic_common = (
                    contrib if anelastic_common is None else anelastic_common + contrib
                )
        for l in range(n_mech):
            mem_prev = current[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)]
            # reactive source: memory variables feed back into the stresses
            nxt[:, :N_STRESS] += np.einsum("eij,ejb...->eib...", coupling[:, :, l], mem_prev)
            # relaxation: the memory variables are driven by the (scaled)
            # anelastic spatial terms and decay with omega_l
            nxt[:, N_ELASTIC + 6 * l : N_ELASTIC + 6 * (l + 1)] = -omegas[l] * (
                anelastic_common + mem_prev
            )
        derivatives.append(nxt)
        current = nxt
    return derivatives


def time_integrate(
    derivatives: list[np.ndarray], t_start: float, t_end: float
) -> np.ndarray:
    """Integrate the Taylor expansion over ``[t_start, t_end]`` (eq. 4).

    ``t_start``/``t_end`` are offsets relative to the expansion point, i.e.
    the classic time-integrated DOFs over one step of size ``dt`` are obtained
    with ``time_integrate(derivatives, 0.0, dt)``.
    """
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    result = np.zeros_like(derivatives[0])
    for d, deriv in enumerate(derivatives):
        factor = (t_end ** (d + 1) - t_start ** (d + 1)) / math.factorial(d + 1)
        result += factor * deriv
    return result


def time_integrated_dofs(
    disc: Discretization,
    dofs: np.ndarray,
    dt: float | np.ndarray,
    elements: np.ndarray | slice = slice(None),
) -> np.ndarray:
    """Convenience wrapper: CK derivatives followed by integration over ``[0, dt]``.

    ``dt`` may be a scalar or a per-element array (shape ``(E,)``).
    """
    derivatives = compute_time_derivatives(disc, dofs, elements)
    if np.isscalar(dt):
        return time_integrate(derivatives, 0.0, float(dt))
    dt = np.asarray(dt, dtype=np.float64)
    extra_dims = derivatives[0].ndim - 1
    dt_shaped = dt.reshape((-1,) + (1,) * extra_dims)
    result = np.zeros_like(derivatives[0])
    for d, deriv in enumerate(derivatives):
        result += dt_shaped ** (d + 1) / math.factorial(d + 1) * deriv
    return result


def taylor_evaluate(derivatives: list[np.ndarray], tau: float) -> np.ndarray:
    """Evaluate the Taylor expansion of the DOFs at time offset ``tau``."""
    result = np.zeros_like(derivatives[0])
    for d, deriv in enumerate(derivatives):
        result += tau**d / math.factorial(d) * deriv
    return result
