"""Viscoelastic attenuation: relaxation mechanisms, Q-fitting and coupling.

EDGE models anelastic attenuation with a generalized Maxwell body of ``m``
relaxation mechanisms (typically three, Sec. VII-A).  Each mechanism ``l``
contributes six memory variables per element (paper eq. 1); following the
formulation of Kaeser et al. (paper ref. [24]) the memory variables are
relaxation-filtered strain rates:

* their evolution is driven by the velocity gradients through the
  *mechanism-independent* anelastic Jacobian blocks ``A_a, B_a, C_a`` with
  the relaxation frequency ``omega_l`` factored out -- exactly the structure
  the paper exploits in eqs. (7), (9), (12) and (13);
* the material (and Q) dependence sits in the per-mechanism coupling
  matrices ``E_l in R^{9x6}`` that feed the memory variables back into the
  stress equations (eq. 3), built from anelastic Lame parameters fitted to
  the frequency-independent quality factors ``Q_p``/``Q_s``.

Derivation sketch (generalized Maxwell body)::

    sigma(t)     = int Psi(t - tau) deps/dt dtau,   Psi(t) = M_R + sum_l M_l exp(-omega_l t)
    dsigma/dt    = M_u deps/dt - sum_l M_l zeta_l
    zeta_l(t)    = omega_l int exp(-omega_l (t - tau)) deps/dt dtau
    dzeta_l/dt   = omega_l deps/dt - omega_l zeta_l

with ``M_l = Y_l M_u`` the per-mechanism anelastic moduli.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RelaxationSpectrum",
    "fit_constant_q",
    "quality_factor_of_spectrum",
    "anelastic_lame_parameters",
    "coupling_matrices",
    "coupling_values",
    "COUPLING_NONZEROS",
    "anelastic_jacobians",
    "ANELASTIC_NONZEROS",
    "anelastic_star_matrices",
    "n_anelastic_vars",
]


def n_anelastic_vars(n_mechanisms: int) -> int:
    """Number of memory variables ``N_a(m) = 6 m``."""
    return 6 * n_mechanisms


# ----------------------------------------------------------------------
# constant-Q fitting
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RelaxationSpectrum:
    """Relaxation frequencies and dimensionless anelastic coefficients.

    The spectrum approximates ``1/Q(w) = sum_l y_l * omega_l * w /
    (omega_l^2 + w^2)``; the unit coefficients are fitted for ``Q = 1`` and
    scale linearly with ``1/Q`` (linearised constant-Q model, accurate for
    the large quality factors of the considered workloads).
    """

    omegas: np.ndarray  #: (m,) relaxation frequencies [rad/s]
    y_unit: np.ndarray  #: (m,) coefficients realising Q = 1

    @property
    def n_mechanisms(self) -> int:
        return len(self.omegas)

    def coefficients(self, q: np.ndarray | float) -> np.ndarray:
        """Anelastic coefficients ``Y_l`` for quality factor(s) ``q``.

        For an array ``q`` of shape ``(K,)`` the result has shape ``(K, m)``;
        infinite Q yields zero coefficients (purely elastic element).
        """
        q = np.asarray(q, dtype=np.float64)
        inv_q = np.where(np.isfinite(q), 1.0 / q, 0.0)
        return np.multiply.outer(inv_q, self.y_unit)


def fit_constant_q(
    frequency_band: tuple[float, float],
    n_mechanisms: int = 3,
    n_sample_frequencies: int = 24,
) -> RelaxationSpectrum:
    """Fit relaxation frequencies and coefficients for frequency-independent Q.

    The relaxation frequencies are logarithmically spaced over the band and
    the non-negative coefficients are obtained from a least-squares fit of
    ``1/Q(omega) = 1`` at sample frequencies (Emmerich & Korn style).
    """
    f_min, f_max = frequency_band
    if f_min <= 0 or f_max <= f_min:
        raise ValueError("frequency band must satisfy 0 < f_min < f_max")
    if n_mechanisms < 1:
        raise ValueError("need at least one relaxation mechanism")

    omegas = 2.0 * np.pi * np.logspace(np.log10(f_min), np.log10(f_max), n_mechanisms)
    sample = 2.0 * np.pi * np.logspace(
        np.log10(f_min), np.log10(f_max), max(n_sample_frequencies, 2 * n_mechanisms)
    )
    design = (omegas[None, :] * sample[:, None]) / (omegas[None, :] ** 2 + sample[:, None] ** 2)
    y_unit = _nnls(design, np.ones(len(sample)))
    return RelaxationSpectrum(omegas=omegas, y_unit=y_unit)


def _nnls(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``argmin ||a x - b||_2`` subject to ``x >= 0`` (Lawson & Hanson's
    active-set method, as ``scipy.optimize.nnls`` -- which costs 0.2 s to
    import for this handful of unknowns)."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tolerance = 10.0 * np.finfo(np.float64).eps * np.abs(a).sum(axis=0).max() * max(a.shape)
    for _ in range(3 * n):
        gradient = a.T @ (b - a @ x)
        if passive.all() or gradient[~passive].max() <= tolerance:
            return x
        passive[np.argmax(np.where(passive, -np.inf, gradient))] = True
        while True:
            trial = np.zeros(n)
            trial[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            blocking = passive & (trial <= 0.0)
            if not blocking.any():
                break
            # walk towards the unconstrained solution until the first
            # passive coefficient reaches zero, and make that one active
            step = np.min(x[blocking] / (x[blocking] - trial[blocking]))
            x += step * (trial - x)
            passive &= x > tolerance
            x[~passive] = 0.0
        x = trial
    raise RuntimeError("non-negative least squares did not converge")


def quality_factor_of_spectrum(
    omegas: np.ndarray, y: np.ndarray, frequencies: np.ndarray
) -> np.ndarray:
    """Quality factor ``Q(f)`` realised by a relaxation spectrum."""
    omegas = np.asarray(omegas, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    w = 2.0 * np.pi * np.asarray(frequencies, dtype=np.float64)
    inv_q = np.sum(
        y[None, :] * omegas[None, :] * w[:, None] / (omegas[None, :] ** 2 + w[:, None] ** 2),
        axis=1,
    )
    with np.errstate(divide="ignore"):
        return np.where(inv_q > 0, 1.0 / inv_q, np.inf)


# ----------------------------------------------------------------------
# coupling matrices (material dependent)
# ----------------------------------------------------------------------
def anelastic_lame_parameters(
    lam: np.ndarray,
    mu: np.ndarray,
    qp: np.ndarray,
    qs: np.ndarray,
    spectrum: RelaxationSpectrum,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-element, per-mechanism anelastic Lame parameters ``(lam_a, mu_a)``.

    The shear coefficients follow ``Q_s``, the P-modulus coefficients follow
    ``Q_p`` and the anelastic first Lame parameter is recovered from
    ``lam_a = (lam + 2 mu) Y_p - 2 mu Y_s``.  Shapes are ``(K, m)``.
    """
    lam = np.asarray(lam, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    y_p = spectrum.coefficients(qp)
    y_s = spectrum.coefficients(qs)
    p_modulus = (lam + 2.0 * mu)[:, None]
    mu_a = mu[:, None] * y_s
    lam_a = p_modulus * y_p - 2.0 * mu_a
    return lam_a, mu_a


#: the nonzeros of a coupling matrix ``E_l`` as ``(row, column, name)``:
#: ``E_l[row, column] = coupling_values(...)[name]``.  Only stress rows are
#: nonzero: the memory variables feed the stresses alone
COUPLING_NONZEROS = (
    # normal stresses
    (0, 0, "lam2mu"), (0, 1, "lam"), (0, 2, "lam"),
    (1, 0, "lam"), (1, 1, "lam2mu"), (1, 2, "lam"),
    (2, 0, "lam"), (2, 1, "lam"), (2, 2, "lam2mu"),
    # shear stresses (tensor strain -> factor 2 mu)
    (3, 3, "mu2"), (4, 4, "mu2"), (5, 5, "mu2"),
)


def coupling_values(lam_a, mu_a) -> dict:
    """The coupling-matrix entries by :data:`COUPLING_NONZEROS` name, each
    the negated anelastic modulus, in the shape of ``lam_a`` / ``mu_a``."""
    return {"lam2mu": -(lam_a + 2.0 * mu_a), "lam": -lam_a, "mu2": -2.0 * mu_a}


def coupling_matrices(lam_a: np.ndarray, mu_a: np.ndarray) -> np.ndarray:
    """Coupling matrices ``E_l`` feeding memory variables into the stresses.

    Parameters have shape ``(K, m)``; the result has shape ``(K, m, 9, 6)``.
    The stress equations receive ``- C_l zeta_l`` on their right-hand side,
    with ``C_l`` the isotropic anelastic stiffness of mechanism ``l`` acting
    on the (tensor) strain-rate memory variables.
    """
    lam_a = np.asarray(lam_a, dtype=np.float64)
    mu_a = np.asarray(mu_a, dtype=np.float64)
    if lam_a.shape != mu_a.shape or lam_a.ndim != 2:
        raise ValueError("lam_a and mu_a must both have shape (n_elements, n_mechanisms)")
    n_elem, n_mech = lam_a.shape
    e = np.zeros((n_elem, n_mech, 9, 6))
    values = coupling_values(lam_a, mu_a)
    for row, column, name in COUPLING_NONZEROS:
        e[:, :, row, column] = values[name]
    return e


# ----------------------------------------------------------------------
# anelastic Jacobian blocks (material independent, omega_l factored out)
# ----------------------------------------------------------------------
#: the nine nonzeros of the anelastic Jacobian blocks as ``(direction, row,
#: column, value)``: each extracts one negative tensor strain rate from a
#: particle-velocity column (6-8), mirroring the sign convention of the
#: elastic Jacobians
ANELASTIC_NONZEROS = (
    # x-direction: d/dx of (u, v, w) -> eps_xx, eps_xy, eps_xz
    (0, 0, 6, -1.0), (0, 3, 7, -0.5), (0, 5, 8, -0.5),
    # y-direction
    (1, 1, 7, -1.0), (1, 3, 6, -0.5), (1, 4, 8, -0.5),
    # z-direction
    (2, 2, 8, -1.0), (2, 4, 7, -0.5), (2, 5, 6, -0.5),
)


def anelastic_jacobians() -> np.ndarray:
    """The mechanism-independent anelastic Jacobian blocks, shape ``(3, 6, 9)``
    (:data:`ANELASTIC_NONZEROS`).

    The full-system Jacobian block of mechanism ``l`` is ``omega_l`` times the
    returned matrices (the factorisation of eq. 7).
    """
    jac = np.zeros((3, 6, 9))
    for d, row, column, value in ANELASTIC_NONZEROS:
        jac[d, row, column] = value
    return jac


def anelastic_star_matrices(inverse_jacobians: np.ndarray) -> np.ndarray:
    """Element-local anelastic star matrices ``Abar_a_{k,c}``, shape ``(K, 3, 6, 9)``.

    Only geometry enters (the anelastic Jacobian blocks carry no material
    dependence); the relaxation frequencies ``omega_l`` are applied by the
    kernels, and the anelastic moduli by the coupling matrices ``E_l``.
    """
    jac = anelastic_jacobians()  # (3, 6, 9)
    inverse_jacobians = np.asarray(inverse_jacobians, dtype=np.float64)
    return np.einsum("kcd,dij->kcij", inverse_jacobians, jac)
