"""Unit tests for viscoelastic attenuation (Q-fitting, coupling, Jacobian blocks)."""

import numpy as np
import pytest

from repro.equations.anelastic import (
    anelastic_jacobians,
    anelastic_lame_parameters,
    anelastic_star_matrices,
    coupling_matrices,
    fit_constant_q,
    n_anelastic_vars,
    quality_factor_of_spectrum,
)


class TestConstantQFit:
    def test_paper_variable_count(self):
        # three mechanisms -> 18 memory variables -> 27 total variables
        assert n_anelastic_vars(3) == 18

    @pytest.mark.parametrize("q_target", [40.0, 69.3, 120.0, 155.9])
    def test_fitted_q_is_flat_over_band(self, q_target):
        spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=3)
        y = spectrum.coefficients(q_target)[0] if np.ndim(q_target) else spectrum.coefficients(
            np.array([q_target])
        )[0]
        freqs = np.logspace(np.log10(0.12), np.log10(8.0), 40)
        q_realised = quality_factor_of_spectrum(spectrum.omegas, y, freqs)
        # within ~12 % of the target across the band (3 mechanisms, constant-Q fit)
        assert np.all(np.abs(q_realised - q_target) / q_target < 0.12)

    def test_infinite_q_gives_zero_coefficients(self):
        spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=3)
        y = spectrum.coefficients(np.array([np.inf]))
        np.testing.assert_array_equal(y, 0.0)

    def test_relaxation_frequencies_span_band(self):
        spectrum = fit_constant_q((0.5, 5.0), n_mechanisms=3)
        assert spectrum.omegas[0] == pytest.approx(2 * np.pi * 0.5)
        assert spectrum.omegas[-1] == pytest.approx(2 * np.pi * 5.0)
        assert np.all(np.diff(spectrum.omegas) > 0)

    def test_invalid_band_raises(self):
        with pytest.raises(ValueError):
            fit_constant_q((0.0, 1.0))
        with pytest.raises(ValueError):
            fit_constant_q((2.0, 1.0))
        with pytest.raises(ValueError):
            fit_constant_q((0.1, 1.0), n_mechanisms=0)

    def test_more_mechanisms_fit_better(self):
        freqs = np.logspace(np.log10(0.15), np.log10(8.0), 50)
        errors = []
        for m in (2, 3, 5):
            spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=m)
            y = spectrum.coefficients(np.array([50.0]))[0]
            q = quality_factor_of_spectrum(spectrum.omegas, y, freqs)
            errors.append(np.max(np.abs(q - 50.0) / 50.0))
        assert errors[2] < errors[0]


class TestConstantQFitAgainstScipy:
    """The in-tree Lawson--Hanson solve against ``scipy.optimize.nnls``
    (which ``import repro`` no longer loads; the test may)."""

    @pytest.mark.parametrize("band", [(0.05, 2.0), (0.1, 10.0), (1.0, 1.5)])
    @pytest.mark.parametrize("m", range(1, 6))
    def test_coefficients_match_scipy_nnls(self, band, m):
        from scipy.optimize import nnls

        spectrum = fit_constant_q(band, m)
        sample = 2.0 * np.pi * np.logspace(np.log10(band[0]), np.log10(band[1]), 24)
        omegas = spectrum.omegas
        design = omegas[None, :] * sample[:, None] / (omegas[None, :] ** 2 + sample[:, None] ** 2)
        reference, _ = nnls(design, np.ones(len(sample)))
        assert np.all(spectrum.y_unit >= 0.0)
        # the narrow band pins coefficients to the constraint: same active set
        assert np.array_equal(spectrum.y_unit == 0.0, reference == 0.0)
        np.testing.assert_allclose(
            spectrum.y_unit, reference, rtol=0.0, atol=1e-14 * np.abs(reference).max()
        )


class TestAnelasticModuli:
    def test_shapes(self):
        spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=3)
        lam = np.array([2.08e10, 1.0e10])
        mu = np.array([3.24e10, 1.0e10])
        qp = np.array([155.9, 120.0])
        qs = np.array([69.3, 40.0])
        lam_a, mu_a = anelastic_lame_parameters(lam, mu, qp, qs, spectrum)
        assert lam_a.shape == (2, 3) and mu_a.shape == (2, 3)
        assert np.all(mu_a > 0)

    def test_lambda_combination(self):
        """lam_a must satisfy lam_a + 2 mu_a = (lam + 2 mu) * Y_p."""
        spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=3)
        lam = np.array([2.08e10])
        mu = np.array([3.24e10])
        qp = np.array([100.0])
        qs = np.array([50.0])
        lam_a, mu_a = anelastic_lame_parameters(lam, mu, qp, qs, spectrum)
        y_p = spectrum.coefficients(qp)
        np.testing.assert_allclose(lam_a + 2 * mu_a, (lam + 2 * mu)[:, None] * y_p)

    def test_coupling_matrix_structure(self):
        lam_a = np.array([[1.0, 2.0]])
        mu_a = np.array([[3.0, 4.0]])
        e = coupling_matrices(lam_a, mu_a)
        assert e.shape == (1, 2, 9, 6)
        # velocity rows carry no coupling
        np.testing.assert_array_equal(e[:, :, 6:, :], 0.0)
        # normal stress diagonal: -(lam_a + 2 mu_a)
        np.testing.assert_allclose(e[0, 0, 0, 0], -(1.0 + 2 * 3.0))
        np.testing.assert_allclose(e[0, 1, 1, 1], -(2.0 + 2 * 4.0))
        # shear rows: -2 mu_a on the diagonal
        np.testing.assert_allclose(e[0, 0, 3, 3], -6.0)
        np.testing.assert_allclose(e[0, 0, 4, 4], -6.0)

    def test_coupling_shape_validation(self):
        with pytest.raises(ValueError):
            coupling_matrices(np.zeros(3), np.zeros(3))


class TestAnelasticJacobians:
    def test_strain_rate_extraction(self):
        """Applying the (negated) anelastic Jacobians to a linear velocity field
        must produce the tensor strain rate."""
        jac = anelastic_jacobians()
        assert jac.shape == (3, 6, 9)
        # constant velocity gradient: du_i/dx_j = G_ij
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(3, 3))
        # assemble sum_d jac_d * q where q has velocities only; the derivative
        # d q / dx_d has velocity entries grad[:, d]
        strain_rate = np.zeros(6)
        for d in range(3):
            q_deriv = np.zeros(9)
            q_deriv[6:] = grad[:, d]
            strain_rate += -jac[d] @ q_deriv
        expected = np.array(
            [
                grad[0, 0],
                grad[1, 1],
                grad[2, 2],
                0.5 * (grad[0, 1] + grad[1, 0]),
                0.5 * (grad[1, 2] + grad[2, 1]),
                0.5 * (grad[0, 2] + grad[2, 0]),
            ]
        )
        np.testing.assert_allclose(strain_rate, expected, atol=1e-12)

    def test_stress_columns_are_zero(self):
        jac = anelastic_jacobians()
        np.testing.assert_array_equal(jac[:, :, :6], 0.0)

    def test_star_matrices_identity_map(self):
        star = anelastic_star_matrices(np.eye(3)[None])
        np.testing.assert_allclose(star[0], anelastic_jacobians())

    def test_star_matrices_scaling(self):
        star = anelastic_star_matrices((2.0 * np.eye(3))[None])
        np.testing.assert_allclose(star[0], 2.0 * anelastic_jacobians())


class TestGeneralizedMaxwellBodyODE:
    """Quantitative verification of the attenuation chain (Q-fit -> anelastic
    moduli -> coupling matrices -> relaxation sign) on the 0-D generalized
    Maxwell body ODE, independent of the mesh and kernels.

    For a harmonic shear strain rate forcing the stress lags the strain by a
    phase ``delta`` with ``tan(delta) ~= 1/Q``; integrating the exact ODE
    system that the solver discretises must reproduce the target Q.
    """

    @staticmethod
    def _measure_q(q_target: float, frequency: float) -> float:
        from scipy.integrate import solve_ivp

        spectrum = fit_constant_q((0.1, 10.0), n_mechanisms=3)
        mu = 1.0  # normalised shear modulus
        lam = 1.0
        lam_a, mu_a = anelastic_lame_parameters(
            np.array([lam]), np.array([mu]), np.array([np.inf]), np.array([q_target]), spectrum
        )
        mu_a = mu_a[0]
        omega = 2 * np.pi * frequency

        # state: [sigma_xy, zeta_1, zeta_2, zeta_3] under eps_xy(t) = sin(w t)
        def rhs(t, y):
            deps = omega * np.cos(omega * t)
            dsigma = 2 * mu * deps - np.sum(2 * mu_a * y[1:])
            dzeta = spectrum.omegas * deps - spectrum.omegas * y[1:]
            return np.concatenate([[dsigma], dzeta])

        t_end = 12.0 / frequency
        sol = solve_ivp(rhs, (0.0, t_end), np.zeros(4), max_step=0.01 / frequency, rtol=1e-8)
        t, sigma = sol.t, sol.y[0]
        # use the last few cycles (steady state) and fit amplitude/phase
        mask = t > t_end - 4.0 / frequency
        t_fit, s_fit = t[mask], sigma[mask]
        design = np.column_stack([np.sin(omega * t_fit), np.cos(omega * t_fit)])
        a, b = np.linalg.lstsq(design, s_fit, rcond=None)[0]
        # dissipative response: sigma = A sin(w t + delta) leads the strain,
        # with tan(delta) = Im(M)/Re(M) = 1/Q; a = A cos(delta), b = A sin(delta)
        delta = np.arctan2(b, a)
        return 1.0 / np.tan(delta)

    @pytest.mark.parametrize("q_target", [20.0, 50.0])
    def test_measured_q_matches_target(self, q_target):
        for frequency in (0.5, 2.0):
            q_measured = self._measure_q(q_target, frequency)
            assert q_measured > 0, "stress must lead the strain (dissipative phase)"
            assert abs(q_measured - q_target) / q_target < 0.2, (
                f"Q mismatch at {frequency} Hz: target {q_target}, measured {q_measured:.1f}"
            )
