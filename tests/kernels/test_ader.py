"""Unit tests for the ADER time kernel (Cauchy-Kowalevski + Taylor integration)."""

import numpy as np
import pytest

from repro.equations.elastic import elastic_jacobians
from repro.kernels.ader import (
    compute_time_derivatives,
    taylor_evaluate,
    time_integrate,
    time_integrated_dofs,
)


class TestDerivatives:
    def test_constant_field_has_zero_derivatives(self, elastic_disc):
        """A spatially constant elastic state is steady (no source, no coupling)."""
        disc = elastic_disc
        dofs = disc.allocate_dofs()
        dofs[:, :, 0] = 3.0  # constant mode only
        derivatives = compute_time_derivatives(disc, dofs)
        for deriv in derivatives[1:]:
            np.testing.assert_allclose(deriv, 0.0, atol=1e-12)

    def test_linear_field_first_derivative_matches_pde(self, elastic_disc):
        """For q(x) linear in x the first time derivative must equal -A dq/dx."""
        disc = elastic_disc
        length = 2000.0

        def ic(points):
            out = np.zeros((len(points), 9))
            out[:, 6] = points[:, 0] / length  # u = x / L
            return out

        dofs = disc.project_initial_condition(ic)
        derivatives = compute_time_derivatives(disc, dofs)
        mat = disc.materials
        a = elastic_jacobians(mat.lam[0], mat.mu[0], mat.rho[0])[0]
        dq_dx = np.zeros(9)
        dq_dx[6] = 1.0 / length
        expected = -a @ dq_dx  # constant in space

        # the constant mode of the first derivative must carry the expected value
        # (physical value = coefficient * psi_0 with psi_0 = sqrt(6) for the
        # orthonormal basis on the reference tetrahedron of volume 1/6)
        const_basis_value = np.sqrt(6.0)
        first = derivatives[1][:, :, 0] * const_basis_value
        np.testing.assert_allclose(first, np.broadcast_to(expected, first.shape), rtol=1e-6, atol=1e-9 * np.abs(expected).max())
        # higher modes of the first derivative vanish (derivative is constant)
        np.testing.assert_allclose(derivatives[1][:, :, 1:], 0.0, atol=1e-6)

    def test_number_of_derivatives_matches_order(self, elastic_disc):
        dofs = elastic_disc.allocate_dofs()
        derivatives = compute_time_derivatives(elastic_disc, dofs)
        assert len(derivatives) == elastic_disc.order

    def test_viscoelastic_relaxation_derivative(self, viscoelastic_disc):
        """With zero elastic field and a constant memory variable, the first
        time derivative of the memory variable is -omega_l * zeta and the
        stress rate is the coupling E_l zeta."""
        disc = viscoelastic_disc
        dofs = disc.allocate_dofs()
        dofs[:, 9, 0] = 1.0  # zeta^0_xx constant
        derivatives = compute_time_derivatives(disc, dofs)
        first = derivatives[1]
        np.testing.assert_allclose(
            first[:, 9, 0], -disc.omegas[0] * 1.0, rtol=1e-12
        )
        # the velocity rows feel no memory variable: coupling holds the
        # stress rows of E_l, mechanism-major columns
        expected_sigma = np.zeros((disc.n_elements, 9))
        expected_sigma[:, :6] = disc.coupling[:, :, 0]
        np.testing.assert_allclose(first[:, :9, 0], expected_sigma, rtol=1e-10)

    def test_batch_selection(self, elastic_disc):
        disc = elastic_disc
        rng = np.random.default_rng(0)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        subset = np.array([0, 5, 7])
        full = compute_time_derivatives(disc, dofs)
        part = compute_time_derivatives(disc, dofs, subset)
        for d in range(disc.order):
            np.testing.assert_allclose(part[d], full[d][subset])

    def test_fused_axis_matches_single(self, elastic_disc):
        disc = elastic_disc
        rng = np.random.default_rng(1)
        single = rng.normal(size=disc.allocate_dofs().shape)
        fused = np.stack([single, 2.0 * single], axis=-1)
        d_single = compute_time_derivatives(disc, single)
        d_fused = compute_time_derivatives(disc, fused)
        for d in range(disc.order):
            np.testing.assert_allclose(d_fused[d][..., 0], d_single[d], rtol=1e-12)
            np.testing.assert_allclose(d_fused[d][..., 1], 2.0 * d_single[d], rtol=1e-12)


class TestTimeIntegration:
    def test_interval_additivity(self, elastic_disc):
        """Integral over [0, dt] must equal [0, dt/2] + [dt/2, dt] -- the
        identity the LTS buffer algebra relies on (B1 - B2 usage)."""
        disc = elastic_disc
        rng = np.random.default_rng(2)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        derivatives = compute_time_derivatives(disc, dofs)
        dt = 0.01
        full = time_integrate(derivatives, 0.0, dt)
        first = time_integrate(derivatives, 0.0, 0.5 * dt)
        second = time_integrate(derivatives, 0.5 * dt, dt)
        np.testing.assert_allclose(full, first + second, rtol=1e-12, atol=1e-15)

    def test_matches_paper_taylor_formula(self, elastic_disc):
        disc = elastic_disc
        rng = np.random.default_rng(3)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        derivatives = compute_time_derivatives(disc, dofs)
        dt = 0.02
        from math import factorial

        expected = sum(
            dt ** (d + 1) / factorial(d + 1) * derivatives[d] for d in range(disc.order)
        )
        np.testing.assert_allclose(time_integrate(derivatives, 0.0, dt), expected, rtol=1e-12)

    def test_invalid_interval_raises(self, elastic_disc):
        dofs = elastic_disc.allocate_dofs()
        derivatives = compute_time_derivatives(elastic_disc, dofs)
        with pytest.raises(ValueError):
            time_integrate(derivatives, 1.0, 0.5)

    def test_per_element_dt(self, elastic_disc):
        disc = elastic_disc
        rng = np.random.default_rng(4)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        dt = rng.uniform(0.001, 0.01, size=disc.n_elements)
        result = time_integrated_dofs(disc, dofs, dt)
        for k in (0, 3, 11):
            single = time_integrated_dofs(disc, dofs, float(dt[k]), np.array([k]))
            np.testing.assert_allclose(result[k], single[0], rtol=1e-12)

    def test_taylor_evaluate_at_zero_returns_dofs(self, elastic_disc):
        disc = elastic_disc
        rng = np.random.default_rng(5)
        dofs = rng.normal(size=disc.allocate_dofs().shape)
        derivatives = compute_time_derivatives(disc, dofs)
        np.testing.assert_allclose(taylor_evaluate(derivatives, 0.0), dofs)
