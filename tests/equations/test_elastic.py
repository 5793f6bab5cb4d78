"""Unit tests for the elastic Jacobians and star matrices."""

import numpy as np
import pytest

from repro.equations.elastic import (
    elastic_jacobians,
    elastic_star_matrices,
    wave_speeds,
)

LAM, MU, RHO = 2.08e10, 3.24e10, 2700.0


class TestElasticJacobians:
    def test_shapes_and_sparsity(self):
        jac = elastic_jacobians(LAM, MU, RHO)
        assert jac.shape == (3, 9, 9)
        # each Jacobian has exactly 9 non-zero entries minus the missing shear row
        assert np.count_nonzero(jac[0]) == 8
        assert np.count_nonzero(jac[1]) == 8
        assert np.count_nonzero(jac[2]) == 8

    def test_eigenvalues_are_wave_speeds(self):
        jac = elastic_jacobians(LAM, MU, RHO)
        vp = np.sqrt((LAM + 2 * MU) / RHO)
        vs = np.sqrt(MU / RHO)
        for d in range(3):
            eigvals = np.sort(np.real(np.linalg.eigvals(jac[d])))
            expected = np.sort([-vp, -vs, -vs, 0.0, 0.0, 0.0, vs, vs, vp])
            np.testing.assert_allclose(eigvals, expected, rtol=1e-9, atol=1e-6)

    def test_plane_wave_consistency(self):
        """A plane P-wave in x-direction must satisfy the dispersion relation:
        the vector (sigma, v) built from the analytic P-wave is an eigenvector
        of A with eigenvalue vp."""
        jac = elastic_jacobians(LAM, MU, RHO)[0]
        vp = np.sqrt((LAM + 2 * MU) / RHO)
        # q(x, t) = q0 * f(x - vp t): with u = 1, sigma_xx = -rho vp, sigma_yy = sigma_zz = -lam/vp... derive:
        # from the PDE, q0 must satisfy (A - vp I) q0 = 0.
        q0 = np.array([-(LAM + 2 * MU) / vp, -LAM / vp, -LAM / vp, 0, 0, 0, 1.0, 0, 0])
        residual = jac @ q0 - vp * q0
        np.testing.assert_allclose(residual, 0.0, atol=1e-6 * vp)

    def test_batch_matches_single(self):
        lam = np.array([LAM, 1e9])
        mu = np.array([MU, 2e9])
        rho = np.array([RHO, 2000.0])
        batch = elastic_jacobians(lam, mu, rho)
        assert batch.shape == (2, 3, 9, 9)
        for k in range(2):
            np.testing.assert_array_equal(batch[k], elastic_jacobians(lam[k], mu[k], rho[k]))

    def test_invalid_density_raises(self):
        with pytest.raises(ValueError):
            elastic_jacobians(LAM, MU, 0.0)


class TestStarMatrices:
    def test_identity_map_returns_jacobians(self):
        inv_jac = np.eye(3)[None, :, :]
        star = elastic_star_matrices(inv_jac, np.array([LAM]), np.array([MU]), np.array([RHO]))
        np.testing.assert_allclose(star[0], elastic_jacobians(LAM, MU, RHO))

    def test_scaled_map(self):
        """For x = 2 xi the star matrix in direction xi is A / 2 ... actually
        dxi/dx = 1/2 so Astar = A * 0.5."""
        inv_jac = (0.5 * np.eye(3))[None, :, :]
        star = elastic_star_matrices(inv_jac, np.array([LAM]), np.array([MU]), np.array([RHO]))
        np.testing.assert_allclose(star[0], 0.5 * elastic_jacobians(LAM, MU, RHO))

    def test_rotated_map_mixes_directions(self):
        # swap x and y axes: xi_1 = y, xi_2 = x
        inv_jac = np.array([[[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]])
        star = elastic_star_matrices(inv_jac, np.array([LAM]), np.array([MU]), np.array([RHO]))
        jac = elastic_jacobians(LAM, MU, RHO)
        np.testing.assert_allclose(star[0, 0], jac[1])
        np.testing.assert_allclose(star[0, 1], jac[0])


class TestWaveSpeeds:
    def test_roundtrip(self):
        vp, vs = wave_speeds(np.array([LAM]), np.array([MU]), np.array([RHO]))
        np.testing.assert_allclose(vp, np.sqrt((LAM + 2 * MU) / RHO))
        np.testing.assert_allclose(vs, np.sqrt(MU / RHO))
