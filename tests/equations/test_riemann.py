"""Unit tests for rotation matrices, upwind splits and flux solver matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equations.elastic import elastic_jacobians
from repro.equations.riemann import (
    absorbing_ghost_operator,
    anelastic_normal_jacobian,
    elastic_normal_jacobian,
    elastic_rotation_matrix,
    elastic_upwind_split,
    free_surface_ghost_operator,
    godunov_flux_matrices,
    rusanov_flux_matrices,
    stress_rotation_matrix,
    tangent_vectors,
)

LAM, MU, RHO = 2.08e10, 3.24e10, 2700.0


def _random_unit_vectors(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestRotations:
    def test_tangents_form_orthonormal_frame(self):
        normals = _random_unit_vectors(20)
        s, t = tangent_vectors(normals)
        np.testing.assert_allclose(np.einsum("nd,nd->n", normals, s), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("nd,nd->n", normals, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.einsum("nd,nd->n", s, t), 0.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(s, axis=1), 1.0)
        np.testing.assert_allclose(np.linalg.norm(t, axis=1), 1.0)

    def test_stress_rotation_matches_tensor_rotation(self):
        rng = np.random.default_rng(1)
        normals = _random_unit_vectors(5, seed=2)
        s, t = tangent_vectors(normals)
        rot = np.stack([normals, s, t], axis=-1)
        m = stress_rotation_matrix(rot)
        for i in range(5):
            sigma_vec = rng.normal(size=6)
            sigma = np.array(
                [
                    [sigma_vec[0], sigma_vec[3], sigma_vec[5]],
                    [sigma_vec[3], sigma_vec[1], sigma_vec[4]],
                    [sigma_vec[5], sigma_vec[4], sigma_vec[2]],
                ]
            )
            rotated = rot[i] @ sigma @ rot[i].T
            expected_vec = np.array(
                [rotated[0, 0], rotated[1, 1], rotated[2, 2], rotated[0, 1], rotated[1, 2], rotated[0, 2]]
            )
            np.testing.assert_allclose(m[i] @ sigma_vec, expected_vec, atol=1e-10)

    def test_rotation_matrix_inverse(self):
        normals = _random_unit_vectors(10, seed=3)
        t_mat, t_inv = elastic_rotation_matrix(normals)
        identity = np.einsum("nij,njk->nik", t_mat, t_inv)
        np.testing.assert_allclose(identity, np.broadcast_to(np.eye(9), (10, 9, 9)), atol=1e-12)

    def test_normal_jacobian_via_rotation(self):
        """T A_x T^{-1} must equal n_x A + n_y B + n_z C (isotropy)."""
        normals = _random_unit_vectors(6, seed=4)
        for n in normals:
            t_mat, t_inv = elastic_rotation_matrix(n)
            a1 = elastic_jacobians(LAM, MU, RHO)[0]
            rotated = t_mat @ a1 @ t_inv
            direct = elastic_normal_jacobian(LAM, MU, RHO, n)
            np.testing.assert_allclose(rotated, direct, rtol=1e-9, atol=1e-3)

    def test_normal_jacobian_is_the_direction_sum_bit_for_bit(self):
        """The closed-form fill equals ``sum_d n_d A_d`` as a summation gives
        it, down to the sign of every zero -- axis-aligned normals and
        signed-zero components included."""
        normals = np.concatenate([
            _random_unit_vectors(40, seed=5),
            [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0],
             [-0.0, -0.0, -1.0], [0.6, -0.8, -0.0]],
        ])
        lam, mu, rho = _random_materials(len(normals), 6)
        expected = np.einsum("...d,...dij->...ij", normals, elastic_jacobians(lam, mu, rho))
        actual = elastic_normal_jacobian(lam, mu, rho, normals)
        assert actual.tobytes() == expected.tobytes()
        # materials broadcast against a batch of normals
        actual = elastic_normal_jacobian(LAM, MU, RHO, normals)
        expected = np.einsum("...d,dij->...ij", normals, elastic_jacobians(LAM, MU, RHO))
        assert actual.tobytes() == expected.tobytes()


class TestUpwindSplit:
    def test_split_sums_to_jacobian(self):
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        np.testing.assert_allclose(plus + minus, elastic_jacobians(LAM, MU, RHO)[0], atol=1e-4)

    def test_split_signs(self):
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        assert np.all(np.real(np.linalg.eigvals(plus)) > -1e-6)
        assert np.all(np.real(np.linalg.eigvals(minus)) < 1e-6)


class TestFluxMatrices:
    @pytest.mark.parametrize("builder", [rusanov_flux_matrices, godunov_flux_matrices])
    def test_consistency_with_normal_jacobian(self, builder):
        """For equal states on both sides the numerical flux must reduce to the
        physical normal flux (consistency of the Riemann solver)."""
        normals = _random_unit_vectors(4, seed=5)
        rng = np.random.default_rng(6)
        for n in normals:
            g_local, g_neigh = builder(LAM, MU, RHO, LAM, MU, RHO, n)
            an = elastic_normal_jacobian(LAM, MU, RHO, n)
            q = rng.normal(size=9)
            np.testing.assert_allclose(
                g_local @ q + g_neigh @ q, an @ q, rtol=1e-8, atol=1e-3 * np.abs(an @ q).max()
            )

    def test_godunov_equals_upwind_for_1d(self):
        n = np.array([1.0, 0.0, 0.0])
        g_local, g_neigh = godunov_flux_matrices(LAM, MU, RHO, LAM, MU, RHO, n)
        plus, minus = elastic_upwind_split(LAM, MU, RHO)
        np.testing.assert_allclose(g_local, plus, atol=1e-4)
        np.testing.assert_allclose(g_neigh, minus, atol=1e-4)

    def test_rusanov_is_dissipative(self):
        """The Rusanov local matrix minus half the normal Jacobian is positive
        semi-definite (s/2 I)."""
        n = np.array([0.0, 0.0, 1.0])
        g_local, g_neigh = rusanov_flux_matrices(LAM, MU, RHO, LAM, MU, RHO, n)
        an = elastic_normal_jacobian(LAM, MU, RHO, n)
        vp = np.sqrt((LAM + 2 * MU) / RHO)
        np.testing.assert_allclose(g_local - 0.5 * an, 0.5 * vp * np.eye(9), atol=1e-6)
        np.testing.assert_allclose(g_neigh - 0.5 * an, -0.5 * vp * np.eye(9), atol=1e-6)

    def test_anelastic_normal_jacobian_shape(self):
        normals = _random_unit_vectors(7, seed=8)
        an = anelastic_normal_jacobian(normals)
        assert an.shape == (7, 6, 9)
        np.testing.assert_array_equal(an[..., :6], 0.0)


class TestGhostOperators:
    def test_absorbing_is_identity(self):
        np.testing.assert_array_equal(absorbing_ghost_operator(np.array([0, 0, 1.0])), np.eye(9))

    @given(seed=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_free_surface_is_involution(self, seed):
        n = _random_unit_vectors(1, seed=seed)[0]
        g = free_surface_ghost_operator(n)
        np.testing.assert_allclose(g @ g, np.eye(9), atol=1e-10)

    def test_free_surface_cancels_traction(self):
        """The average of interior and ghost state has zero traction."""
        n = _random_unit_vectors(1, seed=3)[0]
        g = free_surface_ghost_operator(n)
        rng = np.random.default_rng(0)
        q = rng.normal(size=9)
        avg = 0.5 * (q + g @ q)
        sigma = np.array(
            [
                [avg[0], avg[3], avg[5]],
                [avg[3], avg[1], avg[4]],
                [avg[5], avg[4], avg[2]],
            ]
        )
        traction = sigma @ n
        np.testing.assert_allclose(traction, 0.0, atol=1e-10)

    def test_free_surface_keeps_velocities(self):
        n = np.array([0.0, 0.0, 1.0])
        g = free_surface_ghost_operator(n)
        q = np.zeros(9)
        q[6:] = [1.0, 2.0, 3.0]
        np.testing.assert_allclose((g @ q)[6:], [1.0, 2.0, 3.0], atol=1e-12)


def _random_materials(n, seed):
    """``(lam, mu, rho)`` arrays of plausible rock, a few values repeated."""
    rng = np.random.default_rng(seed)
    rho = rng.uniform(1800.0, 3200.0, size=n)
    vs = rng.uniform(500.0, 4000.0, size=n)
    vp = vs * rng.uniform(1.5, 2.0, size=n)
    mu = rho * vs**2
    lam = rho * vp**2 - 2.0 * mu
    repeat = rng.integers(0, n, size=n // 3)
    for array in (lam, mu, rho):
        array[repeat] = array[0]
    return lam, mu, rho


class TestBatchInvariance:
    """Every builder takes leading batch dimensions, and a batched call is
    bit-identical to the per-face loop of scalar calls it replaced."""

    @staticmethod
    def _assert_flux_batch_equals_loop(builder, local, neigh, normals):
        g_local, g_neigh = builder(*local, *neigh, normals)
        assert g_local.shape == g_neigh.shape == normals.shape[:-1] + (9, 9)
        for f in np.ndindex(normals.shape[:-1]):
            one_local, one_neigh = builder(
                *(a[f] for a in local), *(a[f] for a in neigh), normals[f]
            )
            assert one_local.shape == (9, 9)
            assert np.array_equal(g_local[f], one_local), f
            assert np.array_equal(g_neigh[f], one_neigh), f

    @pytest.mark.parametrize("builder", [rusanov_flux_matrices, godunov_flux_matrices])
    def test_flux_matrices_flat_batch(self, builder):
        normals = _random_unit_vectors(40, seed=11)
        self._assert_flux_batch_equals_loop(
            builder, _random_materials(40, 12), _random_materials(40, 13), normals
        )

    @pytest.mark.parametrize("builder", [rusanov_flux_matrices, godunov_flux_matrices])
    def test_flux_matrices_element_face_batch_with_broadcast_local(self, builder):
        """The assembly's call shape: ``(K, 1)`` own materials against
        ``(K, 4)`` neighbour materials and ``(K, 4, 3)`` normals."""
        normals = _random_unit_vectors(24, seed=14).reshape(6, 4, 3)
        local = tuple(a[:, None] for a in _random_materials(6, 15))
        neigh = tuple(a.reshape(6, 4) for a in _random_materials(24, 16))
        g_local, g_neigh = builder(*local, *neigh, normals)
        for k in range(6):
            for i in range(4):
                one_local, one_neigh = builder(
                    *(a[k, 0] for a in local), *(a[k, i] for a in neigh), normals[k, i]
                )
                assert np.array_equal(g_local[k, i], one_local)
                assert np.array_equal(g_neigh[k, i], one_neigh)

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_flux_matrices_random_normals_and_materials(self, seed, n):
        normals = _random_unit_vectors(n, seed=seed)
        local, neigh = _random_materials(n, seed + 1), _random_materials(n, seed + 2)
        for builder in (rusanov_flux_matrices, godunov_flux_matrices):
            self._assert_flux_batch_equals_loop(builder, local, neigh, normals)

    def test_jacobians_and_upwind_split(self):
        lam, mu, rho = _random_materials(15, 17)
        normals = _random_unit_vectors(15, seed=18)
        jac = elastic_jacobians(lam, mu, rho)
        an = elastic_normal_jacobian(lam, mu, rho, normals)
        an_a = anelastic_normal_jacobian(normals)
        plus, minus = elastic_upwind_split(lam, mu, rho)
        for f in range(15):
            assert np.array_equal(jac[f], elastic_jacobians(lam[f], mu[f], rho[f]))
            assert np.array_equal(an[f], elastic_normal_jacobian(lam[f], mu[f], rho[f], normals[f]))
            assert np.array_equal(an_a[f], anelastic_normal_jacobian(normals[f]))
            one_plus, one_minus = elastic_upwind_split(lam[f], mu[f], rho[f])
            assert np.array_equal(plus[f], one_plus)
            assert np.array_equal(minus[f], one_minus)

    def test_upwind_split_decomposes_each_distinct_material_once(self, monkeypatch):
        decomposed = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda a: decomposed.append(len(a)) or eig(a))
        lam, mu, rho = (np.array([v, v * 2, v, v, v * 2]) for v in (LAM, MU, RHO))
        plus, _ = elastic_upwind_split(lam, mu, rho)
        assert decomposed == [2]
        assert np.array_equal(plus[0], plus[2]) and np.array_equal(plus[1], plus[4])

    def test_free_surface_ghost_operator(self):
        normals = _random_unit_vectors(12, seed=19).reshape(3, 4, 3)
        ghost = free_surface_ghost_operator(normals)
        assert ghost.shape == (3, 4, 9, 9)
        for f in np.ndindex(3, 4):
            assert np.array_equal(ghost[f], free_surface_ghost_operator(normals[f]))
