"""Integration tests of the full ADER-DG update: plane-wave propagation,
convergence with order, steadiness and fused-mode equivalence."""

import numpy as np
import pytest

from repro.equations.material import ElasticMaterial, MaterialTable, ViscoelasticMaterial
from repro.kernels.discretization import Discretization
from repro.kernels.update import gts_step, local_update, neighbor_update
from repro.mesh.generation import box_mesh

RHO, VP, VS = 2700.0, 6000.0, 3464.0
LENGTH = 10000.0


def _mesh(n, jitter=0.0, seed=0):
    coords = np.linspace(0.0, LENGTH, n + 1)
    return box_mesh(coords, coords, coords, jitter=jitter, seed=seed, free_surface_top=False)


def _disc(n, order, jitter=0.0, flux="godunov", n_mechanisms=0, material=None):
    mesh = _mesh(n, jitter=jitter)
    material = material or ElasticMaterial(rho=RHO, vp=VP, vs=VS)
    table = MaterialTable.homogeneous(material, mesh.n_elements)
    return Discretization(mesh, table, order=order, n_mechanisms=n_mechanisms, flux=flux)


def _p_wave_packet(direction, width, center_offset):
    """Analytic compactly-supported plane P-wave packet q(x, t)."""
    direction = np.asarray(direction, dtype=np.float64)
    direction = direction / np.linalg.norm(direction)
    lam = RHO * (VP**2 - 2 * VS**2)
    mu = RHO * VS**2

    # eigenvector of the normal Jacobian for eigenvalue +vp: particle motion
    # along the propagation direction, stresses from Hooke's law
    def field(points, t):
        phase = points @ direction - VP * t - center_offset
        g = np.exp(-(phase**2) / (2.0 * width**2))
        out = np.zeros((len(points), 9))
        n = direction
        # velocity along n
        out[:, 6:9] = g[:, None] * n[None, :]
        # strain rate ~ -1/vp * n n^T g  ->  stress = -(lam tr + 2 mu) ... / vp
        nn = np.outer(n, n)
        sigma = -(lam * np.eye(3) + 2.0 * mu * nn) / VP
        out[:, 0] = g * sigma[0, 0]
        out[:, 1] = g * sigma[1, 1]
        out[:, 2] = g * sigma[2, 2]
        out[:, 3] = g * sigma[0, 1]
        out[:, 4] = g * sigma[1, 2]
        out[:, 5] = g * sigma[0, 2]
        return out

    return field


def _l2_error(disc, dofs, analytic, t):
    """L2 error of the DG solution against an analytic field at time t."""
    quad = disc.ref.volume_quadrature
    psi = disc.ref.basis.evaluate(quad.points)
    verts = disc.mesh.vertices[disc.mesh.elements]
    v0 = verts[:, 0]
    phys = v0[:, None, :] + np.einsum("kdr,qr->kqd", disc.mesh.geometry.jacobians, quad.points)
    numeric = np.einsum("kvb,qb->kqv", dofs[:, :9], psi)
    exact = analytic(phys.reshape(-1, 3), t).reshape(disc.n_elements, quad.n_points, 9)
    diff = numeric - exact
    err2 = np.einsum("q,kqv,kqv,k->", quad.weights, diff, diff, disc.mesh.geometry.determinants)
    norm2 = np.einsum("q,kqv,kqv,k->", quad.weights, exact, exact, disc.mesh.geometry.determinants)
    return np.sqrt(err2 / max(norm2, 1e-300))


def _run_gts(disc, dofs, dt, n_steps):
    for _ in range(n_steps):
        dofs = gts_step(disc, dofs, dt)
    return dofs


class TestSteadyStates:
    def test_constant_state_is_preserved(self):
        disc = _disc(2, order=3, jitter=0.1, flux="rusanov")
        dofs = disc.allocate_dofs()
        dofs[:, :, 0] = 5.0
        dt = 0.5 * disc.time_steps.min()
        new = gts_step(disc, dofs.copy(), dt)
        # the residual is a cancellation of terms of size ~ (lam + 2 mu) * dt *
        # |S|/|J|, so the achievable accuracy is machine epsilon times that scale
        scale = (RHO * VP**2) * dt * 1e-3
        np.testing.assert_allclose(new, dofs, atol=1e-12 * scale + 1e-12)

    def test_zero_state_stays_zero(self):
        disc = _disc(2, order=2, flux="godunov")
        dofs = disc.allocate_dofs()
        new = gts_step(disc, dofs, disc.time_steps.min())
        np.testing.assert_allclose(new, 0.0, atol=1e-14)


class TestPlaneWavePropagation:
    @pytest.mark.parametrize("flux", ["godunov", "rusanov"])
    def test_packet_advects_correctly(self, flux):
        """A P-wave packet propagated for a short time must match the analytic
        translation within a few percent at moderate resolution."""
        disc = _disc(3, order=4, flux=flux)
        analytic = _p_wave_packet([1.0, 0.0, 0.0], width=900.0, center_offset=0.5 * LENGTH)
        dofs = disc.project_initial_condition(lambda p: analytic(p, 0.0))
        dt = 0.4 * disc.time_steps.min()
        n_steps = 12
        dofs = _run_gts(disc, dofs, dt, n_steps)
        err = _l2_error(disc, dofs, analytic, n_steps * dt)
        assert err < 0.06, f"relative L2 error too large: {err}"

    def test_error_decreases_with_order(self):
        """Convergence with the approximation order (h fixed)."""
        analytic = _p_wave_packet([1.0, 1.0, 0.0], width=1200.0, center_offset=0.5 * LENGTH * np.sqrt(2))
        errors = {}
        for order in (2, 3, 4):
            disc = _disc(3, order=order, flux="godunov")
            dofs = disc.project_initial_condition(lambda p: analytic(p, 0.0))
            dt = 0.3 * disc.time_steps.min()
            n_steps = 8
            dofs = _run_gts(disc, dofs, dt, n_steps)
            errors[order] = _l2_error(disc, dofs, analytic, n_steps * dt)
        assert errors[3] < 0.6 * errors[2]
        assert errors[4] < 0.6 * errors[3]

    def test_error_decreases_with_mesh_refinement(self):
        analytic = _p_wave_packet([0.0, 0.0, 1.0], width=1400.0, center_offset=0.5 * LENGTH)
        errors = {}
        for n in (2, 4):
            disc = _disc(n, order=3, flux="godunov")
            dofs = disc.project_initial_condition(lambda p: analytic(p, 0.0))
            dt = 0.3 * disc.time_steps.min()
            n_steps = 6
            dofs = _run_gts(disc, dofs, dt, n_steps)
            errors[n] = _l2_error(disc, dofs, analytic, n_steps * dt)
        # third order scheme: halving h should reduce the error by ~8x; be lenient
        assert errors[4] < 0.35 * errors[2]


class TestFusedMode:
    def test_fused_step_matches_independent_runs(self):
        disc = _disc(2, order=3, jitter=0.05, flux="rusanov")
        rng = np.random.default_rng(0)
        a = 1e-3 * rng.normal(size=disc.allocate_dofs().shape)
        b = 1e-3 * rng.normal(size=disc.allocate_dofs().shape)
        fused = np.stack([a, b], axis=-1)
        dt = 0.5 * disc.time_steps.min()
        stepped_fused = gts_step(disc, fused, dt)
        stepped_a = gts_step(disc, a, dt)
        stepped_b = gts_step(disc, b, dt)
        np.testing.assert_allclose(stepped_fused[..., 0], stepped_a, rtol=1e-12, atol=1e-18)
        np.testing.assert_allclose(stepped_fused[..., 1], stepped_b, rtol=1e-12, atol=1e-18)


class TestViscoelasticUpdate:
    def test_memory_variables_are_excited_and_solution_stays_bounded(self):
        """Strong attenuation (Q = 5) must excite the memory variables while the
        solution stays bounded over a substantial run (an attenuation sign error
        shows up as exponential growth on this time scale)."""
        material = ViscoelasticMaterial(rho=RHO, vp=VP, vs=VS, qp=5.0, qs=5.0)
        disc_visco = _disc(2, order=3, flux="rusanov", n_mechanisms=3, material=material)
        analytic = _p_wave_packet([1.0, 0.0, 0.0], width=1500.0, center_offset=0.4 * LENGTH)

        dofs_v = disc_visco.project_initial_condition(lambda p: analytic(p, 0.0))
        dt = 0.4 * disc_visco.time_steps.min()
        n_steps = int(round(0.3 / dt))
        initial_velocity_max = np.max(np.abs(dofs_v[:, 6:9, :]))
        for _ in range(n_steps):
            dofs_v = gts_step(disc_visco, dofs_v, dt)

        assert np.max(np.abs(dofs_v[:, 9:, :])) > 0.0
        assert np.max(np.abs(dofs_v[:, 6:9, :])) < 2.0 * initial_velocity_max

    def test_nearly_elastic_limit_matches_elastic_run(self):
        """With very large quality factors the viscoelastic solver must
        reproduce the purely elastic solution (consistency of the coupling)."""
        material = ViscoelasticMaterial(rho=RHO, vp=VP, vs=VS, qp=1e7, qs=1e7)
        disc_visco = _disc(2, order=3, flux="rusanov", n_mechanisms=3, material=material)
        disc_elastic = _disc(2, order=3, flux="rusanov")
        analytic = _p_wave_packet([1.0, 0.0, 0.0], width=1500.0, center_offset=0.5 * LENGTH)

        dofs_v = disc_visco.project_initial_condition(lambda p: analytic(p, 0.0))
        dofs_e = disc_elastic.project_initial_condition(lambda p: analytic(p, 0.0))
        dt = 0.4 * disc_elastic.time_steps.min()
        for _ in range(8):
            dofs_v = gts_step(disc_visco, dofs_v, dt)
            dofs_e = gts_step(disc_elastic, dofs_e, dt)
        scale = np.max(np.abs(dofs_e[:, 6:9, :]))
        np.testing.assert_allclose(
            dofs_v[:, 6:9, :], dofs_e[:, 6:9, :], atol=1e-5 * scale
        )

    def test_viscoelastic_stability(self):
        """The viscoelastic update must remain bounded over many steps."""
        material = ViscoelasticMaterial(rho=RHO, vp=VP, vs=VS, qp=50.0, qs=25.0)
        disc = _disc(2, order=3, flux="rusanov", n_mechanisms=3, material=material)
        analytic = _p_wave_packet([1.0, 0.0, 0.0], width=1500.0, center_offset=0.5 * LENGTH)
        dofs = disc.project_initial_condition(lambda p: analytic(p, 0.0))
        initial_max = np.max(np.abs(dofs))
        dt = 0.4 * disc.time_steps.min()
        for _ in range(30):
            dofs = gts_step(disc, dofs, dt)
        assert np.max(np.abs(dofs)) < 5.0 * initial_max


class TestLocalNeighborSplit:
    def test_split_equals_full_step(self):
        """local_update + neighbor_update must reproduce gts_step exactly."""
        disc = _disc(2, order=3, jitter=0.1, flux="rusanov")
        rng = np.random.default_rng(1)
        dofs = 1e-3 * rng.normal(size=disc.allocate_dofs().shape)
        dt = 0.5 * disc.time_steps.min()
        all_elements = np.arange(disc.n_elements)

        delta, te = local_update(disc, dofs, dt, all_elements)
        safe = np.where(disc.mesh.neighbors >= 0, disc.mesh.neighbors, 0)
        delta += neighbor_update(disc, te[safe], te, all_elements)

        np.testing.assert_allclose(
            dofs + delta, gts_step(disc, dofs.copy(), dt), rtol=1e-12, atol=1e-18
        )
