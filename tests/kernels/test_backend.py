"""Kernel-execution backend tests.

The contract of the backend layer:

* ``OptimizedBackend`` at f64 is **bit-identical** to ``ReferenceBackend``
  -- per kernel, per GTS step, over clustered-LTS cycles (workspaces reused
  across micro steps), in fused mode, and through the scenario runner;
* an f32 discretization runs in single precision end to end (DOFs, buffers,
  seismograms) and matches the f64 result within a documented tolerance;
* the optimized backend's structure assumptions are verified per
  discretization (dense fallback otherwise), and its einsum-plan cache only
  engages where bit-exactness is not contractual (f32).
"""

import numpy as np
import pytest

from repro.core.clustering import derive_clustering
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_solver import ClusteredLtsSolver
from repro.kernels.backend import (
    KernelWorkspace,
    OptimizedBackend,
    ReferenceBackend,
    make_backend,
)
from repro.kernels.ader import compute_time_derivatives, time_integrate
from repro.kernels.discretization import Discretization, N_ELASTIC
from repro.kernels.update import gts_step

from .conftest import small_mesh
from repro.equations.material import MaterialTable, ViscoelasticMaterial


def _random_dofs(disc, n_fused=0, seed=0):
    rng = np.random.default_rng(seed)
    shape = (disc.n_elements, disc.n_vars, disc.n_basis)
    if n_fused:
        shape += (n_fused,)
    return rng.standard_normal(shape)


class TestMakeBackend:
    def test_resolution(self):
        assert isinstance(make_backend("ref"), ReferenceBackend)
        assert isinstance(make_backend("opt"), OptimizedBackend)
        backend = OptimizedBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError):
            make_backend("vectorized")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert make_backend(None).name == "ref"
        monkeypatch.setenv("REPRO_KERNELS", "opt")
        assert make_backend(None).name == "opt"


class TestKernelParity:
    """Per-kernel bitwise parity of the optimized backend at f64."""

    @pytest.fixture(scope="class", params=["elastic", "viscoelastic"])
    def disc(self, request):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        n_mechanisms = 3 if request.param == "viscoelastic" else 0
        return Discretization(mesh, table, order=4, n_mechanisms=n_mechanisms)

    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_local_update_bitwise(self, disc, n_fused):
        ref, opt = ReferenceBackend(), OptimizedBackend()
        ws = opt.make_workspace()
        dofs = _random_dofs(disc, n_fused)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        derivs_r = ref.compute_time_derivatives(disc, dofs, elements)
        derivs_o = opt.compute_time_derivatives(disc, dofs, elements, ws=ws)
        for d_r, d_o in zip(derivs_r, derivs_o):
            assert np.array_equal(d_o, d_r)
        result_r = ref.local_update(disc, dofs, dt, elements, needs_half=True)
        result_o = opt.local_update(disc, dofs, dt, elements, ws=ws, needs_half=True)
        for name, r, o in zip(("delta", "integral", "half", "traces"), result_r, result_o):
            assert np.array_equal(o, r), name
        assert result_r[1].shape[1] == N_ELASTIC  # only the elastic rows leave
        assert ref.local_update(disc, dofs, dt, elements)[2] is None

    @pytest.mark.parametrize("kind", ["ref", "opt"])
    def test_half_integral_is_the_buffer_fill_integration(self, disc, kind):
        """``needs_half`` returns exactly what ``LtsBuffers.fill`` used to
        integrate itself: the elastic derivative slices over [0, dt / 2]."""
        backend = make_backend(kind)
        dofs = _random_dofs(disc, seed=4)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        derivatives = compute_time_derivatives(disc, dofs, elements)
        expected = time_integrate([d[:, :N_ELASTIC] for d in derivatives], 0.0, 0.5 * dt)
        _, integral, half, _ = backend.local_update(
            disc, dofs, dt, elements, ws=backend.make_workspace(), needs_half=True
        )
        assert np.array_equal(half, expected)
        full = time_integrate(derivatives, 0.0, dt)[:, :N_ELASTIC]
        assert np.array_equal(integral, full)

    def test_batch_subsets_match_full_batch(self, disc):
        """Splitting a batch (the distributed boundary/interior split) is
        bit-identical per element, including reused workspace scratch."""
        opt = OptimizedBackend()
        ws = opt.make_workspace()
        dofs = _random_dofs(disc)
        dt = float(disc.time_steps.min())
        full = np.arange(disc.n_elements)
        delta_full, _, _, _ = opt.local_update(disc, dofs, dt, full, ws=ws)
        delta_full = delta_full.copy()
        halves = (full[: disc.n_elements // 2], full[disc.n_elements // 2 :])
        for subset in halves:
            delta_sub, _, _, _ = opt.local_update(disc, dofs, dt, subset, ws=ws)
            assert np.array_equal(delta_sub, delta_full[subset])

    def test_neighbor_path_bitwise(self, disc):
        ref, opt = ReferenceBackend(), OptimizedBackend()
        ws = opt.make_workspace()
        dofs = _random_dofs(disc, seed=3)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        _, te, _, _ = ref.local_update(disc, dofs, dt, elements)
        neighbor_te = te[np.maximum(disc.mesh.neighbors, 0)]
        traces_r = ref.project_local_traces(disc, te, elements)
        traces_o = opt.project_local_traces(disc, te, elements, ws=ws)
        assert np.array_equal(traces_o, traces_r)
        coeffs_r = ref.neighbor_face_coefficients(disc, neighbor_te, traces_r, elements)
        coeffs_o = opt.neighbor_face_coefficients(disc, neighbor_te, traces_o, elements, ws=ws)
        assert np.array_equal(coeffs_o, coeffs_r)
        out_r = ref.surface_kernel_neighbor(disc, coeffs_r, elements)
        out_o = opt.surface_kernel_neighbor(disc, coeffs_o, elements, ws=ws)
        assert np.array_equal(out_o, out_r)

    def test_gts_step_bitwise(self, disc):
        dofs = _random_dofs(disc, seed=1)
        dt = float(disc.time_steps.min())
        stepped_ref = gts_step(disc, dofs, dt)
        ws = KernelWorkspace()
        opt = OptimizedBackend()
        stepped_opt = gts_step(disc, dofs, dt, backend=opt, ws=ws)
        assert np.array_equal(stepped_opt, stepped_ref)
        # repeat on the same workspace: scratch reuse must not leak state
        assert np.array_equal(gts_step(disc, dofs, dt, backend=opt, ws=ws), stepped_ref)

    def test_structure_verified_per_discretization(self, disc):
        opt = OptimizedBackend()
        data = opt._disc_data(disc)
        assert data.star_e_blocks  # elastic star matrices are block-off-diagonal
        if disc.n_mechanisms:
            assert data.star_a_velocity and data.coupling_stress and data.flux_a_velocity

    def test_dense_fallback_when_structure_absent(self, disc):
        """A (hypothetical) operator set violating the zero-block assumptions
        must route through the dense contractions and still match."""
        mesh = small_mesh(n=1, jitter=0.05)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        dense = Discretization(mesh, table, order=3, n_mechanisms=3)
        rng = np.random.default_rng(7)
        dense.star_elastic = dense.star_elastic + 1e-3 * rng.standard_normal(
            dense.star_elastic.shape
        )
        dense.star_anelastic = dense.star_anelastic + 1e-3 * rng.standard_normal(
            dense.star_anelastic.shape
        )
        opt = OptimizedBackend()
        assert not opt._disc_data(dense).star_e_blocks
        dofs = _random_dofs(dense, seed=5)
        elements = np.arange(dense.n_elements)
        dt = float(dense.time_steps.min())
        delta_r, ti_r, _, _ = ReferenceBackend().local_update(dense, dofs, dt, elements)
        delta_o, ti_o, _, _ = opt.local_update(dense, dofs, dt, elements, ws=opt.make_workspace())
        assert np.array_equal(ti_o, ti_r)
        assert np.array_equal(delta_o, delta_r)


class TestSolverParity:
    """Bitwise parity over full solver runs (workspaces reused across steps)."""

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=3, jitter=0.25, seed=2)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return disc, clustering

    def test_clustered_lts_cycles_bitwise(self, graded):
        disc, clustering = graded
        ic = lambda points: np.exp(
            -np.sum((points - points.mean(axis=0)) ** 2, axis=1, keepdims=True)
            / (2 * 500.0**2)
        ) * np.ones((1, 9))
        solvers = {}
        for kind in ("ref", "opt"):
            solver = ClusteredLtsSolver(disc, clustering, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step_cycle()
            solvers[kind] = solver
        assert np.array_equal(solvers["opt"].dofs, solvers["ref"].dofs)
        for name in ("b1", "b2", "b3"):
            assert np.array_equal(
                getattr(solvers["opt"].buffers, name), getattr(solvers["ref"].buffers, name)
            )

    def test_gts_solver_bitwise(self, graded):
        disc, _ = graded
        ic = lambda points: np.ones((len(points), 9)) * np.sin(points[:, :1] / 300.0)
        solvers = {}
        for kind in ("ref", "opt"):
            solver = GlobalTimeSteppingSolver(disc, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step()
            solvers[kind] = solver
        assert np.array_equal(solvers["opt"].dofs, solvers["ref"].dofs)


class TestPrecision:
    def test_f32_discretization_end_to_end(self):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3, precision="f32")
        assert disc.dtype == np.float32
        for name in ("star_elastic", "coupling", "flux_local_elastic",
                     "neighbor_flux_matrices", "omegas", "k_time", "k_vol",
                     "ftilde", "fhat"):
            assert getattr(disc, name).dtype == np.float32, name
        assert disc.allocate_dofs().dtype == np.float32
        assert disc.time_steps.dtype == np.float64  # time arithmetic stays f64

    def test_projection_and_sampling_stay_f32(self):
        """The satellite fix: initial-condition projection and receiver
        sampling must not silently upcast f32 state to f64."""
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3, precision="f32")
        ic = lambda points: np.ones((len(points), 9))
        coeffs = disc.project_initial_condition(ic)
        assert coeffs.dtype == np.float32
        assert disc.project_initial_condition(ic, n_fused=2).dtype == np.float32
        sampled = disc.evaluate_at_points(
            coeffs, np.array([0]), np.array([[0.25, 0.25, 0.25]])
        )
        assert sampled.dtype == np.float32

    def test_invalid_precision_rejected(self):
        mesh = small_mesh(n=1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        with pytest.raises(ValueError, match="precision"):
            Discretization(mesh, table, order=2, precision="f16")

    @pytest.mark.parametrize("kind", ["ref", "opt"])
    def test_f32_solver_tracks_f64_within_tolerance(self, kind):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        results = {}
        for precision in ("f64", "f32"):
            disc = Discretization(mesh, table, order=3, n_mechanisms=3, precision=precision)
            clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
            solver = ClusteredLtsSolver(disc, clustering, kernels=kind)
            solver.set_initial_condition(
                lambda points: np.ones((len(points), 9)) * np.cos(points[:, :1] / 400.0)
            )
            for _ in range(2):
                solver.step_cycle()
            results[precision] = solver.dofs
        assert results["f32"].dtype == np.float32
        scale = np.abs(results["f64"]).max()
        err = np.abs(results["f32"].astype(np.float64) - results["f64"]).max()
        # a handful of LTS cycles at order 3 accumulates O(100) f32 roundings
        assert err <= 1e-4 * scale

    def test_plan_cache_engages_only_for_f32(self):
        opt = OptimizedBackend()
        a64, b64 = np.ones((4, 5)), np.ones((5, 3))
        opt._einsum("ij,jk->ik", a64, b64)
        assert not opt._plans  # f64 stays on the bit-exact kernel
        opt._einsum("ij,jk->ik", a64.astype(np.float32), b64.astype(np.float32))
        assert len(opt._plans) == 1
