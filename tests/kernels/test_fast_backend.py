"""Fast (tolerance-equal) kernel backend tests.

The contract of ``FastBackend``: same math as the reference, arbitrary
reassociation.  Results must track the reference within a few ULPs per
kernel call (the per-kernel checks below) and within the verification
tolerance ladder over whole runs (tests/verification/).  Bit-identity with
the reference is explicitly NOT promised.  What *is* bitwise is the backend
against itself: every contraction is per element, so how ``local_update``
cuts a batch into cache-sized blocks (or which batch an element is part of)
does not change a single bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import derive_clustering
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_solver import ClusteredLtsSolver
from repro.equations.material import MaterialTable, ViscoelasticMaterial
from repro.kernels import backend as backend_module
from repro.kernels.ader import compute_time_derivatives
from repro.kernels.backend import FastBackend, ReferenceBackend, make_backend
from repro.kernels.discretization import Discretization, N_ELASTIC
from repro.kernels.volume import volume_kernel
from repro.scenarios import get_scenario, make_runner

from .conftest import small_mesh


def _disc(order=4, n_mechanisms=3, n=2, precision="f64"):
    mesh = small_mesh(n=n, jitter=0.1)
    material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
    table = MaterialTable.homogeneous(material, mesh.n_elements)
    return Discretization(
        mesh, table, order=order, n_mechanisms=n_mechanisms, precision=precision
    )


def _random_dofs(disc, n_fused=0, seed=0):
    rng = np.random.default_rng(seed)
    shape = (disc.n_elements, disc.n_vars, disc.n_basis)
    if n_fused:
        shape += (n_fused,)
    return rng.standard_normal(shape).astype(disc.dtype)


def _assert_close(actual, expected, rtol=1e-12, name=""):
    scale = np.abs(expected).max()
    err = np.abs(np.asarray(actual) - np.asarray(expected)).max()
    assert err <= rtol * scale, f"{name}: rel err {err / scale:.3e} > {rtol:.0e}"


def _set_block_elements(monkeypatch, disc, dofs, n_elements):
    """Make ``FastBackend.local_update`` cut blocks of ``n_elements``."""
    per_element = disc.order * int(np.prod(dofs.shape[1:])) * dofs.itemsize
    monkeypatch.setattr(backend_module, "_BLOCK_STACK_BYTES", n_elements * per_element)


def _local_update_copy(backend, disc, dofs, elements, needs_half=True):
    dt = float(disc.time_steps.min())
    result = backend.local_update(
        disc, dofs, dt, elements, ws=backend.make_workspace(), needs_half=needs_half
    )
    return [None if array is None else array.copy() for array in result]


class TestResolution:
    def test_make_backend(self):
        assert isinstance(make_backend("fast"), FastBackend)
        assert make_backend("fast").name == "fast"
        backend = FastBackend()
        assert make_backend(backend) is backend
        # FastBackend is a ReferenceBackend: it runs the shared local_update
        # pipeline once per element block
        assert isinstance(backend, ReferenceBackend)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS", "fast")
        assert make_backend(None).name == "fast"


class TestKernelToleranceParity:
    """Per call: fast output within 1e-12 of the reference, orders 2-5."""

    @pytest.fixture(
        scope="class", params=[(o, m) for o in (2, 3, 4, 5) for m in (0, 3)],
        ids=lambda p: f"O{p[0]}-m{p[1]}",
    )
    def disc(self, request):
        order, n_mechanisms = request.param
        return _disc(order, n_mechanisms)

    @pytest.mark.parametrize("n_fused", [0, 2, 8])
    def test_local_update(self, disc, n_fused):
        dofs = _random_dofs(disc, n_fused)
        elements = np.arange(disc.n_elements)
        expected = _local_update_copy(ReferenceBackend(), disc, dofs, elements)
        actual = _local_update_copy(FastBackend(), disc, dofs, elements)
        for name, a, e in zip(("delta", "integral", "half", "traces"), actual, expected):
            _assert_close(a, e, name=name)
        assert FastBackend().local_update(disc, dofs, 1e-3, elements)[2] is None

    def test_stage_methods_keep_the_reference_shapes(self, disc):
        """The stages stay callable the way the harness substitutes them."""
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=2)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        derivs_r = ref.compute_time_derivatives(disc, dofs, elements)
        derivs_f = fast.compute_time_derivatives(disc, dofs, elements, ws=ws)
        assert len(derivs_f) == len(derivs_r) == disc.order
        for d, (d_r, d_f) in enumerate(zip(derivs_r, derivs_f)):
            _assert_close(d_f, d_r, name=f"derivative {d}")
        ti_r = ref.time_integrate(derivs_r, 0.25 * dt, dt)
        _assert_close(fast.time_integrate(derivs_f, 0.25 * dt, dt, ws=ws), ti_r, name="ti")
        # a plain list of row slices (what the buffer tests integrate) works too
        sliced = fast.time_integrate([d[:, :N_ELASTIC] for d in derivs_r], 0.25 * dt, dt)
        _assert_close(sliced, ti_r[:, :N_ELASTIC], name="ti of slices")
        with pytest.raises(ValueError):
            fast.time_integrate(derivs_f, dt, 0.0)
        _assert_close(
            fast.volume_kernel(disc, ti_r, elements, ws=ws),
            ref.volume_kernel(disc, ti_r, elements),
            name="volume",
        )

    def test_surface_kernel_local(self, disc):
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=4)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        ti = ref.time_integrate(ref.compute_time_derivatives(disc, dofs, elements), 0.0, dt)
        traces = ref.project_local_traces(disc, ti[:, :N_ELASTIC], elements)
        expected = ref.surface_kernel_local(disc, ti, elements, traces)
        _assert_close(
            fast.surface_kernel_local(disc, ti, elements, traces, ws=ws), expected, name="local"
        )
        # without traces the kernel projects them itself
        _assert_close(
            fast.surface_kernel_local(disc, ti, elements, None, ws=ws),
            expected,
            name="local, own traces",
        )

    def test_neighbor_path(self, disc):
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=3)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        _, te, _, _ = ref.local_update(disc, dofs, dt, elements)
        neighbor_te = te[np.maximum(disc.mesh.neighbors, 0)]
        traces_r = ref.project_local_traces(disc, te, elements)
        traces_f = fast.project_local_traces(disc, te, elements, ws=ws)
        _assert_close(traces_f, traces_r, name="traces")
        coeffs_r = ref.neighbor_face_coefficients(disc, neighbor_te, traces_r, elements)
        coeffs_f = fast.neighbor_face_coefficients(disc, neighbor_te, traces_r, elements, ws=ws)
        _assert_close(coeffs_f, coeffs_r, name="coefficients")
        out_r = ref.surface_kernel_neighbor(disc, coeffs_r, elements)
        out_f = fast.surface_kernel_neighbor(disc, coeffs_r, elements, ws=ws)
        _assert_close(out_f, out_r, name="neighbor surface")


class TestOtherTiers:
    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_f32_call_tracks_the_f64_reference(self, n_fused):
        """The f32 tier: one call stays within single-precision roundoff."""
        disc64, disc32 = _disc(order=3), _disc(order=3, precision="f32")
        dofs = _random_dofs(disc64, n_fused, seed=6)
        elements = np.arange(disc64.n_elements)
        expected = _local_update_copy(ReferenceBackend(), disc64, dofs, elements)
        actual = _local_update_copy(FastBackend(), disc32, dofs.astype(np.float32), elements)
        for name, a, e in zip(("delta", "integral", "half", "traces"), actual, expected):
            assert a.dtype == np.float32
            _assert_close(a, e, rtol=1e-5, name=name)

    @pytest.mark.parametrize("perturbed", ["star_elastic", "star_anelastic", "coupling"])
    def test_dense_fallback_when_structure_absent(self, perturbed):
        """A (hypothetical) operator set violating a zero-block assumption
        runs the dense stacked operator through the same lines."""
        dense = _disc(order=3, n=1)
        rng = np.random.default_rng(7)
        operator = getattr(dense, perturbed)
        setattr(dense, perturbed, operator + 1e-3 * rng.standard_normal(operator.shape))
        fast = FastBackend()
        data = fast._disc_data(dense)
        assert not (data.star_e_blocks and data.star_a_velocity and data.coupling_stress)
        dofs = _random_dofs(dense, seed=5)
        elements = np.arange(dense.n_elements)
        expected = _local_update_copy(ReferenceBackend(), dense, dofs, elements)
        actual = _local_update_copy(fast, dense, dofs, elements)
        for name, a, e in zip(("delta", "integral", "half", "traces"), actual, expected):
            _assert_close(a, e, name=f"{name} ({perturbed} dense)")


class TestStackedOperators:
    """The stacked-operator machinery behind the fast time/volume kernels."""

    @pytest.fixture(scope="class")
    def disc(self):
        return _disc(order=4)

    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    def test_structure_verified_per_discretization(self, n_mechanisms):
        data = FastBackend()._disc_data(_disc(order=3, n_mechanisms=n_mechanisms, n=1))
        assert data.star_e_blocks  # elastic star matrices are block-off-diagonal
        if n_mechanisms:
            assert data.star_a_velocity and data.coupling_stress and data.flux_a_velocity

    def test_bmm_folds_fused_axis(self):
        rng = np.random.default_rng(11)
        matrices = rng.standard_normal((6, 9, 9))
        operand = rng.standard_normal((6, 9, 20, 4))
        out = np.empty((6, 9, 20, 4))
        FastBackend._bmm(matrices, operand, out)
        expected = np.einsum("eij,ejbf->eibf", matrices, operand)
        _assert_close(out, expected, name="bmm fold")

    def test_stiffness_operands_keep_every_significant_entry(self, disc):
        """``kcat_time``/``kcat_vol`` are the three stiffness matrices side
        by side, cut to the block differentiation can populate or read; what
        is cut is assembly roundoff in structural zeros."""
        data = FastBackend()._disc_data(disc)
        n_basis, n_lower = disc.n_basis, 10  # n_basis(order - 1) at order 4
        assert data.kcat_time.shape == (n_basis, 3 * n_lower)
        assert data.kcat_vol.shape == (n_lower, 3 * n_basis)
        for c in range(3):
            np.testing.assert_array_equal(
                data.kcat_time[:, c * n_lower : (c + 1) * n_lower], -disc.k_time[c][:, :n_lower]
            )
            np.testing.assert_array_equal(
                data.kcat_vol[:, c * n_basis : (c + 1) * n_basis], disc.k_vol[c][:n_lower]
            )
        assert np.abs(disc.k_time[:, :, n_lower:]).max() < 1e-12 * np.abs(disc.k_time).max()
        assert np.abs(disc.k_vol[:, n_lower:]).max() < 1e-12 * np.abs(disc.k_vol).max()

    @pytest.mark.parametrize("n_fused", [0, 4])
    def test_one_space_operator_is_both_kernels(self, disc, n_fused):
        """With ``kcat_vol`` the stacked operator is the volume kernel, with
        ``kcat_time`` one Cauchy-Kovalewski derivative."""
        fast = FastBackend()
        data = fast._disc_data(disc)
        x = _random_dofs(disc, n_fused, seed=13)
        elements = np.arange(disc.n_elements)
        y = np.empty_like(x)
        fast._space_operator(disc, data.kcat_vol, x, y, elements, None)
        _assert_close(y, volume_kernel(disc, x, elements), name="volume")
        fast._space_operator(disc, data.kcat_time, x, y, elements, None)
        _assert_close(y, compute_time_derivatives(disc, x, elements)[1], name="derivative")

    @pytest.mark.parametrize("n_fused", [0, 3])
    def test_flux_project_matches_reference_einsum(self, disc, n_fused):
        fast = FastBackend()
        data = fast._disc_data(disc)
        rng = np.random.default_rng(14)
        E, F = disc.n_elements, disc.n_face_basis
        fused = (n_fused,) if n_fused else ()
        flux = rng.standard_normal((E, 4, N_ELASTIC, N_ELASTIC))
        coeffs = rng.standard_normal((E, 4, N_ELASTIC, F) + fused)
        # a row slice of a wider array, like the kernels' elastic rows
        out = np.empty((E, disc.n_vars, disc.n_basis) + fused)[:, :N_ELASTIC]
        fast._flux_project(data, flux, coeffs, out, fast.make_workspace(), "t")
        expected = np.einsum("eivw,eiwg...,igb->evb...", flux, coeffs, disc.fhat)
        _assert_close(out, expected, name="flux solve + back-projection")

    def test_fused_and_scalar_slices_agree(self, disc):
        """Fused kernels vs the same backend run slot by slot: the fused
        axis only adds GEMM columns."""
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused=4, seed=15)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        delta_fused, ti_fused, _, _ = fast.local_update(disc, dofs, dt, elements, ws=ws)
        # the scalar calls below reuse (and overwrite) the same named scratch
        delta_fused, ti_fused = delta_fused.copy(), ti_fused.copy()
        for f in range(4):
            delta_f, ti_f, _, _ = fast.local_update(
                disc, np.ascontiguousarray(dofs[..., f]), dt, elements, ws=ws
            )
            _assert_close(delta_fused[..., f], delta_f, rtol=1e-11, name=f"slot {f}")
            _assert_close(ti_fused[..., f], ti_f, rtol=1e-11, name=f"ti slot {f}")


class TestCacheBlocking:
    """``local_update`` walks a batch in blocks; nothing may depend on it."""

    BLOCK = 5

    @pytest.fixture(scope="class")
    def disc(self):
        return _disc(order=4)  # 48 elements

    @pytest.mark.parametrize("n_fused", [0, 1, 2, 16])
    @pytest.mark.parametrize("n_elements", [1, 3, 5, 13], ids=lambda n: f"E{n}")
    @pytest.mark.parametrize("kind", ["slice", "index"])
    def test_blocked_equals_unblocked_bitwise(self, monkeypatch, disc, n_fused, n_elements, kind):
        """E = 1, E < block, E == block and E = 2 blocks + 3."""
        dofs = _random_dofs(disc, n_fused, seed=21)
        if kind == "slice":
            elements = slice(2, 2 + n_elements)
        else:
            elements = np.random.default_rng(n_elements).permutation(disc.n_elements)[:n_elements]
        _set_block_elements(monkeypatch, disc, dofs, disc.n_elements)
        unblocked = _local_update_copy(FastBackend(), disc, dofs, elements)
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)
        fast = FastBackend()
        n, blocks = fast._block_plan(disc, dofs, elements, None)
        assert n == n_elements and len(blocks) == -(-n_elements // self.BLOCK)
        blocked = _local_update_copy(fast, disc, dofs, elements)
        for name, b, u in zip(("delta", "integral", "half", "traces"), blocked, unblocked):
            assert np.array_equal(b, u), name

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_subset_matches_the_full_batch_bitwise(self, disc, data):
        """Unlike the parent's whole-batch GEMMs, an element's update does
        not depend on which batch (or block) it is computed in -- the
        distributed boundary/interior split is exact on ``fast`` too."""
        subset = np.array(
            data.draw(
                st.lists(
                    st.integers(0, disc.n_elements - 1), min_size=1, max_size=17, unique=True
                )
            )
        )
        dofs = _random_dofs(disc, seed=22)
        with pytest.MonkeyPatch.context() as patch:  # per example, not per test
            _set_block_elements(patch, disc, dofs, self.BLOCK)
            full = _local_update_copy(FastBackend(), disc, dofs, np.arange(disc.n_elements))
            part = _local_update_copy(FastBackend(), disc, dofs, subset)
        for name, p, f in zip(("delta", "integral", "half", "traces"), part, full):
            assert np.array_equal(p, f[subset]), name

    def test_partial_block_shares_the_block_scratch(self, monkeypatch, disc):
        """2 blocks + 3 elements: every block-level scratch array is
        allocated once, at block size; the remainder is a leading view."""
        dofs = _random_dofs(disc, seed=23)
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)
        fast = FastBackend()
        ws = fast.make_workspace()
        n = 2 * self.BLOCK + 3
        fast.local_update(
            disc, dofs, float(disc.time_steps.min()), np.arange(n), ws=ws, needs_half=True
        )
        per_element = disc.n_vars * disc.n_basis
        sizes = {name: pool.size for (name, _), pool in ws._pools.items()}
        assert sizes["ck_stack"] == disc.order * self.BLOCK * per_element
        assert sizes["local_ti"] == sizes["vol_out"] == self.BLOCK * per_element
        assert sizes["lu_delta"] == n * per_element
        cluster_sized = {"lu_delta", "lu_integral", "lu_half", "lu_traces"}
        bound = self.BLOCK * disc.order * per_element
        assert all(size <= bound for name, size in sizes.items() if name not in cluster_sized)
        # one buffer per name: the 3-element remainder allocated nothing
        assert len(sizes) == len(ws._pools)
        assert {shape[0] for (name, shape, _) in ws._views if name == "local_ti"} == {self.BLOCK, 3}

    def test_scratch_hands_out_leading_views(self):
        ws = FastBackend().make_workspace()
        large = ws.scratch("a", (6, 4), np.float64)
        small = ws.scratch("a", (2, 4), np.float64)
        assert np.shares_memory(large, small) and small.shape == (2, 4)
        large[...] = 1.0
        assert np.all(small == 1.0)
        grown = ws.scratch("a", (9, 4), np.float64)  # outgrows: one new buffer
        assert not np.shares_memory(grown, large)
        assert np.shares_memory(ws.scratch("a", (6, 4), np.float64), grown)
        assert len(ws._pools) == 1

    def test_derivative_issues_five_matmuls_and_no_temporaries(self, monkeypatch):
        """Count guard, no wall clock: one CK derivative of an anelastic
        batch is <= 5 ``np.matmul`` calls and allocates no batch-sized
        temporary (the parent's fancy-index row gather was one per
        direction per derivative)."""
        disc = _disc(order=4, n=3)  # 162 elements
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=24)
        elements = np.arange(disc.n_elements)
        fast.compute_time_derivatives(disc, dofs, elements, ws=ws)  # warm caches + scratch
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **k: (calls.append(1), matmul(*a, **k))[1])
        tracemalloc.start()
        try:
            fast.compute_time_derivatives(disc, dofs, elements, ws=ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) <= 5 * (disc.order - 1)
        # numpy's fixed 64 KiB broadcast buffer is the only transient; a
        # gather of the elastic rows would be (E, 9, B) = 228 kB
        assert peak < 100_000 < disc.n_elements * N_ELASTIC * (disc.n_basis - 1) * dofs.itemsize


def test_first_cycle_memory_stays_block_sized():
    """The first macro cycle of the 3456-element LOH.3 LTS run faults in
    ~134 MiB (operator gathers, cluster-sized outputs, correction scratch)
    where the unblocked workspaces took ~300 MiB."""
    spec = get_scenario("loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0)
    runner = make_runner(spec.with_overrides(kernels="fast"))
    assert runner.solver.disc.n_elements > 3000
    tracemalloc.start()
    try:
        runner.step_cycle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 180 * 2**20, f"first cycle traced {peak / 2**20:.0f} MiB"


class TestSolverToleranceParity:
    """Whole solver runs stay within tolerance of the reference kernels."""

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=3, jitter=0.25, seed=2)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return disc, clustering

    def test_clustered_lts_cycles(self, graded):
        disc, clustering = graded
        ic = lambda points: np.exp(
            -np.sum((points - points.mean(axis=0)) ** 2, axis=1, keepdims=True)
            / (2 * 500.0**2)
        ) * np.ones((1, 9))
        solvers = {}
        for kind in ("ref", "fast"):
            solver = ClusteredLtsSolver(disc, clustering, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step_cycle()
            solvers[kind] = solver
        _assert_close(solvers["fast"].dofs, solvers["ref"].dofs, rtol=1e-11, name="lts dofs")
        for name in ("b1", "b2", "b3"):
            _assert_close(
                getattr(solvers["fast"].buffers, name),
                getattr(solvers["ref"].buffers, name),
                rtol=1e-11,
                name=name,
            )

    def test_gts_solver(self, graded):
        disc, _ = graded
        ic = lambda points: np.ones((len(points), 9)) * np.sin(points[:, :1] / 300.0)
        solvers = {}
        for kind in ("ref", "fast"):
            solver = GlobalTimeSteppingSolver(disc, kernels=kind)
            solver.set_initial_condition(ic)
            for _ in range(3):
                solver.step()
            solvers[kind] = solver
        _assert_close(solvers["fast"].dofs, solvers["ref"].dofs, rtol=1e-11, name="gts dofs")

    def test_fast_runs_are_reproducible_bitwise(self, graded):
        """Tolerance-equal to the reference, but deterministic: two fast
        runs (fresh workspaces, same GEMMs) agree bit for bit."""
        disc, clustering = graded
        ic = lambda points: np.ones((len(points), 9)) * np.cos(points[:, :1] / 400.0)
        runs = []
        for _ in range(2):
            solver = ClusteredLtsSolver(disc, clustering, kernels="fast")
            solver.set_initial_condition(ic)
            for _ in range(2):
                solver.step_cycle()
            runs.append(solver)
        assert np.array_equal(runs[0].dofs, runs[1].dofs)
        for name in ("b1", "b2", "b3"):
            assert np.array_equal(getattr(runs[0].buffers, name), getattr(runs[1].buffers, name))
