"""Kernel-execution backend tests.

The contract of the backend layer:

* exactly two kinds exist, ``ref`` (the oracle) and ``fast`` (see
  ``test_fast_backend.py``); anything else is rejected by name;
* every ``ReferenceBackend`` stage method is its kernel function, bit for
  bit, and the ``local_update`` pipeline returns only the elastic rows of
  the time integrals, its ``[0, dt/2]`` integral being exactly the one the
  LTS buffers used to compute themselves; its ``correct`` projects the own
  traces from the integral store and completes the update in the reference
  order;
* on both kinds, every stage a solver runs is looked up on the backend
  instance, so a wrapper installed there by name sees every call -- the
  correction composes the three surface stages on ``ref`` and is one fused
  pass on ``fast``, whose inherited stage methods a step no longer reaches;
* an f32 discretization runs in single precision end to end (DOFs, buffers,
  seismograms) and matches the f64 result within a documented tolerance
  under both kernel kinds;
* ``ref`` walks every batch in element blocks: no block size changes a bit
  of its DOFs or seismograms, and a step's transient memory is bounded by
  the block, not the batch.
"""

import functools
import tracemalloc

import numpy as np
import pytest

from repro.core.clustering import derive_clustering
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_solver import ClusteredLtsSolver
from repro.equations.material import MaterialTable, ViscoelasticMaterial
from repro.kernels import backend as backend_module
from repro.kernels.backend import KERNEL_KINDS, FastBackend, ReferenceBackend, make_backend
from repro.kernels.ader import compute_time_derivatives, time_integrate
from repro.kernels.discretization import Discretization, N_ELASTIC
from repro.kernels.surface import (
    neighbor_face_coefficients,
    project_local_traces,
    surface_kernel_local,
    surface_kernel_neighbor,
)
from repro.kernels.volume import volume_kernel
from repro.scenarios import get_scenario, make_runner

from ..lts_setup import cluster_ordered
from .conftest import small_mesh

#: the public stage methods of a backend, in pipeline order
STAGES = (
    "local_update",
    "compute_time_derivatives",
    "time_integrate",
    "project_local_traces",
    "volume_kernel",
    "surface_kernel_local",
    "neighbor_face_coefficients",
    "surface_kernel_neighbor",
    "correct",
)

#: the reference stages ``FastBackend.correct`` fuses (still callable)
FUSED_ON_FAST = ("surface_kernel_local", "neighbor_face_coefficients", "surface_kernel_neighbor")


def _random_dofs(disc, n_fused=0, seed=0):
    rng = np.random.default_rng(seed)
    shape = (disc.n_elements, disc.n_vars, disc.n_basis)
    if n_fused:
        shape += (n_fused,)
    return rng.standard_normal(shape)


class TestMakeBackend:
    def test_resolution(self):
        assert KERNEL_KINDS == ("ref", "fast")
        assert isinstance(make_backend("ref"), ReferenceBackend)
        assert isinstance(make_backend("fast"), FastBackend)
        backend = FastBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError):
            make_backend("vectorized")

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
        assert make_backend(None).name == "ref"

    def test_opt_is_rejected_naming_the_two_kinds(self):
        with pytest.raises(ValueError, match=r"\('ref', 'fast'\)"):
            make_backend("opt")


class TestReferencePipeline:
    @pytest.fixture(scope="class", params=["elastic", "viscoelastic"])
    def disc(self, request):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        n_mechanisms = 3 if request.param == "viscoelastic" else 0
        return Discretization(mesh, table, order=4, n_mechanisms=n_mechanisms)

    def test_half_integral_is_the_buffer_fill_integration(self, disc):
        """``needs_half`` returns exactly what ``LtsBuffers.fill`` used to
        integrate itself: the elastic derivative slices over [0, dt / 2]."""
        backend = ReferenceBackend()
        dofs = _random_dofs(disc, seed=4)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        derivatives = compute_time_derivatives(disc, dofs, elements)
        expected = time_integrate([d[:, :N_ELASTIC] for d in derivatives], 0.0, 0.5 * dt)
        integral, half = backend.local_update(
            disc, dofs, dt, elements, ws=backend.make_workspace(), needs_half=True
        )
        assert np.array_equal(half, expected)
        full = time_integrate(derivatives, 0.0, dt)[:, :N_ELASTIC]
        assert np.array_equal(integral, full)
        assert integral.shape[1] == N_ELASTIC  # only the elastic rows leave
        assert backend.local_update(disc, dofs, dt, elements)[1] is None

    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_stage_methods_are_the_reference_kernels(self, disc, n_fused):
        """The oracle adds nothing to the kernel functions: every stage,
        scalar or fused, and the pipeline composed of them are bitwise."""
        backend = ReferenceBackend()
        dofs = _random_dofs(disc, n_fused, seed=1)
        elements = np.arange(disc.n_elements)
        dt = float(disc.time_steps.min())
        derivatives = compute_time_derivatives(disc, dofs, elements)
        for d_b, d_f in zip(backend.compute_time_derivatives(disc, dofs, elements), derivatives):
            assert np.array_equal(d_b, d_f)
        ti = time_integrate(derivatives, 0.0, dt)
        assert np.array_equal(backend.time_integrate(derivatives, 0.0, dt), ti)
        elastic = ti[:, :N_ELASTIC]
        traces = project_local_traces(disc, elastic, elements)
        assert np.array_equal(backend.project_local_traces(disc, elastic, elements), traces)
        volume = volume_kernel(disc, ti, elements)
        assert np.array_equal(backend.volume_kernel(disc, ti, elements), volume)
        local = surface_kernel_local(disc, ti, elements, local_traces=traces)
        assert np.array_equal(backend.surface_kernel_local(disc, ti, elements, traces), local)
        neighbor_te = elastic[np.maximum(disc.mesh.neighbors, 0)]
        coeffs = neighbor_face_coefficients(disc, neighbor_te, traces, elements)
        assert np.array_equal(
            backend.neighbor_face_coefficients(disc, neighbor_te, traces, elements), coeffs
        )
        assert np.array_equal(
            backend.surface_kernel_neighbor(disc, coeffs, elements),
            surface_kernel_neighbor(disc, coeffs, elements),
        )
        before = dofs.copy()
        integral, _ = backend.local_update(disc, dofs, dt, elements)
        assert np.array_equal(dofs, before)  # the increment waits in the backend
        assert np.array_equal(integral, elastic)
        # the correction: own traces from the store's batch rows, then
        # (volume + local) + neighbouring, then the advance
        expected = dofs + (volume + local + surface_kernel_neighbor(disc, coeffs, elements))
        plan = backend.neighbor_plan(disc, dofs, elements, np.maximum(disc.mesh.neighbors, 0))
        backend.correct(disc, dofs, range(disc.n_elements), integral, plan)
        assert np.array_equal(dofs, expected)


class TestStageDispatch:
    """Solvers reach every stage through their backend instance, on both
    kinds: a wrapper installed on it by name (what a profiler does) sees
    calls and changes no bit of the step."""

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=2, jitter=0.25, seed=2)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=2, n_mechanisms=1)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return cluster_ordered(disc, clustering, order=2, n_mechanisms=1)

    @staticmethod
    def _stepped(graded, solver_kind, kind, stage=None):
        disc, clustering = graded
        if solver_kind == "gts":
            solver = GlobalTimeSteppingSolver(disc, kernels=kind)
        else:
            solver = ClusteredLtsSolver(disc, clustering, kernels=kind)
        solver.set_initial_condition(
            lambda points: np.ones((len(points), 9)) * np.sin(points[:, :1] / 300.0)
        )
        calls = []
        if stage is not None:
            method = getattr(solver.backend, stage)

            def wrapper(*args, **kwargs):
                calls.append(stage)
                return method(*args, **kwargs)

            setattr(solver.backend, stage, wrapper)
        solver.step_cycle()
        return solver, calls

    @pytest.mark.parametrize("solver_kind", ["gts", "lts"])
    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("kind", KERNEL_KINDS)
    def test_wrapped_stage_sees_the_step(self, graded, kind, stage, solver_kind):
        plain, _ = self._stepped(graded, solver_kind, kind)
        traced, calls = self._stepped(graded, solver_kind, kind, stage)
        if kind == "fast" and stage in FUSED_ON_FAST:
            assert not calls, f"fast {solver_kind} correction left the fused pass"
        else:
            assert calls, f"{kind} {solver_kind} step bypassed backend.{stage}"
        assert np.array_equal(traced.dofs, plain.dofs)


class TestPrecision:
    def test_f32_discretization_end_to_end(self):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3, precision="f32")
        assert disc.dtype == np.float32
        for name in ("star_stress", "star_velocity", "star_anelastic", "coupling",
                     "flux_local_elastic", "neighbor_flux_matrices", "omegas", "k_time",
                     "k_vol", "ftilde", "fhat"):
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

    @pytest.mark.parametrize("kind", ["ref", "fast"])
    def test_f32_solver_tracks_f64_within_tolerance(self, kind):
        mesh = small_mesh(n=2, jitter=0.1)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        base = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(base.time_steps, 2, 1.0, base.mesh.neighbors)
        results = {}
        for precision in ("f64", "f32"):
            disc, ordered = cluster_ordered(
                base, clustering, order=3, n_mechanisms=3, precision=precision
            )
            solver = ClusteredLtsSolver(disc, ordered, kernels=kind)
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


#: the ref runs blocking must leave bitwise alone: (smoke scenario, overrides)
BLOCKING_CASES = {
    "gts": ("loh3", dict(solver="gts")),
    "lts": ("la_habra", {}),
    "2rank": ("la_habra", dict(n_ranks=2)),
    "fused2": ("loh3", dict(n_fused=2)),
}


def _ref_run(case, precision):
    """``(runner, [dofs, seismograms...], batch lengths)`` after one ref
    macro cycle of a :data:`BLOCKING_CASES` case (rank workers stopped)."""
    name, overrides = BLOCKING_CASES[case]
    spec = get_scenario(name).smoke().with_overrides(
        kernels="ref", precision=precision, n_cycles=1, **overrides
    )
    runner = make_runner(spec)
    try:
        runner.step_cycle()
        state = [np.array(runner.solver.dofs)]
        state += [np.array(r.seismogram()[1]) for r in runner.receivers.receivers]
    finally:
        if hasattr(runner, "engine"):
            runner.engine.close()
    if hasattr(runner, "engine"):
        ids = [sub.clustering.cluster_ids for sub in runner.engine.subdomains]
    elif hasattr(runner.solver, "clusters"):
        ids = [runner.clustering.cluster_ids]
    else:
        ids = [np.zeros(runner.setup.mesh.n_elements, dtype=int)]
    return runner, state, [n for cluster_ids in ids for n in np.bincount(cluster_ids) if n]


@functools.lru_cache(maxsize=None)
def _default_blocks(case, precision):
    """The default-block run's state and its derivative-stack bytes per
    element (what ``_BLOCK_STACK_BYTES`` divides)."""
    runner, state, _ = _ref_run(case, precision)
    dofs = state[0]
    return state, runner.setup.disc.order * dofs[0].size * dofs.itemsize


class TestRefBlocking:
    """``ReferenceBackend`` runs every batch as ``_block_plan`` element
    blocks; every ref contraction is per element, so one-element blocks and
    blocks that leave a partial last one are bitwise the default blocks --
    the halo payloads of a 2-rank correction included, whose face ids each
    block rebases to its own rows."""

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("case", list(BLOCKING_CASES))
    @pytest.mark.parametrize("block", [1, 7])
    def test_no_block_size_changes_a_ref_bit(self, monkeypatch, block, case, precision):
        expected, per_element = _default_blocks(case, precision)
        monkeypatch.setattr(backend_module, "_BLOCK_STACK_BYTES", block * per_element)
        runner, state, batches = _ref_run(case, precision)
        assert any(n % block for n in batches) or block == 1  # a partial last block
        if case == "lts":
            assert len(batches) >= 3  # populated clusters
        if case == "2rank":  # some cluster's halo faces lie in several blocks
            assert any(
                len(np.unique(plan.rows // block)) > 1
                for sub in runner.engine.subdomains for plan in sub.recv_plans
            )
        assert len(state) == len(expected) > 1
        for got, want in zip(state, expected):
            assert got.dtype == want.dtype == np.dtype(precision.replace("f", "float"))
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_ref_step_transient_memory_is_block_sized():
    """One ref GTS cycle on LOH.3 at K = 480 and K = 1296 elements peaks at
    the same traced bytes: the step integral goes to the buffer store, and
    the derivative stack, gathers, traces and surface temporaries are one
    element block's, whatever the batch."""
    transient = {}
    for length in (2000.0, 1400.0):
        spec = get_scenario("loh3", characteristic_length=length)
        solver = make_runner(spec.with_overrides(solver="gts", kernels="ref")).solver
        solver.step_cycle()  # the kept volume increment rows are allocated once
        tracemalloc.start()
        try:
            solver.step_cycle()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        transient[solver.disc.n_elements] = peak
    assert sorted(transient) == [480, 1296]
    small, large = transient[480], transient[1296]
    assert abs(large - small) <= 0.1 * max(small, large), transient
