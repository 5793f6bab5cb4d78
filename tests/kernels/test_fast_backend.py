"""Fast (tolerance-equal) kernel backend tests.

The contract of ``FastBackend``: same math as the reference, arbitrary
reassociation.  Results must track the reference within a few ULPs per
kernel call (the per-kernel checks below) and within the verification
tolerance ladder over whole runs (tests/verification/).  Bit-identity with
the reference is explicitly NOT promised.  What *is* bitwise is the backend
against itself: every contraction is per element or per face, so how
``local_update`` cuts a batch into cache-sized blocks (or which batch an
element is part of) does not change a single bit.  A fast prediction adds
its volume increment to the DOF rows; the fused correction (``correct``)
projects the own traces from the source's batch rows and is held to the
reference composition ``neighbor_data`` -> ``neighbor_face_coefficients``
-> both surface kernels, on every block cut.
"""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import BOUNDARY, LARGER, SAME, SMALLER, LtsBuffers
from repro.core.clustering import derive_clustering
from repro.core.gts_solver import GlobalTimeSteppingSolver
from repro.core.lts_solver import ClusteredLtsSolver
from repro.equations.material import MaterialTable, ViscoelasticMaterial
from repro.kernels import backend as backend_module
from repro.kernels import threads
from repro.kernels.ader import compute_time_derivatives
from repro.kernels.backend import FastBackend, ReferenceBackend, make_backend
from repro.kernels.discretization import Discretization, N_ELASTIC
from repro.kernels.update import local_update
from repro.kernels.volume import volume_kernel
from repro.mesh import BOUNDARY_ABSORBING, BOUNDARY_FREE_SURFACE
from repro.mesh.generation import box_mesh
from repro.scenarios import get_scenario, make_runner

from ..lts_setup import cluster_ordered, seed_buffers
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


def _reference_correction(disc, batch, delta, own_te, neighbor_te, halo=None):
    """The increment of a correction as the reference composes it: own
    traces of ``own_te``, coefficients (halo payloads overlaid), then
    ``(delta + S_local) + S_neigh``."""
    ref, rows = ReferenceBackend(), slice(batch.start, batch.stop)
    traces = ref.project_local_traces(disc, own_te, rows)
    coeffs = ref.neighbor_face_coefficients(disc, neighbor_te, traces, rows)
    if halo is not None:
        faces, payloads = halo
        coeffs[faces // 4, faces % 4] = payloads
    increment = delta + ref.surface_kernel_local(disc, delta, batch, traces)
    return increment + ref.surface_kernel_neighbor(disc, coeffs, rows)


def _fused_correction(disc, batch, delta, source, rows, halo=None, fast=None):
    """``delta`` (the batch's predicted DOF rows) after ``FastBackend.correct``
    (own traces from ``source[batch]``)."""
    fast = fast or FastBackend()
    dofs = np.zeros((disc.n_elements,) + delta.shape[1:], dtype=delta.dtype)
    dofs[batch.start : batch.stop] = delta
    plan = fast.neighbor_plan(disc, dofs, batch, rows)
    fast.correct(disc, dofs, batch, source, plan, ws=fast.make_workspace(), halo=halo)
    return dofs[batch.start : batch.stop]


#: what ``_local_update_copy`` returns, in order
PREDICTION = ("delta", "integral", "half")


def _local_update_copy(backend, disc, dofs, elements, needs_half=True):
    """``[delta, integral, half]`` of a prediction on a copy of ``dofs``:
    the volume increment is what a fast prediction added to the batch's
    DOF rows, and what the reference backend keeps for its correction."""
    dt = float(disc.time_steps.min())
    stepped = dofs.copy()
    integral, half = backend.local_update(
        disc, stepped, dt, elements, ws=backend.make_workspace(), needs_half=needs_half
    )
    run = backend_module._contiguous_run(elements, len(dofs))
    rows = slice(run.start, run.stop)
    if isinstance(backend, FastBackend):
        delta = stepped[rows] - dofs[rows]
    else:
        assert np.array_equal(stepped, dofs)
        delta = backend._increment(stepped)[rows]
    return [array if array is None else array.copy() for array in (delta, integral, half)]


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
        elements = slice(0, disc.n_elements)
        expected = _local_update_copy(ReferenceBackend(), disc, dofs, elements)
        actual = _local_update_copy(FastBackend(), disc, dofs, elements)
        for name, a, e in zip(PREDICTION, actual, expected):
            _assert_close(a, e, name=name)
        assert FastBackend().local_update(disc, dofs.copy(), 1e-3, elements)[1] is None

    def test_stage_methods_keep_the_reference_shapes(self, disc):
        """The stages stay callable the way the harness substitutes them."""
        ref, fast = ReferenceBackend(), FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, seed=2)
        elements = slice(0, disc.n_elements)
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
        """Both surface halves of a GTS step (neighbours read from the
        step's own integral): the fused pass against the reference."""
        dofs = _random_dofs(disc, seed=4)
        batch = range(disc.n_elements)
        delta, te = local_update(disc, dofs, float(disc.time_steps.min()), batch)
        rows = np.maximum(disc.mesh.neighbors, 0)
        expected = _reference_correction(disc, batch, delta, te, te[rows])
        _assert_close(_fused_correction(disc, batch, delta, te, rows), expected, name="surface")

    def test_neighbor_path(self, disc):
        """Traces, then the fused correction gathering any rows of a flat
        source (boundary faces read their own trace, whatever their row)."""
        ref, fast = ReferenceBackend(), FastBackend()
        dofs = _random_dofs(disc, seed=3)
        batch = range(disc.n_elements)
        delta, te = local_update(disc, dofs, float(disc.time_steps.min()), batch)
        traces_r = ref.project_local_traces(disc, te, batch)
        traces_f = fast.project_local_traces(disc, te, batch, ws=fast.make_workspace())
        _assert_close(traces_f, traces_r, name="traces")
        rng = np.random.default_rng(3)
        source = rng.standard_normal((3 * disc.n_elements, N_ELASTIC, disc.n_basis))
        rows = rng.integers(0, len(source), size=(disc.n_elements, 4))
        own = source[: disc.n_elements]  # the batch's own rows
        expected = _reference_correction(disc, batch, delta, own, source[rows])
        _assert_close(
            _fused_correction(disc, batch, delta, source, rows), expected, name="neighbor path"
        )


class TestFusedCorrection:
    """``FastBackend.correct`` against the reference composition on LTS
    buffer reads: every relation and step parity, free-surface and
    absorbing faces, scalar and fused, both precisions, every block cut."""

    BLOCK = 5
    START = 80  # an inner run of the mesh reaching the free surface

    @pytest.fixture(scope="class", params=["f64", "f32"])
    def disc(self, request):
        coords = np.linspace(0.0, 3000.0, 4)
        mesh = box_mesh(coords, coords, coords, jitter=0.2, seed=3, free_surface_top=True)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        return Discretization(mesh, table, order=3, n_mechanisms=3, precision=request.param)

    def _inputs(self, disc, n_fused, seed=0):
        rng = np.random.default_rng(seed)
        buffers = LtsBuffers(disc, n_fused=n_fused)
        seed_buffers(buffers, rng)
        neighbors = disc.mesh.neighbors
        relations = np.where(
            neighbors < 0, BOUNDARY, rng.choice([SAME, SMALLER, LARGER], size=neighbors.shape)
        )
        fused = (n_fused,) if n_fused else ()
        shape = (disc.n_elements, disc.n_vars, disc.n_basis) + fused
        delta = rng.standard_normal(shape).astype(disc.dtype)
        return buffers, neighbors, relations, delta

    def _check(self, disc, n_fused, batch, parity, halo=None, seed=0):
        buffers, neighbors, relations, delta = self._inputs(disc, n_fused, seed)
        rows = slice(batch.start, batch.stop)
        args = (neighbors[rows], relations[rows], parity)
        expected = _reference_correction(
            disc, batch, delta[rows], buffers.b1[rows], buffers.neighbor_data(*args), halo
        )
        actual = _fused_correction(
            disc, batch, delta[rows], buffers.store, buffers.face_rows(*args), halo
        )
        assert actual.dtype == disc.dtype
        _assert_close(actual, expected, rtol=1e-12 if disc.precision == "f64" else 1e-5)
        return actual

    def test_the_run_covers_every_face_kind(self, disc):
        """The 3-block run sees all four relations and both boundary kinds."""
        _, _, relations, _ = self._inputs(disc, 0)
        rows = slice(self.START, self.START + 3 * self.BLOCK)
        assert {SAME, SMALLER, LARGER, BOUNDARY} <= set(np.unique(relations[rows]))
        tags = disc.mesh.boundary_tags[rows][disc.mesh.neighbors[rows] < 0]
        assert {BOUNDARY_FREE_SURFACE, BOUNDARY_ABSORBING} <= set(np.unique(tags))

    def _set_block(self, monkeypatch, disc, n_fused):
        fused = (n_fused,) if n_fused else ()
        dofs = np.zeros((1, disc.n_vars, disc.n_basis) + fused, disc.dtype)
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)

    @pytest.mark.parametrize("parity", [0, 1])
    @pytest.mark.parametrize("n_fused", [0, 2])
    @pytest.mark.parametrize("n_elements", [1, 4, 5, 6, 15], ids=lambda n: f"E{n}")
    def test_matches_the_reference_composition(
        self, monkeypatch, disc, n_elements, n_fused, parity
    ):
        """E = 1, block - 1, block, block + 1 and 3 blocks."""
        self._set_block(monkeypatch, disc, n_fused)
        self._check(disc, n_fused, range(self.START, self.START + n_elements), parity)

    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_halo_payloads_land_in_any_block(self, monkeypatch, disc, n_fused):
        """Received payloads replace the neighbour coefficients of their
        faces before the flux solve, in the second and third block too."""
        fused = (n_fused,) if n_fused else ()
        self._set_block(monkeypatch, disc, n_fused)
        batch = range(self.START, self.START + 3 * self.BLOCK)
        interior = disc.mesh.neighbors[self.START : batch.stop] >= 0
        faces = np.flatnonzero(interior.ravel())
        faces = faces[faces >= 4 * self.BLOCK][::3]  # second and third block
        assert faces.min() < 8 * self.BLOCK <= faces.max()
        rng = np.random.default_rng(9)
        payloads = rng.standard_normal((len(faces), N_ELASTIC, disc.n_face_basis) + fused)
        halo = (faces, payloads.astype(disc.dtype))
        with_halo = self._check(disc, n_fused, batch, 1, halo)
        changed = with_halo != self._check(disc, n_fused, batch, 1)
        # exactly the receiving elements move
        np.testing.assert_array_equal(
            np.flatnonzero(changed.reshape(len(changed), -1).any(axis=1)), np.unique(faces // 4)
        )


class TestOtherTiers:
    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_f32_call_tracks_the_f64_reference(self, n_fused):
        """The f32 tier: one call stays within single-precision roundoff."""
        disc64, disc32 = _disc(order=3), _disc(order=3, precision="f32")
        dofs = _random_dofs(disc64, n_fused, seed=6)
        elements = slice(0, disc64.n_elements)
        expected = _local_update_copy(ReferenceBackend(), disc64, dofs, elements)
        actual = _local_update_copy(FastBackend(), disc32, dofs.astype(np.float32), elements)
        for name, a, e in zip(PREDICTION, actual, expected):
            assert a.dtype == np.float32
            _assert_close(a, e, rtol=1e-5, name=name)


class TestStackedOperators:
    """The stacked-operator machinery behind the fast time/volume kernels."""

    @pytest.fixture(scope="class")
    def disc(self):
        return _disc(order=4)

    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    def test_structure_verified_per_discretization(self, n_mechanisms):
        """Assembly verified the zero blocks once: the stages multiply
        views of the compact operators, and only the omega-scaled anelastic
        rows are built (and cached) per batch."""
        disc = _disc(order=3, n_mechanisms=n_mechanisms, n=1)
        block = slice(2, 5)
        ws = FastBackend().make_workspace()
        _, stages, coupling = FastBackend()._stacked_ops(disc, block, ws)
        for operand, name in zip((stages[0][0], stages[1][0], coupling),
                                 ("star_stress", "star_velocity", "coupling")):
            assert operand.size == 0 or np.shares_memory(operand, getattr(disc, name)), name
            assert np.array_equal(operand, getattr(disc, name)[block]), name
        assert len(stages) == 2 + bool(n_mechanisms)
        if n_mechanisms:
            scaled = stages[2][0]
            assert scaled.shape == (3, 6 * n_mechanisms, 9)
            for l in range(n_mechanisms):
                np.testing.assert_array_equal(
                    scaled[:, 6 * l : 6 * (l + 1)], disc.star_anelastic[block] * disc.omegas[l]
                )
        pools, cache = ws.held()
        assert not pools and len(cache) == bool(n_mechanisms)

    def test_bmm_folds_fused_axis(self):
        rng = np.random.default_rng(11)
        matrices = rng.standard_normal((6, 9, 9))
        operand = rng.standard_normal((6, 9, 20, 4))
        out = np.empty((6, 9, 20, 4))
        backend_module._run([FastBackend._bmm_call(matrices, operand, out)])
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
        elements = slice(0, disc.n_elements)
        y = np.empty_like(x)
        backend_module._run(fast._space_operator_calls(disc, data.kcat_vol, x, y, elements, None))
        _assert_close(y, volume_kernel(disc, x, elements), name="volume")
        backend_module._run(fast._space_operator_calls(disc, data.kcat_time, x, y, elements, None))
        _assert_close(y, compute_time_derivatives(disc, x, elements)[1], name="derivative")

    @pytest.mark.parametrize("n_fused", [0, 3])
    def test_flux_project_matches_reference_einsum(self, disc, n_fused):
        """The elastic rows contract all 18 ``[own | neighbour]`` rows, the
        anelastic rows their six velocity rows."""
        fast = FastBackend()
        data = fast._disc_data(disc)
        rng = np.random.default_rng(14)
        E, F = disc.n_elements, disc.n_face_basis
        fused = (n_fused,) if n_fused else ()
        coeffs = rng.standard_normal((E, 4, 2 * N_ELASTIC, F) + fused)
        # a row slice of a wider array, like the kernels' flux rows
        out = np.empty((E, disc.n_vars, disc.n_basis) + fused)[:, : N_ELASTIC + 6]
        calls = fast._flux_calls(data, slice(0, E), coeffs, out, fast.make_workspace(), "t")
        backend_module._run(calls)
        contract = "eivw,eiwg...,igb->evb..."
        expected = np.einsum(contract, disc.flux_solvers, coeffs, disc.fhat)
        _assert_close(out[:, :N_ELASTIC], expected, name="elastic flux solve + back-projection")
        velocities = coeffs[:, :, [6, 7, 8, 15, 16, 17]]
        expected = np.einsum(contract, disc.flux_anelastic, velocities, disc.fhat)
        _assert_close(out[:, N_ELASTIC:], expected, name="anelastic flux solve + back-projection")

    def test_fused_and_scalar_slices_agree(self, disc):
        """Fused kernels vs the same backend run slot by slot: the fused
        axis only adds GEMM columns."""
        fast = FastBackend()
        ws = fast.make_workspace()
        dofs = _random_dofs(disc, n_fused=4, seed=15)
        elements = slice(0, disc.n_elements)
        dt = float(disc.time_steps.min())
        stepped = dofs.copy()
        ti_fused, _ = fast.local_update(disc, stepped, dt, elements, ws=ws)
        # the scalar calls below reuse (and overwrite) the same named scratch
        ti_fused = ti_fused.copy()
        for f in range(4):
            slot = np.ascontiguousarray(dofs[..., f])
            ti_f, _ = fast.local_update(disc, slot, dt, elements, ws=ws)
            _assert_close(
                stepped[..., f] - dofs[..., f], slot - dofs[..., f], rtol=1e-11, name=f"slot {f}"
            )
            _assert_close(ti_fused[..., f], ti_f, rtol=1e-11, name=f"ti slot {f}")


class TestCacheBlocking:
    """``local_update`` walks a batch in blocks; nothing may depend on it."""

    BLOCK = 5

    @pytest.fixture(scope="class")
    def disc(self):
        return _disc(order=4)  # 48 elements

    @pytest.mark.parametrize("n_fused", [0, 1, 2, 16])
    @pytest.mark.parametrize("n_elements", [1, 3, 5, 13], ids=lambda n: f"E{n}")
    @pytest.mark.parametrize("kind", ["slice", "range", "index"])
    def test_blocked_equals_unblocked_bitwise(self, monkeypatch, disc, n_fused, n_elements, kind):
        """E = 1, E < block, E == block and E = 2 blocks + 3."""
        dofs = _random_dofs(disc, n_fused, seed=21)
        run = range(2, 2 + n_elements)
        elements = {"slice": slice(run.start, run.stop), "range": run, "index": np.array(run)}[kind]
        _set_block_elements(monkeypatch, disc, dofs, disc.n_elements)
        unblocked = _local_update_copy(FastBackend(), disc, dofs, elements)
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)
        fast = FastBackend()
        blocks = backend_module._block_plan(disc, dofs, run)
        assert len(blocks) == -(-n_elements // self.BLOCK)
        assert blocks[0][1].start == run.start and blocks[-1][1].stop == run.stop
        blocked = _local_update_copy(fast, disc, dofs, elements)
        for name, b, u in zip(PREDICTION, blocked, unblocked):
            assert np.array_equal(b, u), name

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_any_run_matches_the_full_batch_bitwise(self, disc, data):
        """An element's update does not depend on which run (or block) of
        the mesh it is computed in -- a cluster, a rank's boundary/interior
        split or the whole mesh: the split is exact on ``fast`` too."""
        start = data.draw(st.integers(0, disc.n_elements - 1))
        stop = data.draw(st.integers(start + 1, min(disc.n_elements, start + 17)))
        dofs = _random_dofs(disc, seed=22)
        with pytest.MonkeyPatch.context() as patch:  # per example, not per test
            _set_block_elements(patch, disc, dofs, self.BLOCK)
            full = _local_update_copy(FastBackend(), disc, dofs, range(disc.n_elements))
            part = _local_update_copy(FastBackend(), disc, dofs, range(start, stop))
        for name, p, f in zip(PREDICTION, part, full):
            assert np.array_equal(p, f[start:stop]), name

    @pytest.mark.parametrize(
        "elements", [range(3, 7), slice(3, 7), np.array([0]), np.arange(3, 7)],
        ids=["range", "slice", "one-id", "id-run"],
    )
    def test_local_update_takes_any_contiguous_batch(self, disc, elements):
        dofs = _random_dofs(disc, seed=25)
        result = _local_update_copy(FastBackend(), disc, dofs, elements)
        rows = range(disc.n_elements)[elements] if isinstance(elements, slice) else elements
        assert result[0].shape[0] == len(rows)

    @pytest.mark.parametrize(
        "elements", [np.array([0, 2]), np.array([3, 2]), range(0, 6, 2), slice(0, 6, 2)],
        ids=["gap", "descending", "strided-range", "strided-slice"],
    )
    def test_local_update_rejects_a_scattered_batch(self, disc, elements):
        dofs = _random_dofs(disc, seed=26)
        with pytest.raises(ValueError, match="contiguous run"):
            FastBackend().local_update(disc, dofs, 1e-3, elements)

    def test_partial_block_shares_the_block_scratch(self, monkeypatch, disc):
        """2 blocks + 3 elements: every block-level scratch array is
        allocated once, at block size; the remainder is a leading view."""
        dofs = _random_dofs(disc, seed=23)
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)
        fast = FastBackend()
        ws = fast.make_workspace()
        n = 2 * self.BLOCK + 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one thread
        fast.local_update(
            disc, dofs, float(disc.time_steps.min()), np.arange(n), ws=ws, needs_half=True
        )
        per_element = disc.n_vars * disc.n_basis
        # the kept integrals stay in the batch's workspace, block scratch
        # goes to the thread's
        sizes = {name: pool.size for (name, _), pool in ws._pools.items()}
        assert sizes == {name: n * N_ELASTIC * disc.n_basis for name in ("lu_integral", "lu_half")}
        (scratch,) = fast._thread_scratch
        sizes = {name: pool.size for (name, _), pool in scratch._pools.items()}
        assert sizes["ck_stack"] == disc.order * self.BLOCK * per_element
        assert sizes["local_ti"] == self.BLOCK * per_element
        # the volume increment is block scratch the program adds to the
        # DOFs, and a prediction projects no traces
        assert sizes["vol_out"] == self.BLOCK * per_element
        assert not any("traces" in str(name) for name in sizes)
        assert all(size <= self.BLOCK * disc.order * per_element for size in sizes.values())
        # one buffer per name: the 3-element remainder allocated nothing
        assert len(sizes) == len(scratch._pools)
        views = {shape[0] for (name, shape, _) in scratch._views if name == "local_ti"}
        assert views == {self.BLOCK, 3}

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
        elements = slice(0, disc.n_elements)
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


def test_la_habra_order4_does_not_depend_on_the_block_size(monkeypatch):
    """Five clusters, free surface, order 4: three block sizes (the
    default, a quarter of it, a few elements) step bitwise alike.  The
    per-class ``F_bar`` GEMM over a block's faces did not, from the first
    cycle on."""
    spec = get_scenario("la_habra").smoke().with_overrides(kernels="fast", order=4)
    runs = []
    for block_bytes in (3 << 19, 3 << 17, 1 << 16):
        monkeypatch.setattr(backend_module, "_BLOCK_STACK_BYTES", block_bytes)
        runner = make_runner(spec)
        runner.run()
        assert runner.solver.disc.order == 4 and runner.clustering.n_clusters == 5
        runs.append((runner.solver.dofs.copy(), {
            r.name: r.seismogram()[1] for r in runner.receivers.receivers
        }))
    (dofs, seismograms), *others = runs
    for other_dofs, other_seismograms in others:
        assert np.array_equal(other_dofs, dofs)
        for name, values in seismograms.items():
            assert np.array_equal(other_seismograms[name], values), name


#: scratch pools a block (or a chunk of blocks) only holds while it runs
TRANSIENT = ("ck_", "op_", "corr_", "traces_")


@pytest.mark.parametrize("n_threads", [1, 2])
def test_first_cycle_memory_stays_block_sized(monkeypatch, n_threads):
    """The first macro cycle of the 3456-element LOH.3 LTS run faults in
    ~85 MiB (stacked and merged operators, the prediction's cluster-sized
    outputs) where the unblocked workspaces took ~300 MiB.  Every transient
    scratch pool exists once per thread, shared by all clusters, and is
    block-sized; after the first cycles no pool grows and no cache entry is
    added."""
    cpus = set(range(n_threads * threads.blas_threads()))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    spec = get_scenario("loh3", characteristic_length=1000.0, n_clusters=3, lam=1.0)
    runner = make_runner(spec.with_overrides(kernels="fast"))
    solver = runner.solver
    assert solver.disc.n_elements > 3000
    tracemalloc.start()
    try:
        runner.step_cycle()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 180 * 2**20, f"first cycle traced {peak / 2**20:.0f} MiB"
    disc, dofs = solver.disc, solver.dofs
    transient = lambda ws: {  # ("op_star", layout...) names carry their layout
        name: pool.size for (name, _), pool in ws._pools.items()
        if (name[0] if isinstance(name, tuple) else name).startswith(TRANSIENT)
    }
    for cluster in solver.clusters:
        assert not transient(cluster.workspace), cluster.cluster_id
    scratch = solver.backend._thread_scratch
    assert len(scratch) == n_threads
    # the widest per-element scratch: the derivative stack of a block
    block = max(backend_module._block_plan(disc, dofs, c.elements)[0][0].stop
                for c in solver.clusters if len(c.elements))
    per_element = disc.order * disc.n_vars * disc.n_basis
    for ws in scratch:
        pools = transient(ws)
        prefixes = {prefix for prefix in TRANSIENT for name in pools if str(name).find(prefix) >= 0}
        assert prefixes == set(TRANSIENT), pools
        assert all(size <= block * per_element for size in pools.values()), (block, pools)
    assert block * per_element < disc.n_elements * N_ELASTIC * disc.n_basis

    def footprint():
        workspaces = [c.workspace for c in solver.clusters] + scratch
        return [({k: p.size for k, p in ws._pools.items()}, set(ws._cache)) for ws in workspaces]

    runner.step_cycle()
    settled = footprint()
    runner.step_cycle()
    assert footprint() == settled


def test_a_thread_that_drew_no_block_holds_the_largest_scratch(monkeypatch):
    """Which pool thread claims which block is a race.  Here the caller
    claims every item of the first dispatch: the idle thread's scratch must
    still end up as large as the caller's, so its first block in a later
    dispatch grows no pool."""

    class CallerClaimsAll:
        n_threads = 2

        def run(self, items, work):
            for item in items:
                work(item, 0)

    monkeypatch.setattr(backend_module, "block_pool", CallerClaimsAll)
    backend = FastBackend()
    requests = [("ck_stack", (8, 3), np.float64), ("ck_stack", (2, 3), np.float64),
                ("corr_proj", (5,), np.float32)]
    items = [lambda slot, telemetry, dofs, request=request:
             backend._thread_scratch[slot].scratch(*request) for request in requests]
    backend.run(items, None)
    caller, idle = backend._thread_scratch
    sizes = {("ck_stack", np.dtype(np.float64)): 24, ("corr_proj", np.dtype(np.float32)): 5}
    for ws in (caller, idle):
        assert {key: pool.size for key, pool in ws._pools.items()} == sizes
    generations = (caller.generation, idle.generation)
    backend.run(items[::-1], None)
    for request in requests:
        idle.scratch(*request)
    assert (caller.generation, idle.generation) == generations


class TestSolverToleranceParity:
    """Whole solver runs stay within tolerance of the reference kernels."""

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=3, jitter=0.25, seed=2)
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return cluster_ordered(disc, clustering, order=3, n_mechanisms=3)

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
                solver.step_cycle()
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


class TestNoBatchState:
    """Between its prediction and its correction a batch keeps nothing but
    its DOF rows and its rows of the integral store the correction gathers
    from (``B1``, GTS included)."""

    BLOCK = 5

    @pytest.fixture(scope="class")
    def graded(self):
        mesh = small_mesh(n=3, jitter=0.25, seed=1)  # two populated clusters
        material = ViscoelasticMaterial(rho=2600.0, vp=4000.0, vs=2000.0, qp=120.0, qs=40.0)
        table = MaterialTable.homogeneous(material, mesh.n_elements)
        disc = Discretization(mesh, table, order=3, n_mechanisms=3)
        clustering = derive_clustering(disc.time_steps, 2, 1.0, disc.mesh.neighbors)
        return cluster_ordered(disc, clustering, order=3, n_mechanisms=3)

    def test_no_workspace_pool_is_cluster_or_mesh_sized(self, monkeypatch, graded):
        """After a fast LTS cycle and a fast GTS cycle: the cluster
        workspaces hold no pool at all (GTS keeps no batch-sized step
        integral: it goes to ``B1``), and the thread scratch only
        block-sized ones -- no increment or trace pool is left on any of
        them."""
        disc, clustering = graded
        dofs = disc.allocate_dofs()
        _set_block_elements(monkeypatch, disc, dofs, self.BLOCK)
        ic = lambda points: np.ones((len(points), 9)) * np.sin(points[:, :1] / 300.0)
        lts = ClusteredLtsSolver(disc, clustering, kernels="fast")
        gts = GlobalTimeSteppingSolver(disc, kernels="fast")
        for solver in (lts, gts):
            solver.set_initial_condition(ic)
            solver.step_cycle()
        extents = {len(c.elements) for c in lts.clusters} | {disc.n_elements}
        assert min(extents) > self.BLOCK  # a block view cannot pass for a batch
        for cluster in lts.clusters + gts.clusters:
            assert not cluster.workspace._pools, cluster.cluster_id
        per_element = disc.order * disc.n_vars * disc.n_basis
        for ws in lts.backend._thread_scratch + gts.backend._thread_scratch:
            assert all(pool.size <= self.BLOCK * per_element for pool in ws._pools.values())

    @pytest.mark.parametrize("n_fused", [0, 4])
    @pytest.mark.parametrize("kind", ["ref", "fast"])
    def test_correction_traces_are_the_prediction_integrals(self, graded, kind, n_fused):
        """The own traces a correction projects from its ``source`` rows
        equal, bit for bit, ``project_local_traces`` of the elastic
        integral the prediction handed its fill (a row slice of the full
        integral on both kinds)."""
        disc, _ = graded
        backend = make_backend(kind)
        ws = backend.make_workspace()
        project = backend.project_local_traces
        fused = (n_fused,) if n_fused else ()
        store = np.zeros((disc.n_elements, N_ELASTIC, disc.n_basis) + fused)
        expected = np.zeros((disc.n_elements, 4, N_ELASTIC, disc.n_face_basis) + fused)

        class Capture:
            """A fill keeping the integral's traces and copying it to ``store``."""

            def __call__(self, block, integral, half):
                assert not integral.flags.c_contiguous  # the [:, :9] rows
                expected[block] = project(disc, integral, block)
                store[block] = integral

            def calls(self, block, integral, half):
                return [(self, (block, integral, half))]

        dofs = _random_dofs(disc, n_fused, seed=31)
        batch = range(disc.n_elements)
        backend.local_update(disc, dofs, float(disc.time_steps.min()), batch, ws=ws,
                             fill=Capture())
        derived = []

        def spy(disc, te, elements, ws=None, out=None):
            traces = project(disc, te, elements, ws=ws, out=out)
            derived.append((elements, traces.copy()))
            return traces

        backend.project_local_traces = spy  # the correction reaches it by name
        plan = backend.neighbor_plan(disc, dofs, batch, np.maximum(disc.mesh.neighbors, 0))
        backend.correct(disc, dofs, batch, store, plan, ws=ws)
        assert derived
        actual = np.full_like(expected, np.nan)
        for elements, traces in derived:
            actual[elements] = traces
        assert np.array_equal(actual, expected)
