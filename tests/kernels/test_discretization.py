"""Unit tests for the per-mesh discretization setup."""

import copy as copy_module

import numpy as np
import pytest

from repro.basis.functions import TetBasis
from repro.basis.reference_element import (
    FACE_VERTEX_IDS,
    NEIGHBOR_ORIENTATIONS,
    ORIENTATION_CODES,
    reference_element,
)
from repro.equations import riemann
from repro.equations.anelastic import (
    anelastic_lame_parameters,
    anelastic_star_matrices,
    coupling_matrices,
)
from repro.equations.elastic import elastic_star_matrices
from repro.equations.material import ElasticMaterial, MaterialTable
from repro.kernels import discretization, surface
from repro.kernels.backend import FastBackend
from repro.kernels.discretization import Discretization
from repro.mesh.generation import box_mesh
from repro.mesh.tet_mesh import BOUNDARY_ABSORBING, BOUNDARY_ANALYTIC, BOUNDARY_FREE_SURFACE
from repro.scenarios import build_setup, get_scenario

from .conftest import small_mesh


#: a nonzero-table entry in each operator's structural zero blocks:
#: velocity x velocity, memory x stress, velocity x memory -- all zero in
#: the wave equations
ZERO_ENTRY = {
    "elastic_jacobians": ("JACOBIAN_NONZEROS", (1, 8, 7, "lam")),
    "anelastic_jacobians": ("ANELASTIC_NONZEROS", (2, 5, 0, 1e-3)),
    "coupling": ("COUPLING_NONZEROS", (8, 0, "lam")),
}


class TestCompactOperators:
    """The star and coupling operators are stored once, without the zero
    blocks of their dense forms."""

    def test_compact_blocks_are_the_dense_nonzero_blocks(self, viscoelastic_disc):
        """Bitwise the nonzero blocks of the dense star stacks, per
        direction, and the stress rows of the coupling matrices."""
        disc = viscoelastic_disc
        lam, mu, rho = disc.materials.lam, disc.materials.mu, disc.materials.rho
        inv_jac = disc.mesh.geometry.inverse_jacobians
        star_e = elastic_star_matrices(inv_jac, lam, mu, rho)
        star_a = anelastic_star_matrices(inv_jac)
        assert not star_e[:, :, :6, :6].any() and not star_e[:, :, 6:, 6:].any()
        assert not star_a[..., :6].any()
        for c in range(3):
            for j in range(3):
                assert np.array_equal(disc.star_stress[:, :, 3 * j + c], star_e[:, c, :6, 6 + j])
                assert np.array_equal(disc.star_anelastic[:, :, 3 * j + c], star_a[:, c, :, 6 + j])
            for j in range(6):
                assert np.array_equal(disc.star_velocity[:, :, 3 * j + c], star_e[:, c, 6:, j])
        lam_a, mu_a = anelastic_lame_parameters(
            lam, mu, disc.materials.qp, disc.materials.qs, disc.spectrum
        )
        coupling = coupling_matrices(lam_a, mu_a)
        for l in range(disc.n_mechanisms):
            assert np.array_equal(disc.coupling[:, :, 6 * l : 6 * (l + 1)], coupling[:, l, :6])

    @pytest.mark.parametrize("perturbed", ["elastic_jacobians", "anelastic_jacobians", "coupling"])
    def test_packing_refuses_an_operator_that_breaks_a_zero_block(
        self, viscoelastic_disc, perturbed, monkeypatch
    ):
        """A nonzero table with an entry where the compact layout drops a
        block is refused by name, not silently truncated."""
        ids = np.arange(5)
        viscoelastic_disc.element_operators(ids)  # the intact tables pack
        table, entry = ZERO_ENTRY[perturbed]
        monkeypatch.setattr(discretization, table, getattr(discretization, table) + (entry,))
        with pytest.raises(ValueError, match=f"^{perturbed} has nonzero entries"):
            viscoelastic_disc.element_operators(ids)


class TestShapesAndValidation:
    def test_basic_shapes(self, viscoelastic_disc):
        disc = viscoelastic_disc
        K = disc.n_elements
        assert disc.n_vars == 27  # 9 elastic + 3 mechanisms x 6
        assert disc.star_stress.shape == (K, 6, 9)
        assert disc.star_velocity.shape == (K, 3, 18)
        assert disc.star_anelastic.shape == (K, 6, 9)
        assert disc.coupling.shape == (K, 6, 18)
        assert disc.flux_solvers.shape == (K, 4, 9, 18)
        assert disc.flux_anelastic.shape == (K, 4, 6, 6)
        assert disc.flux_local_elastic.shape == (K, 4, 9, 9)
        assert disc.flux_neigh_anelastic.shape == (K, 4, 6, 3)
        assert disc.time_steps.shape == (K,)
        assert np.all(disc.time_steps > 0)

    def test_elastic_only_has_nine_variables(self, elastic_disc):
        assert elastic_disc.n_vars == 9
        assert elastic_disc.omegas.size == 0

    def test_material_size_mismatch_raises(self):
        mesh = small_mesh(n=2)
        table = MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), 3)
        with pytest.raises(ValueError):
            Discretization(mesh, table, order=3)

    def test_invalid_flux_raises(self):
        mesh = small_mesh(n=2)
        table = MaterialTable.homogeneous(ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements)
        with pytest.raises(ValueError):
            Discretization(mesh, table, order=3, flux="roe")


class TestNeighborFluxMatrices:
    def test_unique_count_is_small(self, elastic_disc):
        """The per-face neighbour projection matrices must deduplicate into the
        small unique set (the paper's 12 F_bar matrices under EDGE's canonical
        ordering; at most 24 for arbitrary orderings)."""
        assert 1 <= elastic_disc.n_unique_neighbor_matrices <= 24

    def test_index_assignment(self, elastic_disc):
        idx = elastic_disc.neighbor_flux_index
        interior = elastic_disc.mesh.neighbors >= 0
        assert np.all(idx[interior] >= 0)
        assert np.all(idx[~interior] == -1)

    def test_neighbor_projection_reproduces_trace(self, elastic_disc):
        """Projecting a neighbour's polynomial through F_bar must equal the
        pointwise trace of that polynomial on the shared face."""
        disc = elastic_disc
        mesh = disc.mesh
        ref = disc.ref
        rng = np.random.default_rng(0)
        # pick an interior face
        k, i = np.argwhere(mesh.neighbors >= 0)[0]
        neighbor = mesh.neighbors[k, i]
        coeffs = rng.normal(size=(1, ref.n_basis))

        fbar = disc.neighbor_flux_matrices[disc.neighbor_flux_index[k, i]]
        face_coeffs = coeffs @ fbar  # (1, F)
        chi = ref.face_basis_at_quad
        trace_from_projection = face_coeffs @ chi.T  # values at local face quad points

        # direct evaluation: map local face quad points to physical space and
        # into the neighbour's reference coordinates
        from repro.mesh.geometry import map_physical_to_reference, map_reference_to_physical

        phys = map_reference_to_physical(
            mesh.vertices, mesh.elements, np.array([k]), ref.face_quad_points[i]
        )[0]
        xi_neigh = map_physical_to_reference(mesh.vertices, mesh.elements, neighbor, phys)
        trace_direct = coeffs @ ref.basis.evaluate(xi_neigh).T
        np.testing.assert_allclose(trace_from_projection, trace_direct, atol=1e-8)


class TestFluxSolverScaling:
    def test_flux_solver_includes_geometry_factor(self, elastic_disc):
        """For equal traces, local + neighbour flux matrices must equal the
        scaled normal Jacobian (consistency), including the -2|S|/|J| factor."""
        disc = elastic_disc
        mesh = disc.mesh
        mat = disc.materials
        from repro.equations.riemann import elastic_normal_jacobian

        k, i = np.argwhere(mesh.neighbors >= 0)[0]
        normal = mesh.geometry.face_normals[k, i]
        an = elastic_normal_jacobian(mat.lam[k], mat.mu[k], mat.rho[k], normal)
        scale = -2.0 * mesh.geometry.face_areas[k, i] / mesh.geometry.determinants[k]
        combined = disc.flux_local_elastic[k, i] + disc.flux_neigh_elastic[k, i]
        np.testing.assert_allclose(combined, scale * an, rtol=1e-9, atol=1e-6)


def _layered_materials(mesh):
    """Three materials by depth, so faces see unequal sides."""
    z = mesh.centroids[:, 2]
    third = np.digitize(z, np.quantile(z, [1 / 3, 2 / 3]))
    return MaterialTable(
        rho=np.array([2600.0, 2700.0, 2800.0])[third],
        vp=np.array([4000.0, 6000.0, 6900.0])[third],
        vs=np.array([2000.0, 3464.0, 3900.0])[third],
        qp=np.array([120.0, 155.9, 200.0])[third],
        qs=np.array([40.0, 69.3, 90.0])[third],
    )


def _per_face_flux_solvers(disc):
    """The per-face loop of scalar builder calls the batched assembly replaced."""
    mesh, mat, geometry = disc.mesh, disc.materials, disc.mesh.geometry
    builder = getattr(riemann, f"{disc.flux}_flux_matrices")
    shapes = {"elastic": (9, 9), "anelastic": (6, 9)}
    out = {
        f"flux_{side}_{part}": np.empty((mesh.n_elements, 4) + shape)
        for side in ("local", "neigh") for part, shape in shapes.items()
    }
    for k in range(mesh.n_elements):
        for i in range(4):
            normal = geometry.face_normals[k, i]
            n = mesh.neighbors[k, i] if mesh.neighbors[k, i] >= 0 else k
            g_local, g_neigh = builder(
                mat.lam[k], mat.mu[k], mat.rho[k], mat.lam[n], mat.mu[n], mat.rho[n], normal
            )
            ga_local = ga_neigh = 0.5 * riemann.anelastic_normal_jacobian(normal)
            if mesh.neighbors[k, i] < 0 and mesh.boundary_tags[k, i] == BOUNDARY_FREE_SURFACE:
                ghost = riemann.free_surface_ghost_operator(normal)
                g_neigh, ga_neigh = g_neigh @ ghost, ga_neigh @ ghost
            scale = -2.0 * geometry.face_areas[k, i] / geometry.determinants[k]
            out["flux_local_elastic"][k, i] = scale * g_local
            out["flux_neigh_elastic"][k, i] = scale * g_neigh
            out["flux_local_anelastic"][k, i] = scale * ga_local
            out["flux_neigh_anelastic"][k, i] = scale * ga_neigh
    return out


class TestBatchedFluxSolvers:
    @pytest.fixture(scope="class")
    def tagged_mesh(self):
        """Free-surface top, analytic bottom, absorbing sides."""
        mesh = small_mesh(n=3, jitter=0.15, seed=3)
        boundary = mesh.neighbors < 0
        face_z = mesh.geometry.face_centroids[..., 2]
        mesh.boundary_tags[boundary & np.isclose(face_z, face_z.max())] = BOUNDARY_FREE_SURFACE
        mesh.boundary_tags[boundary & np.isclose(face_z, face_z.min())] = BOUNDARY_ANALYTIC
        tags = set(mesh.boundary_tags[boundary].tolist())
        assert tags == {BOUNDARY_FREE_SURFACE, BOUNDARY_ABSORBING, BOUNDARY_ANALYTIC}
        return mesh

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    @pytest.mark.parametrize("flux", ["rusanov", "godunov"])
    def test_equals_per_face_loop(self, tagged_mesh, flux, n_mechanisms, precision, monkeypatch):
        # several chunks, the last one ragged
        monkeypatch.setattr(discretization, "_ASSEMBLY_CHUNK", 50)
        disc = Discretization(
            tagged_mesh, _layered_materials(tagged_mesh), order=2, flux=flux,
            n_mechanisms=n_mechanisms, precision=precision,
        )
        per_face = _per_face_flux_solvers(disc)
        # the dense 15-row block: elastic rows over anelastic, [local | neigh]
        dense = np.block([
            [per_face["flux_local_elastic"], per_face["flux_neigh_elastic"]],
            [per_face["flux_local_anelastic"], per_face["flux_neigh_anelastic"]],
        ]).astype(disc.dtype)
        # the anelastic rows read only the [local | neigh] velocity columns:
        # every column the split drops is an exact zero, on every face kind
        velocities = [6, 7, 8, 15, 16, 17]
        dropped = np.setdiff1d(np.arange(18), velocities)
        assert not dense[:, :, 9:][..., dropped].any()
        for name, array, expected in (
            ("flux_solvers", disc.flux_solvers, dense[:, :, :9]),
            ("flux_anelastic", disc.flux_anelastic, dense[:, :, 9:][..., velocities]),
        ):
            assert array.shape == expected.shape and array.dtype == disc.dtype, name
            assert _bitwise_equal(array, expected), name

    def test_assembly_refuses_an_anelastic_solver_that_reads_a_stress(self, monkeypatch):
        """``flux_anelastic`` keeps only the velocity columns: a
        free-surface ghost product whose normal Jacobian has a nonzero
        stress column is refused, not truncated."""
        normal_jacobian = discretization.anelastic_normal_jacobian

        def perturbed(normals):
            jacobian = normal_jacobian(normals)
            jacobian[..., 2, 0] = 1e-300
            return jacobian

        monkeypatch.setattr(discretization, "anelastic_normal_jacobian", perturbed)
        coords = np.linspace(0.0, 2000.0, 3)
        mesh = box_mesh(coords, coords, coords, jitter=0.1)  # free-surface top
        disc = Discretization(mesh, _layered_materials(mesh), order=2, n_mechanisms=3)
        with pytest.raises(ValueError, match="nonzero stress columns"):
            disc.assemble_element_operators()

    def test_init_calls_builders_per_chunk_not_per_element(self, monkeypatch):
        """A deterministic stand-in for a wall-clock guard: assembly enters
        the Riemann builders O(1) times per chunk (the Godunov builder for
        the chunk, either builder for its free-surface faces) and evaluates
        no tet basis: ``F_bar`` comes from the reference element's table."""
        coords = np.linspace(0.0, 8000.0, 9)
        mesh = box_mesh(coords, coords, coords, jitter=0.1)
        assert mesh.n_elements >= 3000
        calls = {}

        def counted(namespace, name):
            original = getattr(namespace, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(namespace, name, wrapper)

        for name in ("rusanov_flux_matrices", "godunov_flux_matrices",
                     "anelastic_normal_jacobian", "free_surface_ghost_operator"):
            counted(discretization, name)
        for name in ("elastic_normal_jacobian", "elastic_upwind_split", "elastic_rotation_matrix"):
            counted(riemann, name)
        reference_element(3)  # built (and cached) before the count starts
        basis_rows = []
        evaluate = TetBasis.evaluate
        monkeypatch.setattr(
            TetBasis, "evaluate", lambda self, xi: basis_rows.append(len(xi)) or evaluate(self, xi)
        )

        for flux in ("rusanov", "godunov"):
            disc = Discretization(mesh, _layered_materials(mesh), order=3, flux=flux)
            disc.assemble_element_operators()  # the element operators come on first read
        n_chunks = -(-mesh.n_elements // discretization._ASSEMBLY_CHUNK)
        assert n_chunks <= 8
        assert all(count <= 6 * n_chunks for count in calls.values()), calls
        assert 1 <= calls["rusanov_flux_matrices"] <= n_chunks
        assert n_chunks < calls["godunov_flux_matrices"] <= 2 * n_chunks
        assert basis_rows == []


def _composed_element_operators(disc) -> dict:
    """The element operators as the public builders compose them: the
    dense Riemann solvers of every face in one call, ghost-state products on
    the free-surface faces, times ``-2 |S| / |J|``; the dense star stacks
    and coupling matrices; packed into the compact layout and cast once."""
    mesh, mat, geometry = disc.mesh, disc.materials, disc.mesh.geometry
    lam, mu, rho = mat.lam, mat.mu, mat.rho
    n, m = disc.n_elements, disc.n_mechanisms
    boundary = mesh.neighbors < 0
    other = np.where(boundary, np.arange(n)[:, None], mesh.neighbors)
    free_surface = boundary & (mesh.boundary_tags == BOUNDARY_FREE_SURFACE)
    normals = geometry.face_normals
    builder = getattr(riemann, f"{disc.flux}_flux_matrices")
    g_local, g_neigh = builder(
        lam[:, None], mu[:, None], rho[:, None], lam[other], mu[other], rho[other], normals
    )
    ga_local = 0.5 * riemann.anelastic_normal_jacobian(normals)
    ga_neigh = ga_local.copy()
    ghost = riemann.free_surface_ghost_operator(normals[free_surface])
    g_neigh[free_surface] = g_neigh[free_surface] @ ghost
    ga_neigh[free_surface] = ga_neigh[free_surface] @ ghost
    scale = (-2.0 * geometry.face_areas / geometry.determinants[:, None])[..., None, None]
    anelastic = np.concatenate([scale * ga_local, scale * ga_neigh], axis=-1)

    def compact(star):  # (K, c, i, j) -> (K, i, 3 j + c)
        return star.transpose(0, 2, 3, 1).reshape(n, star.shape[2], 3 * star.shape[3])

    star_e = elastic_star_matrices(geometry.inverse_jacobians, lam, mu, rho)
    star_a = anelastic_star_matrices(geometry.inverse_jacobians)[:, :, : 6 if m else 0]
    coupling = (
        coupling_matrices(*anelastic_lame_parameters(lam, mu, mat.qp, mat.qs, disc.spectrum))
        if m else np.zeros((n, 0, 9, 6))
    )
    operators = {
        "star_stress": compact(star_e[:, :, :6, 6:]),
        "star_velocity": compact(star_e[:, :, 6:, :6]),
        "star_anelastic": compact(star_a[..., 6:]),
        "coupling": coupling[:, :, :6].transpose(0, 2, 1, 3).reshape(n, 6, 6 * m),
        "flux_solvers": np.concatenate([scale * g_local, scale * g_neigh], axis=-1),
        "flux_anelastic": anelastic[..., [6, 7, 8, 15, 16, 17]],
    }
    return {name: array.astype(disc.dtype) for name, array in operators.items()}


class TestFillIsTheBuildersComposition:
    """The in-place fill at the nonzero tables writes bitwise, signed
    zeros included, what the public Riemann, star and coupling builders
    compose -- on an unjittered box, whose normals and inverse Jacobians
    hold exact zeros of both signs, and on a jittered one."""

    @pytest.fixture(scope="class", params=["unjittered", "jittered"])
    def mesh(self, request):
        """A box with a free-surface top and absorbing sides."""
        coords = np.linspace(0.0, 2000.0, 4)
        jitter = 0.0 if request.param == "unjittered" else 0.15
        mesh = box_mesh(coords, coords, coords, jitter=jitter, seed=3)
        assert (mesh.boundary_tags == BOUNDARY_FREE_SURFACE).any()
        if request.param == "unjittered":
            for exact in (mesh.geometry.face_normals, mesh.geometry.inverse_jacobians):
                zeros = exact[exact == 0.0]
                assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        return mesh

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    @pytest.mark.parametrize("flux", ["rusanov", "godunov"])
    def test_element_operators_are_the_builders_bytes(
        self, mesh, flux, n_mechanisms, precision, monkeypatch
    ):
        from repro.parallel.partition import partition_dual_graph

        # several chunks, the last one ragged
        monkeypatch.setattr(discretization, "_ASSEMBLY_CHUNK", 50)
        disc = Discretization(
            mesh, _layered_materials(mesh), order=2, flux=flux, n_mechanisms=n_mechanisms,
            precision=precision,
        )
        parts = partition_dual_graph(mesh.neighbors, np.ones(disc.n_elements), 2).partitions
        rows = np.flatnonzero(parts == 1)
        rank = disc.restricted(rows, np.full((len(rows), 4), -1))
        expected = _composed_element_operators(disc)
        for name in discretization.ELEMENT_OPERATORS:
            assert _bitwise_equal(getattr(disc, name), expected[name]), name
            assert _bitwise_equal(getattr(rank, name), expected[name][rows]), name


FLUX_VIEWS = {
    "flux_local_elastic": ("flux_solvers", slice(None, 9)),
    "flux_neigh_elastic": ("flux_solvers", slice(9, None)),
    "flux_local_anelastic": ("flux_anelastic", slice(None, 3)),
    "flux_neigh_anelastic": ("flux_anelastic", slice(3, None)),
}


class TestOneFluxSolverArray:
    """The flux solvers exist once per discretization: the per-kind names
    and the fast correction's operand are views of ``flux_solvers``."""

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    def test_views_and_fast_operand_share_the_array(self, n_mechanisms, precision):
        mesh = small_mesh(n=2, jitter=0.1)
        disc = Discretization(
            mesh, _layered_materials(mesh), order=2, n_mechanisms=n_mechanisms,
            precision=precision,
        )
        for name, (array, columns) in FLUX_VIEWS.items():
            view = getattr(disc, name)
            assert view.base is getattr(disc, array), name
            assert view.dtype == disc.dtype, name
            assert np.array_equal(view, getattr(disc, array)[..., columns]), name
        data = FastBackend()._disc_data(disc)
        assert data.flux is disc.flux_solvers
        assert data.flux_anelastic is (disc.flux_anelastic if n_mechanisms else None)

    @pytest.mark.parametrize("batch", ["slice", "ids"])
    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_ref_surface_kernels_read_views_bitwise(self, viscoelastic_disc, batch, n_fused):
        """The ref surface kernels give the same bits on the views as on
        contiguous copies of them, for slice and index-array batches."""
        disc = viscoelastic_disc
        copy = copy_module.copy(disc)
        for name in FLUX_VIEWS:
            assert not getattr(disc, name).flags.c_contiguous, name
            setattr(copy, name, np.ascontiguousarray(getattr(disc, name)))
        elements = slice(2, 40) if batch == "slice" else np.array([1, 5, 6, 7, 30, 31, 45])
        n = len(np.arange(disc.n_elements)[elements])
        rng = np.random.default_rng(4)
        fused = (n_fused,) if n_fused else ()
        integrated = rng.standard_normal((n, disc.n_vars, disc.n_basis) + fused)
        coeffs = rng.standard_normal((n, 4, 9, disc.n_face_basis) + fused)
        for kernel, args in (
            (surface.surface_kernel_local, (integrated, elements)),
            (surface.surface_kernel_neighbor, (coeffs, elements)),
        ):
            assert np.array_equal(kernel(disc, *args), kernel(copy, *args)), kernel.__name__


    @pytest.mark.parametrize("n_fused", [0, 2])
    def test_ref_surface_kernels_on_the_compact_block_are_the_dense_einsum(
        self, viscoelastic_disc, n_fused
    ):
        """Both ref surface kernels, which contract the anelastic solvers'
        velocity columns with the traces' velocity rows, give the bits
        (signed zeros included) of the nine-column contraction with the
        dropped zero columns put back."""
        disc = viscoelastic_disc
        elements = slice(3, 50)
        n = len(range(disc.n_elements)[elements])
        rng = np.random.default_rng(11)
        fused = (n_fused,) if n_fused else ()
        coeffs = rng.standard_normal((n, 4, 9, disc.n_face_basis) + fused)
        # exact zeros of both signs, whole faces and scattered entries
        coeffs[0] = -0.0
        coeffs[1, 2] = 0.0
        coeffs[rng.random(coeffs.shape) < 0.05] = -0.0
        for kernel, side, args in (
            (surface.surface_kernel_local, "local",
             (np.zeros((n, disc.n_vars, disc.n_basis) + fused), elements, coeffs)),
            (surface.surface_kernel_neighbor, "neigh", (coeffs, elements)),
        ):
            dense = np.zeros((n, 4, 6, 9))
            dense[..., 6:] = getattr(disc, f"flux_{side}_anelastic")[elements]
            expected = _dense_surface_kernel(
                disc, coeffs, getattr(disc, f"flux_{side}_elastic")[elements], dense
            )
            assert kernel(disc, *args).tobytes() == expected.tobytes(), kernel.__name__


def _dense_surface_kernel(disc, coeffs, flux_e, flux_a):
    """Both surface kernels as they contracted the ``(6, 9)`` anelastic
    flux solvers with all nine trace rows."""
    out = np.zeros((len(coeffs), disc.n_vars, disc.n_basis) + coeffs.shape[4:])
    for i in range(4):
        solved = np.einsum("evw,ewf...->evf...", flux_e[:, i], coeffs[:, i])
        out[:, :9] += np.einsum("evf...,fb->evb...", solved, disc.fhat[i])
        solved_a = np.einsum("evw,ewf...->evf...", flux_a[:, i], coeffs[:, i])
        contrib_a = np.einsum("evf...,fb->evb...", solved_a, disc.fhat[i])
        for l in range(disc.n_mechanisms):
            out[:, 9 + 6 * l : 15 + 6 * l] += disc.omegas[l] * contrib_a
    return out


def _all_faces_fbar(disc):
    """Brute force: the physical-roundtrip ``F_bar`` of every interior face,
    ``(n_interior, B, F)`` in ``np.nonzero(mesh.neighbors >= 0)`` order."""
    mesh, ref = disc.mesh, disc.ref
    element, face = np.nonzero(mesh.neighbors >= 0)
    neigh = mesh.neighbors[element, face]
    v0 = mesh.vertices[mesh.elements[:, 0]]
    phys = v0[element, None] + np.einsum(
        "kdr,kqr->kqd", mesh.geometry.jacobians[element], ref.face_quad_points[face]
    )
    xi = np.einsum("krd,kqd->kqr", mesh.geometry.inverse_jacobians[neigh], phys - v0[neigh, None])
    psi = ref.basis.evaluate(xi.reshape(-1, 3)).reshape(len(element), -1, ref.n_basis)
    return np.einsum("q,kqb,qf->kbf", ref.face_quadrature.weights, psi, ref.face_basis_at_quad)


class TestNeighborClasses:
    @pytest.fixture(scope="class", params=["loh3-l", "jittered"])
    def case(self, request):
        """``(disc, brute-force F_bar of every interior face)``."""
        if request.param == "loh3-l":
            # the 7200-element LOH.3 mesh of the benchmark's loh3-l-setup
            disc = build_setup(get_scenario("loh3", characteristic_length=800.0)).disc
        else:
            mesh = small_mesh(n=4, jitter=0.25, seed=5)
            table = MaterialTable.homogeneous(
                ElasticMaterial(2700.0, 6000.0, 3464.0), mesh.n_elements
            )
            disc = Discretization(mesh, table, order=3)
        return disc, _all_faces_fbar(disc)

    def test_stored_matrices_match_all_faces_brute_force(self, case):
        disc, brute_force = case
        interior = disc.mesh.neighbors >= 0
        stored = disc.neighbor_flux_matrices[disc.neighbor_flux_index[interior]]
        assert np.abs(stored - brute_force).max() <= 1e-13

    def test_one_matrix_per_orientation(self, case):
        """Every stored ``F_bar`` is the reference table's entry of its
        faces' orientation, bitwise, one per orientation the mesh uses,
        numbered by orientation code (the LOH.3 L mesh is where a per-mesh
        evaluation found round-off twins 1.1e-14 apart)."""
        disc, _ = case
        interior = disc.mesh.neighbors >= 0
        codes = disc.mesh.neighbor_face_classes[interior]
        index = disc.neighbor_flux_index[interior]
        used = np.unique(codes)
        assert disc.n_unique_neighbor_matrices == len(used)
        np.testing.assert_array_equal(index, np.searchsorted(used, codes))
        rows = np.searchsorted(ORIENTATION_CODES, used)
        np.testing.assert_array_equal(ORIENTATION_CODES[rows], used)
        assert _bitwise_equal(disc.neighbor_flux_matrices, disc.ref.neighbor_flux[rows])
        if disc.n_elements == 7200:
            assert len(used) == 6

    def test_per_face_matrices_and_operators_are_invariant_under_element_order(self, case):
        """``mesh.permuted(p)`` assembles the permuted rows of every
        operator and the same ``F_bar`` per face, bit for bit."""
        disc, _ = case
        p = np.random.default_rng(7).permutation(disc.n_elements)
        kwargs = {"order": disc.order, "n_mechanisms": disc.n_mechanisms, "flux": disc.flux}
        plain = Discretization(disc.mesh, disc.materials, **kwargs)
        permuted = Discretization(disc.mesh.permuted(p), disc.materials.subset(p), **kwargs)

        def per_face(d):
            return d.neighbor_flux_matrices[d.neighbor_flux_index]

        assert _bitwise_equal(per_face(permuted), per_face(plain)[p])
        ours, theirs = permuted.operator_arrays(), plain.operator_arrays()
        for name in discretization.SHARED_OPERATORS:
            assert _bitwise_equal(ours[name], theirs[name]), name
        for name in discretization.ELEMENT_OPERATORS + ("neighbor_flux_index",):
            assert _bitwise_equal(ours[name], theirs[name][p]), name

    def test_reference_table_holds_ftilde_and_distinct_orientations(self):
        """The table's entry of face ``i``'s own vertex triple is
        ``ftilde[i]``, and no two orientations share a matrix, so counting
        orientations counts distinct matrices."""
        ref = reference_element(3)
        assert ref.neighbor_flux.shape == (24, ref.n_basis, ref.n_face_basis)
        for i, triple in enumerate(FACE_VERTEX_IDS):
            table = ref.neighbor_flux[NEIGHBOR_ORIENTATIONS.index(triple)]
            assert _bitwise_equal(table, ref.ftilde[i]), i
        flat = ref.neighbor_flux.reshape(24, -1)
        gaps = np.abs(flat[:, None] - flat[None, :]).max(axis=-1)
        assert gaps[~np.eye(24, dtype=bool)].min() > 1e-3


class TestDofHelpers:
    def test_allocate_and_views(self, viscoelastic_disc):
        disc = viscoelastic_disc
        dofs = disc.allocate_dofs()
        assert dofs.shape == (disc.n_elements, 27, disc.n_basis)
        fused = disc.allocate_dofs(n_fused=4)
        assert fused.shape == (disc.n_elements, 27, disc.n_basis, 4)
        assert disc.elastic_view(dofs).shape[1] == 9
        assert disc.anelastic_view(dofs, 2).shape[1] == 6

    def test_project_initial_condition_roundtrip(self, elastic_disc):
        disc = elastic_disc

        def ic(points):
            out = np.zeros((len(points), 9))
            out[:, 6] = np.sin(2 * np.pi * points[:, 0] / 2000.0)
            out[:, 0] = points[:, 1] / 2000.0
            return out

        dofs = disc.project_initial_condition(ic)
        # evaluate at element centroids and compare with the analytic field
        centers = np.full((1, 3), 0.25)
        values = disc.evaluate_at_points(dofs, np.arange(disc.n_elements), centers)
        phys = disc.mesh.vertices[disc.mesh.elements][:, 0] + np.einsum(
            "kdr,r->kd", disc.mesh.geometry.jacobians, centers[0]
        )
        expected_u = np.sin(2 * np.pi * phys[:, 0] / 2000.0)
        np.testing.assert_allclose(values[:, 0, 6], expected_u, atol=0.05)

    def test_project_initial_condition_elastic_padding(self, viscoelastic_disc):
        disc = viscoelastic_disc

        def ic(points):
            return np.ones((len(points), 9))

        dofs = disc.project_initial_condition(ic)
        assert dofs.shape[1] == 27
        np.testing.assert_allclose(dofs[:, 9:, :], 0.0)

    def test_project_initial_condition_wrong_width_raises(self, viscoelastic_disc):
        with pytest.raises(ValueError):
            viscoelastic_disc.project_initial_condition(lambda p: np.ones((len(p), 5)))

    def test_fused_initial_condition(self, elastic_disc):
        dofs = elastic_disc.project_initial_condition(lambda p: np.ones((len(p), 9)), n_fused=3)
        assert dofs.shape[-1] == 3
        np.testing.assert_allclose(dofs[..., 0], dofs[..., 2])


def _bitwise_equal(a, b) -> bool:
    """Same shape, dtype and bytes: unlike ``array_equal``, the sign of a
    zero counts."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def smoke_meshes():
    """Mesh and materials of every registered scenario's smoke spec."""
    from repro.scenarios import scenario_names
    from repro.scenarios.runner import staged_setup

    return {
        name: (setup.mesh, setup.materials)
        for name in scenario_names()
        for setup in [staged_setup(get_scenario(name).smoke())]
    }


class TestElementOperatorsOfAnyRows:
    """One routine assembles the element operators of any element ids: a
    restricted discretization's rows are bitwise the whole set's, and
    building it leaves the whole set unassembled."""

    def test_the_meshes_carry_free_surface_and_absorbing_faces(self, smoke_meshes):
        tags = set()
        for mesh, _ in smoke_meshes.values():
            tags |= set(mesh.boundary_tags[mesh.neighbors < 0].tolist())
        assert {BOUNDARY_FREE_SURFACE, BOUNDARY_ABSORBING} <= tags

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    @pytest.mark.parametrize("n_mechanisms", [0, 3])
    @pytest.mark.parametrize("flux", ["rusanov", "godunov"])
    def test_restricted_rows_are_the_whole_sets_rows(
        self, smoke_meshes, flux, n_mechanisms, precision, monkeypatch
    ):
        from repro.parallel.partition import partition_dual_graph

        # several chunks, ragged, cut differently for the whole set and a subset
        monkeypatch.setattr(discretization, "_ASSEMBLY_CHUNK", 50)
        rng = np.random.default_rng(7)
        for scenario, (mesh, materials) in smoke_meshes.items():
            disc = Discretization(
                mesh, materials, order=2, n_mechanisms=n_mechanisms, flux=flux,
                precision=precision,
            )
            n = disc.n_elements
            parts = partition_dual_graph(mesh.neighbors, np.ones(n), 2).partitions
            row_sets = [np.flatnonzero(parts == 0), np.flatnonzero(parts == 1),
                        rng.permutation(n)[: n // 3]]
            restricted = [disc.restricted(rows, np.full((len(rows), 4), -1)) for rows in row_sets]
            assert "flux_solvers" not in vars(disc), scenario  # no whole set was built
            for rows, local in zip(row_sets, restricted):
                for name in discretization.ELEMENT_OPERATORS + discretization.FLUX_VIEWS:
                    assert name in vars(local), (scenario, name)
                    assert _bitwise_equal(getattr(local, name), getattr(disc, name)[rows]), (
                        scenario, name,
                    )
                for name, (array, _) in FLUX_VIEWS.items():
                    assert getattr(local, name).base is getattr(local, array), (scenario, name)

    def test_the_first_read_assembles_the_whole_set_once(self, monkeypatch):
        mesh = small_mesh(n=2, jitter=0.1)
        disc = Discretization(mesh, _layered_materials(mesh), order=2, n_mechanisms=3)
        calls = []
        assemble = Discretization.element_operators
        monkeypatch.setattr(
            Discretization, "element_operators",
            lambda self, ids: calls.append(np.array(ids)) or assemble(self, ids),
        )
        assert not set(discretization.ELEMENT_OPERATORS) & set(vars(disc))
        star = disc.star_stress
        assert len(calls) == 1 and np.array_equal(calls[0], np.arange(disc.n_elements))
        assert star is vars(disc)["star_stress"]
        for name in discretization.ELEMENT_OPERATORS + discretization.FLUX_VIEWS:
            assert name in vars(disc), name
        disc.flux_local_elastic, disc.assemble_element_operators()
        assert len(calls) == 1
        with pytest.raises(AttributeError, match="no attribute 'star_elastic'"):
            disc.star_elastic
