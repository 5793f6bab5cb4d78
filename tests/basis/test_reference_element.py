"""Unit tests for the reference-element operator matrices."""

import numpy as np
import pytest

from repro.basis.quadrature import triangle_quadrature
from repro.basis.reference_element import (
    FACE_VERTEX_IDS,
    NEIGHBOR_ORIENTATIONS,
    REFERENCE_VERTICES,
    ReferenceElement,
    reference_element,
)


@pytest.fixture(scope="module", params=[2, 3, 4])
def ref_elem(request):
    return reference_element(request.param)


class TestMassAndStiffness:
    def test_mass_is_identity(self, ref_elem):
        np.testing.assert_allclose(ref_elem.mass, np.eye(ref_elem.n_basis), atol=1e-10)

    def test_stiffness_shapes(self, ref_elem):
        B = ref_elem.n_basis
        assert ref_elem.k_time.shape == (3, B, B)
        assert ref_elem.k_vol.shape == (3, B, B)

    def test_time_kernel_operator_differentiates_exactly(self, ref_elem):
        """Right-multiplying modal coefficients by k_time_c must equal the
        L2 projection of the xi_c derivative (exact, since the derivative of a
        degree O-1 polynomial is degree O-2 and lies in the space)."""
        order = ref_elem.order
        quad = ref_elem.volume_quadrature
        psi = ref_elem.basis.evaluate(quad.points)
        dpsi = ref_elem.basis.evaluate_gradient(quad.points)
        rng = np.random.default_rng(3)
        coeffs = rng.normal(size=(2, ref_elem.n_basis))
        for c in range(3):
            derived = coeffs @ ref_elem.k_time[c]
            values = np.einsum("vb,qb->qv", derived, psi)
            expected = np.einsum("vb,qb->qv", coeffs, dpsi[:, :, c])
            np.testing.assert_allclose(values, expected, atol=1e-9)

    def test_volume_is_transpose_related_to_time(self, ref_elem):
        # With an orthonormal basis, k_vol_c = k_time_c^T.
        for c in range(3):
            np.testing.assert_allclose(
                ref_elem.k_vol[c], ref_elem.k_time[c].T, atol=1e-10
            )

    def test_constant_mode_has_zero_derivative_row(self, ref_elem):
        # d/dxi of the constant mode vanishes -> first row of k_time is zero.
        for c in range(3):
            np.testing.assert_allclose(ref_elem.k_time[c][0, :], 0.0, atol=1e-10)


class TestFaceOperators:
    def test_face_parametrization_hits_vertices(self, ref_elem):
        for face, (ia, ib, ic) in enumerate(FACE_VERTEX_IDS):
            corners = ref_elem.face_parametrization(face, np.array([[0, 0], [1, 0], [0, 1]]))
            np.testing.assert_allclose(corners[0], REFERENCE_VERTICES[ia])
            np.testing.assert_allclose(corners[1], REFERENCE_VERTICES[ib])
            np.testing.assert_allclose(corners[2], REFERENCE_VERTICES[ic])

    def test_ftilde_fhat_consistency(self, ref_elem):
        """The two-step surface projection must reproduce the one-step face
        mass matrix: F̃_i F̃_i^T == ∫ psi_b psi_b' du dv (paper Sec. V-C)."""
        for i in range(4):
            product = ref_elem.ftilde[i] @ ref_elem.ftilde[i].T
            np.testing.assert_allclose(product, ref_elem.fsurf[i], atol=1e-10)

    def test_fhat_is_inverse_mass_times_ftilde_transposed(self, ref_elem):
        for i in range(4):
            np.testing.assert_allclose(
                ref_elem.fhat[i], ref_elem.ftilde[i].T @ ref_elem.inv_mass, atol=1e-12
            )

    def test_shapes_match_paper_dimensions(self):
        elem = reference_element(5)
        assert elem.ftilde.shape == (4, 35, 15)
        assert elem.fhat.shape == (4, 15, 35)

    def test_trace_projection_exact_for_polynomials(self, ref_elem):
        """Projecting an element polynomial's trace onto the face basis and
        evaluating it back must reproduce the trace pointwise."""
        rng = np.random.default_rng(11)
        coeffs = rng.normal(size=(1, ref_elem.n_basis))
        quad = triangle_quadrature(ref_elem.order + 2)
        chi = ref_elem.face_basis.evaluate(quad.points)
        for i in range(4):
            face_coeffs = coeffs @ ref_elem.ftilde[i]  # (1, F)
            trace_from_face = face_coeffs @ chi.T  # (1, nqf)
            pts = ref_elem.face_parametrization(i, quad.points)
            trace_direct = coeffs @ ref_elem.basis.evaluate(pts).T
            np.testing.assert_allclose(trace_from_face, trace_direct, atol=1e-9)


def per_orientation_tables(ref) -> dict:
    """The face tables built one orientation at a time: one basis evaluation
    and one quadrature sum per vertex triple."""

    def points(vertex_ids, uv):
        a, b, c = (REFERENCE_VERTICES[i] for i in vertex_ids)
        return a[None, :] + uv[:, 0:1] * (b - a)[None, :] + uv[:, 1:2] * (c - a)[None, :]

    quad = ref.face_quadrature
    w, chi = quad.weights, ref.face_basis.evaluate(quad.points)
    psi = {t: ref.basis.evaluate(points(t, quad.points)) for t in NEIGHBOR_ORIENTATIONS}
    neighbor_flux = np.stack(
        [np.einsum("q,qb,qf->bf", w, psi[t], chi) for t in NEIGHBOR_ORIENTATIONS]
    )
    ftilde = neighbor_flux[[NEIGHBOR_ORIENTATIONS.index(t) for t in FACE_VERTEX_IDS]]
    return {
        "neighbor_flux": neighbor_flux,
        "ftilde": ftilde,
        "fhat": np.stack([ft.T @ ref.inv_mass for ft in ftilde]),
        "fsurf": np.stack([np.einsum("q,qb,qc->bc", w, psi[t], psi[t]) for t in FACE_VERTEX_IDS]),
        "face_quad_points": np.stack([points(t, quad.points) for t in FACE_VERTEX_IDS]),
    }


@pytest.mark.parametrize("order", range(1, 7))
def test_face_tables_are_the_per_orientation_construction(order):
    """Evaluating the basis once on the points of all 24 orientations gives
    the same bytes as one evaluation per orientation."""
    ref = ReferenceElement(order)
    for name, expected in per_orientation_tables(ref).items():
        ours = getattr(ref, name)
        assert ours.shape == expected.shape and ours.dtype == expected.dtype, name
        assert ours.tobytes() == expected.tobytes(), name


class TestProjection:
    def test_project_and_evaluate_roundtrip(self):
        elem = reference_element(4)

        def func(pts):
            x, y, z = pts.T
            return np.stack([x**2 + y, 2.0 * z**3 - x * y], axis=1)

        coeffs = elem.project_function(func)
        pts = np.array([[0.1, 0.2, 0.3], [0.3, 0.3, 0.1]])
        values = elem.evaluate_solution(coeffs, pts)
        np.testing.assert_allclose(values, func(pts).T, atol=1e-10)

    def test_reference_element_cache(self):
        assert reference_element(3) is reference_element(3)
