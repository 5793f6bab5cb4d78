"""Unit tests for Jacobi polynomials and Gauss quadrature."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.basis.jacobi import gauss_jacobi, gauss_legendre, jacobi, jacobi_derivative


class TestJacobiValues:
    def test_degree_zero_is_one(self):
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(jacobi(0, 0.3, 1.2, x), np.ones_like(x))

    def test_degree_one_linear(self):
        x = np.linspace(-1, 1, 11)
        alpha, beta = 1.5, 0.5
        expected = 0.5 * (alpha - beta + (alpha + beta + 2) * x)
        np.testing.assert_allclose(jacobi(1, alpha, beta, x), expected)

    def test_legendre_special_case_matches_numpy(self):
        x = np.linspace(-1, 1, 21)
        for n in range(6):
            coeffs = np.zeros(n + 1)
            coeffs[n] = 1.0
            expected = np.polynomial.legendre.legval(x, coeffs)
            np.testing.assert_allclose(jacobi(n, 0.0, 0.0, x), expected, atol=1e-12)

    def test_value_at_one(self):
        # P_n^{(a,b)}(1) = binom(n + a, n)
        from math import comb

        for n in range(6):
            for a in (0, 1, 2):
                expected = comb(n + a, n)
                np.testing.assert_allclose(jacobi(n, float(a), 0.0, np.array([1.0]))[0], expected)

    def test_negative_degree_raises(self):
        with pytest.raises(ValueError):
            jacobi(-1, 0.0, 0.0, np.array([0.0]))

    @given(
        n=st.integers(min_value=0, max_value=7),
        alpha=st.floats(min_value=0.0, max_value=4.0),
        x=st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_bounded_on_interval(self, n, alpha, x):
        """Jacobi polynomials with beta=0, alpha>=0 attain their max at x=1."""
        val = jacobi(n, alpha, 0.0, np.array([x]))[0]
        at_one = jacobi(n, alpha, 0.0, np.array([1.0]))[0]
        assert abs(val) <= at_one + 1e-9


class TestJacobiDerivative:
    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (1.0, 0.0), (3.0, 0.0), (2.0, 1.0)])
    def test_matches_finite_difference(self, n, alpha, beta):
        x = np.linspace(-0.9, 0.9, 13)
        h = 1e-6
        fd = (jacobi(n, alpha, beta, x + h) - jacobi(n, alpha, beta, x - h)) / (2 * h)
        np.testing.assert_allclose(jacobi_derivative(n, alpha, beta, x), fd, atol=1e-6)

    def test_derivative_of_constant_is_zero(self):
        x = np.linspace(-1, 1, 5)
        np.testing.assert_array_equal(jacobi_derivative(0, 2.0, 0.0, x), np.zeros_like(x))


class TestQuadrature:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_gauss_legendre_exactness(self, n):
        x, w = gauss_legendre(n)
        for degree in range(2 * n):
            exact = (1.0 - (-1.0) ** (degree + 1)) / (degree + 1)
            np.testing.assert_allclose(np.sum(w * x**degree), exact, atol=1e-12)

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_gauss_jacobi_weight_mass(self, alpha):
        # integral of (1-x)^alpha over [-1, 1] equals 2^(alpha+1) / (alpha+1)
        x, w = gauss_jacobi(4, alpha, 0.0)
        np.testing.assert_allclose(np.sum(w), 2.0 ** (alpha + 1) / (alpha + 1), rtol=1e-12)

    def test_gauss_jacobi_polynomial_exactness(self):
        alpha = 1.0
        n = 5
        x, w = gauss_jacobi(n, alpha, 0.0)
        rng = np.random.default_rng(42)
        coeffs = rng.normal(size=2 * n)
        poly = np.polynomial.Polynomial(coeffs)
        # reference via very fine Gauss-Legendre on the weighted integrand
        xr, wr = gauss_legendre(60)
        ref = np.sum(wr * (1 - xr) ** alpha * poly(xr))
        np.testing.assert_allclose(np.sum(w * poly(x)), ref, rtol=1e-10)

    def test_invalid_point_count_raises(self):
        with pytest.raises(ValueError):
            gauss_legendre(0)
        with pytest.raises(ValueError):
            gauss_jacobi(0, 1.0, 0.0)


class TestQuadratureAgainstScipy:
    """The numpy-only Golub--Welsch rules against the scipy routines they
    replaced (``import repro`` no longer loads scipy; the tests may)."""

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("n", range(1, 11))
    def test_nodes_and_weights_match_scipy(self, n, alpha):
        from scipy.special import roots_jacobi, roots_legendre

        x_ref, w_ref = roots_legendre(n) if alpha == 0.0 else roots_jacobi(n, alpha, 0.0)
        x, w = gauss_jacobi(n, alpha, 0.0)
        np.testing.assert_allclose(x, x_ref, rtol=0.0, atol=4e-16)
        np.testing.assert_allclose(w, w_ref, rtol=5e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [0, 1, 2])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_exact_on_degree_2n_minus_1(self, n, alpha):
        # int_{-1}^{1} (1-x)^alpha x^d dx through the substitution u = 1 - x,
        # summed in rationals (the alternating sum cancels badly in floats)
        from fractions import Fraction
        from math import comb

        x, w = gauss_jacobi(n, float(alpha), 0.0)
        for degree in range(2 * n):
            exact = sum(
                Fraction(comb(degree, j) * (-1) ** j * 2 ** (alpha + j + 1), alpha + j + 1)
                for j in range(degree + 1)
            )
            np.testing.assert_allclose(np.sum(w * x**degree), float(exact), rtol=1e-13, atol=1e-14)
