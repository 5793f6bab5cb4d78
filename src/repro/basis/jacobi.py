"""Jacobi polynomials and Gauss-type quadrature rules.

The modal basis of the ADER-DG reference element (Karniadakis & Sherwin,
"Spectral/hp Element Methods", Ch. 3) is built from Jacobi polynomials
``P_n^{(alpha, beta)}`` evaluated in collapsed coordinates.  This module
provides

* evaluation of Jacobi polynomials via the three-term recurrence,
* their first derivatives via the standard derivative identity, and
* Gauss--Legendre and Gauss--Jacobi quadrature rules on ``[-1, 1]``
  (Golub--Welsch on numpy alone: ``import repro`` must not pay for scipy).

Everything is vectorised over the evaluation points and uses float64
throughout; the recurrences are numerically benign for the small orders
(``n <= 8``) needed by the solver.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "jacobi",
    "jacobi_derivative",
    "gauss_legendre",
    "gauss_jacobi",
]


def jacobi(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Evaluate the Jacobi polynomial ``P_n^{(alpha, beta)}`` at ``x``.

    Parameters
    ----------
    n:
        Polynomial degree, ``n >= 0``.
    alpha, beta:
        Jacobi weights, ``alpha, beta > -1``.
    x:
        Evaluation points (any shape).

    Returns
    -------
    numpy.ndarray
        Values of ``P_n^{(alpha, beta)}(x)`` with the same shape as ``x``.
    """
    x = np.asarray(x, dtype=np.float64)
    if n < 0:
        raise ValueError(f"polynomial degree must be non-negative, got {n}")
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev
    p_curr = 0.5 * (alpha - beta + (alpha + beta + 2.0) * x)
    if n == 1:
        return p_curr
    for k in range(1, n):
        a = k + alpha
        b = k + beta
        c = 2.0 * k + alpha + beta
        # Three-term recurrence (Abramowitz & Stegun 22.7.1).
        c1 = 2.0 * (k + 1.0) * (k + alpha + beta + 1.0) * c
        c2 = (c + 1.0) * (alpha * alpha - beta * beta)
        c3 = c * (c + 1.0) * (c + 2.0)
        c4 = 2.0 * a * b * (c + 2.0)
        p_next = ((c2 + c3 * x) * p_curr - c4 * p_prev) / c1
        p_prev, p_curr = p_curr, p_next
    return p_curr


def jacobi_derivative(n: int, alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Evaluate ``d/dx P_n^{(alpha, beta)}(x)``.

    Uses the identity ``d/dx P_n^{(a,b)} = (n + a + b + 1)/2 * P_{n-1}^{(a+1, b+1)}``.
    """
    x = np.asarray(x, dtype=np.float64)
    if n == 0:
        return np.zeros_like(x)
    return 0.5 * (n + alpha + beta + 1.0) * jacobi(n - 1, alpha + 1.0, beta + 1.0, x)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss--Legendre nodes and weights on ``[-1, 1]`` (exact for degree ``2n-1``)."""
    return gauss_jacobi(n, 0.0, 0.0)


def gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss--Jacobi nodes and weights on ``[-1, 1]``.

    The weights integrate ``f(x) * (1-x)^alpha * (1+x)^beta`` exactly for
    polynomials ``f`` of degree up to ``2n - 1``.

    Golub--Welsch, the algorithm behind ``scipy.special.roots_jacobi``: the
    nodes are the eigenvalues of the symmetric tridiagonal matrix of the
    three-term recurrence, polished by one Newton step on ``P_n``; the
    weights are ``1 / (P_{n-1} P_n')`` normalised to the weight function's
    mass.
    """
    if n < 1:
        raise ValueError("quadrature rule needs at least one point")
    ab = alpha + beta
    k = np.arange(n, dtype=np.float64)
    c = 2.0 * k + ab
    diagonal = np.zeros(n)
    # k = 0 separately: the general term is 0/0 there when alpha + beta == 0
    diagonal[0] = (beta - alpha) / (ab + 2.0)
    diagonal[1:] = (beta * beta - alpha * alpha) / (c[1:] * (c[1:] + 2.0))
    k, c = k[1:], c[1:]
    off = 2.0 / c * np.sqrt((k + alpha) * (k + beta) / (c + 1.0))
    off[1:] *= np.sqrt(k[1:] * (k[1:] + ab) / (c[1:] - 1.0))
    x = np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1))

    slope = jacobi_derivative(n, alpha, beta, x)
    x -= jacobi(n, alpha, beta, x) / slope
    w = 1.0 / (jacobi(n - 1, alpha, beta, x) * slope)
    if alpha == beta:  # the rule is symmetric: remove the rounding asymmetry
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0) / math.gamma(ab + 2.0)
    w *= mass / w.sum()
    return x, w
