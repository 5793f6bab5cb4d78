"""Source time functions for kinematic point sources.

The High-F / LOH.3 style workloads use smooth, band-limited source time
functions; the solver only ever needs the *time integral* of the source time
function over an element's local time interval (the ADER update integrates
the right-hand side over the step), so every source time function exposes
both ``__call__`` and ``integral``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["RickerWavelet", "GaussianDerivative", "SmoothedStep"]


@lru_cache(maxsize=None)
def _gauss_legendre(n_quad: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights: every source injection of
    a correction integrates over its interval, and the nodes are an
    eigenproblem that cost more than the injection itself."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class RickerWavelet:
    """Ricker (Mexican hat) wavelet with centre frequency ``f0`` and delay ``t0``."""

    f0: float
    t0: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.f0 <= 0:
            raise ValueError("centre frequency must be positive")

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        arg = (np.pi * self.f0 * (t - self.t0)) ** 2
        return self.amplitude * (1.0 - 2.0 * arg) * np.exp(-arg)

    def integral(self, t_start: float, t_end: float, n_quad: int = 16) -> float:
        """Integral of the wavelet over ``[t_start, t_end]`` (Gauss-Legendre)."""
        x, w = _gauss_legendre(n_quad)
        half = 0.5 * (t_end - t_start)
        mid = 0.5 * (t_end + t_start)
        return float(half * np.sum(w * self(mid + half * x)))


@dataclass(frozen=True)
class GaussianDerivative:
    """Derivative-of-Gaussian pulse (dominant frequency ~ ``1 / (2 pi sigma)``)."""

    sigma: float
    t0: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        t = np.asarray(t, dtype=np.float64)
        tau = t - self.t0
        return -self.amplitude * tau / self.sigma**2 * np.exp(-0.5 * (tau / self.sigma) ** 2)

    def integral(self, t_start: float, t_end: float) -> float:
        """Closed-form integral (the Gaussian itself)."""

        def antiderivative(t: float) -> float:
            tau = t - self.t0
            return self.amplitude * np.exp(-0.5 * (tau / self.sigma) ** 2)

        return float(antiderivative(t_end) - antiderivative(t_start))


@dataclass(frozen=True)
class SmoothedStep:
    """Smoothed Heaviside (error-function) moment-rate ramp of rise time ``rise_time``."""

    rise_time: float
    t0: float = 0.0
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.rise_time <= 0:
            raise ValueError("rise time must be positive")

    def __call__(self, t: np.ndarray | float) -> np.ndarray:
        from scipy.special import erf

        t = np.asarray(t, dtype=np.float64)
        tau = (t - self.t0) / self.rise_time
        return self.amplitude * 0.5 * (1.0 + erf(2.0 * (tau - 1.0)))

    def integral(self, t_start: float, t_end: float, n_quad: int = 16) -> float:
        x, w = _gauss_legendre(n_quad)
        half = 0.5 * (t_end - t_start)
        mid = 0.5 * (t_end + t_start)
        return float(half * np.sum(w * self(mid + half * x)))
