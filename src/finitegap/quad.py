"""Quadrature helpers for integrals with inverse square-root endpoint singularities.

All routines work on vectorized integrands ``f(x: ndarray) -> ndarray`` and
refine by node doubling until two successive estimates agree to ``qtol``.
"""

from functools import lru_cache

import numpy as np

from .errors import SolverError

DEFAULT_QTOL = 1e-12

_N_START = 32
_N_MAX = 1 << 16
# leggauss forms an n x n matrix, so the Gauss-Legendre order stays small
_GL_N_MAX = 2048


@lru_cache(maxsize=64)
def _leggauss(n):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def gl_quad(f, a, b, qtol=DEFAULT_QTOL):
    """Adaptive-order Gauss-Legendre on [a, b] for a smooth integrand, up to _GL_N_MAX nodes."""
    if a == b:
        return 0.0 * f(np.array([0.5 * (a + b)]))[0]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    prev = np.inf
    n = _N_START
    while n <= _GL_N_MAX:
        x, w = _leggauss(n)
        val = half * np.sum(w * f(mid + half * x))
        if (diff := abs(val - prev)) <= qtol * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise SolverError("Gauss-Legendre doubling did not converge", residual=diff)


def chebyshev_quad(g, lo, hi, qtol=DEFAULT_QTOL):
    """Compute int_lo^hi g(t) / sqrt((t-lo)(hi-t)) dt.

    Uses t = m + r cos(theta); the Gauss-Chebyshev rule is exact for the
    singular weight, so only smoothness of ``g`` matters.  A ``g`` returning
    shape (..., n) on n nodes gives one integral per row, all converged.
    """
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    prev = np.inf
    n = _N_START
    while n <= _N_MAX:
        theta = (2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n))
        val = (np.pi / n) * np.sum(g(m + r * np.cos(theta)), axis=-1)
        if (diff := np.max(np.abs(val - prev))) <= qtol * max(1.0, np.max(np.abs(val))):
            return val
        prev = val
        n *= 2
    raise SolverError("Chebyshev doubling did not converge", residual=diff)


def chebyshev_quad_fixed(g, lo, hi, n):
    """Fixed-order variant of :func:`chebyshev_quad`; unused, but bench/tracer.py wraps it."""
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    theta = (2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n))
    return (np.pi / n) * np.sum(g(m + r * np.cos(theta)), axis=-1)


def theta_partial_quad(g, lo, hi, x, qtol=DEFAULT_QTOL):
    """Compute int_lo^x g(t) / sqrt((t-lo)(hi-t)) dt for lo <= x <= hi.

    Same cosine substitution; the integral becomes a smooth one over
    [theta(x), pi] handled by Gauss-Legendre.
    """
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    u = np.clip((x - m) / r, -1.0, 1.0)
    theta_x = np.arccos(u)
    return gl_quad(lambda th: g(m + r * np.cos(th)), theta_x, np.pi, qtol)
