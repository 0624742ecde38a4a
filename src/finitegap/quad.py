"""Quadrature helpers for integrals with inverse square-root endpoint singularities.

All routines work on vectorized integrands ``f(x: ndarray) -> ndarray`` and
refine by node doubling until two successive estimates agree to ``qtol``.
An integrand of shape (..., n) on n nodes gives one integral per row, all
converged together.  The first two orders, 32 and 64 nodes, share one call
of the integrand on their 96 nodes side by side, and each rule sums its own
slice; an integrand works element by element along the node axis, so the
values are those of one call per order.  Every later order is one call.

The interval can be a stack: limits of shape (K, 1) put the nodes of K
intervals on one (K, n) array, so a single call integrates over K bands or
gaps at once and returns (..., K).  Convergence is judged on the whole
stack, and a stack that cannot converge raises SolverError with the last
difference as its residual.
"""

import math
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


def _doubling(f, nodes, rule, n_max, qtol, name):
    """rule(n, f(nodes(n))) for n = _N_START, 2 _N_START, ..., n_max until two successive
    estimates agree to qtol, relative to max(1, |estimate|); SolverError with the last
    difference as residual otherwise.  The first two orders share one call of f on their
    nodes joined along the last axis, which each order reads back as its own slice."""
    head = f(np.concatenate([nodes(_N_START), nodes(2 * _N_START)], axis=-1))
    prev = np.inf
    n = _N_START
    while n <= n_max:
        if n == _N_START:
            fx = head[..., :n]
        elif n == 2 * _N_START:
            fx = head[..., _N_START:]
        else:
            fx = f(nodes(n))
        val = rule(n, fx)
        if (diff := np.abs(val - prev).max()) <= qtol * max(1.0, np.abs(val).max()):
            return val
        prev = val
        n *= 2
    raise SolverError(f"{name} doubling did not converge", residual=diff)


def gl_quad(f, a, b, qtol=DEFAULT_QTOL):
    """Adaptive-order Gauss-Legendre on [a, b] for a smooth integrand, up to _GL_N_MAX nodes;
    a and b may be stacks of shape (K, 1)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    if not np.any(half):
        return 0.0 * f(mid + np.zeros(1))[..., 0]
    rows = half[..., 0] if np.ndim(half) else half  # one scale per row of a stack
    return _doubling(f, lambda n: mid + half * _leggauss(n)[0],
                     lambda n, fx: rows * np.add.reduce(_leggauss(n)[1] * fx, axis=-1),
                     _GL_N_MAX, qtol, "Gauss-Legendre")


def _chebyshev_nodes(n):
    """cos(theta_i), theta_i = (2i - 1) pi / (2n), i = 1..n: the Gauss-Chebyshev nodes on [-1, 1]."""
    return np.cos((2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n)))


def chebyshev_quad(g, lo, hi, qtol=DEFAULT_QTOL):
    """Compute int_lo^hi g(t) / sqrt((t-lo)(hi-t)) dt, for each row when lo and hi
    are stacks of shape (K, 1).

    Uses t = m + r cos(theta); the Gauss-Chebyshev rule is exact for the
    singular weight, so only smoothness of ``g`` matters.
    """
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    return _doubling(g, lambda n: m + r * _chebyshev_nodes(n),
                     lambda n, gx: (np.pi / n) * np.add.reduce(gx, axis=-1),
                     _N_MAX, qtol, "Chebyshev")


def chebyshev_quad_fixed(g, lo, hi, n):
    """Fixed-order variant of :func:`chebyshev_quad`; unused, but bench/tracer.py wraps it."""
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    return (np.pi / n) * np.sum(g(m + r * _chebyshev_nodes(n)), axis=-1)


def _chart_angle(lo, hi, x):
    """theta in [0, pi] with x = m + r cos(theta), from the nearer edge: hi - x = w sin^2(theta/2)
    or x - lo = w cos^2(theta/2), w = hi - lo.  Exact at both edges, unlike arccos((x - m)/r)."""
    w = hi - lo
    if hi - x <= x - lo:
        return 2.0 * math.asin(math.sqrt(max(hi - x, 0.0) / w))
    return math.pi - 2.0 * math.asin(math.sqrt(max(x - lo, 0.0) / w))


def _chart_point(lo, hi, theta):
    """Inverse of _chart_angle for any real theta: x = m + r cos(theta), from the nearer edge."""
    w = hi - lo
    if math.cos(theta) >= 0.0:
        return hi - w * math.sin(0.5 * theta) ** 2
    return lo + w * math.cos(0.5 * theta) ** 2


def theta_partial_quad(g, lo, hi, x, qtol=DEFAULT_QTOL):
    """Compute int_lo^x g(t) / sqrt((t-lo)(hi-t)) dt for lo <= x <= hi, for each row
    when lo, hi and x are stacks of shape (K, 1), each row with its own upper limit.

    With t = m - r cos(phi) the integral becomes a smooth one over [0, phi(x)].
    One Gauss-Legendre rule on [0, 1], scaled by each row's phi, takes the
    whole stack.  phi(x) = pi - theta(x) is the chart angle of -x on
    [-hi, -lo], so it is exact in x at both edges.
    """
    rows = np.broadcast(lo, hi, x)
    phi = np.reshape([_chart_angle(-h, -l, -y) for l, h, y in rows], rows.shape)
    m = 0.5 * (lo + hi)
    r = 0.5 * (hi - lo)
    return gl_quad(lambda ph: g(m - r * np.cos(ph)), 0.0, phi, qtol)
