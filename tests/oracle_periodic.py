"""Independent oracle for periodic Jacobi matrices.

The two-sided p-periodic Jacobi matrix with off-diagonal a_n and diagonal b_n
has the spectrum where its discriminant Delta (the trace of the one-period
transfer matrix) lies in [-2, 2].  Delta = 2 at the eigenvalues of the p x p
matrix with the periodic corner a_p, and Delta = -2 at those of the matrix with
the antiperiodic corner -a_p; together they are the 2p band edges.  Each of the
p bands carries density-of-states mass 1/p, so the frequency of bands k..p-1 is
(p - k)/p and the integrated density of states is j/p on gap j.

Delta itself is the trace of the one-period transfer product, and with it:
- the critical point c_j of the Green's function is the zero of Delta' in gap j;
- G(z) = (1/p) log|lambda|, lambda the root of lambda^2 - Delta lambda + 1 = 0 of
  the larger modulus, so h_j = G(c_j);
- the Robin constant, c in G(z) = log|z| + c + o(1), is -(1/p) sum log a_n.

Deliberately shares no code with the toolkit: the edges come from numpy's
eigvalsh alone, and everything else from the transfer product in Python scalars.
"""

import cmath
import math

import numpy as np


def periodic_coefficients(p, amp, rng):
    """(a, b) of one period: a_n = 1 + amp U(-1, 1) and b_n = amp U(-1, 1)."""
    return 1.0 + amp * rng.uniform(-1.0, 1.0, p), amp * rng.uniform(-1.0, 1.0, p)


def band_edges(a, b):
    """The 2p band edges of the p-periodic matrix (p >= 3), ascending: band m is
    [e[2m], e[2m + 1]] and gap j is (e[2j - 1], e[2j])."""
    edges = []
    for corner in (1.0, -1.0):
        jac = np.diag(b) + np.diag(a[:-1], 1) + np.diag(a[:-1], -1)
        jac[0, -1] = jac[-1, 0] = corner * a[-1]
        edges.append(np.linalg.eigvalsh(jac))
    return np.sort(np.concatenate(edges))


def discriminant(a, b, z):
    """(Delta(z), Delta'(z)): the trace of T_{p-1} ... T_0, where T_n maps (u_n, u_{n-1})
    to (u_{n+1}, u_n) under a_n u_{n+1} + b_n u_n + a_{n-1} u_{n-1} = z u_n, a_{-1} = a_{p-1},
    and its derivative in z, carried through the product in forward mode."""
    z = complex(z)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    d00 = d01 = d10 = d11 = 0.0
    for n in range(len(a)):
        x, y = (z - b[n]) / a[n], -a[n - 1] / a[n]
        # T = [[x, y], [1, 0]], dT/dz = [[1 / a_n, 0], [0, 0]]; d(T M) = dT M + T dM
        d00, d01, d10, d11 = (m00 / a[n] + x * d00 + y * d10, m01 / a[n] + x * d01 + y * d11,
                              d00, d01)
        m00, m01, m10, m11 = x * m00 + y * m10, x * m01 + y * m11, m00, m01
    return m00 + m11, d00 + d11


def critical_points(a, b, edges):
    """c_j for j = 1..p-1: the zero of Delta' in gap j = (e[2j - 1], e[2j]), by bisection on
    the sign of Delta' down to adjacent floats."""
    out = []
    for lo, hi in zip(edges[1:-1:2], edges[2:-1:2]):
        lo, hi = float(lo), float(hi)
        left = discriminant(a, b, lo)[1].real > 0.0
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if (discriminant(a, b, mid)[1].real > 0.0) == left:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        out.append(mid)
    return np.array(out)


def green(a, b, z):
    """G(z) = (1/p) log|lambda|, lambda = (Delta +- sqrt(Delta^2 - 4)) / 2 with the sign of the
    larger modulus, which takes no difference of nearly equal numbers."""
    delta = discriminant(a, b, z)[0]
    root = cmath.sqrt((delta - 2.0) * (delta + 2.0))
    lam = max(delta + root, delta - root, key=abs) / 2.0
    return math.log(abs(lam)) / len(a)


def robin_constant(a):
    """-(1/p) sum log a_n: G(z) - log|z| tends to it, as Delta(z) ~ z^p / prod a_n."""
    return -sum(math.log(v) for v in a) / len(a)
