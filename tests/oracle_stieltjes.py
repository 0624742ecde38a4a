"""Independent oracle for Jacobi coefficients: discretize the half-line
spectral measure (absolutely continuous part from the boundary values of
r_plus, plus point masses at its gap poles) and run the Stieltjes
orthogonalization recurrence on the discrete measure.

Deliberately avoids the continued-fraction step: the only shared ingredient
is the resolvent splitting itself.
"""

import numpy as np
from scipy.optimize import brentq

from finitegap.herglotz import split_resolvents
from finitegap.spectral_set import sqrt_R_gap


def halfline_measure(gs, divisor, nodes_per_band=400):
    """Discretization (nodes, weights) of the spectral measure of r_plus."""
    pair = split_resolvents(gs, divisor)
    t_nodes, t_weights = np.polynomial.legendre.leggauss(nodes_per_band)
    theta = 0.5 * np.pi * (t_nodes + 1.0)
    wth = 0.5 * np.pi * t_weights
    xs, ws = [], []
    for lo, hi in gs.bands:
        mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid + rad * np.cos(theta)
        imr = np.imag(pair.r_plus(x + 0.0j))
        xs.append(x)
        ws.append(imr / np.pi * rad * np.sin(theta) * wth)
    # T and T' from the centred coefficients: T(x) = half^(N+1) T_c(s) and
    # T'(x) = half^N T_c'(s) at s = (x - mid) / half
    mid, half = 0.5 * (gs.a0 + gs.b0), 0.5 * (gs.a0 - gs.b0)
    dtc = np.polynomial.Polynomial(pair.t_centred).deriv()

    def tpoly(x):
        return pair.t(x).real

    def dt(x):
        return half ** gs.n_gaps * dtc((x - mid) / half)

    for j, (xj, _) in enumerate(divisor.points, start=1):
        a, b = gs.gap(j)
        width = b - a
        grid = np.linspace(a + 1e-9 * width, b - 1e-9 * width, 4001)
        f = sqrt_R_gap(gs, j, grid) + tpoly(grid)
        sign = np.sign(f)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            xstar = brentq(
                lambda x: sqrt_R_gap(gs, j, x) + tpoly(x), grid[i], grid[i + 1], xtol=1e-15
            )
            if abs(xstar - xj) < 1e-7 * width:
                continue  # cancelled by the divisor zero of Pi
            # d/dx sqrt(R) on the gap branch
            dsr = sqrt_R_gap(gs, j, xstar) * 0.5 * sum(
                1.0 / (xstar - e) for e in gs.endpoints
            )
            pi_val = np.prod([xstar - xk for xk in divisor.xs])
            mass = 2.0 * pi_val / (dsr + dt(xstar))
            assert mass > 0, f"nonpositive point mass {mass} at {xstar}"
            xs.append(np.array([xstar]))
            ws.append(np.array([mass]))
    return np.concatenate(xs), np.concatenate(ws)


def stieltjes_coefficients(xs, ws, nmax):
    """Recurrence coefficients of the discrete measure: q_0..q_nmax, p_1..p_nmax.

    Orthogonalization with full (twice-repeated) reorthogonalization, so the
    only error left is the discretization of the measure itself.
    """
    w = ws / ws.sum()
    basis = [np.sqrt(w)]
    qs, ps = [], []
    for n in range(nmax + 1):
        xv = xs * basis[-1]
        q = float(basis[-1] @ xv)
        qs.append(q)
        if n == nmax:
            break
        r = xv - q * basis[-1]
        if n > 0:
            r -= ps[-1] * basis[-2]
        for _ in range(2):
            for u in basis:
                r -= (u @ r) * u
        p = float(np.linalg.norm(r))
        ps.append(p)
        basis.append(r / p)
    return np.array(qs), np.array(ps)
