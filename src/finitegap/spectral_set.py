"""Geometry of a finite-gap set E = [b0, a0] \\ U (a_j, b_j).

Green's function with respect to infinity, its critical points, harmonic
measures of the right-tail pieces E_k = E cap [b_k, a0], the density of
states, and the Thouless potential.  Everything is driven by the square
root of R(z) = (z-a0)(z-b0) prod (z-a_j)(z-b_j) with branch cuts on E.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError, ValidationError
from .quad import (
    DEFAULT_QTOL,
    chebyshev_quad,
    chebyshev_quad_fixed,
    gl_quad,
    theta_partial_quad,
)

_EDGE_TOL = 1e-13


@dataclass(frozen=True)
class GapSystem:
    """The set E: outer band [b0, a0] with open gaps (a_j, b_j) removed."""

    b0: float
    a0: float
    gaps: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gaps", tuple((float(a), float(b)) for a, b in self.gaps))
        if not self.b0 < self.a0:
            raise ValidationError("outer band must satisfy b0 < a0")
        prev = self.b0
        for a, b in self.gaps:
            if not a < b:
                raise ValidationError(f"gap ({a}, {b}) is degenerate")
            if not prev < a:
                raise ValidationError(f"gap ({a}, {b}) overlaps or touches its left neighbour")
            prev = b
        if self.gaps and not prev < self.a0:
            raise ValidationError("rightmost gap must end strictly before a0")

    @property
    def n_gaps(self):
        return len(self.gaps)

    @property
    def endpoints(self):
        """All 2N+2 branch points of R, sorted."""
        pts = [self.b0, self.a0]
        for a, b in self.gaps:
            pts.extend((a, b))
        return tuple(sorted(pts))

    @property
    def bands(self):
        """Closed intervals making up E, left to right (N+1 of them)."""
        lo = self.b0
        out = []
        for a, b in self.gaps:
            out.append((lo, a))
            lo = b
        out.append((lo, self.a0))
        return tuple(out)

    @property
    def diameter(self):
        return self.a0 - self.b0

    def gap(self, j):
        """The j-th gap, 1-based as in the interlacing b0 < a_1 < ... < a0."""
        if not 1 <= j <= self.n_gaps:
            raise ValidationError(f"gap index {j} out of range 1..{self.n_gaps}")
        return self.gaps[j - 1]

    def locate(self, x):
        """Classify a real point: ('band', m) / ('gap', j) / ('left',) / ('right',)."""
        if x < self.b0:
            return ("left",)
        if x > self.a0:
            return ("right",)
        for j, (a, b) in enumerate(self.gaps, start=1):
            if a < x < b:
                return ("gap", j)
        for m, (lo, hi) in enumerate(self.bands):
            if lo <= x <= hi:
                return ("band", m)
        raise AssertionError("unreachable")

    def on_set(self, x, tol=_EDGE_TOL):
        scale = max(1.0, self.diameter)
        return any(lo - tol * scale <= x <= hi + tol * scale for lo, hi in self.bands)

    def to_json(self):
        return {"band": [self.b0, self.a0], "gaps": [list(g) for g in self.gaps]}

    @classmethod
    def from_json(cls, doc):
        try:
            b0, a0 = doc["band"]
        except (KeyError, TypeError, ValueError):
            raise ValidationError("document must contain 'band': [b0, a0]")
        gaps = doc.get("gaps", [])
        return cls(b0=float(b0), a0=float(a0), gaps=tuple(tuple(g) for g in gaps))


@dataclass(frozen=True)
class CriticalPoints:
    """Critical points c_j of the Green's function, one per gap, with heights h_j = G(c_j)."""

    c: tuple
    h: tuple


def gap_branch_sign(gs, j):
    """Sign of the boundary value (from above) of sqrt(R) on gap j.

    Signs alternate between consecutive components of R \\ E starting with
    +1 on (a0, inf).
    """
    if not 1 <= j <= gs.n_gaps:
        raise ValidationError(f"gap index {j} out of range")
    return -1.0 if (gs.n_gaps - j) % 2 == 0 else 1.0


def sqrt_R(gs, z):
    """sqrt(R(z)) with cuts on E, ~ z^(N+1) at infinity.

    The product of principal-branch square roots of the linear factors has
    exactly this branch structure; real inputs are lifted to the upper edge
    x + i0.
    """
    z = np.asarray(z, dtype=complex)
    # -0.0 imaginary parts would select the lower edge of the cut
    z = np.where(z.imag == 0.0, z.real + 0.0j, z)
    out = np.ones_like(z)
    for e in gs.endpoints:
        out = out * np.sqrt(z - e)
    return out if out.shape else complex(out)


def _abs_R(gs, x):
    out = np.ones_like(np.asarray(x, dtype=float))
    for e in gs.endpoints:
        out = out * np.abs(x - e)
    return out


def _rest_abs(gs, pair, x):
    """|R(x)| with the two endpoints of ``pair`` factored out."""
    lo, hi = pair
    out = np.ones_like(np.asarray(x, dtype=float))
    for e in gs.endpoints:
        if e == lo or e == hi:
            continue
        out = out * np.abs(x - e)
    return out


def sqrt_R_gap(gs, j, x):
    """Real boundary value of sqrt(R) on gap j."""
    return gap_branch_sign(gs, j) * np.sqrt(_abs_R(gs, x))


def _prod_c(c, x, skip=None):
    out = np.ones_like(np.asarray(x, dtype=float))
    for k, ck in enumerate(c):
        if k == skip:
            continue
        out = out * (x - ck)
    return out


def _period_residuals(gs, c, n_nodes):
    """The N gap integrals of prod(t - c_k)/|sqrt R| (sign dropped)."""
    res = np.empty(gs.n_gaps)
    for j in range(1, gs.n_gaps + 1):
        lo, hi = gs.gap(j)
        res[j - 1] = chebyshev_quad_fixed(
            lambda t: _prod_c(c, t) / np.sqrt(_rest_abs(gs, (lo, hi), t)), lo, hi, n_nodes
        )
    return res


def _period_jacobian(gs, c, n_nodes):
    jac = np.empty((gs.n_gaps, gs.n_gaps))
    for j in range(1, gs.n_gaps + 1):
        lo, hi = gs.gap(j)
        for i in range(gs.n_gaps):
            jac[j - 1, i] = -chebyshev_quad_fixed(
                lambda t: _prod_c(c, t, skip=i) / np.sqrt(_rest_abs(gs, (lo, hi), t)),
                lo,
                hi,
                n_nodes,
            )
    return jac


def critical_points(gs, qtol=DEFAULT_QTOL, max_iter=80):
    """Solve the N period conditions for the critical points of G.

    Damped Newton from the gap midpoints with iterates clamped to the open
    gaps; each period integral is monotone in its own variable, which makes
    the clamped iteration safe.
    """
    n = gs.n_gaps
    if n == 0:
        return CriticalPoints(c=(), h=())
    lo = np.array([g[0] for g in gs.gaps])
    hi = np.array([g[1] for g in gs.gaps])
    width = hi - lo
    c = 0.5 * (lo + hi)
    n_nodes = 256
    scale = max(1.0, 1.0 / np.sqrt(np.min(_abs_R(gs, c))))
    best = None
    for it in range(max_iter):
        res = _period_residuals(gs, c, n_nodes)
        rnorm = np.max(np.abs(res))
        if best is None or rnorm < best[0]:
            best = (rnorm, c.copy())
        if rnorm < 1e-14 * scale * gs.diameter:
            break
        jac = _period_jacobian(gs, c, n_nodes)
        try:
            step = np.linalg.solve(jac, res)
        except np.linalg.LinAlgError:
            raise SolverError("singular period Jacobian", residual=rnorm, iterate=c)
        damp = 1.0
        for _ in range(30):
            trial = c - damp * step
            if np.all(trial > lo + 1e-14 * width) and np.all(trial < hi - 1e-14 * width):
                trial_res = _period_residuals(gs, trial, n_nodes)
                if np.max(np.abs(trial_res)) < rnorm or damp < 1e-3:
                    break
            damp *= 0.5
        c = np.clip(c - damp * step, lo + 1e-14 * width, hi - 1e-14 * width)
    else:
        raise SolverError(
            "critical point solver did not converge", residual=best[0], iterate=best[1]
        )
    # verify against the adaptive quadrature at full tolerance
    for j in range(1, n + 1):
        glo, ghi = gs.gap(j)
        r = chebyshev_quad(
            lambda t: _prod_c(c, t) / np.sqrt(_rest_abs(gs, (glo, ghi), t)), glo, ghi, qtol
        )
        if abs(r) > 1e3 * qtol * scale * max(1.0, gs.diameter ** n):
            raise SolverError("period residual above tolerance", residual=abs(r), iterate=c)
    h = tuple(_gap_green_value(gs, c, j, c[j - 1]) for j in range(1, n + 1))
    return CriticalPoints(c=tuple(c), h=h)


def _gap_green_value(gs, c, j, x):
    """G(x) for real x inside gap j, by integrating from the left gap edge."""
    lo, hi = gs.gap(j)
    val = theta_partial_quad(
        lambda t: _prod_c(c, t) / np.sqrt(_rest_abs(gs, (lo, hi), t)), lo, hi, x
    )
    return abs(val)


def green(gs, cp, z, qtol=DEFAULT_QTOL):
    """Green's function G(z) of the complement of E, pole at infinity.

    Real part of the abelian integral of prod(z - c_j) dz / sqrt(R) from a0;
    zero on E by construction of the critical points.
    """
    c = np.asarray(cp.c)
    z = complex(z)
    if z.imag == 0.0:
        x = z.real
        if gs.on_set(x):
            return 0.0
        kind = gs.locate(x)
        if kind[0] == "gap":
            return _gap_green_value(gs, c, kind[1], x)
        if kind[0] == "right":
            edge = gs.a0
        else:
            edge = gs.b0
        span = x - edge

        def integrand(s):
            t = edge + s * s * span
            return np.real(
                _prod_c(c, t) / np.real(sqrt_R(gs, t + 0.0j)) * 2.0 * s * span
            )

        return abs(gl_quad(integrand, 0.0, 1.0, qtol))
    # complex z: straight path from a0 with the endpoint singularity removed
    span = z - gs.a0

    def fre(s):
        t = gs.a0 + s * s * span
        vals = np.prod([t - ck for ck in c], axis=0) if len(c) else np.ones_like(t)
        return np.real(vals / sqrt_R(gs, t) * 2.0 * s * span)

    return max(0.0, gl_quad(fre, 0.0, 1.0, qtol))


@lru_cache(maxsize=32)
def _harmonic_poly_coeffs(gs, qtol):
    """Coefficients (ascending) of the polynomials P_k, k = 1..N.

    P_k has degree <= N-1 and unit signed period over gap k, zero over the
    others; these are the gap derivatives of the harmonic measures.  The
    periods are quadratures to qtol, which callers pass positionally so that
    equal tolerances share one cache entry.
    """
    n = gs.n_gaps
    if n == 0:
        return np.zeros((0, 0))
    mat = np.empty((n, n))
    for j in range(1, n + 1):
        lo, hi = gs.gap(j)
        sj = gap_branch_sign(gs, j)
        for m in range(n):
            mat[j - 1, m] = sj * chebyshev_quad(
                lambda t: t ** m / np.sqrt(_rest_abs(gs, (lo, hi), t)), lo, hi, qtol
            )
    try:
        coeffs = np.linalg.solve(mat, np.eye(n))
    except np.linalg.LinAlgError:
        raise SolverError("singular harmonic-measure period matrix")
    return coeffs.T  # row k-1 = coefficients of P_k


def _band_index_base(k, j):
    """Boundary value of omega_k on the band just left of gap j."""
    return 1.0 if j > k else 0.0


def harmonic_measure(gs, cp, k, x, qtol=DEFAULT_QTOL):
    """Harmonic measure omega_k(x) of E_k = E cap [b_k, a0] at real x."""
    if not 1 <= k <= gs.n_gaps:
        raise ValidationError(f"gap index {k} out of range")
    kind = gs.locate(x)
    if kind[0] == "band":
        return 1.0 if kind[1] >= k else 0.0
    coeffs = _harmonic_poly_coeffs(gs, qtol)[k - 1]
    poly = np.polynomial.Polynomial(coeffs)
    if kind[0] == "gap":
        j = kind[1]
        lo, hi = gs.gap(j)
        sj = gap_branch_sign(gs, j)
        val = theta_partial_quad(
            lambda t: sj * poly(t) / np.sqrt(_rest_abs(gs, (lo, hi), t)), lo, hi, x, qtol
        )
        return _band_index_base(k, j) + val
    if kind[0] == "right":
        edge, base, sign = gs.a0, 1.0, 1.0
    else:
        edge, base, sign = gs.b0, 0.0, (-1.0) ** (gs.n_gaps + 1)
    span = x - edge

    def integrand(s):
        t = edge + s * s * span
        return poly(t) / (sign * np.sqrt(_abs_R(gs, t) / np.abs(t - edge))) * 2.0 * s * span

    return base + gl_quad(integrand, 0.0, 1.0, qtol)


def harmonic_measure_density(gs, cp, k, x):
    """d omega_k / dx at a point strictly inside a gap."""
    kind = gs.locate(x)
    if kind[0] != "gap":
        raise ValidationError("density is defined on open gaps only")
    j = kind[1]
    lo, hi = gs.gap(j)
    scale = max(1.0, gs.diameter)
    if min(x - lo, hi - x) < _EDGE_TOL * scale:
        raise ValidationError("square-root blow-up: x at a gap endpoint")
    coeffs = _harmonic_poly_coeffs(gs, DEFAULT_QTOL)[k - 1]
    poly = np.polynomial.Polynomial(coeffs)
    return float(poly(x) / sqrt_R_gap(gs, j, x))


def dos_density(gs, cp, x):
    """Density of the density-of-states measure at x in the interior of E."""
    kind = gs.locate(x)
    if kind[0] != "band":
        raise ValidationError("density of states lives on E")
    lo, hi = gs.bands[kind[1]]
    scale = max(1.0, gs.diameter)
    if min(abs(x - lo), abs(hi - x)) < _EDGE_TOL * scale:
        raise ValidationError("integrable singularity at band endpoint")
    return float(np.abs(_prod_c(np.asarray(cp.c), x)) / (np.pi * np.sqrt(_abs_R(gs, x))))


def _band_mass(gs, cp, m, qtol=DEFAULT_QTOL):
    lo, hi = gs.bands[m]
    c = np.asarray(cp.c)
    return (
        chebyshev_quad(
            lambda t: np.abs(_prod_c(c, t)) / np.sqrt(_rest_abs(gs, (lo, hi), t)),
            lo,
            hi,
            qtol,
        )
        / np.pi
    )


def frequencies(gs, cp, qtol=DEFAULT_QTOL):
    """omega_k = dos mass of E_k = bands k..N, for k = 1..N."""
    n = gs.n_gaps
    if n == 0:
        return np.zeros(0)
    masses = np.array([_band_mass(gs, cp, m, qtol) for m in range(n + 1)])
    return np.array([masses[k:].sum() for k in range(1, n + 1)])


def dos_cdf(gs, cp, x, qtol=DEFAULT_QTOL):
    """Integrated density of states: dos mass of E cap (-inf, x]."""
    total = 0.0
    c = np.asarray(cp.c)
    for m, (lo, hi) in enumerate(gs.bands):
        if x >= hi:
            total += _band_mass(gs, cp, m, qtol)
        elif x > lo:
            total += (
                theta_partial_quad(
                    lambda t: np.abs(_prod_c(c, t)) / np.sqrt(_rest_abs(gs, (lo, hi), t)),
                    lo,
                    hi,
                    x,
                    qtol,
                )
                / np.pi
            )
    return min(1.0, total)


def thouless_potential(gs, cp, z, qtol=DEFAULT_QTOL):
    """Logarithmic potential int_E log|z - x| d omega(x) by quadrature."""
    z = complex(z)
    c = np.asarray(cp.c)
    total = 0.0
    for lo, hi in gs.bands:
        total += (
            chebyshev_quad(
                lambda t: np.log(np.abs(z - t))
                * np.abs(_prod_c(c, t))
                / np.sqrt(_rest_abs(gs, (lo, hi), t)),
                lo,
                hi,
                qtol,
            )
            / np.pi
        )
    return total


def robin_constant(gs, cp, qtol=DEFAULT_QTOL):
    """The constant c in the Thouless identity G(z) = c + int log|z-x| d omega.

    G(y) - log y approaches c with an O(1/y) error; two Richardson steps on
    a geometric ladder of evaluation points remove the 1/y and 1/y^2 terms.
    """
    base = 1e3 * max(abs(gs.a0), abs(gs.b0), 1.0)
    vals = [green(gs, cp, base * 2.0 ** m, qtol) - np.log(base * 2.0 ** m) for m in range(3)]
    # eliminate the 1/y term pairwise, then the 1/y^2 term
    first = [2.0 * vals[m + 1] - vals[m] for m in range(2)]
    return (4.0 * first[1] - first[0]) / 3.0
