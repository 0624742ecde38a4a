"""Geometry of a finite-gap set E = [b0, a0] \\ U (a_j, b_j).

Green's function with respect to infinity, its critical points, harmonic
measures of the right-tail pieces E_k = E cap [b_k, a0], the density of
states, and the Thouless potential.  Everything is driven by the square
root of R(z) = (z-a0)(z-b0) prod (z-a_j)(z-b_j) with branch cuts on E.
"""

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from numpy.polynomial.chebyshev import chebroots, chebval, chebvander

from .errors import SolverError, ValidationError
from .quad import DEFAULT_QTOL, chebyshev_quad, gl_quad, theta_partial_quad

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


def _prod_c(c, x):
    out = np.ones_like(np.asarray(x, dtype=float))
    for ck in c:
        out = out * (x - ck)
    return out


def _frame(gs):
    """Midpoint and half-width of [b0, a0]: s = (t - mid) / half is the centred coordinate."""
    return 0.5 * (gs.a0 + gs.b0), 0.5 * (gs.a0 - gs.b0)


def _chebval_centred(gs, coeffs, t):
    mid, half = _frame(gs)
    return chebval((t - mid) / half, coeffs)


def _centred(gs):
    """The set in the centred coordinate; G and the harmonic measures carry over unchanged."""
    mid, half = _frame(gs)
    return GapSystem(
        b0=(gs.b0 - mid) / half,
        a0=(gs.a0 - mid) / half,
        gaps=tuple(((a - mid) / half, (b - mid) / half) for a, b in gs.gaps),
    )


def _gap_moments(cs, qtol):
    """M[j-1, m] = int_{gap j} T_m(s) ds / sqrt|R(s)|, m = 0..N, on the centred set cs, one
    vector quadrature per gap; for gs, dt / sqrt|R(t)| = half^-N ds / sqrt|R_cs(s)|."""
    n = cs.n_gaps
    ends = np.array(cs.endpoints)
    mom = np.empty((n, n + 1))
    for j, (lo, hi) in enumerate(cs.gaps):
        rest = np.concatenate((ends[: 2 * j + 1], ends[2 * j + 3 :]))[:, None]
        mom[j] = chebyshev_quad(
            lambda s: chebvander(s, n).T / np.sqrt(np.prod(np.abs(s - rest), axis=0)), lo, hi, qtol
        )
    return mom


def critical_points(gs, qtol=DEFAULT_QTOL):
    """Solve the N period conditions for the critical points of G.

    In the centred coordinate, where the periods and G are the same, they
    are linear: prod(s - s_k) is a multiple of P = T_N + sum_{m<N} p_m T_m,
    whose gap periods vanish when sum_m M[j, m] p_m = -M[j, N]
    (_gap_moments), and chebroots gives its zeros.  That sum cancels where
    |P| is small against its coefficients, so the periods of prod(s - s_k)
    are checked in product form by the adaptive quadrature and removed by
    one correction of degree N-1 from the same moments (a Newton step).
    """
    n = gs.n_gaps
    if n == 0:
        return CriticalPoints(c=(), h=())
    cs = _centred(gs)
    mom = _gap_moments(cs, qtol)
    try:
        p = np.append(np.linalg.solve(mom[:, :n], -mom[:, n]), 1.0)
    except np.linalg.LinAlgError:
        raise SolverError("singular period matrix")
    s = np.sort(chebroots(p).real)
    mid, half = _frame(gs)
    lo, hi = np.array(gs.gaps).T
    scale = max(1.0, 1.0 / np.sqrt(np.min(_abs_R(gs, 0.5 * (lo + hi)))))
    res = np.array([
        chebyshev_quad(lambda t: _prod_c(s, t) / np.sqrt(_rest_abs(cs, (a, b), t)), a, b, qtol)
        for a, b in cs.gaps
    ])
    if np.max(np.abs(res)) > 1e3 * qtol * scale * max(1.0, gs.diameter ** n):
        raise SolverError(
            "period residual above tolerance", residual=np.max(np.abs(res)), iterate=mid + half * s
        )
    diff = s[:, None] - s
    np.fill_diagonal(diff, 1.0)
    s = s - chebval(s, np.linalg.solve(mom[:, :n], -res)) / diff.prod(axis=1)
    c = mid + half * s
    if not np.all((lo < c) & (c < hi)):
        raise SolverError("critical point outside its gap", iterate=c)
    h = tuple(_gap_green_value(cs, s, j, s[j - 1]) for j in range(1, n + 1))
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
    """Centred Chebyshev coefficients of the polynomials P_k, k = 1..N.

    P_k has degree <= N-1 and unit signed period over gap k, zero over the
    others; these are the gap derivatives of the harmonic measures.  The
    period matrix sign_j half^-N M[j, m], m < N, comes from the moments at
    qtol, which callers pass positionally so that equal tolerances share
    one cache entry.  Evaluate with _chebval_centred.
    """
    n = gs.n_gaps
    if n == 0:
        return np.zeros((0, 0))
    _, half = _frame(gs)
    signs = np.array([gap_branch_sign(gs, j) for j in range(1, n + 1)])
    mat = signs[:, None] * half ** -n * _gap_moments(_centred(gs), qtol)[:, :n]
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
    poly = partial(_chebval_centred, gs, _harmonic_poly_coeffs(gs, qtol)[k - 1])
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
    return float(_chebval_centred(gs, coeffs, x) / sqrt_R_gap(gs, j, x))


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
