"""Geometry of a finite-gap set E = [b0, a0] \\ U (a_j, b_j).

Green's function with respect to infinity, its critical points, harmonic
measures of the right-tail pieces E_k = E cap [b_k, a0], the density of
states, and the Thouless potential.  Everything is driven by the square
root of R(z) = (z-a0)(z-b0) prod (z-a_j)(z-b_j) with branch cuts on E.

Each of these is an integral of p(t) dt / sqrt(R(t)) for a polynomial p
(times log|z - t| for the Thouless potential), taken on the centred set
(GapSystem.centred), where [b0, a0] is [-1, 1] and G and the harmonic
measures are the same, on one of two paths: _edge_integral runs along a stack
of bands or gaps, each from its left edge, with the weight 1 / sqrt|R|, and
_ray_integral runs straight from the nearest branch point to a point outside
[b0, a0] or off the real axis with the complex branch of sqrt(R);
_branch_integral picks the path for a point value of G or of a harmonic
measure.  A quantity with one integral per gap or band (the moments, the
periods and heights of the critical points, the band masses, the Abel map)
takes one quadrature call for the whole stack.  The moments and the solved
period problems of a set are cached per tolerance (_harmonic_poly_coeffs), and
that entry keeps the critical points and the dos masses of the N + 1 bands once
they are first asked for, so the frequencies and the full bands of the density
of states take no quadrature on a warm entry.  The polynomials of
the period problems (the critical points, the harmonic-measure polynomials, the comb
Jacobian) are written in one Lagrange basis on the gap midpoints
(_lagrange_basis), whose period matrix stays close to diagonal for any N.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import SolverError, ValidationError, json_number
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

    @cached_property
    def endpoints(self):
        """All 2N+2 branch points of R, sorted; computed once per instance and
        kept out of the dataclass fields, so equality and hashing ignore it."""
        pts = [self.b0, self.a0]
        for a, b in self.gaps:
            pts.extend((a, b))
        return tuple(sorted(pts))

    @cached_property
    def frame(self):
        """Midpoint and half-width of [b0, a0]: s = (t - mid) / half is the centred coordinate."""
        return 0.5 * (self.a0 + self.b0), 0.5 * (self.a0 - self.b0)

    @cached_property
    def centred(self):
        """The set in the centred coordinate, [b0, a0] mapped onto [-1, 1]; G and the
        harmonic measures carry over unchanged."""
        mid, half = self.frame
        return GapSystem(
            b0=(self.b0 - mid) / half,
            a0=(self.a0 - mid) / half,
            gaps=tuple(((a - mid) / half, (b - mid) / half) for a, b in self.gaps),
        )

    @cached_property
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
        """Classify a real point: ('band', m) / ('gap', j) / ('left',) / ('right',).
        NaN, the one float that none of them holds, is a ValidationError."""
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
        raise ValidationError(f"cannot locate {x!r} on the real line")

    def on_set(self, x, tol=_EDGE_TOL):
        scale = max(1.0, self.diameter)
        return any(lo - tol * scale <= x <= hi + tol * scale for lo, hi in self.bands)

    def to_json(self):
        return {"band": [self.b0, self.a0], "gaps": [list(g) for g in self.gaps]}

    @classmethod
    def from_json(cls, doc):
        try:
            b0, a0 = (float(json_number(v)) for v in doc["band"])
            gaps = tuple((float(json_number(a)), float(json_number(b)))
                         for a, b in doc.get("gaps", []))
        except (KeyError, TypeError, ValueError):
            raise ValidationError("document must contain 'band': [b0, a0] and 'gaps': [[a, b], ...]")
        return cls(b0=b0, a0=a0, gaps=gaps)


@dataclass(frozen=True)
class CriticalPoints:
    """Critical points c_j of the Green's function, one per gap, with heights h_j = G(c_j),
    and the centred roots s_j: c_j = mid + half s_j (GapSystem.frame).  Every integral reads
    the s_j, which keep their digits on a set moved far from its own scale."""

    c: tuple
    h: tuple
    s: tuple


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


def _prod(x, roots):
    """prod_r (x - r) over the first axis of the ndarray ``roots`` (one root, or one
    root per row of a stack), accumulated one factor at a time in the order of
    roots, so no array of shape (len(roots),) + x.shape is formed."""
    if len(roots) == 0:
        return np.ones(np.shape(x), dtype=np.result_type(x, float))[()]
    out = np.subtract(x, roots[0])
    for r in roots[1:]:
        out *= x - r
    return out


def _other_ends(gs, lo, hi):
    """For a stack of bands or gaps [lo_k, hi_k] of gs, lo and hi of shape (K, 1): the 2N
    endpoints other than each row's own two, in ascending order, shape (2N, K, 1), and
    the mask of the own two in gs.endpoints, shape (K, 2N + 2)."""
    ends = np.array(gs.endpoints)
    own = (ends == lo) | (ends == hi)
    return ends[np.nonzero(~own)[1]].reshape(len(own), -1).T[..., None], own


def _rest_root(gs, lo, hi):
    """t -> sqrt|R(t) / ((t - lo_k)(t - hi_k))| on a stack of bands or gaps [lo_k, hi_k]
    of gs: lo and hi of shape (K, 1), t of shape (K, n).  Row k multiplies the 2N
    endpoints other than its own two in ascending order, one endpoint at a time."""
    others = _other_ends(gs, lo, hi)[0]
    return lambda t: np.sqrt(np.abs(_prod(t, others)))


def sqrt_R_gap(gs, j, x):
    """Real boundary value of sqrt(R) on gap j."""
    return gap_branch_sign(gs, j) * np.sqrt(np.abs(_prod(x, np.array(gs.endpoints))))


def _edge_integral(gs, num, lo, hi, x, qtol, origin=0.0):
    """int_{lo_k}^{x_k} num(t) dt / sqrt|R(t)| over a stack of K bands or gaps
    [lo_k, hi_k] of gs, with lo_k <= x_k <= hi_k; lo, hi and x are sequences of
    length K.  One quadrature call takes the stack: the Chebyshev rule when every
    x_k = hi_k, theta_partial_quad otherwise.  num maps nodes t of shape (K, n) to
    (..., K, n) and the result has shape (..., K), all rows converged together.
    Given origin o_k, x holds x_k - o_k and the rules run in t - o_k."""
    lo, hi, x, origin = (np.reshape(v, (-1, 1)) for v in (lo, hi, x, origin))
    root = _rest_root(gs, lo, hi)

    def g(u):
        t = u + origin
        return num(t) / root(t)

    lo, hi = lo - origin, hi - origin
    if (x == hi).all():
        return chebyshev_quad(g, lo, hi, qtol)
    return theta_partial_quad(g, lo, hi, x, qtol)


def _ray_integral(gs, num, edge, span, qtol):
    """Re int_edge^(edge + span) num(t) dt / sqrt(R(t)) from the branch point edge, in
    the branch of sqrt_R, along t = edge + s^2 span, s in [0, 1].

    The factor sqrt(t - edge) of sqrt(R) is s sqrt(span) exactly; it cancels
    against dt = 2 s span ds, so the integrand is smooth and never divides by
    the rounded difference t - edge.
    """
    rest = np.array([[e] for e in gs.endpoints if e != edge])
    scale = 2.0 * np.sqrt(span)

    def f(s):
        t = edge + s * s * span
        return np.real(scale * num(t) / np.multiply.reduce(np.sqrt(t - rest), axis=0))

    return gl_quad(f, 0.0, 1.0, qtol)


def _lagrange_nodes(cs):
    """The gap midpoints xi_m of the centred set cs and Q'(xi_m), Q = prod (s - xi_m)."""
    gaps = np.array(cs.gaps)
    xi = 0.5 * (gaps[:, 0] + gaps[:, 1])
    return xi, np.prod(xi[:, None] - xi + np.eye(xi.size), axis=1)


def _lagrange_basis(cs, coeffs=None):
    """s -> the rows l_0(s), ..., l_{N-1}(s), Q(s) / kappa, shape (N + 1,) + s.shape, or with
    coeffs of shape (..., N) the polynomials sum_m coeffs[..., m] l_m(s) in one matrix product.

    l_m = Q / ((s - xi_m) Q'(xi_m)) is the Lagrange basis on the gap midpoints xi_m of the
    centred set cs (_lagrange_nodes): it is 1 at xi_m and 0 at the other midpoints, so a
    matrix of gap integrals in it is close to diagonal for any N; kappa = max |Q'(xi_m)|.
    Barycentric form: one product Q and one quotient Q / (s - xi), which is Q'(xi_m) where s
    lands on xi_m; the weights 1 / Q'(xi_m) go with the coefficients."""
    xi, dq = _lagrange_nodes(cs)
    weighted = None if coeffs is None else coeffs / dq

    def poly(s):
        s = np.asarray(s)
        col = (-1,) + (1,) * s.ndim
        d = s - xi.reshape(col)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.prod(d, axis=0)
            rows = q / d
        np.copyto(rows, dq.reshape(col), where=d == 0.0)
        if coeffs is None:
            return np.concatenate([rows / dq.reshape(col), q[None] / np.abs(dq).max()])
        return (weighted @ rows.reshape(xi.size, -1)).reshape(weighted.shape[:-1] + s.shape)

    return poly


def _endpoint_jet(cs, roots, lo, hi, x, qtol):
    """Moments and endpoint derivatives over a stack of K bands or gaps [lo_k, hi_k] of
    the centred set cs, with upper limits x_k, in one _edge_integral call.

    Returns (mom, jet): mom[m, k] = int_{lo_k}^{x_k} l_m(s) ds / sqrt|R(s)| for the Lagrange
    rows l_m, m < N, of _lagrange_basis and, as mom[N, k], the same integral of
    P(s) = prod (s - r) over the roots r; and
    jet[i, k] = d/de_i int_{lo_k}^{x_k} P(s) ds / sqrt|R(s)| with P held fixed, e_i the
    i-th of the 2N endpoints a_1, b_1, ..., a_N, b_N (b0 and a0 stay fixed).  The rules
    take their nodes at fixed chart angles, s = mid_k + rad_k c, so the derivative of
    the rule is the rule on the derivative of g = P / sqrt|R| at fixed c: an endpoint
    e other than the row's own two enters g through |s - e|^(-1/2) and gives
    g / (2 (s - e)); the row's own lo and hi move the nodes by ds/dlo = (1 - c)/2 and
    ds/dhi = (1 + c)/2 and give g'(s) times that.  x_k moves with its chart angle
    too, so jet is the derivative at fixed x_k only where x_k = hi_k or P(x_k) = 0,
    where the moving limit adds g(x_k) dx_k = 0.
    """
    n = cs.n_gaps
    lo, hi = (np.reshape(v, (-1, 1)) for v in (lo, hi))
    others, own = _other_ends(cs, lo, hi)
    own_at = np.nonzero(own)[1].reshape(-1, 2)  # indices of lo_k and hi_k in cs.endpoints
    free = np.array(cs.endpoints[1:-1])[:, None, None]  # e_i at free[i - 1]
    mid, rad = 0.5 * (lo + hi), 0.5 * (hi - lo)
    moving = []  # (free index, row) of each own endpoint that is free, and its sign in ds/de
    basis = _lagrange_basis(cs)
    for side, sign in ((0, -1.0), (1, 1.0)):
        rows = np.flatnonzero((own_at[:, side] >= 1) & (own_at[:, side] <= 2 * n))
        moving.append((own_at[rows, side] - 1, rows, sign))

    def num(s):
        out = np.empty((3 * n + 1,) + s.shape)
        out[:n] = basis(s)[:n]
        val, der = np.ones_like(s), np.zeros_like(s)
        for r in roots:  # P and P' by the product rule
            der = der * (s - r) + val
            val = val * (s - r)
        out[n] = val
        d = out[n + 1 :]
        # a node can round onto its row's own endpoint only; that entry is replaced below
        with np.errstate(divide="ignore"):
            np.divide(0.5 * val, s - free, out=d)
        # g'(s) sqrt|R(s) / ((s - lo)(s - hi))|
        slope = der - 0.5 * val * np.add.reduce(1.0 / (s - others), axis=0)
        c = (s - mid) / rad
        for idx, rows, sign in moving:
            d[idx, rows] = slope[rows] * (0.5 + sign * 0.5 * c[rows])
        return out

    out = _edge_integral(cs, num, lo, hi, x, qtol)
    return out[: n + 1], out[n + 1 :]


def _lagrange_roots(xi, w):
    """The zeros of f(s) = 1 + sum_m w_m / (s - xi_m), real here: the eigenvalues of
    diag(xi) - w 1^T, whose characteristic polynomial is prod (s - xi_m) f(s), each
    polished by one Newton step on f.  A zero that lands exactly on a node is kept."""
    s = np.linalg.eigvals(np.diag(xi) - w[:, None]).real
    d = s[:, None] - xi
    on_node = d == 0.0
    r = 1.0 / np.where(on_node, 1.0, d)
    # s - f / f' with f' = -sum_m w_m r_m^2
    return s + np.where(on_node.any(axis=1), 0.0, (1.0 + r @ w) / ((r * r) @ w))


@dataclass(frozen=True, eq=False)
class _PeriodSolve:
    """The period problems of the centred set of gs at qtol, solved in the Lagrange basis
    (_lagrange_basis): coeffs, row k - 1 the coefficients of P_k for k = 1..N, and p, the
    coefficients of the critical polynomial P.  critical_points is solved from p, and
    band_masses from the critical points, each on first use; a SolverError is not kept,
    so a set that fails raises on every request."""

    gs: GapSystem
    qtol: float
    coeffs: np.ndarray
    p: np.ndarray

    @cached_property
    def critical_points(self):
        """The N period conditions for the critical points of G are linear in the centred
        coordinate, where the periods and G are the same: prod(s - s_k) is a multiple of
        P = Q / kappa + sum_{m<N} p_m l_m (_lagrange_basis), whose gap periods vanish.
        P = (Q / kappa)(1 + sum_m w_m / (s - xi_m)), w_m = kappa p_m / Q'(xi_m), has the
        zeros of _lagrange_roots.  One quadrature over the gaps and the gaps up to the
        s_j gives the periods and the signed halves H_j, h_j = |H_j|; |H_j| +
        |period_j - H_j| is int |P| / sqrt|R| over gap j, and each period must lie
        within 1e3 qtol of it."""
        gs, qtol = self.gs, self.qtol
        n = gs.n_gaps
        if n == 0:
            return CriticalPoints(c=(), h=(), s=())
        cs = gs.centred
        xi, dq = _lagrange_nodes(cs)
        s = np.sort(_lagrange_roots(xi, self.p * np.abs(dq).max() / dq))
        mid, half = gs.frame
        lo, hi = np.array(cs.gaps).T
        if not np.all((lo < s) & (s < hi)):
            raise SolverError("critical point outside its gap", iterate=mid + half * s)
        # the full gaps, then the gaps up to their critical points, in one call
        ints = _edge_integral(cs, partial(_prod, roots=s), np.tile(lo, 2), np.tile(hi, 2),
                              np.concatenate([hi, s]), qtol)
        period, part = ints[:n], ints[n:]
        if np.any(np.abs(period) > 1e3 * qtol * (np.abs(part) + np.abs(period - part))):
            raise SolverError(
                "period residual above tolerance", residual=np.max(np.abs(period)),
                iterate=mid + half * s)
        return CriticalPoints(c=tuple(mid + half * s), h=tuple(np.abs(part)), s=tuple(s))

    @cached_property
    def band_masses(self):
        """The dos masses of the N + 1 bands of gs, left to right: one Chebyshev call over
        the bands of the centred set, with the centred critical points of this entry."""
        cs = self.gs.centred
        lo, hi = np.array(cs.bands).T
        num = _dos_numerator(self.critical_points.s)
        return _edge_integral(cs, num, lo, hi, hi, self.qtol) / np.pi


def critical_points(gs, qtol=DEFAULT_QTOL):
    """The critical points of G, with their heights: solved once per cache entry of
    _harmonic_poly_coeffs, on first use, and the same CriticalPoints from then on.
    A SolverError is not kept, so a set that fails raises on every call."""
    return _harmonic_poly_coeffs(gs, qtol).critical_points


def green(gs, cp, z, qtol=DEFAULT_QTOL):
    """Green's function G(z) of the complement of E, pole at infinity: the real part of
    the abelian integral of prod(s - s_j) ds / sqrt(R) on the centred set from a branch
    point (_branch_integral), where G = 0 by construction of the critical points."""
    return max(0.0, _branch_integral(gs, partial(_prod, roots=np.asarray(cp.s)), z, qtol)[1])


@lru_cache(maxsize=32)
def _harmonic_poly_coeffs(gs, qtol):
    """The period problems of the centred set, solved in the Lagrange basis
    (_lagrange_basis), as a _PeriodSolve: the coefficients of the P_k and the coefficients
    p of the critical polynomial P, which also holds the critical points and the band
    masses once they are first asked for, so every reader of one entry shares one solve.

    M[j - 1, m] = int_{gap j} l_m(s) ds / sqrt|R(s)| for the N + 1 basis rows is one
    quadrature over the gaps at qtol, which callers pass positionally so that equal
    tolerances share one cache entry.  P_k has degree <= N-1 and unit signed period
    over gap k, zero over the others, so P_k(s) ds / sqrt(R(s)) is d omega_k: the
    period matrix is sign_j M[j, m], m < N.  P = Q / kappa + sum_m p_m l_m has zero
    periods: sum_m M[j, m] p_m = -M[j, N].  The two right-hand sides take one solve
    each.
    """
    n = gs.n_gaps
    if n == 0:
        return _PeriodSolve(gs, qtol, np.zeros((0, 0)), np.zeros(0))
    cs = gs.centred
    lo, hi = np.array(cs.gaps).T
    mom = _edge_integral(cs, _lagrange_basis(cs), lo, hi, hi, qtol).T
    signs = np.array([gap_branch_sign(gs, j) for j in range(1, n + 1)])
    try:
        coeffs = np.linalg.solve(signs[:, None] * mom[:, :n], np.eye(n))
        p = np.linalg.solve(mom[:, :n], -mom[:, n])
    except np.linalg.LinAlgError:
        raise SolverError("singular period matrix")
    return _PeriodSolve(gs, qtol, coeffs.T, p)


def _gap_increment(gs, num, js, xs, qtol):
    """s_j int_{a_j}^{x_i} num(s) ds / sqrt|R(s)| = int_{a_j}^{x_i} num(s) ds / sqrt(R(s)) on the
    centred set, for points x_i of gs, each in its gap j = js[i] with branch sign s_j, in
    one quadrature call; num as in _edge_integral.  With the P_k of _harmonic_poly_coeffs
    this is omega_k(x_i) - omega_k(a_j).  Each row starts its rule at the gap end e nearer
    to x_i with x_i - e taken on gs, so x_i keeps its distance to either end."""
    cs = gs.centred
    rows = np.asarray(js) - 1
    (a, b), (ac, bc) = (np.array(g.gaps)[rows].T for g in (gs, cs))
    xs = np.asarray(xs, dtype=float)
    left = xs - a <= b - xs
    signs = np.array([gap_branch_sign(gs, j) for j in js])
    return signs * _edge_integral(cs, num, ac, bc, (xs - np.where(left, a, b)) / gs.frame[1],
                                  qtol, origin=np.where(left, ac, bc))


def _branch_integral(gs, num, z, qtol):
    """(e, Re int_e^z num(s) ds / sqrt(R(s))) on the centred set from a branch point e of gs,
    in the branch of sqrt_R: along gap j from a_j for z in gap j (_gap_increment), and
    otherwise on the ray from the branch point nearest to z (_ray_integral), with z - e
    taken on gs.  Every branch point lies on E, where G and the harmonic measures have
    known boundary values, so e is free.  A point z of E is its own base point."""
    z = complex(z)
    if z.imag == 0.0:
        kind = gs.locate(z.real)
        if kind[0] == "band":
            return z.real, 0.0
        if kind[0] == "gap":
            inc = _gap_increment(gs, num, kind[1:], [z.real], qtol)[0]
            return gs.gap(kind[1])[0], float(inc)
    i = min(range(len(gs.endpoints)), key=lambda i: abs(z - gs.endpoints[i]))
    span = (z - gs.endpoints[i]) / gs.frame[1]
    return gs.endpoints[i], _ray_integral(gs.centred, num, gs.centred.endpoints[i], span, qtol)


def harmonic_measure(gs, k, x, qtol=DEFAULT_QTOL):
    """Harmonic measure omega_k(x) of E_k = E cap [b_k, a0] at real x.

    omega_k is 1 on E_k and 0 on the rest of E; off E it is that boundary
    value at a branch point e plus int_e^x P_k(s) ds / sqrt(R(s)) on the
    centred set (_branch_integral), with P_k from _harmonic_poly_coeffs.  It
    depends on E alone, not on the critical points.
    """
    _, b_k = gs.gap(k)
    poly = _lagrange_basis(gs.centred, _harmonic_poly_coeffs(gs, qtol).coeffs[k - 1])
    edge, inc = _branch_integral(gs, poly, x, qtol)
    return float(edge >= b_k) + inc


def harmonic_measure_density(gs, k, x):
    """d omega_k / dx at a point strictly inside a gap: half^N P_k(s) / sqrt(R(x)), P_k on
    the centred set."""
    gs.gap(k)  # k in 1..N
    kind = gs.locate(x)
    if kind[0] != "gap":
        raise ValidationError("density is defined on open gaps only")
    j = kind[1]
    lo, hi = gs.gap(j)
    scale = max(1.0, gs.diameter)
    if min(x - lo, hi - x) < _EDGE_TOL * scale:
        raise ValidationError("square-root blow-up: x at a gap endpoint")
    mid, half = gs.frame
    poly = _lagrange_basis(gs.centred, _harmonic_poly_coeffs(gs, DEFAULT_QTOL).coeffs[k - 1])
    return float(half**gs.n_gaps * poly((x - mid) / half) / sqrt_R_gap(gs, j, x))


def dos_density(gs, cp, x):
    """Density of the density-of-states measure at x in the interior of E:
    half^N |prod(s - s_j)| / (pi sqrt|R(x)|) at s = (x - mid) / half."""
    kind = gs.locate(x)
    if kind[0] != "band":
        raise ValidationError("density of states lives on E")
    lo, hi = gs.bands[kind[1]]
    scale = max(1.0, gs.diameter)
    if min(abs(x - lo), abs(hi - x)) < _EDGE_TOL * scale:
        raise ValidationError("integrable singularity at band endpoint")
    mid, half = gs.frame
    root = np.sqrt(np.abs(_prod(x, np.array(gs.endpoints))))
    return float(half**gs.n_gaps * _dos_numerator(cp.s)((x - mid) / half) / (np.pi * root))


def _dos_numerator(roots):
    """s -> |prod(s - s_j)| for the centred roots s_j: pi times the dos density is this
    over sqrt|R| on the centred set."""
    roots = np.asarray(roots)
    return lambda s: np.abs(_prod(s, roots))


def frequencies(gs, cp, qtol=DEFAULT_QTOL):
    """omega_k = dos mass of E_k = bands k..N, for k = 1..N, summed from the band masses
    of the cache entry of gs at qtol, whose critical points are cp = critical_points(gs,
    qtol): the full bands are integrated once per entry."""
    n = gs.n_gaps
    if n == 0:
        return np.zeros(0)
    masses = _harmonic_poly_coeffs(gs, qtol).band_masses
    return np.array([masses[k:].sum() for k in range(1, n + 1)])


def dos_cdf(gs, cp, x, qtol=DEFAULT_QTOL):
    """Integrated density of states: dos mass of E cap (-inf, x], with the masses of the
    cache entry of gs at qtol, whose critical points are cp = critical_points(gs, qtol).
    The full bands below x come from the entry's band_masses, so a call integrates only
    a band that x cuts, on the centred set with the entry's centred critical points."""
    entry = _harmonic_poly_coeffs(gs, qtol)
    mid, half = gs.frame
    cs = gs.centred
    lo, hi = np.array(cs.bands).T
    xc = (x - mid) / half
    full = hi <= xc
    masses = entry.band_masses[full] if np.any(full) else np.zeros(0)
    cut = (lo < xc) & (xc < hi)
    if np.any(cut):
        num = _dos_numerator(entry.critical_points.s)
        masses = np.append(masses, _edge_integral(cs, num, lo[cut], hi[cut], [xc], qtol) / np.pi)
    return min(1.0, float(np.sum(masses)))


def thouless_potential(gs, cp, z, qtol=DEFAULT_QTOL):
    """Logarithmic potential int_E log|z - x| d omega(x): log half plus the same
    potential of the centred set at (z - mid) / half, one quadrature call over its bands."""
    mid, half = gs.frame
    cs = gs.centred
    zc = (complex(z) - mid) / half
    dos = _dos_numerator(cp.s)

    def num(s):
        return np.log(np.abs(zc - s)) * dos(s)

    lo, hi = np.array(cs.bands).T
    return float(np.log(half) + np.sum(_edge_integral(cs, num, lo, hi, hi, qtol)) / np.pi)


def robin_constant(gs, cp, qtol=DEFAULT_QTOL):
    """The constant c in the Thouless identity G(z) = c + int log|z-x| d omega:
    c = int_a0^inf (P/sqrt(R) - 1/(t - b0)) dt - log(a0 - b0), P = prod (t - s_j),
    integrated on the centred set.  t = a0 + u^2 takes the edge factor out as
    in _ray_integral, u = v / (1 - v) maps [0, inf) onto [0, 1), and P/sqrt(R)
    is one factor (t - c_j) / sqrt((t - a_j)(t - b_j)) per gap, so no product
    overflows."""
    mid, half = gs.frame
    # a0 - x on the centred set for the s_j, and from the differences on gs for the a_j, b_j
    dc = (gs.a0 - mid) / half - np.array(cp.s, dtype=float)[:, None]
    da, db = (gs.a0 - np.array(gs.gaps).reshape(-1, 2).T[..., None]) / half

    def f(v):
        u = v / (1.0 - v)
        uu = u * u
        ratio = np.prod((uu + dc) / np.sqrt((uu + da) * (uu + db)), axis=0)
        return 2.0 * (ratio / np.sqrt(uu + 2.0) - u / (uu + 2.0)) / (1.0 - v) ** 2

    return gl_quad(f, 0.0, 1.0, qtol) - np.log(gs.a0 - gs.b0)
