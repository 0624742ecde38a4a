"""Coefficient sequences of reflectionless Jacobi matrices via an exact
algebraic continued-fraction step on the resolvent data, plus orthogonal
polynomials, transfer matrices and Christoffel-Darboux checks.

The iteration state is the polynomial pair (T, Pi) of the current
resolvent splitting; one step peels off (q_n, p_{n+1}^2) and forms the
next pair by polynomial algebra alone: T' = 2 (z - q) Pi - T and
Pi' = (R - T'^2) / (-4 p^2 Pi).  The divisor, the roots of Pi with their
sheets, is found only when `CFState.divisor` is read.

The iteration runs on the centred set s = (t - mid) / half of [b0, a0]
(`GapSystem.centred`), where |s| <= 1 and every coefficient of R, T
and Pi is O(2^(2N+2)).  There all state arithmetic is in fixed point on
plain Python integers: v stands for v / 2^W with W = prec bits, since
errors accumulate linearly in the number of steps.  `initial_state` is
`herglotz._fixed_state`, the one build of (T, R, 4 p0^2), at prec bits;
q_n = mid + half q, p_n^2 = half^2 p^2 and the divisor x = mid + half s
leave through one correctly rounded integer true division each.

R(z) = prod (z - e) over the 2N+2 endpoints is built once per window and
carried with every state; what the division reads of it (R 2^W, max |r_k|,
the shift of the remainder test) is formed once per window by `_r_terms`
and shared by the forward sites, the dual division and the backward sites.
There is one step body, the generator `_steps`: it forms the frame's
integer ratios for q and p^2 once and then runs site after site on plain
integer lists.  A site reads only the coefficients it needs: each
coefficient of a product, of R - T^2 and of its quotient by Pi is one exact
sum of integer products over the pairs of factors that form it, shifted
once, and the coefficients of T^2 are symmetric squares, twice the
products below the middle plus the middle square; quotients are
`(a << W) // b`.  Every step runs at the state's own W bits.

A site yields q_n, which needs only (T_n, Pi_n), before the division that
advances to the next site, so a window runs only the divisions its outputs
read: `coefficients` on [n0, n1] runs n1 forward divisions (one at
[0, 0]) and, for n0 < 0, the dual division and |n0| backward ones.  Each
division's remainder test covers the (T, Pi) it starts from and the one it
makes, so every pair an output reads has been tested; a test that fails
raises `SolverError`.  `cf_step` takes two sites of `_steps`, one division,
and `iterate` nsteps + 1 sites, nsteps divisions, building a CFState only
at its end.  The orthogonal polynomials come from one pass of the
three-term recurrence (`_polys`).
"""

from dataclasses import dataclass, replace
from itertools import islice
from math import isqrt, sqrt
from operator import mul

import numpy as np

from .errors import SolverError, ValidationError
from .herglotz import Divisor, _fixed_ratio, _fixed_state, _from_fixed, _to_fixed, split_resolvents
from .spectral_set import gap_branch_sign

DEFAULT_PREC = 128

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# A root is searched for in its gap widened by 1 / _ESCAPE gap widths on each
# side, where it is read as the nearer endpoint: far above the 2^-prec rounding
# of a converged root, below the 1e-6 that TestGapRoots requires to raise
_ESCAPE = 10**9


# ---------------------------------------------------------------------------
# polynomials in fixed point (ascending integer coefficients, v = v / 2^w)


def _powers(x, n, w):
    """[1, x, ..., x^n] in fixed point."""
    pw = [1 << w]
    for _ in range(n):
        pw.append(pw[-1] * x >> w)
    return pw


def _peval(p, x, w):
    """p(x) at scale 2^(2w): the exact sum, unshifted."""
    return sum(map(mul, p, _powers(x, len(p) - 1, w)))


def _sign(v):
    return (v > 0) - (v < 0)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFState:
    """Resolvent data (T, Pi) of the continued-fraction iteration at one site.

    pi_coeffs are the ascending coefficients of the monic Pi = prod (z - x_j),
    and t_coeffs those of T; with ends, r_coeffs and four_p0sq = 4 p0^2 they
    come from herglotz._fixed_state on the centred set, in fixed point at
    prec bits.  ends are the centred endpoints b0, a_1, b_1, ..., a0, and
    r_coeffs the coefficients of R; both are shared by every state derived
    from the first one.
    """

    gs: object
    pi_coeffs: tuple
    t_coeffs: tuple
    ends: tuple
    r_coeffs: tuple
    four_p0sq: int
    prec: int = DEFAULT_PREC

    @property
    def p0sq(self):
        """p0^2 in raw coordinates, correctly rounded."""
        return _from_fixed(self.four_p0sq, self.prec + 2, self.gs.frame[1], 2)

    @property
    def p0(self):
        """p0 = half sqrt(four_p0sq) / 2 in raw coordinates, the square root taken to 2 prec bits."""
        w = self.prec
        return _from_fixed(isqrt(self.four_p0sq << 3 * w), 2 * w + 1, self.gs.frame[1])

    @property
    def divisor(self):
        """The divisor at this site: the roots s of Pi, one per gap, with the
        sheet signs T gives them, and x = mid + half s clamped into its
        closed gap."""
        w = self.prec
        mid, half = self.gs.frame
        roots = _gap_roots(self.ends, self.pi_coeffs, w)
        eps = _eps_from_t(self.gs, self.ends, self.t_coeffs, roots, w)
        pts = tuple((min(max(_from_fixed(s, w, half, mid=mid), a), b), e)
                    for s, e, (a, b) in zip(roots, eps, self.gs.gaps))
        return Divisor(pts).normalized(self.gs)


@dataclass(frozen=True)
class JacobiSegment:
    """Window of Jacobi coefficients p_n > 0, q_n for n in [n0, n1]."""

    n0: int
    n1: int
    p: tuple
    q: tuple

    def __post_init__(self):
        if len(self.p) != self.n1 - self.n0 + 1 or len(self.q) != len(self.p):
            raise ValidationError("segment length mismatch")
        if any(pn <= 0 for pn in self.p):
            raise ValidationError("off-diagonal entries must be positive")

    def p_at(self, n):
        return self.p[n - self.n0]

    def q_at(self, n):
        return self.q[n - self.n0]

    def to_json(self):
        return {"n0": self.n0, "n1": self.n1, "p": list(self.p), "q": list(self.q)}

    def to_csv(self):
        lines = ["n,p,q"]
        for i, n in enumerate(range(self.n0, self.n1 + 1)):
            lines.append(f"{n},{self.p[i]!r},{self.q[i]!r}")
        return "\n".join(lines) + "\n"


def initial_state(gs, divisor, prec=DEFAULT_PREC):
    """CFState at site 0 from a divisor: herglotz._fixed_state at prec bits."""
    _, ends, pi, t, r, four_p0sq = _fixed_state(gs, divisor, prec)
    return CFState(gs=gs, pi_coeffs=tuple(pi), t_coeffs=tuple(t), ends=tuple(ends), r_coeffs=tuple(r),
                   four_p0sq=four_p0sq, prec=prec)


def _r_terms(r, w):
    """What _reduce_divide reads of R at w bits, formed once per window: a
    row (r_k 2^w, below, above, middle) for each k <= 2N, where the slices
    below and above of T pair the factors t_i t_(k-i) with i < k - i, and
    middle is k / 2 for even k, else None; the shift 2w - 26 of the
    remainder test; and max |r_k|."""
    n = (len(r) - 3) // 2
    rows = []
    for k in range(2 * n + 1):
        lo, hi = max(0, k - n - 1), (k + 1) >> 1
        rows.append((r[k] << w, slice(lo, hi), slice(k - lo, k - hi, -1), None if k & 1 else hi))
    return rows, 2 * w - 26, max(map(abs, r))


def _reduce_divide(t, pi, w, r_terms):
    """(4 p^2, monic quotient) of (R - T^2) / (-4 p^2 Pi), with -4 p^2 the
    z^2N coefficient of R - T^2 and Pi monic of degree N, all given by their
    coefficients in fixed point at w bits; r_terms comes from _r_terms.

    R - T^2 has degree 2N by construction of T: its monic leading terms
    cancel, and q cancels the z^(2N+1) term.  Pi must divide it: the largest
    coefficient of the remainder, which has degree N - 1, must be at most
    2^(26 - w) max |r_k| times 4 p^2.  Each coefficient of R - T^2 and of the
    top-down long division by Pi is one exact sum of products, shifted once;
    the z^k coefficient of T^2 is the symmetric square, twice the products
    t_i t_(k-i) with i < k - i plus t_(k/2)^2 for even k.
    """
    rows, shift, r_max = r_terms
    n = len(pi) - 1
    num = []
    for rk, below, above, middle in rows:
        sq = sum(map(mul, t[below], t[above])) << 1
        if middle is not None:
            sq += t[middle] * t[middle]
        num.append((rk - sq) >> w)
    lead = num[2 * n]
    if lead >= 0:
        raise SolverError(f"nonpositive p^2 = {-lead / (4 << w)}")
    quot = [0] * n + [lead]
    for m in range(n - 1, -1, -1):
        quot[m] = ((num[m + n] << w) - sum(map(mul, pi[m:n], quot[n:m:-1]))) >> w
    rem_max = max((abs(((num[k] << w) - sum(map(mul, pi[k::-1], quot))) >> w) for k in range(n)),
                  default=0)
    # rem_max / |lead| > 2^(26 - w) max |r_k|, in integers
    if rem_max << shift > r_max * -lead:
        raise SolverError("polynomial division remainder above tolerance",
                          residual=rem_max / -lead)
    return -lead, [(c << w) // lead for c in quot]


def _gap_roots(ends, coeffs, w):
    """The root in each closed gap of a monic polynomial of degree N with
    fixed-point coefficients at w bits, as fixed-point integers; ends are the
    fixed-point endpoints b0, a_1, b_1, ..., a_N, b_N, a0.

    One bracketed Newton per gap (rtsafe), with f and f' from one power
    vector.  The bracket [lo, hi] is the gap widened by 1 / _ESCAPE gap widths
    on each side; with one root per gap, f has the sign (-1)^(N-j+1) at the lo
    of gap j, and each iterate replaces lo or hi by the sign of f there.
    Newton starts from the float64 root clipped to [lo, hi]; a step that leaves
    [lo, hi], or that does not halve the step before it, becomes the midpoint
    of [lo, hi], so the bracket shrinks until a stop rule holds.  It has
    converged when a step s_k, or the next step predicted from the quadratic
    rate, |s_k|^3 / |s_(k-1)|^2, is below 2^-w times the largest |endpoint|,
    or when s_k is within the rounding floor of f: each truncated power x^k is
    at most k units low, so f is off by at most sum k |c_k| units and the
    step by that times 2^w / |f'|.  Where the iterate ends outside the gap, f
    must change sign between it and the bracket's end; else the root lies
    outside the bracket, an error with the distance of the float64 root to
    the gap.  A root within its error bound of a gap endpoint, or outside the
    gap, is that endpoint.
    """
    n = len(coeffs) - 1
    seeds = [_to_fixed(x, w) for x in np.sort(np.roots([c / (1 << w) for c in reversed(coeffs)]).real)]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    # 2^-w max |endpoint| in units of 2^-w, rounded up
    tol = -(-max(abs(ends[0]), abs(ends[-1])) >> w)
    # the error bound of f from the truncated powers, at 2^(2w), times 2^w
    floor = sum(k * abs(c) for k, c in enumerate(coeffs)) << w
    roots = []
    for j, (seed, a, b) in enumerate(zip(seeds, ends[1:-1:2], ends[2:-1:2]), start=1):
        escape = (b - a) // _ESCAPE
        lo, hi = a - escape, b + escape
        sign_lo = -1 if (n - j) % 2 == 0 else 1
        x, prev = min(max(seed, lo), hi), None
        while True:
            pw = _powers(x, n, w)
            fx, dfx = sum(map(mul, coeffs, pw)), sum(map(mul, dcoeffs, pw))
            if _sign(fx) == sign_lo:
                lo = x
            else:
                hi = x
            err = max(tol, floor // abs(dfx)) if dfx else tol
            new = x - (fx << w) // dfx if dfx else hi + 1  # no Newton step where f' = 0
            if not lo <= new <= hi or (prev is not None and 2 * abs(x - new) > prev):
                new = (lo + hi) >> 1
            size, x = abs(x - new), new
            if size <= err or (prev is not None and size ** 3 <= tol * prev ** 2):
                break
            prev = size
        # an iterate outside the gap: the bracket holds a root only where f changes sign over it
        if (x < a and _sign(_peval(coeffs, a - escape, w)) == -sign_lo
                or x > b and _sign(_peval(coeffs, b + escape, w)) == sign_lo):
            raise SolverError(f"divisor root escaped gap {j}",
                              residual=min(abs(seed - a), abs(seed - b)) / (1 << w))
        roots.append(a if x <= a + err else b if x >= b - err else x)
    return roots


def _eps_from_t(gs, ends, t_coeffs, roots, w):
    """Sheet signs of divisor points.  There T^2 = R, so eps_j is the sign
    of T(x_j) on the branch gap_branch_sign(j) of sqrt(R); points on an
    endpoint, where T(x_j) is rounding, get +1."""
    eps = []
    for j, (x, a, b) in enumerate(zip(roots, ends[1:-1:2], ends[2:-1:2]), start=1):
        if x in (a, b):
            eps.append(1)
            continue
        val = _peval(t_coeffs, x, w)
        eps.append(1 if (val if gap_branch_sign(gs, j) > 0 else -val) >= 0 else -1)
    return tuple(eps)


def _steps(state, r_terms):
    """The sites of the continued fraction from state's own site on, at its
    prec bits, one per next(): yields (q_n, p_n^2, 4 p_n^2, Pi_n, T_n), the
    floats correctly rounded and the rest in fixed point.  q_n needs only
    (T_n, Pi_n), so a site is yielded before the division that advances to
    the next one: k sites have run k - 1 divisions.  r_terms comes from
    _r_terms; the frame's integer ratios are formed once."""
    n, w = state.gs.n_gaps, state.prec
    mid, half = state.gs.frame
    four_psq, pi, t = state.four_p0sq, state.pi_coeffs, state.t_coeffs
    r_top = state.r_coeffs[2 * n + 1] << w
    q_off, q_scale, q_den = _fixed_ratio(w, half, mid=mid)
    _, p_scale, p_den = _fixed_ratio(w + 2, half, 2)
    while True:
        # q from the vanishing z^(2N+1) coefficient of R - (A + qB)^2 with
        # A = T - 2z Pi and B = 2 Pi; B^2 has degree 2N and, T and Pi being
        # monic, the z^(2N+1) coefficient of 2AB is -4 and that of A^2 is
        # 2 a_N a_(N+1), so q is explicit
        a = [t[0]] + [ti - 2 * pii for ti, pii in zip(t[1:], pi)]
        q = ((a[n] * a[n + 1] << 1) - r_top) >> (w + 2)
        yield (q_off + q_scale * q) / q_den, p_scale * four_psq / p_den, four_psq, pi, t
        # the next T is -(A + qB)
        t = [-(ai + (2 * pii * q >> w)) for ai, pii in zip(a, pi)] + [-a[-1]]
        four_psq, pi = _reduce_divide(t, pi, w, r_terms)


def _cf_step_at_prec(state):
    """The first two sites of _steps, as (q_n, p_{n+1}^2, next state);
    bench/tracer.py counts its calls."""
    sites = _steps(state, _r_terms(state.r_coeffs, state.prec))
    q = next(sites)[0]
    _, psq, four_psq, pi, t = next(sites)
    return q, psq, replace(state, pi_coeffs=tuple(pi), t_coeffs=tuple(t), four_p0sq=four_psq)


def cf_step(state):
    """One continued-fraction step: returns (q_n, p_{n+1}^2, next state)."""
    return _cf_step_at_prec(state)


def _dual(state, r_terms):
    """dual_state with R's terms given."""
    _, quot = _reduce_divide(state.t_coeffs, state.pi_coeffs, state.prec, r_terms)
    return replace(state, pi_coeffs=tuple(quot))


def dual_state(state):
    """State generating the negative-index coefficients of the same matrix.

    Its Pi is (R - T^2) / (-4 p0^2 Pi); T and p0^2 are unchanged.
    """
    return _dual(state, _r_terms(state.r_coeffs, state.prec))


def iterate(state, nsteps):
    """Run nsteps of cf_step; returns (qs, psqs, final state).

    It reads nsteps + 1 sites of _steps, which run nsteps divisions, as one
    loop on integer lists, and builds the final state once.
    """
    qs, psqs = [], []
    for q, psq, four_psq, pi, t in islice(_steps(state, _r_terms(state.r_coeffs, state.prec)),
                                          max(nsteps, 0) + 1):
        qs.append(q)
        psqs.append(psq)
    return qs[:-1], psqs[1:], replace(state, pi_coeffs=tuple(pi), t_coeffs=tuple(t),
                                      four_p0sq=four_psq)


def coefficients(gs, divisor, n0, n1, prec=DEFAULT_PREC):
    """Jacobi coefficients p_n, q_n for n0 <= n <= n1 from the divisor at site 0.

    The window runs the divisions its outputs read, and no more: n1 forward
    ones for sites 0..n1, and for n0 < 0 the dual division and |n0| backward
    ones for the dual's sites 0..|n0|.  A division tests the remainder of the
    site it starts from and of the one it makes, so every (T, Pi) read has
    been tested; at [0, 0], where no other division would test T_0, the
    forward run takes one division.  R's terms are formed once per window.
    """
    if not n0 <= 0 <= n1:
        raise ValidationError("window must contain the origin: n0 <= 0 <= n1")
    state = initial_state(gs, divisor, prec=prec)
    r_terms = _r_terms(state.r_coeffs, prec)
    # forward sites give q_0, q_1, .. and p_0, p_1, ..; the dual's give q_-1, q_-2, ..
    # and p_0, p_-1, ..; at [0, 0] a second site runs the one division that tests T_0
    fwd = list(islice(_steps(state, r_terms), n1 + 1 if n0 or n1 else 2))[:n1 + 1]
    q = [s[0] for s in fwd]
    p = [state.p0] + [sqrt(s[1]) for s in fwd[1:]]
    if n0:
        bwd = list(islice(_steps(_dual(state, r_terms), r_terms), 1 - n0))
        q = [s[0] for s in bwd[-2::-1]] + q
        p = [sqrt(s[1]) for s in bwd[:0:-1]] + p
    return JacobiSegment(n0=n0, n1=n1, p=tuple(p), q=tuple(q))


# ---------------------------------------------------------------------------
# orthogonal polynomials, transfer matrices, Christoffel-Darboux


def _polys(seg, z, n):
    """Rows (P_k(z), Q_k(z)), k = 0..n, of the first and second kind
    polynomials, from one pass of the three-term recurrence."""
    if n < 0 or seg.n0 > 0 or seg.n1 < n:
        raise ValidationError(f"segment must cover indices 0..{n}")
    rows = [(1.0 + 0j, 0.0 + 0j)]  # P_0, Q_0
    if n == 0:
        return rows
    rows.append(((z - seg.q_at(0)) / seg.p_at(1), 1.0 / seg.p_at(1)))
    for k in range(2, n + 1):
        (p_prev, q_prev), (p_cur, q_cur) = rows[-2:]
        zq, a, b = z - seg.q_at(k - 1), seg.p_at(k - 1), seg.p_at(k)
        rows.append(((zq * p_cur - a * p_prev) / b, (zq * q_cur - a * q_prev) / b))
    return rows


def _j_form(a):
    """A^* j A - j for a transfer matrix A."""
    return a.conj().T @ _J @ a - _J


def _transfer(seg, z, n):
    """(transfer_matrix(seg, z, n), the _polys rows 0..n+1 it is built from)."""
    if n < 0:
        raise ValidationError(f"transfer matrix index {n} is negative")
    rows = _polys(seg, z, n + 1)
    pp = seg.p_at(n + 1)
    (pn, qn), (pn1, qn1) = rows[n:n + 2]
    return np.array([[pn, qn], [pp * pn1, pp * qn1]], dtype=complex), rows


def orthogonal_polys(seg, z, n):
    """First and second kind polynomials (P_n(z), Q_n(z)) from the recurrence."""
    return _polys(seg, z, n)[-1]


def transfer_matrix(seg, z, n):
    """2x2 transfer matrix with rows (P_n, Q_n), (p_{n+1} P_{n+1}, p_{n+1} Q_{n+1})."""
    return _transfer(seg, z, n)[0]


def _cd(a, rows, z):
    """cd_residual from _transfer's matrix and rows at non-real z."""
    lhs = _j_form(a) / (z - np.conj(z))
    y = np.array(rows[:-1])
    rhs = y.conj().T @ y
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def cd_residual(seg, z, n):
    """Christoffel-Darboux identity residual at non-real z for the n-th transfer matrix,
    relative to the size of the kernel sum Y^* Y over the rows (P_k, Q_k), k = 0..n."""
    z = complex(z)
    if z.imag == 0:
        raise ValidationError("Christoffel-Darboux quotient needs Im z != 0")
    return _cd(*_transfer(seg, z, n), z)


def _j_unitarity(a):
    """j_unitarity_residual of a transfer matrix."""
    return float(np.max(np.abs(_j_form(a))))


def j_unitarity_residual(seg, x, n):
    """|A^* j A - j| at real x (holds identically since det A = 1)."""
    return _j_unitarity(transfer_matrix(seg, complex(x), n))


def j_expanding_min_eig(seg, z, n):
    """Smallest eigenvalue of (A^* j A - j)/(z - conj z); >= 0 in the upper half-plane."""
    z = complex(z)
    m = _j_form(transfer_matrix(seg, z, n)) / (z - np.conj(z))
    return float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))


def hat_check_normalization(gs, divisor, seg):
    """Normalization of a segment against the resolvent data of its divisor.

    u = -1/r_plus of split_resolvents is the continued fraction
    z - q_0 - p_1^2 / (z - q_1 - p_2^2 / (z - q_2 - ...)) of the forward
    coefficients.  At z = mid + 4i diameter, the fraction cut after n sites
    misses u by about |w|^(-2n) relative, |w| = 16.06 the conformal radius
    of z for [b0, a0], so below 1e-28 at the 12 sites required.  The
    residual is |u - u_segment| relative to |z - q_0 - u_segment|, the part
    of u that the coefficients beyond q_0 form; rescaling p_1 by 1 + d moves
    it by 2d.
    """
    if seg.n0 > 0 or seg.n1 < 12:
        raise ValidationError("segment must cover indices 0..12")
    mid = 0.5 * (gs.a0 + gs.b0)
    z = complex(mid, 4.0 * gs.diameter)
    frac = z - seg.q_at(seg.n1)
    for k in range(seg.n1 - 1, -1, -1):
        frac = z - seg.q_at(k) - seg.p_at(k + 1) ** 2 / frac
    u = complex(split_resolvents(gs, divisor).u(z))
    return {"z": z, "u_resolvent": u, "u_segment": frac,
            "residual": abs(u - frac) / abs(z - seg.q_at(0) - frac)}


def truncation_matrix(seg):
    """Symmetric tridiagonal truncation of the two-sided matrix on the window."""
    diag = np.array(seg.q)
    off = np.array(seg.p[1:])
    return diag, off


def almost_periodicity_report(seg, omega, delta, window):
    """Near-period scan: n with ||n omega|| < delta and the coefficient
    sup-discrepancy s(n) over a window of the given length."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    qp = np.array([seg.q, seg.p])
    entries = []
    for nshift in range(1, qp.shape[1] - window + 1):
        frac = np.abs(omega * nshift - np.round(omega * nshift))
        dist = float(np.max(frac)) if omega.size else 0.0
        if dist >= delta:
            continue
        s = np.abs(qp[:, nshift:nshift + window] - qp[:, :window]).sum(axis=0).max(initial=0.0)
        entries.append({"n": nshift, "torus_distance": dist, "sup_discrepancy": float(s)})
    entries.sort(key=lambda e: e["torus_distance"])
    return entries
