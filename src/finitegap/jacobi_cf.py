"""Coefficient sequences of reflectionless Jacobi matrices via an exact
algebraic continued-fraction step on the resolvent data, plus orthogonal
polynomials, transfer matrices and Christoffel-Darboux checks.

The iteration state is the polynomial pair (T, Pi) of the current
resolvent splitting; one step peels off (q_n, p_{n+1}^2) and advances the
divisor.

The iteration runs on the centred set s = (t - mid) / half of [b0, a0]
(`spectral_set._centred`), where |s| <= 1 and every coefficient of R, T
and Pi is O(2^(2N+2)).  There all state arithmetic is in fixed point on
plain Python integers: v stands for v / 2^W with W = prec bits, since
errors accumulate linearly in the number of steps.  `initial_state` is
`herglotz._fixed_state`, the one build of (T, R, 4 p0^2), at prec bits;
q_n = mid + half q, p_n^2 = half^2 p^2 and the divisor x = mid + half s
leave through one correctly rounded integer true division each.

R(z) = prod (z - e) over the 2N+2 endpoints is built once per window and
carried with every state.  A step reads only the coefficients it needs:
each coefficient of a product, of R - T^2 and of its quotient by Pi is one
exact sum of integer products over the pairs of factors that form it,
shifted once; quotients are `(a << W) // b`.  The orthogonal polynomials
come from one pass of the three-term recurrence (`_polys`).
"""

from dataclasses import dataclass, replace
from math import isqrt
from operator import mul

import numpy as np

from .errors import SolverError, ValidationError
from .herglotz import (Divisor, _conv, _fixed_state, _from_fixed, _pfromroots, _to_fixed,
                       split_resolvents)
from .spectral_set import _frame, gap_branch_sign

DEFAULT_PREC = 128

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Newton steps allowed per divisor root; from a float64 seed a simple root
# needs about log2(prec / 50) + 1
_NEWTON_MAX = 50

# gap widths outside its gap within which a root, f of one sign over the gap,
# is clamped to the nearer endpoint: far above the 2^-prec rounding of a
# converged root, below the 1e-6 that TestGapRoots requires to raise
_ESCAPE = 1e-9


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


def _times(v, c):
    """v * c for a fixed-point v and a float c, floored."""
    num, den = float(c).as_integer_ratio()
    return v * num // den


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFState:
    """Divisor window of the continued-fraction iteration at one site.

    xs, t_coeffs, ends, r_coeffs and four_p0sq = 4 p0^2 come from
    herglotz._fixed_state on the centred set, in fixed point at prec bits.
    ends are the centred endpoints b0, a_1, b_1, ..., a0, and r_coeffs the
    coefficients of R; both are shared by every state derived from the first
    one.  The 2 x prec retry of a step shifts them left by prec.
    """

    gs: object
    xs: tuple
    eps: tuple
    t_coeffs: tuple
    ends: tuple
    r_coeffs: tuple
    four_p0sq: int
    prec: int = DEFAULT_PREC

    @property
    def p0sq(self):
        """p0^2 in raw coordinates, correctly rounded."""
        return _from_fixed(self.four_p0sq, self.prec + 2, _frame(self.gs)[1], 2)

    @property
    def p0(self):
        """p0 = half sqrt(four_p0sq) / 2 in raw coordinates, the square root taken to 2 prec bits."""
        w = self.prec
        return _from_fixed(isqrt(self.four_p0sq << 3 * w), 2 * w + 1, _frame(self.gs)[1])

    @property
    def divisor(self):
        """The divisor at this site: x = mid + half s, clamped into its closed gap."""
        mid, half = _frame(self.gs)
        pts = tuple((min(max(_from_fixed(s, self.prec, half, mid=mid), a), b), e)
                    for s, e, (a, b) in zip(self.xs, self.eps, self.gs.gaps))
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
    divisor, ends, xs, t, r, four_p0sq = _fixed_state(gs, divisor, prec)
    return CFState(gs=gs, xs=tuple(xs), eps=divisor.eps, t_coeffs=tuple(t), ends=tuple(ends),
                   r_coeffs=tuple(r), four_p0sq=four_p0sq, prec=prec)


def _reduce_divide(r, t, xs, pi, w, prec):
    """(4 p^2, quotient) of (R - T^2) / (-4 p^2 Pi), with -4 p^2 the z^2N
    coefficient of R - T^2 and Pi = prod (z - x_j) given by its coefficients,
    all in fixed point at w bits.

    R - T^2 has degree 2N by construction of T: its monic leading terms
    cancel, and q cancels the z^(2N+1) term.  Pi must divide it to
    2^(30 - prec) max |r_k|, with prec <= w the bits the state carries: the
    test reads the remainders of dividing the quotient-scaled R - T^2 by
    z - x_1, then by z - x_2, and so on.  Each
    coefficient of R - T^2 and of the top-down long division by Pi is one
    exact sum of products, shifted once; the remainders come from the
    division's remainder polynomial, which has degree N - 1.
    """
    n = len(xs)
    num = [((r[k] << w) - _conv(t, t, k)) >> w for k in range(2 * n + 1)]
    lead = num[2 * n]
    if lead >= 0:
        raise SolverError(f"nonpositive p^2 = {-lead / (4 << w)}")
    quot = [0] * n + [lead]
    for m in range(n - 1, -1, -1):
        quot[m] = ((num[m + n] << w) - sum(map(mul, pi[m:n], quot[n:m:-1]))) >> w
    rem = [((num[k] << w) - sum(map(mul, pi[k::-1], quot))) >> w for k in range(n)]
    rem_max = 0
    for x in xs:
        acc, low = rem[-1], rem[:-1]
        rem = []
        for c in reversed(low):
            rem.append(acc)
            acc = c + (acc * x >> w)
        rem.reverse()
        rem_max = max(rem_max, abs(acc))
    # rem_max / |lead| > 2^(30 - prec) max |r_k|, in integers
    if rem_max << (w + prec - 30) > max(map(abs, r)) * -lead:
        raise SolverError("polynomial division remainder above tolerance",
                          residual=rem_max / -lead)
    return -lead, [(c << w) // lead for c in quot]


def _gap_roots(ends, coeffs, w):
    """The root in each closed gap of a monic polynomial of degree N with
    fixed-point coefficients at w bits, as fixed-point integers; ends are the
    fixed-point endpoints b0, a_1, b_1, ..., a_N, b_N, a0.

    Newton from the float64 eigenvalues of the companion matrix (the exact
    root when N = 1), clipped to the gap, with f and f' from one power
    vector.  It has converged when a step s_k, or the next step predicted
    from the quadratic rate, |s_k|^3 / |s_(k-1)|^2, is below 2^-w times the
    largest |endpoint|; the prediction also stops the iteration when the
    steps reach the rounding floor of evaluating f.  Where Newton does not converge inside the gap,
    the root is bisected if f changes sign over the gap, else clamped to the
    nearer endpoint if within _ESCAPE gap widths of it, else an error.
    """
    n = len(coeffs) - 1
    # seeding is a large share of a step: the exact root at N = 1 and the
    # companion eigenvalues without np.roots' input handling each raise
    # coeffs work_per_s end to end (CHANGES.md)
    if n < 2:
        seeds = [-c for c in coeffs[:-1]]
    else:
        one = 1 << w
        comp = np.eye(n, k=-1)
        comp[:, -1] = [-c / one for c in coeffs[:-1]]
        seeds = [_to_fixed(x, w) for x in np.sort(np.linalg.eigvals(comp).real)]
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    # 2^-w max |endpoint| in units of 2^-w, rounded up
    tol = -(-max(abs(ends[0]), abs(ends[-1])) >> w)
    roots = []
    for j, (seed, a, b) in enumerate(zip(seeds, ends[1:-1:2], ends[2:-1:2]), start=1):
        x = min(max(seed, a), b)
        prev, converged = None, False
        for _ in range(_NEWTON_MAX):
            pw = _powers(x, n, w)
            dfx = sum(map(mul, dcoeffs, pw))
            if not dfx:
                break
            step = (sum(map(mul, coeffs, pw)) << w) // dfx
            x -= step
            size = abs(step)
            if size <= tol or (prev is not None and size ** 3 <= tol * prev ** 2):
                converged = True
                break
            prev = size
        if not (converged and a <= x <= b):
            lo, hi = a, b
            flo, fhi = _peval(coeffs, lo, w), _peval(coeffs, hi, w)
            escape = _times(b - a, _ESCAPE)
            if _sign(flo) * _sign(fhi) <= 0:
                for _ in range(w + 10):
                    mid = (lo + hi) >> 1
                    fm = _peval(coeffs, mid, w)
                    if _sign(fm) == _sign(flo):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                x = (lo + hi) >> 1
            elif x < a - escape or x > b + escape:
                raise SolverError(f"divisor root escaped gap {j}",
                                  residual=min(abs(x - a), abs(x - b)) / (1 << w))
            elif not converged:
                raise SolverError(f"divisor root did not converge in gap {j}")
            else:
                x = lo if x < a else hi
        roots.append(x)
    return roots


def _eps_from_t(gs, ends, t_coeffs, roots, w):
    """Sheet signs of new divisor points.  There T^2 = R, so eps_j is the
    sign of T(x_j) on the branch gap_branch_sign(j) of sqrt(R); points
    within 1e-12 gap widths of an endpoint get +1."""
    eps = []
    for j, (x, a, b) in enumerate(zip(roots, ends[1:-1:2], ends[2:-1:2]), start=1):
        if min(x - a, b - x) < _times(b - a, 1e-12):
            eps.append(1)
            continue
        val = _peval(t_coeffs, x, w)
        eps.append(1 if (val if gap_branch_sign(gs, j) > 0 else -val) >= 0 else -1)
    return tuple(eps)


def _cf_step_at_prec(state, prec):
    """cf_step at prec >= state.prec bits; the state is shifted up to prec
    for the step and the next state back down to state.prec.  The remainder
    test keeps the tolerance of state.prec, the bits the state carries."""
    n = state.gs.n_gaps
    mid, half = _frame(state.gs)
    w, up = prec, prec - state.prec
    xs, t, ends, r = state.xs, state.t_coeffs, state.ends, state.r_coeffs
    if up:
        xs, t, ends, r = ([c << up for c in v] for v in (xs, t, ends, r))
    pi = _pfromroots(xs, w)
    # q from the vanishing z^(2N+1) coefficient of R - (A + qB)^2 with
    # A = T - 2z Pi and B = 2 Pi; B^2 has degree 2N and, T and Pi being
    # monic, the z^(2N+1) coefficient of 2AB is -4, so q is explicit
    a = [t[0]] + [t[i] - 2 * pi[i - 1] for i in range(1, n + 2)]
    k = 2 * n + 1
    q = (_conv(a, a, k) - (r[k] << w)) >> (w + 2)
    # the next T is -(A + qB)
    t_next = [-(ai + (2 * pii * q >> w)) for ai, pii in zip(a, pi)] + [-a[-1]]
    four_p1sq, quot = _reduce_divide(r, t_next, xs, pi, w, state.prec)
    roots = _gap_roots(ends, quot, w)
    nxt = replace(state, xs=tuple(x >> up for x in roots), eps=_eps_from_t(state.gs, ends, t_next, roots, w),
                  t_coeffs=tuple(c >> up for c in t_next), four_p0sq=four_p1sq >> up)
    return _from_fixed(q, w, half, mid=mid), _from_fixed(four_p1sq, w + 2, half, 2), nxt


def cf_step(state):
    """One continued-fraction step: returns (q_n, p_{n+1}^2, next state)."""
    try:
        return _cf_step_at_prec(state, state.prec)
    except SolverError as first:
        # escalate once before giving up
        try:
            return _cf_step_at_prec(state, 2 * state.prec)
        except SolverError as second:
            raise second from first


def dual_state(state):
    """State generating the negative-index coefficients of the same matrix.

    The dual divisor consists of the roots of (R - T^2) / (-4 p0^2 Pi);
    T and p0^2 are unchanged.
    """
    w = state.prec
    _, quot = _reduce_divide(state.r_coeffs, state.t_coeffs, state.xs, _pfromroots(state.xs, w), w, w)
    roots = _gap_roots(state.ends, quot, w)
    return replace(state, xs=tuple(roots), eps=_eps_from_t(state.gs, state.ends, state.t_coeffs, roots, w))


def iterate(state, nsteps):
    """Run nsteps of cf_step; returns (qs, psqs, final state)."""
    qs, psqs = [], []
    for _ in range(nsteps):
        qn, psq, state = cf_step(state)
        qs.append(qn)
        psqs.append(psq)
    return qs, psqs, state


def coefficients(gs, divisor, n0, n1, prec=DEFAULT_PREC):
    """Jacobi coefficients p_n, q_n for n0 <= n <= n1 from the divisor at site 0."""
    if not n0 <= 0 <= n1:
        raise ValidationError("window must contain the origin: n0 <= 0 <= n1")
    state = initial_state(gs, divisor, prec=prec)
    # the forward lists hold q_0.., p_1..; the backward ones q_-1.., p_-1..
    qs_fwd, psqs_fwd, _ = iterate(state, n1 + 1)
    qs_bwd, psqs_bwd, _ = iterate(dual_state(state), -n0) if n0 else ([], [], None)
    p = np.sqrt(psqs_bwd[::-1]).tolist() + [state.p0] + np.sqrt(psqs_fwd[:n1]).tolist()
    return JacobiSegment(n0=n0, n1=n1, p=tuple(p), q=tuple(qs_bwd[::-1] + qs_fwd))


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


def cd_residual(seg, z, n):
    """Christoffel-Darboux identity residual at non-real z for the n-th transfer matrix,
    relative to the size of the kernel sum Y^* Y over the rows (P_k, Q_k), k = 0..n."""
    z = complex(z)
    if z.imag == 0:
        raise ValidationError("Christoffel-Darboux quotient needs Im z != 0")
    a, rows = _transfer(seg, z, n)
    lhs = _j_form(a) / (z - np.conj(z))
    y = np.array(rows[:n + 1])
    rhs = y.conj().T @ y
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def j_unitarity_residual(seg, x, n):
    """|A^* j A - j| at real x (holds identically since det A = 1)."""
    return float(np.max(np.abs(_j_form(transfer_matrix(seg, complex(x), n)))))


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
