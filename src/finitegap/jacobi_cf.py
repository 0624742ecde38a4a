"""Coefficient sequences of reflectionless Jacobi matrices via an exact
algebraic continued-fraction step on the resolvent data, plus orthogonal
polynomials, transfer matrices and Christoffel-Darboux checks.

The iteration state is the polynomial pair (T, Pi) of the current
resolvent splitting; one step peels off (q_n, p_{n+1}^2) and advances the
divisor.  All state arithmetic runs at a configurable binary precision
(mpmath), since errors accumulate linearly in the number of steps.

The iteration runs on the centred set s = (t - mid) / half of [b0, a0]
(`spectral_set._centred`), where |s| <= 1 keeps the monomial coefficients
well scaled.  `initial_state` maps the divisor in, with T from
`herglotz.t_poly`; q_n = mid + half q, p_n = half p and the divisor
x = mid + half s are mapped back where they leave the iteration.

R(z) = prod (z - e) over the 2N+2 endpoints is built once per window, by
`initial_state`, and carried with every state.  A step reads only the
coefficients it needs: each coefficient of a product, of R - T^2 and of its
quotient by Pi is one `mp.fdot` over the pairs of factors that form it.
"""

from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from .errors import SolverError, ValidationError
from .herglotz import Divisor, _pfromroots, centred_divisor, t_poly
from .spectral_set import _frame, gap_branch_sign

DEFAULT_PREC = 128

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Newton steps allowed per divisor root; from a float64 seed a simple root
# needs about log2(prec / 50) + 1
_NEWTON_MAX = 50


# ---------------------------------------------------------------------------
# polynomials over mpmath reals (ascending coefficients)


def _pairs(a, b, k):
    """The pairs (a_i, b_{k-i}) whose products sum to the z^k coefficient of a*b."""
    return [(a[i], b[k - i]) for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)]


def _powers(x, n):
    """[1, x, ..., x^n]."""
    pw = [mp.mpf(1)]
    for _ in range(n):
        pw.append(pw[-1] * x)
    return pw


def _peval(p, x):
    return mp.fdot(p, _powers(x, len(p) - 1))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CFState:
    """Divisor window of the continued-fraction iteration at one site.

    xs, t_coeffs and r_coeffs live on the centred set cs of gs; p0sq is in
    raw coordinates.  r_coeffs are the coefficients of R, built once per
    window at the window's precision and shared by every state derived from
    the first one, also by the 2 x prec retry of a step.
    """

    gs: object
    cs: object
    xs: tuple
    eps: tuple
    t_coeffs: tuple
    r_coeffs: tuple
    p0sq: object
    prec: int = DEFAULT_PREC

    @property
    def divisor(self):
        """The divisor at this site: x = mid + half s, clamped into its closed gap."""
        mid, half = _frame(self.gs)
        with mp.workprec(self.prec):
            pts = tuple((min(max(float(mid + half * s), a), b), e)
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
    """CFState at site 0 from a divisor, with T and R built in working
    precision on the centred set."""
    divisor, cs, pts = centred_divisor(gs, divisor)
    n = gs.n_gaps
    _, half = _frame(gs)
    with mp.workprec(prec):
        ends = [mp.mpf(e) for e in cs.endpoints]
        pts = [(mp.mpf(s), sigma) for s, sigma in pts]
        t = t_poly(ends, pts)
        r = _pfromroots(ends)
        # p0^2 = -[z^2N](R - T^2) / 4 on cs, times half^2 in raw coordinates
        p0sq = -mp.fdot([(r[2 * n], 1)] + _pairs([-c for c in t], t, 2 * n)) / 4 * half * half
        if p0sq <= 0:
            raise SolverError(f"nonpositive p0^2 = {float(p0sq)}: invalid divisor data")
        return CFState(gs=gs, cs=cs, xs=tuple(s for s, _ in pts), eps=divisor.eps,
                       t_coeffs=tuple(t), r_coeffs=tuple(r), p0sq=p0sq, prec=prec)


def _reduce_divide(r, t, xs, pi):
    """(p^2, quotient) of (R - T^2) / (-4 p^2 Pi), with -4 p^2 the z^2N
    coefficient of R - T^2 and Pi = prod (z - x_j) given by its coefficients.

    R - T^2 has degree 2N by construction of T: its monic leading terms
    cancel, and q cancels the z^(2N+1) term.  Pi must divide it to
    2^(-prec+30) max |r_k|: the test reads the remainders of dividing the
    quotient-scaled R - T^2 by z - x_1, then by z - x_2, and so on.  Each
    coefficient of R - T^2 and of the top-down long division by Pi is one
    fdot; the remainders come from the division's remainder polynomial,
    which has degree N - 1.
    """
    n = len(xs)
    one = mp.mpf(1)
    neg_t = [-c for c in t]
    num = [mp.fdot([(r[k], one)] + _pairs(neg_t, t, k)) for k in range(2 * n + 1)]
    div_tol = mp.ldexp(max(abs(c) for c in r), 30 - mp.mp.prec)
    psq = -num[2 * n] / 4
    if psq <= 0:
        raise SolverError(f"nonpositive p^2 = {float(psq)}")
    neg_pi = [-c for c in pi]
    quot = [one] * (n + 1)
    for m in range(n, -1, -1):
        quot[m] = mp.fdot([(num[m + n], one)]
                          + [(neg_pi[m + n - i], quot[i]) for i in range(m + 1, n + 1)])
    rem = [mp.fdot([(num[k], one)] + [(neg_pi[k - i], quot[i]) for i in range(k + 1)])
           for k in range(n)]
    rem_max = mp.mpf(0)
    for x in xs:
        acc, low = rem[-1], rem[:-1]
        rem = []
        for c in reversed(low):
            rem.append(acc)
            acc = c + acc * x
        rem.reverse()
        rem_max = max(rem_max, abs(acc))
    scale = -1 / (4 * psq)
    if rem_max * abs(scale) > div_tol:
        raise SolverError("polynomial division remainder above tolerance",
                          residual=float(rem_max * abs(scale)))
    return psq, [c * scale for c in quot]


def _gap_roots(gs, coeffs, tol_escape=1e-9):
    """The root in each closed gap of a monic mpf polynomial of degree N.

    Newton from the np.roots seed, clipped to the gap, with f and f' from one
    power vector.  It has converged when a step s_k, or the next step
    predicted from the quadratic rate, |s_k|^3 / |s_(k-1)|^2, is below
    2^-prec times the largest |endpoint|; the prediction also stops the
    iteration when the steps reach the rounding floor of evaluating f.  Where
    Newton does not converge inside the gap, the root is bisected if f
    changes sign over the gap, else clamped to the nearer endpoint if within
    tol_escape gap widths of it, else an error.
    """
    n = gs.n_gaps
    seeds = np.sort(np.roots([float(c) for c in reversed(coeffs)]).real)
    dcoeffs = [k * c for k, c in enumerate(coeffs)][1:]
    tol = mp.ldexp(max(abs(gs.b0), abs(gs.a0)), -mp.mp.prec)
    roots = []
    for j, (a, b) in enumerate(gs.gaps, start=1):
        x = mp.mpf(min(max(seeds[j - 1], a), b))
        prev, converged = None, False
        for _ in range(_NEWTON_MAX):
            pw = _powers(x, n)
            dfx = mp.fdot(dcoeffs, pw)
            if not dfx:
                break
            step = mp.fdot(coeffs, pw) / dfx
            x -= step
            size = abs(step)
            if size <= tol or (prev is not None and size ** 3 <= tol * prev ** 2):
                converged = True
                break
            prev = size
        if not (converged and a <= x <= b):
            lo, hi = mp.mpf(a), mp.mpf(b)
            flo, fhi = _peval(coeffs, lo), _peval(coeffs, hi)
            if mp.sign(flo) * mp.sign(fhi) <= 0:
                for _ in range(mp.mp.prec + 10):
                    mid = (lo + hi) / 2
                    fm = _peval(coeffs, mid)
                    if mp.sign(fm) == mp.sign(flo):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                x = (lo + hi) / 2
            elif x < a - tol_escape * (b - a) or x > b + tol_escape * (b - a):
                raise SolverError(
                    f"divisor root escaped gap {j}", residual=float(min(abs(x - a), abs(x - b)))
                )
            elif not converged:
                raise SolverError(f"divisor root did not converge in gap {j}")
            else:
                x = lo if x < a else hi
        roots.append(x)
    return roots


def _eps_from_t(gs, t_coeffs, roots):
    """Sheet signs of new divisor points.  There T^2 = R, so eps_j is the
    sign of T(x_j) on the branch gap_branch_sign(j) of sqrt(R); points
    within 1e-12 gap widths of an endpoint get +1."""
    eps = []
    for j, x in enumerate(roots, start=1):
        a, b = gs.gap(j)
        if min(x - a, b - x) < 1e-12 * (b - a):
            eps.append(1)
            continue
        eps.append(1 if _peval(t_coeffs, x) * gap_branch_sign(gs, j) >= 0 else -1)
    return tuple(eps)


def _cf_step_at_prec(state, prec):
    cs = state.cs
    n = cs.n_gaps
    mid, half = _frame(state.gs)
    with mp.workprec(prec):
        t, r = state.t_coeffs, state.r_coeffs
        pi = _pfromroots(state.xs)
        # q from the vanishing z^(2N+1) coefficient of R - (A + qB)^2 with
        # A = T - 2z Pi and B = 2 Pi; B^2 has degree 2N and, T and Pi being
        # monic, the z^(2N+1) coefficient of 2AB is -4, so q is explicit
        a = [t[0]] + [t[i] - 2 * pi[i - 1] for i in range(1, n + 2)]
        b = [2 * c for c in pi]
        k = 2 * n + 1
        q = (mp.fdot(_pairs(a, a, k)) - r[k]) / 4
        # the next T is -(A + qB)
        t_next = [-(ai + bi * q) for ai, bi in zip(a, b)] + [-a[-1]]
        p1sq, quot = _reduce_divide(r, t_next, state.xs, pi)
        roots = _gap_roots(cs, quot)
        nxt = replace(state, xs=tuple(roots), eps=_eps_from_t(cs, t_next, roots),
                      t_coeffs=tuple(t_next), p0sq=p1sq * half * half)
        return float(mid + half * q), float(nxt.p0sq), nxt


def cf_step(state):
    """One continued-fraction step: returns (q_n, p_{n+1}^2, next state)."""
    try:
        return _cf_step_at_prec(state, state.prec)
    except SolverError:
        # escalate once before giving up
        return _cf_step_at_prec(state, 2 * state.prec)


def dual_state(state):
    """State generating the negative-index coefficients of the same matrix.

    The dual divisor consists of the roots of (R - T^2) / (-4 p0^2 Pi);
    T and p0^2 are unchanged.
    """
    cs = state.cs
    with mp.workprec(state.prec):
        _, quot = _reduce_divide(state.r_coeffs, state.t_coeffs, state.xs, _pfromroots(state.xs))
        roots = _gap_roots(cs, quot)
        return replace(state, xs=tuple(roots), eps=_eps_from_t(cs, state.t_coeffs, roots))


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
    with mp.workprec(prec):
        p0 = float(mp.sqrt(state.p0sq))
    qs_fwd, psqs_fwd, _ = iterate(state, n1 + 1)
    if n0 < 0:
        dual = dual_state(state)
        qs_bwd, psqs_bwd, _ = iterate(dual, -n0)
    else:
        qs_bwd, psqs_bwd = [], []
    p, q = [], []
    for nn in range(n0, n1 + 1):
        if nn == 0:
            p.append(p0)
        elif nn > 0:
            p.append(float(np.sqrt(psqs_fwd[nn - 1])))
        else:
            p.append(float(np.sqrt(psqs_bwd[-nn - 1])))
        q.append(qs_fwd[nn] if nn >= 0 else qs_bwd[-nn - 1])
    return JacobiSegment(n0=n0, n1=n1, p=tuple(p), q=tuple(q))


# ---------------------------------------------------------------------------
# orthogonal polynomials, transfer matrices, Christoffel-Darboux


def orthogonal_polys(seg, z, n):
    """First and second kind polynomials (P_n(z), Q_n(z)) from the recurrence."""
    if n < 0 or seg.n0 > 0 or seg.n1 < n:
        raise ValidationError("segment must cover indices 0..n")
    p_prev, q_prev = 1.0 + 0j, 0.0 + 0j  # P_0, Q_0
    if n == 0:
        return p_prev, q_prev
    p1 = seg.p_at(1)
    p_cur = (z - seg.q_at(0)) / p1
    q_cur = 1.0 / p1
    for k in range(2, n + 1):
        pk = seg.p_at(k)
        p_cur, p_prev = ((z - seg.q_at(k - 1)) * p_cur - seg.p_at(k - 1) * p_prev) / pk, p_cur
        q_cur, q_prev = ((z - seg.q_at(k - 1)) * q_cur - seg.p_at(k - 1) * q_prev) / pk, q_cur
    return p_cur, q_cur


def transfer_matrix(seg, z, n):
    """2x2 transfer matrix with rows (P_n, Q_n), (p_{n+1} P_{n+1}, p_{n+1} Q_{n+1})."""
    if seg.n1 < n + 1:
        raise ValidationError("segment must cover index n+1")
    pn, qn = orthogonal_polys(seg, z, n)
    pn1, qn1 = orthogonal_polys(seg, z, n + 1)
    pp = seg.p_at(n + 1)
    return np.array([[pn, qn], [pp * pn1, pp * qn1]], dtype=complex)


def cd_residual(seg, z, n):
    """Christoffel-Darboux identity residual at non-real z for the n-th
    transfer matrix, relative to the size of the kernel sum."""
    z = complex(z)
    if z.imag == 0:
        raise ValidationError("Christoffel-Darboux quotient needs Im z != 0")
    a = transfer_matrix(seg, z, n)
    lhs = (a.conj().T @ _J @ a - _J) / (z - np.conj(z))
    rhs = np.zeros((2, 2), dtype=complex)
    for k in range(0, n + 1):
        pk, qk = orthogonal_polys(seg, z, k)
        vec = np.array([pk, qk], dtype=complex)
        rhs += np.outer(vec.conj(), vec)
    scale = max(1.0, float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)) / scale)


def j_unitarity_residual(seg, x, n):
    """|A^* j A - j| at real x (holds identically since det A = 1)."""
    a = transfer_matrix(seg, complex(x), n)
    return float(np.max(np.abs(a.conj().T @ _J @ a - _J)))


def j_expanding_min_eig(seg, z, n):
    """Smallest eigenvalue of (A^* j A - j)/(z - conj z); >= 0 in the upper half-plane."""
    z = complex(z)
    a = transfer_matrix(seg, z, n)
    m = (a.conj().T @ _J @ a - _J) / (z - np.conj(z))
    return float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))


def hat_check_normalization(seg, z=1e8 + 1e8j):
    """Normalization of the transfer matrix between the two boundary bases.

    For a finite-gap set the two Hardy-space bases at the origin coincide and
    the coupling constant is lambda = 1; the (1,2) entry of z * A at the base
    index then reproduces 1/lambda - lambda = 0.
    """
    lam = 1.0
    a = transfer_matrix(seg, complex(z), 0)
    val = complex(z) * a[0, 1]
    return {
        "lambda": lam,
        "z_a12_at_infinity": complex(val),
        "residual": abs(val - (1.0 / lam - lam)),
    }


def truncation_matrix(seg):
    """Symmetric tridiagonal truncation of the two-sided matrix on the window."""
    diag = np.array(seg.q)
    off = np.array(seg.p[1:])
    return diag, off


def almost_periodicity_report(seg, omega, delta, window):
    """Near-period scan: n with ||n omega|| < delta and the coefficient
    sup-discrepancy s(n) over a window of the given length."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    size = seg.n1 - seg.n0 + 1
    entries = []
    for nshift in range(1, size - window + 1):
        frac = np.abs(omega * nshift - np.round(omega * nshift))
        dist = float(np.max(frac)) if omega.size else 0.0
        if dist >= delta:
            continue
        s = 0.0
        for k in range(seg.n0, seg.n0 + window):
            s = max(
                s,
                abs(seg.q_at(k + nshift) - seg.q_at(k))
                + abs(seg.p_at(k + nshift) - seg.p_at(k)),
            )
        entries.append({"n": nshift, "torus_distance": dist, "sup_discrepancy": s})
    entries.sort(key=lambda e: e["torus_distance"])
    return entries
