"""Coefficient sequences of reflectionless Jacobi matrices via an exact
algebraic continued-fraction step on the resolvent data, plus orthogonal
polynomials, transfer matrices and Christoffel-Darboux checks.

The iteration state is the polynomial pair (T, Pi) of the current
resolvent splitting; one step peels off (q_n, p_{n+1}^2) and advances the
divisor.  All state arithmetic runs at a configurable binary precision
(mpmath), since errors accumulate linearly in the number of steps.
"""

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import SolverError, ValidationError
from .herglotz import Divisor
from .spectral_set import gap_branch_sign

DEFAULT_PREC = 128

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])


# ---------------------------------------------------------------------------
# dense polynomial helpers over mpmath reals (ascending coefficients)


def _ptrim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


def _padd(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else mp.mpf(0)) + (b[i] if i < len(b) else mp.mpf(0)) for i in range(n)]


def _psub(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else mp.mpf(0)) - (b[i] if i < len(b) else mp.mpf(0)) for i in range(n)]


def _pmul(a, b):
    out = [mp.mpf(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _pscale(a, s):
    return [ai * s for ai in a]

def _pshift_mul_z(a):
    """Multiply by z."""
    return [mp.mpf(0)] + list(a)


def _peval(p, x):
    acc = mp.mpf(0) if isinstance(x, mp.mpf) else 0.0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _pderiv(p):
    return [i * c for i, c in enumerate(p)][1:] or [mp.mpf(0)]


def _pfromroots(roots):
    out = [mp.mpf(1)]
    for r in roots:
        out = _pmul(out, [-mp.mpf(r), mp.mpf(1)])
    return out


def _pdiv_linear(p, x0):
    """Divide by the monic linear factor (z - x0); returns (quotient, remainder)."""
    q = [mp.mpf(0)] * (len(p) - 1)
    acc = p[-1]
    for i in range(len(p) - 2, -1, -1):
        q[i] = acc
        acc = p[i] + acc * x0
    return q, acc


def _coef(p, k):
    return p[k] if k < len(p) else mp.mpf(0)


# ---------------------------------------------------------------------------


def _r_poly_mp(gs):
    return _pfromroots(gs.endpoints)


def _sqrtr_gap_mp(gs, j, x):
    prod = mp.mpf(1)
    for e in gs.endpoints:
        prod *= abs(x - e)
    return mp.mpf(gap_branch_sign(gs, j)) * mp.sqrt(prod)


@dataclass(frozen=True)
class CFState:
    """Divisor window of the continued-fraction iteration at one site."""

    gs: object
    xs: tuple
    eps: tuple
    t_coeffs: tuple
    p0sq: object
    prec: int = DEFAULT_PREC

    @property
    def divisor(self):
        return Divisor(tuple((float(x), int(e)) for x, e in zip(self.xs, self.eps)))


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
    """CFState at site 0 from a divisor, with T rebuilt in working precision."""
    divisor = divisor.normalized(gs)
    n = gs.n_gaps
    with mp.workprec(prec):
        s1 = -mp.fsum(gs.endpoints) / 2
        if n == 0:
            t = [s1, mp.mpf(1)]
        else:
            mat = mp.matrix(n, n)
            rhs = mp.matrix(n, 1)
            for j, (x, e) in enumerate(divisor.points):
                a, b = gs.gap(j + 1)
                xm = mp.mpf(x)
                for m in range(n):
                    mat[j, m] = xm ** m
                sr = mp.mpf(0) if (x == a or x == b) else _sqrtr_gap_mp(gs, j + 1, xm)
                rhs[j] = e * sr - xm ** (n + 1) - s1 * xm ** n
            try:
                low = mp.lu_solve(mat, rhs)
            except ZeroDivisionError:
                raise SolverError("divisor interpolation system is singular")
            t = [low[m] for m in range(n)] + [s1, mp.mpf(1)]
        num = _psub(_r_poly_mp(gs), _pmul(t, t))
        p0sq = -_coef(num, 2 * n) / 4
        if p0sq <= 0:
            raise SolverError(f"nonpositive p0^2 = {float(p0sq)}: invalid divisor data")
        xs = tuple(mp.mpf(x) for x in divisor.xs)
        return CFState(gs=gs, xs=xs, eps=divisor.eps, t_coeffs=tuple(t), p0sq=p0sq, prec=prec)


def _gap_roots_mp(gs, coeffs, tol_escape=1e-9):
    """One root of a monic mpf polynomial per closed gap."""
    n = gs.n_gaps
    approx = np.roots([float(c) for c in reversed(coeffs)])
    approx = np.sort(approx.real)
    deriv = _pderiv(list(coeffs))
    roots = []
    for j in range(1, n + 1):
        a, b = gs.gap(j)
        width = b - a
        x = mp.mpf(min(max(approx[j - 1], a), b))
        for _ in range(6):
            fx = _peval(list(coeffs), x)
            dfx = _peval(deriv, x)
            if dfx == 0:
                break
            step = fx / dfx
            x = x - step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps):
                break
        if x < a or x > b:
            # bisection fallback when Newton leaves the bracket
            fa = _peval(list(coeffs), mp.mpf(a))
            fb = _peval(list(coeffs), mp.mpf(b))
            if mp.sign(fa) * mp.sign(fb) <= 0:
                lo, hi = mp.mpf(a), mp.mpf(b)
                flo = fa
                for _ in range(mp.mp.prec + 10):
                    mid = (lo + hi) / 2
                    fm = _peval(list(coeffs), mid)
                    if mp.sign(fm) == mp.sign(flo):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                x = (lo + hi) / 2
            elif x < a - tol_escape * width or x > b + tol_escape * width:
                raise SolverError(
                    f"divisor root escaped gap {j}", residual=float(min(abs(x - a), abs(x - b)))
                )
            else:
                x = mp.mpf(min(max(float(x), a), b))
        roots.append(mp.mpf(min(max(float(x), a), b)) if not (a <= x <= b) else x)
    return roots


def _eps_from_t(gs, t_coeffs, roots):
    eps = []
    for j, x in enumerate(roots, start=1):
        a, b = gs.gap(j)
        width = b - a
        if min(x - a, b - x) < 1e-12 * width:
            eps.append(1)
            continue
        val = _peval(list(t_coeffs), x) / _sqrtr_gap_mp(gs, j, x)
        eps.append(1 if val >= 0 else -1)
    return tuple(eps)


def _cf_step_at_prec(state, prec):
    gs = state.gs
    n = gs.n_gaps
    with mp.workprec(prec):
        t = list(state.t_coeffs)
        pi = _pfromroots(state.xs)
        r = _r_poly_mp(gs)
        # q from the vanishing z^(2N+1) coefficient of R - (T - 2(z-q) Pi)^2
        a_poly = _psub(t, _pscale(_pshift_mul_z(pi), 2))
        b_poly = _pscale(pi, 2)
        k = 2 * n + 1
        ab_k = _coef(_pmul(a_poly, b_poly), k)
        if ab_k == 0:
            raise SolverError("degenerate linear equation for q_n")
        q = (_coef(r, k) - _coef(_pmul(a_poly, a_poly), k)) / (2 * ab_k)
        t_tilde = _padd(a_poly, _pscale(b_poly, q))
        num = _psub(r, _pmul(t_tilde, t_tilde))
        scale = max(abs(c) for c in r)
        tail = max((abs(c) for c in num[2 * n + 1 :]), default=mp.mpf(0))
        div_tol = mp.mpf(2) ** (-prec + 30) * scale
        if tail > div_tol:
            raise SolverError("degree reduction failed", residual=float(tail))
        num = num[: 2 * n + 1]
        p1sq = -_coef(num, 2 * n) / 4
        if p1sq <= 0:
            raise SolverError(f"nonpositive p^2 = {float(p1sq)} in cf step")
        quot = _pscale(num, -1 / (4 * p1sq))
        rem_max = mp.mpf(0)
        for x in state.xs:
            quot, rem = _pdiv_linear(quot, x)
            rem_max = max(rem_max, abs(rem))
        if rem_max > div_tol:
            raise SolverError("polynomial division remainder above tolerance", residual=float(rem_max))
        t_next = _pscale(t_tilde, -1)
        if n:
            roots = _gap_roots_mp(gs, quot)
        else:
            roots = []
        eps = _eps_from_t(gs, t_next, roots)
        nxt = CFState(
            gs=gs,
            xs=tuple(roots),
            eps=eps,
            t_coeffs=tuple(t_next),
            p0sq=p1sq,
            prec=state.prec,
        )
        return float(q), float(p1sq), nxt


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
    gs = state.gs
    n = gs.n_gaps
    with mp.workprec(state.prec):
        t = list(state.t_coeffs)
        num = _psub(_r_poly_mp(gs), _pmul(t, t))
        scale = max(abs(c) for c in _r_poly_mp(gs))
        div_tol = mp.mpf(2) ** (-state.prec + 30) * scale
        tail = max((abs(c) for c in num[2 * n + 1 :]), default=mp.mpf(0))
        if tail > div_tol:
            raise SolverError("degree reduction failed in dual state", residual=float(tail))
        num = num[: 2 * n + 1]
        quot = _pscale(num, -1 / (4 * state.p0sq))
        rem_max = mp.mpf(0)
        for x in state.xs:
            quot, rem = _pdiv_linear(quot, x)
            rem_max = max(rem_max, abs(rem))
        if rem_max > div_tol:
            raise SolverError("division remainder above tolerance in dual state", residual=float(rem_max))
        roots = _gap_roots_mp(gs, quot) if n else []
        eps = _eps_from_t(gs, t, roots)
        return CFState(
            gs=gs, xs=tuple(roots), eps=eps, t_coeffs=state.t_coeffs, p0sq=state.p0sq,
            prec=state.prec,
        )


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
