"""Comb-domain parameters of a finite-gap set: frequencies and slit heights,
the forward map from gap systems, the inverse parameter problem, and the
finite-band truncation diagnostics.

The comb encodes E through the conformal map of the upper half-plane onto a
half-strip with vertical slits: slit abscissas are -pi omega_k and slit
heights are the Green's function values h_k at its critical points, which each
function reads from the cached entry of the set (spectral_set.critical_points).
"""

from dataclasses import dataclass, field

import numpy as np

from .abel import kernel_at_origin
from .errors import SolverError, ValidationError, json_number
from .herglotz import Divisor
from .quad import DEFAULT_QTOL
from .spectral_set import GapSystem, _endpoint_jet, critical_points, frequencies

# gaps_from_comb stops at the first of: max |residual| <= _RESIDUAL_TOL, a
# step length below _MIN_STEP_LENGTH (a Newton step halved 20 times), _MAX_ITER
# trial steps.  A stop at 1e-14 left round trips 1e-14 of the diameter off;
# 1e-15 brings them to ~1e-16.
_MAX_ITER = 100
_MIN_STEP_LENGTH = 2.0**-20
_RESIDUAL_TOL = 1e-15
# qtol of the inner critical_points/frequencies solves and of comb_jacobian:
# two decades under the 1e-8 residual the inversion must reach
_INNER_QTOL = 1e-10


@dataclass(frozen=True)
class CombData:
    """Teeth (omega_j, h_j) of a comb domain, plus a declared tail bound.

    A finite comb has tail_bound 0; an infinite comb is represented by its
    leading teeth and a bound on the sum of the remaining heights.  The
    Widom flag requires the total height sum to be finite.
    """

    teeth: tuple
    tail_bound: float = 0.0

    def __post_init__(self):
        teeth = tuple((float(o), float(h)) for o, h in self.teeth)
        for o, h in teeth:
            if not 0.0 < o < 1.0:
                raise ValidationError(f"frequency {o} outside (0, 1)")
            if h <= 0.0:
                raise ValidationError(f"tooth height {h} must be positive")
        omegas = [o for o, _ in teeth]
        if len(set(omegas)) != len(omegas):
            raise ValidationError("tooth frequencies must be pairwise distinct")
        if self.tail_bound < 0.0:
            raise ValidationError("tail bound must be nonnegative")
        object.__setattr__(self, "teeth", teeth)

    @property
    def omegas(self):
        return tuple(o for o, _ in self.teeth)

    @property
    def heights(self):
        return tuple(h for _, h in self.teeth)

    @property
    def height_sum(self):
        return sum(self.heights) + self.tail_bound

    @property
    def is_widom(self):
        return np.isfinite(self.height_sum)

    @property
    def delta0(self):
        """Widom function value Delta(0) = exp(-sum h_j) (lower estimate if a tail is declared)."""
        return float(np.exp(-self.height_sum))

    def rational_relation_report(self, max_coeff=5):
        """Integer relations sum n_k omega_k = integer with |n_k| <= max_coeff.

        Reported only; independence over the rationals is not enforced.  Meet
        in the middle: coefficient vectors of the two halves pair up where the
        fractional parts of their sums add to 0, 1 or 2, then are re-tested.
        """
        omegas = np.asarray(self.omegas)
        n, k = omegas.size, omegas.size // 2
        if n == 0 or n > 6:
            return []
        w = 2 * max_coeff + 1
        left, right = (np.indices((w,) * m).reshape(m, w**m).T - max_coeff for m in (k, n - k))
        frac_left = np.mod(left @ omegas[:k], 1.0)
        frac_right = np.mod(right @ omegas[k:], 1.0)
        order = np.argsort(frac_right)
        frac_right = frac_right[order]
        window = 1e-9 + 1e-12  # the relation tolerance and the rounding of two half sums
        keys = []
        for target in (0.0, 1.0, 2.0):
            lo = np.searchsorted(frac_right, target - frac_left - window)
            counts = np.searchsorted(frac_right, target - frac_left + window, "right") - lo
            pos = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            keys.append(np.repeat(np.arange(len(left)), counts) * len(right) + order[pos])
        keys = np.unique(np.concatenate(keys))
        rows = np.hstack([left[keys // len(right)], right[keys % len(right)]])
        vals = rows @ omegas
        near = np.abs(vals - np.round(vals)) < 1e-9
        return [tuple(row) for row in rows[near].tolist() if any(row)]

    def to_json(self):
        return {
            "teeth": [{"omega": o, "h": h} for o, h in self.teeth],
            "tail_bound": self.tail_bound,
        }

    @classmethod
    def from_json(cls, doc):
        try:
            teeth = tuple((float(json_number(t["omega"])), float(json_number(t["h"])))
                          for t in doc["teeth"])
            tail_bound = float(json_number(doc.get("tail_bound", 0.0)))
        except (KeyError, TypeError, ValueError):
            raise ValidationError("document must contain 'teeth': [{'omega':..,'h':..}]")
        return cls(teeth=teeth, tail_bound=tail_bound)


def comb_from_gaps(gs, qtol=DEFAULT_QTOL):
    """Forward parameter map: omega_j = frequency of gap j, h_j = G(c_j), both of gs at qtol."""
    heights = critical_points(gs, qtol).h
    return CombData(teeth=tuple(zip(frequencies(gs, qtol), heights)))


def _endpoints_to_gaps(x):
    pairs = tuple((x[2 * i], x[2 * i + 1]) for i in range(len(x) // 2))
    return pairs


def comb_jacobian(gs, qtol=DEFAULT_QTOL):
    """Jacobian d(omega_1..N, h_1..N) / d(a_1, b_1, ..., a_N, b_N) of the forward map at gs,
    with b0 and a0 held fixed, at the critical points of gs at qtol.

    Forward-mode differentiation of the stacked rules on the centred set
    (_endpoint_jet), in one call over the gaps, the bands and the gaps up to
    their critical points.  P = prod (s - s_k) = Q + sum_{m<N} q_m l_m in the
    Lagrange basis of spectral_set._lagrange_basis, its nodes held fixed, has zero
    periods, so the moments M over the gaps give dq = -M[:, :N]^-1 dP, dP the
    derivatives of P's periods at fixed q.  The band masses (over pi)
    and the heights are |int P / sqrt|R||; each takes the derivative of the
    integral at fixed q from _endpoint_jet and adds that of q through its
    moments.  h_j's moving upper limit s_j adds nothing, since P(s_j) = 0.
    The centred endpoints are (x - mid) / half, so the derivatives in x are
    those in s over half.
    """
    n = gs.n_gaps
    if n == 0:
        return np.zeros((0, 0))
    cs = gs.centred
    gaps, bands = np.array(cs.gaps).T, np.array(cs.bands).T
    # the gaps, the bands, and the gaps up to their critical points, in one call
    lo, hi = np.concatenate([gaps, bands, gaps], axis=1)
    s = critical_points(gs, qtol).s
    mom, jet = _endpoint_jet(cs, s, lo, hi, np.concatenate([gaps[1], bands[1], s]), qtol)
    try:
        dq = -np.linalg.solve(mom[:n, :n].T, jet[:, :n].T)  # dq[m, i] = dq_m / de_i
    except np.linalg.LinAlgError:
        raise SolverError("singular period matrix")
    # d/de_i |int P / sqrt|R|| for each band and each partial gap
    dabs = np.sign(mom[n, n:])[:, None] * (jet[:, n:].T + mom[:n, n:].T @ dq)
    dmass = dabs[: n + 1] / np.pi
    domega = np.cumsum(dmass[::-1], axis=0)[::-1][1:]  # omega_k = masses of bands k..N
    dh = dabs[n + 1 :]
    return np.vstack([domega, dh]) / gs.frame[1]


def gaps_from_comb(comb, bracket):
    """Inverse parameter problem: gap endpoints from a finite comb.

    The outer band [b0, a0] is fixed by the bracket (normalization: scale and
    translation are not determined by the comb); the 2N interior endpoints x,
    started at the bracket's, solve the residual of the forward map
    comb_from_gaps at _INNER_QTOL by Newton with step halving: the Newton step
    on the exact Jacobian (comb_jacobian) is solved once at every accepted
    iterate still above the stop tolerance, and x + length * step is taken
    when it lowers |residual|^2; otherwise length halves, from 1 at each
    accepted iterate.  A trial point that breaks b0 + margin < a_1 < b_1 <
    ... < b_N < a0 - margin is rejected without being evaluated, and one
    where the inner solve raises is rejected too.  Each iteration evaluates
    one trial point.  The iteration also stops where the Jacobian's
    quadrature does not converge, on bands thinner than about 1e-7 of the
    diameter or gaps thinner than about 1e-9, or where the Jacobian is
    singular.  SolverError if max |residual| stays above 1e-8.
    """
    n = len(comb.teeth)
    if comb.tail_bound != 0.0:
        raise ValidationError("inverse problem requires a finite comb")
    if bracket.n_gaps != n:
        raise ValidationError("bracket must have one gap per tooth")
    b0, a0 = bracket.b0, bracket.a0
    if n == 0:
        return GapSystem(b0, a0)  # no teeth, no gaps: the bare band
    target = np.concatenate([comb.omegas, comb.heights])
    margin = 1e-8 * (a0 - b0)

    def evaluate(x):
        """(residual, gap system) at x, or None where x breaks the order or the inner
        solve raises."""
        if not np.all(np.diff(np.concatenate(([b0 + margin], x, [a0 - margin]))) > 0.0):
            return None
        try:
            gs = GapSystem(b0=b0, a0=a0, gaps=_endpoints_to_gaps(x))
            found = comb_from_gaps(gs, _INNER_QTOL)
        except (SolverError, ValidationError):
            return None
        return np.concatenate([found.omegas, found.heights]) - target, gs

    x = np.array([v for g in bracket.gaps for v in g])
    point = evaluate(x)
    if point is None:
        raise SolverError("comb inversion: the bracket is not a feasible start", iterate=x)
    r, gs = point
    step, length = None, 1.0
    for _ in range(_MAX_ITER):
        if np.max(np.abs(r)) <= _RESIDUAL_TOL or length < _MIN_STEP_LENGTH:
            break
        if step is None:
            try:
                step = np.linalg.solve(comb_jacobian(gs, _INNER_QTOL), -r)
            except (SolverError, np.linalg.LinAlgError):
                break  # no step without a Jacobian; the residual decides below
        trial = evaluate(x + length * step)
        if trial is not None and trial[0] @ trial[0] < r @ r:
            x, (r, gs), step, length = x + length * step, trial, None, 1.0
        else:
            length *= 0.5
    if np.max(np.abs(r)) > 1e-8:
        raise SolverError(
            "comb inversion did not reach tolerance", residual=float(np.max(np.abs(r))), iterate=x
        )
    return GapSystem(b0=b0, a0=a0, gaps=_endpoints_to_gaps(x))


def truncate_comb(comb, n):
    """Finite-band truncation: teeth with h_j > 1/n survive with height h_j - 1/n."""
    if n <= 0:
        raise ValidationError("truncation parameter must be positive")
    teeth = tuple((o, h - 1.0 / n) for o, h in comb.teeth if h > 1.0 / n)
    return CombData(teeth=teeth, tail_bound=0.0)


def widom_delta_report(comb, n_list):
    """Delta_n(0) = exp(-sum of truncated heights) along n_list.

    Non-increasing in n with limit exp(-sum h_j), attained exactly for
    finite combs once every tooth survives.
    """
    out = []
    for n in n_list:
        trunc = truncate_comb(comb, n)
        out.append({"n": int(n), "teeth": len(trunc.teeth), "delta_n0": trunc.delta0})
    return out


def kernel_truncation_report(base_gs, n_list, eps=-1, rel_positions=None, qtol=DEFAULT_QTOL):
    """Kernel values at the origin across finite-band truncations.

    The comb of base_gs is truncated for each n, the truncated gap system is
    recovered by the inverse parameter problem (same outer band), and the
    divisor is placed either at the critical points (rel_positions None) or
    at the given gap-relative positions in each surviving gap.  Exploratory
    diagnostic: the two envelope cases eps = -1 / eps = +1 at the critical
    points give exactly 1 and Delta_n(0)^2.
    """
    comb = comb_from_gaps(base_gs, qtol=qtol)
    eps_arr = np.broadcast_to(np.asarray(eps, dtype=int), (len(comb.teeth),))
    report = []
    for n in n_list:
        trunc = truncate_comb(comb, n)
        survivors = [j for j, (_, h) in enumerate(comb.teeth) if h > 1.0 / n]
        if not survivors:
            report.append({"n": int(n), "teeth": 0, "k0": 1.0, "delta_n0": 1.0})
            continue
        bracket = GapSystem(
            b0=base_gs.b0, a0=base_gs.a0, gaps=tuple(base_gs.gaps[j] for j in survivors)
        )
        gs_n = gaps_from_comb(trunc, bracket)
        pts = []
        for i, j in enumerate(survivors):
            if rel_positions is None:
                x = critical_points(gs_n, qtol).c[i]
            else:
                a, b = gs_n.gaps[i]
                x = a + float(rel_positions[j]) * (b - a)
            pts.append((x, int(eps_arr[j])))
        k0 = kernel_at_origin(gs_n, Divisor(tuple(pts)), qtol)
        report.append({"n": int(n), "teeth": len(survivors), "k0": float(k0), "delta_n0": trunc.delta0})
    return report
