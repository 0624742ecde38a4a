"""Divisors, the diagonal resolvent R00, and the polynomial splitting
into the half-line resolvent pair of a reflectionless Jacobi matrix.

The pair u = -1/r_plus and v = p0^2 r_minus is represented as
(sqrt(R) +- T) / (2 Pi) with a monic polynomial T of degree N+1 and
Pi(z) = prod (z - x_j) over the divisor points.  T has a closed form
(t_poly) with no linear solve.  It is evaluated on the set centred by
s = (t - mid) / half of [b0, a0], where |s| <= 1, in fixed point: an
integer v stands for v / 2^w.  A sum of products is summed exactly and
shifted once, square roots are `math.isqrt`, floats enter exactly through
`float.as_integer_ratio` and leave through one correctly rounded integer
true division.  _fixed_state is the one build of (T, R, 4 p0^2):
split_resolvents runs it at w = _T_BITS and rounds to float64;
jacobi_cf.initial_state runs it at w = prec.
"""

from dataclasses import dataclass
from math import isqrt, prod
from operator import mul

import numpy as np

from .errors import SolverError, ValidationError, json_number
from .spectral_set import GapSystem, _prod, dos_density, gap_branch_sign, sqrt_R

# fixed-point bits of T in split_resolvents; at 64 T missed float64 by 1.5e-11
_T_BITS = 128


@dataclass(frozen=True)
class Divisor:
    """One marked point per gap with a sign: ((x_1, eps_1), ..., (x_N, eps_N))."""

    points: tuple

    def __post_init__(self):
        for _, e in self.points:
            if e not in (-1, 1):
                raise ValidationError(f"eps must be +1 or -1, got {e!r}")
        object.__setattr__(self, "points", tuple((float(x), int(e)) for x, e in self.points))

    @property
    def xs(self):
        return tuple(x for x, _ in self.points)

    @property
    def eps(self):
        return tuple(e for _, e in self.points)

    def validate(self, gs):
        if len(self.points) != gs.n_gaps:
            raise ValidationError(
                f"divisor has {len(self.points)} points, gap system has {gs.n_gaps} gaps"
            )
        for j, (x, _) in enumerate(self.points, start=1):
            a, b = gs.gap(j)
            if not a <= x <= b:
                raise ValidationError(f"divisor point {x} outside closed gap {j} [{a}, {b}]")
        return self

    def normalized(self, gs):
        """Endpoint identification: (a_j, -1) = (a_j, +1), stored with eps = +1."""
        self.validate(gs)
        pts = []
        for j, (x, e) in enumerate(self.points, start=1):
            a, b = gs.gap(j)
            if x == a or x == b:
                e = 1
            pts.append((x, e))
        return Divisor(points=tuple(pts))

    def to_json(self):
        return {"divisor": [{"x": x, "eps": e} for x, e in self.points]}

    @classmethod
    def from_json(cls, doc):
        try:
            pts = tuple((float(json_number(p["x"])), json_number(p["eps"]))
                        for p in doc["divisor"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError("document must contain 'divisor': [{'x':..,'eps':..}]")
        return cls(points=pts)


@dataclass(frozen=True)
class HerglotzPair:
    """The split resolvent pair of a reflectionless matrix with divisor data.

    T is the monic degree-N+1 polynomial with T(x_j) = eps_j sqrt(R)(x_j)
    on the gaps and the two leading coefficients matched to the expansion of
    sqrt(R) at infinity.  t_centred holds the ascending coefficients of T_c
    on the centred set, T(z) = half^(N+1) T_c((z - mid) / half), from which
    T is evaluated; t_coeffs are the ascending coefficients of T in z, an
    export that loses accuracy on sets far from the origin.
    """

    gs: GapSystem
    divisor: Divisor
    t_coeffs: tuple
    t_centred: tuple
    p0sq: float
    q0: float

    def _pi(self, z):
        return _prod(np.asarray(z, dtype=complex), np.array(self.divisor.xs))

    def t(self, z):
        """T(z) = half^(N+1) T_c((z - mid) / half)."""
        mid, half = self.gs.frame
        s = (np.asarray(z, dtype=complex) - mid) / half
        tc = np.polynomial.polynomial.polyval(s, self.t_centred)
        return half ** (len(self.t_centred) - 1) * tc

    def u(self, z):
        """u = -1/r_plus; Herglotz, u(z) = z - q0 + O(1/z)."""
        return (sqrt_R(self.gs, z) + self.t(z)) / (2.0 * self._pi(z))

    def v(self, z):
        """v = p0^2 r_minus; Herglotz, z v(z) -> -p0^2."""
        return (sqrt_R(self.gs, z) - self.t(z)) / (2.0 * self._pi(z))

    def r_plus(self, z):
        return -1.0 / self.u(z)

    def r_minus(self, z):
        return self.v(z) / self.p0sq


def r00(gs, divisor, z):
    """Diagonal resolvent element restored from the divisor: -Pi(z)/sqrt(R)."""
    divisor.validate(gs)
    z = np.asarray(z, dtype=complex)
    out = -_prod(z, np.array(divisor.xs)) / sqrt_R(gs, z)
    return out if out.shape else complex(out)


def _to_fixed(x, w):
    """The fixed-point integer of float x at w fractional bits, round(x 2^w)
    floored; exact when 2^w x is an integer."""
    num, den = float(x).as_integer_ratio()
    return (num << w) // den


def _fixed_ratio(w, half=1.0, k=1, mid=0.0):
    """(off, scale, den) with mid + half^k v / 2^w = (off + scale v) / den
    for fixed-point v at w bits, from the integer ratios of half and mid."""
    hn, hd = float(half).as_integer_ratio()
    mn, md = float(mid).as_integer_ratio()
    den = hd ** k << w
    return mn * den, md * hn ** k, md * den


def _from_fixed(v, w, half=1.0, k=1, mid=0.0):
    """mid + half^k v / 2^w for fixed-point v, correctly rounded to float64
    by one integer true division."""
    off, scale, den = _fixed_ratio(w, half, k, mid)
    return (off + scale * v) / den


def _conv(a, b, k):
    """Exact z^k coefficient of a * b for integer coefficients: the sum of
    the products a_i b_(k-i), at the sum of the two scales."""
    lo, hi = max(0, k - len(b) + 1), min(k, len(a) - 1)
    return sum(map(mul, a[lo:hi + 1], b[k - hi:k - lo + 1][::-1]))


def _mul_linear(p, r, w):
    """Ascending fixed-point coefficients of p(z) (z - r) at w bits."""
    return [-(r * p[0] >> w)] + [p[i - 1] - (r * p[i] >> w) for i in range(1, len(p))] + [p[-1]]


def _pfromroots(roots, w):
    """Ascending fixed-point coefficients of the monic prod (z - r) at w bits."""
    out = [1 << w]
    for r in roots:
        out = _mul_linear(out, r, w)
    return out


def t_poly(ends, xs, sigmas, w):
    """Ascending fixed-point coefficients of T at w bits, for the branch
    points ``ends`` and the divisor points ``xs``, both in fixed point, and
    ``sigmas``, sigma_j = eps_j times the branch sign of sqrt(R) on gap j;
    returns (Pi, T), Pi the monic prod (z - x_j) that T is built on.

    With y_j = sigma_j sqrt|R(x_j)|, zero at a gap endpoint, and
    s1 = -sum(ends) / 2,

        T = Pi (z + s1 + sum x_j) + sum_j y_j Pi / ((z - x_j) Pi'(x_j))

    is the unique monic T of degree N+1 with T(x_j) = y_j and z^N
    coefficient s1; each Pi / (z - x_j) is a synthetic division of Pi.
    |R(x_j)| and Pi'(x_j) are exact integer products, at 2^(w(2N+2)) and
    2^(w(N-1)), so y_j / Pi'(x_j) is one integer square root and one
    division.
    """
    n = len(xs)
    pi = _pfromroots(xs, w)
    t = _mul_linear(pi, (sum(ends) >> 1) - sum(xs), w)
    for j, (x, sigma) in enumerate(zip(xs, sigmas)):
        y = isqrt(prod(abs(x - e) for e in ends))
        c = (-y if sigma < 0 else y) // (prod(x - xk for k, xk in enumerate(xs) if k != j) << w)
        q = pi[n]
        for k in range(n - 1, -1, -1):
            t[k] += c * q >> w
            q = pi[k] + (x * q >> w)
    return pi, t


def _fixed_state(gs, divisor, w):
    """(normalized divisor, ends, Pi, T, R, 4 p0^2) in fixed point at w bits
    on the set centred by s = (t - mid) / half: ends b0, a_1, b_1, ..., a0,
    R their product, Pi and T from t_poly on the s_j of the divisor (in their
    closed gaps, as rounding is monotone) and 4 p0^2 = -[z^2N](R - T^2)."""
    divisor = divisor.normalized(gs)
    mid, half = gs.frame
    ends = [_to_fixed(e, w) for e in gs.centred.endpoints]
    xs = [_to_fixed((x - mid) / half, w) for x in divisor.xs]
    sigmas = [e * gap_branch_sign(gs, j) for j, e in enumerate(divisor.eps, start=1)]
    pi, t = t_poly(ends, xs, sigmas, w)
    r = _pfromroots(ends, w)
    n = len(xs)
    four_p0sq = (_conv(t, t, 2 * n) - (r[2 * n] << w)) >> w
    if four_p0sq <= 0:
        raise SolverError(f"nonpositive p0^2 = {four_p0sq / (4 << w) * half**2}: invalid divisor data")
    return divisor, ends, pi, t, r, four_p0sq


def split_resolvents(gs, divisor):
    """Construct the resolvent pair (u, v) = ((sqrt R + T)/2Pi, (sqrt R - T)/2Pi).

    T and 4 p0^2 come from _fixed_state at _T_BITS on the centred set
    s = (t - mid) / half, rounded to float64; in raw coordinates T scales by
    half^(N+1) and p0^2 by half^2.  q0 is read from the expansion of u at
    infinity.
    """
    divisor, _, _, t, _, four_p0sq = _fixed_state(gs, divisor, _T_BITS)
    mid, half = gs.frame
    t = [_from_fixed(c, _T_BITS) for c in t]
    # half^(N+1) T((z - mid) / half) by Horner in z - mid
    t_raw = np.array(t[-1:])
    for k, c in enumerate(reversed(t[:-1]), start=1):
        t_raw = np.convolve(t_raw, [-mid, 1.0])
        t_raw[0] += half ** k * c
    q0 = -sum(divisor.xs) + 0.5 * sum(gs.endpoints)
    return HerglotzPair(gs=gs, divisor=divisor, t_coeffs=tuple(map(float, t_raw)), t_centred=tuple(t),
                        p0sq=_from_fixed(four_p0sq, _T_BITS + 2, half, 2), q0=q0)


def reflectionless_residual(gs, pair, x):
    """|1/r_plus(x+i0) - conj(p0^2 r_minus(x+i0))| on the set E."""
    if not gs.on_set(x):
        raise ValidationError("reflectionless identity is a boundary relation on E")
    u = pair.u(complex(x))
    v = pair.v(complex(x))
    return abs(-u - np.conj(v))


def wronskian_residual(gs, pair, x, cp):
    """Residual of the density identity Im R00(x+i0)/pi = W(x) dos(x) at x in the
    interior of E, W = prod (x - x_j)/(x - c_j) over the divisor of pair and the
    critical points cp of gs.  R00 = -Pi/sqrt(R) holds no T, so neither does this
    check; the reflectionless relation is reflectionless_residual.
    """
    dos = dos_density(gs, cp, x)
    w = 1.0
    for xj, cj in zip(pair.divisor.xs, cp.c):
        w *= (x - xj) / (x - cj)
    return abs(np.imag(r00(gs, pair.divisor, x)) / np.pi - w * dos)
