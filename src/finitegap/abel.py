"""Character torus, Abel map of divisors, its inversion, reproducing-kernel
values at the origin, and the shift-invariant measure on the divisor torus.

The divisor space is a product of N circles (one per gap, endpoints
identified across the sign flip).  In the angle chart the Abel map has
rapidly converging Fourier series, which makes Newton inversion and
Monte-Carlo sampling over the torus cheap; the series are checked against
direct harmonic-measure quadrature.  The Abel map and the invariant measure
are built from the harmonic measures of E alone; only the kernel values and
the shift frequencies need the critical points.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import SolverError, ValidationError, json_number
from .herglotz import Divisor
from .jacobi_cf import DEFAULT_PREC, initial_state, iterate
from .quad import DEFAULT_QTOL, _chart_angle, _chart_point
from .spectral_set import (
    _gap_increment,
    _harmonic_poly_coeffs,
    _lagrange_basis,
    _prod,
    _rest_root,
    frequencies,
    gap_branch_sign,
)

_SERIES_MIN_NODES = 512
_SERIES_MAX_NODES = 1 << 15
_SERIES_TAIL = 1e-13
_TWO_PI = 2.0 * np.pi
# _newton_invert stops a row below _NEWTON_TOL, a decade under invert_abel's
# 1e-10, and _NEWTON_ITERS leaves room for many halvings of a row's step
_NEWTON_ITERS = 60
_NEWTON_TOL = 1e-11
# samples per Newton call in measure_mc: _MC_CHUNK, or fewer where the harmonic
# table of _newton_invert, M N complex entries per sample, would pass _MC_TABLE
# entries (16 MB); a thin band with M = 696 gets 1506
_MC_CHUNK = 4096
_MC_TABLE = 1 << 20


@dataclass(frozen=True)
class Character:
    """Point of the character torus [0,1)^N with mod-1 arithmetic."""

    alpha: tuple

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) % 1.0 for a in self.alpha))

    def translate(self, shift):
        return Character(tuple(a + s for a, s in zip(self.alpha, shift)))

    def distance(self, other):
        return torus_distance(np.asarray(self.alpha), np.asarray(other.alpha))

    def to_json(self):
        return {"alpha": list(self.alpha)}

    @classmethod
    def from_json(cls, doc):
        try:
            alpha = tuple(float(json_number(a)) for a in doc["alpha"])
        except (KeyError, TypeError, ValueError):
            raise ValidationError("document must contain 'alpha': [...] of numbers")
        return cls(alpha=alpha)


@dataclass(frozen=True)
class DivisorChart:
    """Angle coordinates of a divisor: x_j = m_j + r_j cos(phi_j), eps_j = sign(sin phi_j)."""

    angles: tuple

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(p) % _TWO_PI for p in self.angles))


def torus_distance(a, b):
    """Max over coordinates of the circle distance on R/Z."""
    d = np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)) % 1.0
    d = np.minimum(d, 1.0 - d)
    return float(np.max(d)) if d.size else 0.0


def chart_from_divisor(gs, divisor):
    """Chart angles of a divisor, exact at the gap endpoints: a_k has angle pi, b_k angle 0."""
    divisor = divisor.validate(gs)
    phis = []
    for (a, b), (x, e) in zip(gs.gaps, divisor.points):
        phi = _chart_angle(a, b, x)
        if e < 0 and 0.0 < phi < math.pi:
            phi = _TWO_PI - phi
        phis.append(phi)
    return DivisorChart(angles=tuple(phis))


def divisor_from_chart(gs, chart):
    pts = [(_chart_point(a, b, phi), 1 if math.sin(phi) >= 0.0 else -1)
           for (a, b), phi in zip(gs.gaps, chart.angles)]
    return Divisor(points=tuple(pts)).normalized(gs)


@lru_cache(maxsize=16)
def _abel_series(gs):
    """Fourier data of the Abel map in the angle chart.

    Coordinate j of the map is sum_k psi_jk(phi_k) with
    psi_jk(phi) = delta_jk (1/2 - phi/2pi) + sum_m b_m sin(m phi);
    the derivative d psi_jk / d phi has a pure cosine series a_m since it is
    even about both phi = 0 and phi = pi, and b_m = a_m / m.

    The cosine coefficients come from an FFT on 512 nodes, doubled until the
    top quarter of the computed sine spectrum sums below _SERIES_TAIL (at
    most _SERIES_MAX_NODES nodes; beyond that SolverError carries the tail
    left over).  The series is then cut at the smallest M with
    sum_{m>M} max_jk |b_jk,m| below _SERIES_TAIL, so each evaluation costs M
    terms per angle: a few dozen on ordinary sets, more on thin bands.  The
    stopping rule reads b rather than a because the FFT noise floor of a_m
    grows with N while b_m = a_m / m stays below it.

    Returns (a, b) in the layouts of the two contractions with a harmonic
    table (_harmonics): a[k, j, m - 1] of shape (N, N, M), one matrix product
    per gap k in _series_jacobian, and b flattened to b[j, (m - 1) N + k] of
    shape (N, M N), one matrix product in _series_map.
    """
    n = gs.n_gaps
    cs = gs.centred
    poly = _lagrange_basis(cs, _harmonic_poly_coeffs(gs, DEFAULT_QTOL).coeffs)
    lo, hi = np.array(cs.gaps).T[..., None]
    root = _rest_root(cs, lo, hi)
    signs = np.array([[gap_branch_sign(gs, k)] for k in range(1, n + 1)])
    m_grid = _SERIES_MIN_NODES
    while True:
        half = m_grid // 2
        phi_half = np.arange(half + 1) * (_TWO_PI / m_grid)
        m_idx = np.arange(1, half + 1)
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(phi_half)  # (N, half + 1), a row per gap
        g_half = -0.5 * signs * poly(x) / root(x)
        g = np.concatenate([g_half, g_half[..., -2:0:-1]], axis=-1)  # even extension
        fhat = np.fft.rfft(g, axis=-1).real / m_grid  # fhat[j, k]: omega_j' on gap k
        max_b = np.abs(fhat[:, :, 1:]).max(axis=(0, 1), initial=0.0) * 2.0 / m_idx
        top = float(max_b[(3 * half) // 4 :].sum())
        if top < _SERIES_TAIL:
            break
        if m_grid >= _SERIES_MAX_NODES:
            raise SolverError("Abel series did not converge", residual=top)
        m_grid *= 2
    mean_err = float(np.abs(fhat[:, :, 0] + np.eye(n) / _TWO_PI).max(initial=0.0))
    if mean_err > 1e-10:
        raise SolverError("Abel series normalization failed", residual=mean_err)
    tails = np.cumsum(max_b[::-1])[::-1]  # tails[i] = sum over m > i
    m_keep = int(np.count_nonzero(tails >= _SERIES_TAIL))
    a_cos = 2.0 * fhat[:, :, 1 : m_keep + 1]  # a_cos[j, k, m - 1]
    b_sin = a_cos / m_idx[:m_keep]
    return (np.ascontiguousarray(a_cos.transpose(1, 0, 2)),
            np.ascontiguousarray(b_sin.transpose(0, 2, 1)).reshape(n, m_keep * n))


def abel_map(gs, divisor, qtol=DEFAULT_QTOL):
    """Character of a divisor: alpha_j = (1/2) sum_k eps_k (omega_j(x_k) - omega_j(a_k)) mod 1.

    Direct harmonic-measure quadrature: one edge integral over the stack of
    gaps gives omega_j(x_k) - omega_j(a_k) for every j and k.  The base
    divisor {(a_k, +1)} maps to 0.
    """
    n = gs.n_gaps
    divisor = divisor.normalized(gs)
    if n == 0:
        return Character(alpha=())
    poly = _lagrange_basis(gs.centred, _harmonic_poly_coeffs(gs, qtol).coeffs)
    xs, eps = np.array(divisor.points).T
    inc = _gap_increment(gs, poly, range(1, n + 1), xs, qtol)  # inc[j, k]
    alpha = np.sum(0.5 * eps * inc, axis=1)
    return Character(alpha=tuple(alpha % 1.0))


def _harmonics(phis, m_count):
    """exp(i m phi) for m = 1..m_count and phis of shape (rows, N), as a table
    of shape (m_count, N, rows).

    Block doubling: once the first k powers are known, multiplying the first
    n of them by z^k gives powers k+1..k+n, so the table costs about
    log2(m_count) array products, each over whole contiguous blocks.  That is
    a few times cheaper than sin or cos of m phi, or a cumulative product, on
    a batch of rows; the error grows like m times the rounding unit, as for
    repeated multiplication.
    """
    h = np.empty((m_count,) + phis.shape[::-1], dtype=complex)
    h[:1] = np.exp(1j * phis.T)
    k = 1
    while k < m_count:
        n = min(k, m_count - k)
        np.multiply(h[:n], h[k - 1], out=h[k : k + n])
        k += n
    return h


def _series_map(series, h, phis):
    """Chart Abel map at phis of shape (rows, N) from their harmonic table h.

    Viewed as floats, the table interleaves cos and sin of m phi in its
    last axis, so one matrix product with b gives the cosine and the sine
    sums; the sine sums (odd columns) are the map.
    """
    m_count, n, rows = h.shape
    sums = series[1] @ h.view(float).reshape(m_count * n, 2 * rows)
    return (sums[:, 1::2].T + 0.5 - phis / _TWO_PI) % 1.0


def _series_jacobian(series, h, rows):
    """Chart Jacobian, shape (len(rows), N, N), at the given rows of the
    harmonic table h: their cosines against a, one matrix product per gap k.

    The cosines are the even float columns of h; taking them from the float
    view copies only the rows asked for, never the whole strided real part.
    """
    cosines = np.take(h.view(float), 2 * rows, axis=-1)  # h.real[..., rows]
    jac = series[0] @ cosines.transpose(1, 0, 2)  # jac[k, j, row]
    return jac.transpose(2, 1, 0) - np.eye(len(jac)) / _TWO_PI


def _rows(phis):
    """phis of shape (..., N) as a (rows, N) array of angles in [0, 2 pi),
    and the leading shape (...) to restore."""
    phis = np.atleast_2d(np.asarray(phis, dtype=float)) % _TWO_PI
    return phis.reshape(-1, phis.shape[-1]), phis.shape[:-1]


def abel_map_angles(gs, phis):
    """Vectorized Abel map in the angle chart via the Fourier series.

    phis: array of shape (..., N); returns torus coordinates of the same shape.
    """
    series = _abel_series(gs)
    flat, lead = _rows(phis)
    h = _harmonics(flat, series[0].shape[-1])
    return _series_map(series, h, flat).reshape(lead + (gs.n_gaps,))


def abel_jacobian_angles(gs, phis):
    """Jacobian d alpha_j / d phi_k of the chart Abel map, shape (..., N, N)."""
    n = gs.n_gaps
    series = _abel_series(gs)
    flat, lead = _rows(phis)
    h = _harmonics(flat, series[0].shape[-1])
    return _series_jacobian(series, h, np.arange(len(flat))).reshape(lead + (n, n))


def abel_jacobian(gs, divisor):
    """Jacobian of the Abel map at a divisor, in the angle chart."""
    chart = chart_from_divisor(gs, divisor)
    return abel_jacobian_angles(gs, np.asarray(chart.angles))[0]


def _wrap_half(r):
    return (r + 0.5) % 1.0 - 0.5


def _diagonal_seed(alpha):
    """Chart angles solving the dominant diagonal term of the Abel map,
    alpha_k = 1/2 - phi_k / 2pi (mod 1), for characters of shape (..., N)."""
    return (np.pi - _TWO_PI * np.asarray(alpha, dtype=float)) % _TWO_PI


def _restart_offsets(n):
    """2N deterministic angle offsets, spread over the torus as a Kronecker
    sequence (the generalized golden ratio in N dimensions)."""
    g = 2.0
    for _ in range(60):
        g = (1.0 + g) ** (1.0 / (n + 1))
    step = g ** -np.arange(1.0, n + 1)
    return _TWO_PI * ((np.arange(1, 2 * n + 1)[:, None] * step) % 1.0)


def _newton_invert(gs, targets, phis):
    """Vectorized torus Newton for the chart Abel map; returns (phis, residuals).

    Each evaluated point costs one harmonic table (_harmonics): the map comes
    from its imaginary part, and the Jacobian from its real part only where
    the point is accepted and its row stays live.  Rows whose residual is
    below _NEWTON_TOL stop iterating and get no Jacobian.  A step is scaled
    down to at most one radian in its largest angle and is taken only if it
    lowers the row's residual; otherwise the row keeps its point and its
    Jacobian, and its step length is halved on the next iteration.
    """
    series = _abel_series(gs)
    m_count = series[0].shape[-1]
    phis = np.array(np.atleast_2d(phis), dtype=float)
    targets = np.broadcast_to(targets, phis.shape)
    h = _harmonics(phis, m_count)
    res_vec = _wrap_half(_series_map(series, h, phis) - targets)
    res = np.abs(res_vec).max(axis=-1)
    active = np.flatnonzero(res >= _NEWTON_TOL)
    res_vec = res_vec[active]
    jac = _series_jacobian(series, h, active)
    length = np.ones(active.size)
    for _ in range(_NEWTON_ITERS):
        if active.size == 0:
            break
        try:
            step = np.linalg.solve(jac, res_vec[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.linalg.solve(jac + 1e-10 * np.eye(gs.n_gaps), res_vec[..., None])[..., 0]
        scale = length / np.maximum(np.abs(step).max(axis=-1), 1.0)
        trial = (phis[active] - scale[:, None] * step) % _TWO_PI
        del h  # one table at a time: on a thin band a 4096-row table is 46 MB
        h = _harmonics(trial, m_count)
        trial_vec = _wrap_half(_series_map(series, h, trial) - targets[active])
        trial_res = np.abs(trial_vec).max(axis=-1)
        better = trial_res < res[active]
        phis[active[better]] = trial[better]
        res[active[better]] = trial_res[better]
        res_vec[better] = trial_vec[better]
        length = np.where(better, 1.0, 0.5 * length)
        live = res[active] >= _NEWTON_TOL
        moved = better & live
        if moved.any():
            jac[moved] = _series_jacobian(series, h, np.flatnonzero(moved))
        active, res_vec, length, jac = active[live], res_vec[live], length[live], jac[live]
    return phis, res


def invert_abel(gs, alpha):
    """Divisor with the Character alpha, by Newton on the torus in the angle chart.

    Newton starts from the diagonal seed phi_k = pi - 2 pi alpha_k, then from
    at most 2N deterministic restarts spread over the torus around that
    seed.  The first start that reaches a residual of 1e-10 wins; if none does,
    SolverError carries the best residual.  The returned divisor's float x
    can lose the chart angle next to a gap end when the gap is narrow
    against |x| (below about 1e-8 at |x| ~ 1, and at 1e-7 gap widths from
    an end of a 0.02 gap at x ~ 756), so the Abel map is evaluated again at
    the divisor's own chart; a residual above 1e-9 there is a SolverError
    too.  Tested for N up to 16, thin bands, thin gaps and divisors next to
    gap endpoints.  A character with other than N entries is a ValidationError.
    """
    n = gs.n_gaps
    if len(alpha.alpha) != n:
        raise ValidationError(f"character length {len(alpha.alpha)} is not the gap count {n}")
    target = np.asarray(alpha.alpha, dtype=float)
    if n == 0:
        return Divisor(())
    seed = _diagonal_seed(target)
    best = None
    for start in [seed, *(seed + _restart_offsets(n)) % _TWO_PI]:
        phis, res = _newton_invert(gs, target[None, :], start[None, :])
        r = float(res[0])
        if best is None or r < best[0]:
            best = (r, phis[0])
        if r <= 1e-10:
            divisor = divisor_from_chart(gs, DivisorChart(angles=tuple(phis[0])))
            back = np.asarray(chart_from_divisor(gs, divisor).angles)
            r = float(np.max(np.abs(_wrap_half(abel_map_angles(gs, back)[0] - target))))
            if r > 1e-9:
                raise SolverError("inverted divisor misses the character", residual=r)
            return divisor
    raise SolverError("Abel inversion did not converge", residual=best[0], iterate=best[1])


def shift_covariance_residual(gs, cp, divisor, prec=DEFAULT_PREC, steps=1, qtol=DEFAULT_QTOL):
    """Torus distance between the Abel image of the divisor advanced by the
    coefficient stripping iteration and the frequency translate
    alpha(D) - steps * omega."""
    if steps < 0:
        raise ValidationError(f"shift steps must be nonnegative, got {steps}")
    omega = frequencies(gs, cp, qtol)
    state = iterate(initial_state(gs, divisor, prec=prec), steps)[2]
    a0 = abel_map(gs, divisor, qtol)
    a1 = abel_map(gs, state.divisor, qtol)
    expected = a0.translate(-steps * omega)
    return a1.distance(expected)


def kernel_at_origin(gs, cp, divisor, qtol=DEFAULT_QTOL):
    """Reproducing-kernel value at the origin for the divisor's character:
    exp(-sum_j [h_j + eps_j G(x_j)]); lies in [Delta(0)^2, 1].

    G at the divisor points inside their gaps is one stacked _gap_increment,
    as `green` takes it one point at a time, clipped at 0 per point; at a gap
    endpoint, which lies on E, G is 0."""
    divisor = divisor.normalized(gs)
    if gs.n_gaps == 0:
        return 1.0
    xs, eps = np.array(divisor.points).T
    a, b = np.array(gs.gaps).T
    inside = (a < xs) & (xs < b)
    g = np.zeros(gs.n_gaps)
    if inside.any():
        num = partial(_prod, roots=np.asarray(cp.s))
        inc = _gap_increment(gs, num, np.flatnonzero(inside) + 1, xs[inside], qtol)
        g[inside] = np.maximum(0.0, inc)
    return float(np.exp(-np.sum(np.asarray(cp.h) + eps * g)))


def widom_delta(cp):
    """Delta(0) = exp(-sum_j h_j) for a finite-gap set."""
    return float(np.exp(-sum(cp.h)))


# ---------------------------------------------------------------------------
# shift-invariant measure on the divisor torus


def _parse_box(gs, box):
    try:
        items = [(json_number(item["gap"]), float(json_number(item["a"])),
                  float(json_number(item["b"])), json_number(item["eps"])) for item in box]
    except (KeyError, TypeError, ValueError):
        raise ValidationError("box items must be {'gap': j, 'a': .., 'b': .., 'eps': +-1}")
    entries = []
    seen = set()
    for j, a, b, e in items:
        # range and tuple membership compare by value, so 1.9 is no index and no sign;
        # json_number has rejected True, which would compare equal to 1
        if j not in range(1, gs.n_gaps + 1):
            raise ValidationError(f"box gap index {j!r} is not one of 1..{gs.n_gaps}")
        if e not in (-1, 1):
            raise ValidationError(f"box eps must be +1 or -1, got {e!r}")
        j, e = int(j), int(e)
        lo, hi = gs.gap(j)
        if not lo <= a < b <= hi:
            raise ValidationError(f"box interval ({a}, {b}) not inside gap {j}")
        if j in seen:
            raise ValidationError("one arc per gap; pass unions as separate boxes")
        seen.add(j)
        entries.append((j, a, b, e))
    return entries


def measure_box(gs, box, qtol=DEFAULT_QTOL):
    """Invariant measure of a product of gap arcs:
    2^(-l) |det[ omega_{j_r}(b_s) - omega_{j_r}(a_s) ]|, from one edge integral over
    the stack of the 2l arc ends."""
    entries = _parse_box(gs, box)
    if not entries:
        return 1.0
    poly = _lagrange_basis(gs.centred, _harmonic_poly_coeffs(gs, qtol).coeffs)
    js, a, b, _ = zip(*entries)
    inc = _gap_increment(gs, poly, js + js, b + a, qtol)
    # cols[s, j - 1] = omega_j(b_s) - omega_j(a_s), the transpose of the matrix above
    cols = (inc[:, : len(js)] - inc[:, len(js) :]).T
    rows = [j - 1 for j in js]
    return float(2.0 ** (-len(entries)) * abs(np.linalg.det(cols[:, rows])))


def measure_mc(gs, box, samples=100_000, seed=0):
    """Monte-Carlo oracle for measure_box: sample characters uniformly,
    invert the Abel map, count divisors landing in the box.

    Every sample starts Newton from the diagonal seed (see invert_abel), so
    no start grid is built and the work per sample is polynomial in N; a
    sample that misses 1e-8 is retried by invert_abel with its restarts.
    Tested against measure_box for N up to 6.

    Returns (estimate, stderr).
    """
    if samples < 1:
        raise ValidationError(f"Monte-Carlo needs at least one sample, got {samples}")
    entries = _parse_box(gs, box)
    n = gs.n_gaps
    if n == 0 or not entries:
        return 1.0, 0.0
    rng = np.random.Generator(np.random.Philox(seed))
    # the arc (a, b) with sign eps is the chart-angle interval [theta(b), theta(a)],
    # reflected to [2 pi - theta(a), 2 pi - theta(b)] for eps = -1
    arcs = []
    for j, a, b, e in entries:
        th_a, th_b = (_chart_angle(*gs.gap(j), x) for x in (a, b))
        arcs.append((j - 1, th_b, th_a) if e > 0 else (j - 1, _TWO_PI - th_a, _TWO_PI - th_b))
    chunk = min(_MC_CHUNK, max(1, _MC_TABLE // (_abel_series(gs)[0].shape[-1] * n)))
    hits = 0
    for start in range(0, samples, chunk):
        count = min(chunk, samples - start)
        alpha = rng.random((count, n))
        phis, res = _newton_invert(gs, alpha, _diagonal_seed(alpha))
        bad = res > 1e-8
        if np.any(bad):
            # retry strays one by one with full restarts
            for i in np.nonzero(bad)[0]:
                div = invert_abel(gs, Character(tuple(alpha[i])))
                phis[i] = np.asarray(chart_from_divisor(gs, div).angles)
        inside = np.ones(count, dtype=bool)
        for col, lo, hi in arcs:
            inside &= (phis[:, col] >= lo) & (phis[:, col] <= hi)
        hits += int(np.count_nonzero(inside))
    p = hits / samples
    stderr = float(np.sqrt(max(p * (1.0 - p), 1e-300) / samples))
    return p, stderr
