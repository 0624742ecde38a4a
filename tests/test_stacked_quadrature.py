"""The geometry layer integrates over a stack of gaps or bands in one
quadrature call.  These tests count the calls per entry point, compare the
stacked results with a per-interval reference built here from scalar calls of
the same rules, and bound what a stack that cannot converge costs.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebroots, chebval, chebvander

from conftest import random_divisor, spaced_gap_system
from finitegap import abel
from finitegap import spectral_set as ss
from finitegap.errors import SolverError
from finitegap.quad import DEFAULT_QTOL, chebyshev_quad, theta_partial_quad

RULES = ("chebyshev_quad", "theta_partial_quad", "gl_quad")
# (scale, shift) of the moved sets: each N gets all three
MOVES = ((1e-2, 3.0), (1.0, 100.0), (50.0, -1e4))


def _spy_rules(monkeypatch):
    """Count the rule calls made through the spectral_set module attributes,
    the way bench/tracer.py counts them."""
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in RULES:
        monkeypatch.setattr(ss, name, spy(name, getattr(ss, name)))
    return seen


@pytest.mark.parametrize("n", range(1, 9))
def test_one_rule_call_per_stack(n, monkeypatch):
    gs = spaced_gap_system(np.random.default_rng(n), n)
    divisor = random_divisor(gs, np.random.default_rng(n))
    seen = _spy_rules(monkeypatch)

    def calls(fn):
        seen.clear()
        fn()
        return sorted(seen)

    # moments, the one solve of both period problems; periods and heights
    ss._harmonic_poly_coeffs.cache_clear()
    assert calls(lambda: ss.critical_points(gs)) == ["chebyshev_quad", "theta_partial_quad"]
    # the cache entry holds the critical points
    assert calls(lambda: ss.critical_points(gs)) == []
    # one call over the bands fills the band masses of the entry
    assert calls(lambda: ss.frequencies(gs)) == ["chebyshev_quad"]
    ss._harmonic_poly_coeffs.cache_clear()
    assert calls(lambda: ss._harmonic_poly_coeffs(gs, DEFAULT_QTOL)) == ["chebyshev_quad"]
    # with the harmonic-measure polynomials cached, as every later call finds them
    assert calls(lambda: abel.abel_map(gs, divisor)) == ["theta_partial_quad"]
    box = [{"gap": j, "a": a + 0.25 * (b - a), "b": a + 0.75 * (b - a), "eps": 1}
           for j, (a, b) in enumerate(gs.gaps, start=1)]
    assert calls(lambda: abel.measure_box(gs, box)) == ["theta_partial_quad"]
    # the points again, which the cache_clear above dropped with the entry
    ss.critical_points(gs)
    assert calls(lambda: ss.thouless_potential(gs, 2.0 * gs.a0)) == ["chebyshev_quad"]
    # at most the band that x cuts and, once per entry, the band masses
    for lo, hi in gs.bands:
        for x in (0.5 * (lo + hi), hi):
            assert len(calls(lambda: ss.dos_cdf(gs, x))) <= 2
    # the entry holds the masses of the full bands
    assert calls(lambda: ss.dos_cdf(gs, 0.5 * sum(gs.gap(1)))) == []


# per-interval reference: one scalar rule call per gap, band or point


def _prod(roots):
    return lambda t: np.prod(t - np.asarray(roots)[:, None], axis=0)


def _ref_edge(gs, num, lo, hi, x, qtol=DEFAULT_QTOL):
    rest = np.array([e for e in gs.endpoints if e != lo and e != hi])

    def g(t):
        return num(t) / np.sqrt(np.abs(np.prod(t - rest[:, None], axis=0)))

    if x == hi:
        return chebyshev_quad(g, lo, hi, qtol)
    return theta_partial_quad(g, lo, hi, x, qtol)


def _ref_geometry(gs):
    """Centred critical points and heights of gs, by a Chebyshev moment solve with one
    quadrature per gap: the roots of the Chebyshev series and one correction step
    from the periods of their product."""
    n = gs.n_gaps
    cs = gs.centred
    mom = np.array([_ref_edge(cs, lambda s: chebvander(s, n).T, a, b, b) for a, b in cs.gaps])
    p = np.append(np.linalg.solve(mom[:, :n], -mom[:, n]), 1.0)
    s = np.sort(chebroots(p).real)
    res = np.array([_ref_edge(cs, _prod(s), a, b, b) for a, b in cs.gaps])
    diff = s[:, None] - s
    np.fill_diagonal(diff, 1.0)
    s = s - chebval(s, np.linalg.solve(mom[:, :n], -res)) / diff.prod(axis=1)
    h = np.array([abs(_ref_edge(cs, _prod(s), a, b, sj)) for (a, b), sj in zip(cs.gaps, s)])
    return s, h


def _ref_harmonic(gs):
    """s -> (P_1(s), ..., P_N(s)) on the centred set, from a period solve in the product
    basis q_m = prod_{i != m} (s - nu_i), nu_i a third of the way into gap i, with one
    quadrature per gap.  P_k solved in Chebyshev moments instead misses its periods by
    up to 6.6e-12 at N = 16, seed 1 (5.2e-12 with the moments of a 2^14-node rule),
    which is above qtol."""
    n = gs.n_gaps
    cs = gs.centred
    nu = np.array([a + (b - a) / 3.0 for a, b in cs.gaps])

    def basis(s):
        return np.array([_prod(np.delete(nu, m))(s) for m in range(n)])

    mom = np.array([_ref_edge(cs, basis, a, b, b) for a, b in cs.gaps])
    signs = np.array([ss.gap_branch_sign(gs, j) for j in range(1, n + 1)])
    coeffs = np.linalg.solve(signs[:, None] * mom, np.eye(n))  # coeffs[m, k - 1]
    return lambda s: coeffs.T @ basis(s)


def _ref_increment(gs, poly, j, x):
    """omega_k(x) - omega_k(a_j) for every k, x in gap j, with poly from _ref_harmonic:
    P_k(s) ds / sqrt|R(s)| on the centred set is half^N P_k(s) dt / sqrt|R(t)| on gs."""
    a, b = gs.gap(j)
    mid, half = gs.frame
    raw = lambda t: half**gs.n_gaps * poly((t - mid) / half)
    return ss.gap_branch_sign(gs, j) * _ref_edge(gs, raw, a, b, x)


def _ref_band_masses(gs, s, x):
    cs = gs.centred
    mid, half = gs.frame
    xc = (x - mid) / half
    dos = _prod(s)
    return np.array([_ref_edge(cs, lambda t: np.abs(dos(t)), lo, hi, min(xc, hi)) / np.pi
                     for lo, hi in cs.bands if xc > lo])


def _agreement_sets():
    for n in range(1, 9):
        for i, (scale, shift) in enumerate(MOVES):
            yield pytest.param(n, 10 * n + i, scale, shift, 0.02, id=f"N{n}-move{i}")
    for seed in (1, 2):
        yield pytest.param(16, seed, 1.0, 0.0, 0.02, id=f"N16-seed{seed}")
    # abel_map and measure_box once failed here: Gauss-Legendre doubling stalled at
    # a residual of 2.4e-12 to 6.4e-12, the noise of P_k summed in Chebyshev terms
    yield pytest.param(16, 862, 1.0, 0.0, 0.4 / 33, id="N16-seed862")


@pytest.mark.parametrize("n, seed, scale, shift, min_share", _agreement_sets())
def test_stacked_matches_per_interval(n, seed, scale, shift, min_share):
    rng = np.random.default_rng(seed)
    gs = spaced_gap_system(rng, n, scale=scale, shift=shift, min_share=min_share)
    mid, half = gs.frame
    qtol = DEFAULT_QTOL
    s, h = _ref_geometry(gs)
    cp = ss.critical_points(gs)
    assert np.max(np.abs(np.asarray(cp.s) - s)) <= qtol
    assert np.max(np.abs(np.asarray(cp.c) - (mid + half * s))) <= qtol * half + 4 * np.spacing(
        abs(mid) + half)
    assert np.max(np.abs(np.asarray(cp.h) - h)) <= qtol * max(1.0, h.max())

    ref_masses = _ref_band_masses(gs, s, gs.a0)
    ref_omega = np.array([ref_masses[k:].sum() for k in range(1, n + 1)])
    assert np.max(np.abs(ss.frequencies(gs) - ref_omega)) <= qtol

    # P_k at 4 points of every gap, where P_k / sqrt(R) is the density of omega_k, and
    # at 9 points of [-1, 1], relative to the largest |P_k| there
    ss._harmonic_poly_coeffs.cache_clear()
    cs = gs.centred
    poly = ss._lagrange_basis(cs, ss._harmonic_poly_coeffs(gs, qtol).coeffs)
    ref_poly = _ref_harmonic(gs)
    lo, hi = np.array(cs.gaps).T
    pts = np.append(lo + np.array([[0.1], [0.35], [0.6], [0.85]]) * (hi - lo), np.linspace(-1, 1, 9))
    ref = ref_poly(pts)
    assert np.all(np.abs(poly(pts) - ref) <= qtol * np.abs(ref).max(axis=1, keepdims=True))

    for j, (a, b) in enumerate(gs.gaps, start=1):
        x = a + rng.uniform(0.05, 0.95) * (b - a)
        inc = _ref_increment(gs, ref_poly, j, x)
        for k in range(1, n + 1):
            ref = float(j > k) + inc[k - 1]
            assert abs(ss.harmonic_measure(gs, k, x) - ref) <= qtol
        assert abs(ss.dos_cdf(gs, x) - _ref_band_masses(gs, s, x).sum()) <= qtol
    for lo, hi in gs.bands:
        x = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        assert abs(ss.dos_cdf(gs, x) - _ref_band_masses(gs, s, x).sum()) <= qtol

    divisor = random_divisor(gs, rng).validate(gs)
    alpha = sum(0.5 * e * _ref_increment(gs, ref_poly, k, x)
                for k, (x, e) in enumerate(divisor.points, start=1))
    assert abel.abel_map(gs, divisor).distance(abel.Character(tuple(alpha))) <= qtol

    box = []
    for j, (a, b) in enumerate(gs.gaps, start=1):
        lo, hi = np.sort(a + rng.uniform(0.0, 1.0, 2) * (b - a))
        box.append({"gap": j, "a": lo, "b": hi, "eps": 1})
    cols = np.array([_ref_increment(gs, ref_poly, item["gap"], item["b"])
                     - _ref_increment(gs, ref_poly, item["gap"], item["a"]) for item in box])
    ref = 2.0 ** -n * abs(np.linalg.det(cols))
    assert abs(abel.measure_box(gs, box) - ref) <= qtol


@pytest.mark.parametrize("rule", ["chebyshev", "partial"])
def test_stack_that_cannot_converge_is_bounded(rule):
    # a jump in every one of 8 rows never converges: the doubling stops at its
    # cap with the last difference as residual, and the rest factor is built
    # one endpoint at a time, so no (8, 16, 2^16) array of 67 MB is formed
    gs = spaced_gap_system(np.random.default_rng(8), 8)
    lo, hi = np.array(gs.gaps).T
    cut = lo + 0.3 * (hi - lo)
    x = hi if rule == "chebyshev" else lo + 0.9 * (hi - lo)

    def step(t):
        return (t > cut[:, None]).astype(float)

    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match="did not converge") as err:
            ss._edge_integral(gs, step, lo, hi, x, DEFAULT_QTOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.residual > DEFAULT_QTOL
    assert peak < 48 * 2**20
