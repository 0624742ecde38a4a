"""Acceptance suite: one test per headline criterion, each ending with an
explicit pass line so the run log reads as a checklist.

All randomness is seeded; the independent oracles live in oracle_stieltjes
and in closed forms inlined below.
"""

import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from conftest import random_divisor, random_gap_system
from finitegap import abel as ab
from finitegap import comb as cb
from finitegap import jacobi_cf as jc
from finitegap.herglotz import Divisor, r00, split_resolvents
from finitegap.spectral_set import (
    GapSystem,
    critical_points,
    dos_cdf,
    frequencies,
    green,
    robin_constant,
    thouless_potential,
)
from oracle_stieltjes import halfline_measure, stieltjes_coefficients

SEED = 987654321


def _report(num, name, value, bound):
    print(f"[PASS] criterion {num:2d} {name}: {value:.3e} within {bound:.0e}")


def _instances(rng, counts=(7, 7, 6)):
    out = []
    for n_gaps, count in enumerate(counts, start=1):
        for _ in range(count):
            gs = random_gap_system(rng, n_gaps)
            out.append((gs, random_divisor(gs, rng, margin=0.02)))
    return out


def test_criterion_01_reflectionless_identity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    start = time.time()
    for gs, d in _instances(rng):
        pair = split_resolvents(gs, d)
        xs = np.concatenate(
            [np.linspace(lo + 0.01 * (hi - lo), hi - 0.01 * (hi - lo), 100 // (gs.n_gaps + 1) + 1)
             for lo, hi in gs.bands]
        )
        res = np.abs(-pair.u(xs) - np.conj(pair.v(xs)))
        worst = max(worst, float(np.max(res)))
    assert worst <= 1e-8
    assert time.time() - start <= 60.0
    _report(1, "reflectionless boundary identity", worst, 1e-8)


def test_criterion_02_resolvent_algebra():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for gs, d in _instances(rng, counts=(3, 3, 2)):
        pair = split_resolvents(gs, d)
        zs = rng.uniform(-3, 3, 50) + 1j * rng.uniform(0.05, 3.0, 50)
        lhs = -1.0 / np.asarray(r00(gs, d, zs))
        rhs = -1.0 / pair.r_plus(zs) + pair.p0sq * pair.r_minus(zs)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12
    _report(2, "resolvent algebra", worst, 1e-12)


def test_criterion_03_free_jacobi():
    gs = GapSystem(-2.0, 2.0, ())
    seg = jc.coefficients(gs, Divisor(()), -100, 100)
    worst = max(
        max(abs(p - 1.0) for p in seg.p),
        max(abs(q) for q in seg.q),
    )
    assert worst <= 1e-12
    _report(3, "free Jacobi closed form |n|<=100", worst, 1e-12)


def test_criterion_04_stieltjes_oracle(one_gap, two_gap):
    worst = 0.0
    for gs, d in (
        (one_gap, Divisor(((0.2, -1),))),
        (one_gap, Divisor(((-0.4, 1),))),
        (two_gap, Divisor(((-0.6, 1), (1.1, -1)))),
    ):
        xs, ws = halfline_measure(gs, d)
        qo, po = stieltjes_coefficients(xs, ws, 30)
        seg = jc.coefficients(gs, d, 0, 31)
        worst = max(
            worst,
            float(np.max(np.abs(qo - np.array(seg.q)[:31]))),
            float(np.max(np.abs(po - np.array(seg.p)[1:31]))),
        )
    assert worst <= 1e-8
    _report(4, "Stieltjes oracle n<=30", worst, 1e-8)


def test_criterion_05_thouless_formula():
    rng = np.random.default_rng(SEED + 2)
    worst_avg = 0.0
    for _ in range(5):
        gs = random_gap_system(rng, 1)
        cp = critical_points(gs)
        rc = robin_constant(gs, cp)
        st = jc.initial_state(gs, random_divisor(gs, rng, margin=0.02))
        _, psqs, _ = jc.iterate(st, 1000)
        avg = -0.5 * float(np.mean(np.log(psqs)))
        worst_avg = max(worst_avg, abs(avg - rc))
    assert worst_avg <= 1e-2
    gs = random_gap_system(rng, 2)
    cp = critical_points(gs)
    rc = robin_constant(gs, cp)
    worst_pt = max(
        abs(green(gs, cp, z) - rc - thouless_potential(gs, cp, z))
        for z in (4.0, -3.5, 0.3 + 1.2j, cp.c[0])
    )
    assert worst_pt <= 1e-6
    _report(5, "Thouless coefficient average", worst_avg, 1e-2)
    _report(5, "Thouless pointwise identity", worst_pt, 1e-6)


def test_criterion_06_transfer_suite(two_gap, rng):
    d = random_divisor(two_gap, rng)
    seg = jc.coefficients(two_gap, d, 0, 52)
    # polynomial entries stay O(1) only near the spectrum, where the identity
    # det = 1 can be checked at full absolute accuracy
    band_pts = np.concatenate(
        [np.linspace(lo + 0.1, hi - 0.1, 4) for lo, hi in two_gap.bands]
    )[:10]
    zs_det = list(band_pts) + [x + 0.05j for x in band_pts]
    worst_det = max(
        abs(np.linalg.det(jc.transfer_matrix(seg, z, n)) - 1.0)
        for z in zs_det for n in (1, 10, 50)
    )
    zs = [x + 1j * y for x in band_pts[:2] for y in (0.1, 0.6)]
    worst_cd = max(jc.cd_residual(seg, z, n) for z in zs for n in range(1, 21))
    worst_ju = max(jc.j_unitarity_residual(seg, x, 15) for x in (-1.7, 0.3, 2.2))
    worst_psd = max(
        max(0.0, -jc.j_expanding_min_eig(seg, z, n)) for z in zs for n in (5, 15)
    )
    norm = jc.hat_check_normalization(two_gap, d, seg)["residual"]
    assert worst_det <= 1e-10
    assert worst_cd <= 1e-8
    assert worst_ju <= 1e-8
    assert worst_psd <= 1e-10
    assert norm <= 1e-8
    _report(6, "transfer determinant", worst_det, 1e-10)
    _report(6, "Christoffel-Darboux n<=20", worst_cd, 1e-8)
    _report(6, "j-unitarity on E", worst_ju, 1e-8)
    _report(6, "j-expanding PSD", worst_psd, 1e-10)
    _report(6, "segment normalization against u(z)", norm, 1e-8)


def test_criterion_07_abel_shift_covariance():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for n_gaps, count in ((1, 20), (2, 20), (3, 10)):
        for _ in range(count):
            gs = random_gap_system(rng, n_gaps)
            cp = critical_points(gs)
            d = random_divisor(gs, rng, margin=0.02)
            worst = max(worst, ab.shift_covariance_residual(gs, cp, d))
    assert worst <= 1e-6
    gs = random_gap_system(rng, 2)
    cp = critical_points(gs)
    d = random_divisor(gs, rng, margin=0.02)
    worst_k = max(
        ab.shift_covariance_residual(gs, cp, d, steps=k) for k in (2, 5, 10)
    )
    assert worst_k <= 1e-6
    _report(7, "Abel shift covariance, 50 instances", worst, 1e-6)
    _report(7, "k-step linearity k<=10", worst_k, 1e-6)


def test_criterion_08_invariant_measure_monte_carlo(one_gap, two_gap):
    start = time.time()
    cases = [
        (one_gap, [{"gap": 1, "a": -0.7, "b": 0.2, "eps": 1}], 100_000, 11),
        (two_gap, [{"gap": 2, "a": 0.9, "b": 1.4, "eps": -1}], 100_000, 12),
        (two_gap,
         [{"gap": 1, "a": -0.9, "b": -0.5, "eps": 1}, {"gap": 2, "a": 1.0, "b": 1.5, "eps": -1}],
         100_000, 13),
    ]
    worst_sigma = 0.0
    for gs, box, samples, seed in cases:
        det = ab.measure_box(gs, box)
        est, se = ab.measure_mc(gs, box, samples=samples, seed=seed)
        worst_sigma = max(worst_sigma, abs(est - det) / se)
    elapsed = time.time() - start
    assert worst_sigma <= 3.0
    assert elapsed <= 300.0
    _report(8, "invariant measure MC vs determinant (sigmas)", worst_sigma, 3)


def test_criterion_09_kernel_bounds(two_gap, two_gap_cp):
    rng = np.random.default_rng(SEED + 4)
    lo = ab.widom_delta(two_gap_cp) ** 2
    worst = 0.0
    strict = True
    for _ in range(1000):
        d = random_divisor(two_gap, rng, margin=1e-3)
        k0 = ab.kernel_at_origin(two_gap, two_gap_cp, d)
        worst = max(worst, k0 - 1.0, lo - k0)
        if not lo < k0 < 1.0:
            strict = False
    assert worst <= 0.0
    assert strict  # equality only at the two trivial configurations
    up = Divisor(tuple((c, 1) for c in two_gap_cp.c))
    dn = Divisor(tuple((c, -1) for c in two_gap_cp.c))
    eq = max(
        abs(ab.kernel_at_origin(two_gap, two_gap_cp, dn) - 1.0),
        abs(ab.kernel_at_origin(two_gap, two_gap_cp, up) - lo),
    )
    assert eq <= 1e-12
    _report(9, "kernel bounds, 1000 divisors", worst, 1)
    _report(9, "equality cases", eq, 1e-12)


def test_criterion_10_finite_band_approximation():
    c = cb.CombData(teeth=((0.3, 0.5), (0.6, 0.2), (0.8, 0.05)))
    rep = cb.widom_delta_report(c, [2, 3, 5, 10, 30, 100, 10**15])
    vals = [r["delta_n0"] for r in rep]
    mono = max(max(b - a for a, b in zip(vals, vals[1:])), 0.0)
    limit_err = abs(vals[-1] - c.delta0)
    assert mono <= 0.0
    assert limit_err <= 1e-9
    gs = GapSystem(
        -4.0, 4.0,
        ((-3.4, -3.0), (-2.4, -1.9), (-1.2, -0.8), (0.1, 0.5), (1.3, 1.9), (2.7, 3.2)),
    )
    comb = cb.comb_from_gaps(gs)
    bracket = GapSystem(-4.0, 4.0, tuple((a + 0.03, b - 0.02) for a, b in gs.gaps))
    rec = cb.gaps_from_comb(comb, bracket)
    err = np.max(np.abs(np.asarray(rec.gaps) - np.asarray(gs.gaps))) / gs.diameter
    assert err <= 1e-6
    _report(10, "Widom delta monotone limit", limit_err, 1e-9)
    _report(10, "comb roundtrip N=6 relative error", err, 1e-6)


def test_criterion_11_spectral_localization(two_gap, two_gap_cp):
    rng = np.random.default_rng(SEED + 5)
    d = random_divisor(two_gap, rng)
    seg = jc.coefficients(two_gap, d, -200, 200)
    diag, off = jc.truncation_matrix(seg)
    ev = np.sort(eigh_tridiagonal(diag, off)[0])
    margin = max(two_gap.b0 - ev.min(), ev.max() - two_gap.a0)
    assert margin <= 0.05
    cdf = np.array([dos_cdf(two_gap, two_gap_cp, x) for x in ev])
    n = len(ev)
    ks = max(
        np.max(np.abs(np.arange(1, n + 1) / n - cdf)),
        np.max(np.abs(np.arange(0, n) / n - cdf)),
    )
    assert ks <= 0.05
    _report(11, "401x401 eigenvalue localization margin", max(margin, 0.0), 5e-2)
    _report(11, "Kolmogorov-Smirnov distance to dos", ks, 5e-2)


def test_criterion_12_almost_periodicity(one_gap, one_gap_cp):
    rng = np.random.default_rng(SEED + 6)
    om = frequencies(one_gap, one_gap_cp)
    n_near = None
    for n in range(1, 5000):
        dist = abs(n * om[0] - round(n * om[0]))
        if dist <= 1e-3:
            n_near = n
            break
    assert n_near is not None
    d = random_divisor(one_gap, rng)
    seg = jc.coefficients(one_gap, d, 0, n_near + 501)
    rep = jc.almost_periodicity_report(seg, om, delta=1.1e-3, window=500)
    entry = next(e for e in rep if e["n"] == n_near)
    assert entry["sup_discrepancy"] <= 1e-2
    _report(12, f"almost periodicity s({n_near}) over window 500",
            entry["sup_discrepancy"], 1e-2)
