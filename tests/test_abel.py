import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import random_divisor, random_gap_system, spaced_gap_system
from finitegap import abel as ab
from finitegap import spectral_set
from finitegap.errors import SolverError, ValidationError
from finitegap.herglotz import Divisor
from finitegap.quad import DEFAULT_QTOL
from finitegap.spectral_set import GapSystem, critical_points, green, harmonic_measure

# round-trip characters per set; random_<N> is a random set with N gaps
ROUNDTRIP_COUNTS = {
    "two_gap": 25,
    "three_gap": 8,
    "thin_band": 8,
    "thin_gap": 8,
    "random_6": 4,
    "random_10": 3,
    "random_16": 2,
}


def _named_set(request, name):
    if name.startswith("random_"):
        n = int(name.split("_")[1])
        return random_gap_system(np.random.default_rng(n), n_gaps=n)
    return request.getfixturevalue(name)


def _moved_set(n):
    """N gaps on [1e4 - 500, 1e4 + 500], far from [-2, 2]."""
    return spaced_gap_system(np.random.default_rng(n), n, scale=250.0, shift=1e4)


def _edge_points(a, b):
    """The ends of gap (a, b) and the points 1e-9 widths inside them."""
    d = 1e-9 * (b - a)
    return a, a + d, b - d, b


def _edge_arcs(a, b):
    pts = _edge_points(a, b)
    return list(zip(pts, pts[1:])) + [(a, b)]


def _series_set(request, name):
    """thin_band, or a spaced set with int(name) gaps."""
    if name == "thin_band":
        return request.getfixturevalue(name)
    return spaced_gap_system(np.random.default_rng(int(name)), int(name))


# measure_mc hit counts at 4000 samples for seeds 1, 2, 3: a change to the
# series evaluation or to Newton must reproduce them exactly
MC_PINNED = {
    "two_gap": ([{"gap": 1, "a": -0.9, "b": -0.5, "eps": 1},
                 {"gap": 2, "a": 1.0, "b": 1.5, "eps": -1}], (173, 189, 175)),
    "three_gap": ([{"gap": 1, "a": -1.9, "b": -1.5, "eps": -1},
                   {"gap": 3, "a": 1.2, "b": 1.8, "eps": 1}], (207, 202, 198)),
    "thin_band": ([{"gap": 1, "a": -1.0, "b": 0.5, "eps": 1}], (186, 157, 164)),
}

# chart angles of invert_abel at two characters per set, pinned to 1e-12
INVERT_PINNED = {
    "two_gap": {(0.1, 0.7): (2.7289103741795793, 5.151283281590273),
                (0.85, 0.25): (3.829015413947856, 1.3968277779023834)},
    "three_gap": {(0.1, 0.7, 0.4): (2.675170035900408, 5.002072095097774, 0.4391760413251077),
                  (0.85, 0.25, 0.6): (3.89216616619505, 1.5480406830214273, 5.8251376662145224)},
    "thin_band": {(0.1,): (3.0343729327280013,), (0.85,): (3.427320912558537,)},
}


class TestCharacter:
    def test_mod_one(self):
        c = ab.Character((1.25, -0.25))
        assert c.alpha == (0.25, 0.75)

    def test_distance_wraps(self):
        assert ab.Character((0.01,)).distance(ab.Character((0.99,))) == pytest.approx(0.02)

    def test_translate(self):
        c = ab.Character((0.9,)).translate([0.2])
        assert c.alpha[0] == pytest.approx(0.1)


class TestChart:
    def test_roundtrip(self, two_gap, rng):
        for _ in range(10):
            d = random_divisor(two_gap, rng)
            back = ab.divisor_from_chart(two_gap, ab.chart_from_divisor(two_gap, d))
            assert np.allclose(back.xs, d.xs, atol=1e-12)
            assert back.eps == d.eps

    def test_endpoint_identification(self, one_gap):
        # phi = pi is the left endpoint with eps = +1 after normalization
        d = ab.divisor_from_chart(one_gap, ab.DivisorChart((np.pi,)))
        assert d.points[0] == (-1.0, 1)


class TestAbelMap:
    def test_base_divisor_is_zero(self, two_gap):
        base = Divisor(tuple((a, 1) for a, _ in two_gap.gaps))
        alpha = ab.abel_map(two_gap, base)
        assert np.allclose(alpha.alpha, 0.0, atol=1e-12)

    def test_symmetric_center_quarter(self, sym_one_gap):
        alpha = ab.abel_map(sym_one_gap, Divisor(((0.0, 1),)))
        assert alpha.alpha[0] == pytest.approx(0.25, abs=1e-12)

    def test_eps_flip_negates_increment(self, one_gap):
        up = np.asarray(ab.abel_map(one_gap, Divisor(((0.2, 1),))).alpha)
        dn = np.asarray(ab.abel_map(one_gap, Divisor(((0.2, -1),))).alpha)
        assert ab.torus_distance(up, -dn) < 1e-12

    def test_series_matches_quadrature(self, three_gap, thin_band, rng):
        for gs in (three_gap, thin_band):
            for _ in range(5):
                d = random_divisor(gs, rng)
                direct = np.asarray(ab.abel_map(gs, d).alpha)
                chart = ab.chart_from_divisor(gs, d)
                fast = ab.abel_map_angles(gs, np.asarray(chart.angles)[None, :])[0]
                assert ab.torus_distance(direct, fast) < 1e-11

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_pair_formula(self, n):
        # one vector edge integral per gap against the N^2 scalar differences
        # sum_k eps_k (omega_j(x_k) - omega_j(a_k)) / 2, endpoint divisors included
        gs = _moved_set(n)
        rng = np.random.default_rng(n)
        for pos in range(4):
            pts = tuple((_edge_points(a, b)[pos], int(rng.choice([-1, 1]))) for a, b in gs.gaps)
            d = Divisor(pts).validate(gs)
            ref = [sum(0.5 * e * (harmonic_measure(gs, j, x) - harmonic_measure(gs, j, a))
                       for (x, e), (a, _) in zip(d.points, gs.gaps)) for j in range(1, n + 1)]
            assert ab.torus_distance(ab.abel_map(gs, d).alpha, ref) < 1e-13

    def test_continuity_through_endpoints(self, two_gap):
        # the map mod 1 is continuous across phi = 0 and pi (eps flips)
        for pivot in (0.0, np.pi):
            lo = ab.abel_map_angles(two_gap, np.array([[pivot - 1e-7, 1.0]]))[0]
            hi = ab.abel_map_angles(two_gap, np.array([[pivot + 1e-7, 1.0]]))[0]
            assert ab.torus_distance(lo, hi) < 1e-5


class TestJacobian:
    def test_matches_finite_differences(self, two_gap, rng):
        d = random_divisor(two_gap, rng, margin=0.05)
        phi = np.asarray(ab.chart_from_divisor(two_gap, d).angles)
        jac = ab.abel_jacobian(two_gap, d)
        h = 1e-6
        for k in range(2):
            dphi = np.zeros(2)
            dphi[k] = h
            fd = (
                ab.abel_map_angles(two_gap, (phi + dphi)[None, :])[0]
                - ab.abel_map_angles(two_gap, (phi - dphi)[None, :])[0]
            ) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-6)

    def test_nonsingular_interior(self, three_gap, rng):
        d = random_divisor(three_gap, rng, margin=0.05)
        jac = ab.abel_jacobian(three_gap, d)
        assert np.linalg.cond(jac) < 1e6

    @pytest.mark.parametrize("name", ["1", "4", "16", "thin_band"])
    def test_batch_matches_central_differences(self, request, name):
        gs = _series_set(request, name)
        n = gs.n_gaps
        phis = np.random.default_rng(n).uniform(0.0, 2.0 * np.pi, (6, n))
        phis[0], phis[1] = 0.0, np.pi  # the chart angles of the gap endpoints
        jac = ab.abel_jacobian_angles(gs, phis)
        step = 1e-6
        for k in range(n):
            d = np.zeros(n)
            d[k] = step
            fd = ab._wrap_half(ab.abel_map_angles(gs, phis + d) - ab.abel_map_angles(gs, phis - d))
            assert np.allclose(jac[..., k], fd / (2.0 * step), rtol=0.0, atol=1e-8)


class TestSeriesEvaluation:
    def test_series_that_cannot_converge_raises(self):
        # a band of 5e-7 of the diameter: the period solve converges, but the
        # Fourier series of the Abel map's derivative needs more nodes than allowed
        gs = GapSystem(-2.0, 2.0, ((-2.0 + 2e-6, 1.0),))
        assert np.all(np.isfinite(spectral_set._harmonic_poly_coeffs(gs, DEFAULT_QTOL).coeffs))
        with pytest.raises(SolverError, match="Abel series did not converge") as err:
            ab._abel_series(gs)
        assert err.value.residual > 0.0

    def test_series_normalization_failure_raises(self, monkeypatch):
        # doubled harmonic polynomials: each omega_j' has mean -2/2pi on its own gap, not -1/2pi
        poly_coeffs = ab._harmonic_poly_coeffs
        monkeypatch.setattr(ab, "_harmonic_poly_coeffs", lambda gs, qtol: SimpleNamespace(
            coeffs=2.0 * poly_coeffs(gs, qtol).coeffs))
        gs = GapSystem(-2.0, 2.0, ((-0.8, 0.35),))
        with pytest.raises(SolverError, match="Abel series normalization failed") as err:
            ab._abel_series(gs)
        assert err.value.residual == pytest.approx(1.0 / (2.0 * np.pi), rel=1e-6)

    def test_harmonics_match_exp(self, thin_band):
        m_count = ab._abel_series(thin_band)[0].shape[-1]
        assert m_count > 500  # the longest series of the fixtures
        phis = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, (40, 1))
        phis[:2, 0] = 0.0, 2.0 * np.pi - 1e-9
        m = np.arange(1, m_count + 1)[:, None, None]
        err = np.abs(ab._harmonics(phis, m_count) - np.exp(1j * m * phis.T))
        assert np.all(err <= 2e-15 * m)

    def test_three_dimensional_batch(self, three_gap):
        phis = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, (4, 5, 3))
        flat = phis.reshape(20, 3)
        alpha = ab.abel_map_angles(three_gap, phis)
        jac = ab.abel_jacobian_angles(three_gap, phis)
        assert alpha.shape == (4, 5, 3) and jac.shape == (4, 5, 3, 3)
        assert np.array_equal(alpha.reshape(20, 3), ab.abel_map_angles(three_gap, flat))
        assert np.array_equal(jac.reshape(20, 3, 3), ab.abel_jacobian_angles(three_gap, flat))


class TestInversion:
    def test_zero_maps_to_base(self, two_gap):
        d = ab.invert_abel(two_gap, ab.Character((0.0, 0.0)))
        for (x, _), (a, _) in zip(d.points, two_gap.gaps):
            assert x == pytest.approx(a, abs=1e-8)

    @pytest.mark.parametrize("name", list(ROUNDTRIP_COUNTS))
    def test_roundtrip(self, request, rng, name):
        gs = _named_set(request, name)
        alphas = [ab.Character(tuple(rng.random(gs.n_gaps))) for _ in range(ROUNDTRIP_COUNTS[name])]
        # divisors 1e-9 of a gap width inside the left / right gap endpoints
        for side, e in ((0, 1), (1, -1)):
            pts = tuple(((a, b)[side] + (1 - 2 * side) * 1e-9 * (b - a), e) for a, b in gs.gaps)
            alphas.append(ab.abel_map(gs, Divisor(pts)))
        for alpha in alphas:
            d = ab.invert_abel(gs, alpha)
            assert ab.abel_map(gs, d).distance(alpha) < 1e-9

    def test_thin_gap_chart_loss_raises(self):
        # on a gap of width 1e-9 the divisor's float x cannot hold the angle
        # Newton finds: these four characters miss by 2.4e-9 to 2.0e-8
        gs = GapSystem(b0=-2.0, a0=2.0, gaps=((-0.3, -0.3 + 1e-9), (0.5, 1.0)))
        rng = np.random.default_rng(0)
        for _ in range(4):
            with pytest.raises(SolverError, match="misses the character") as exc:
                ab.invert_abel(gs, ab.Character(tuple(rng.random(2))))
            assert exc.value.residual > 1e-9

    @pytest.mark.parametrize(
        "scale, shift",
        [
            (250.0, 1e4),
            (1e-3, 0.0),
            (1e-3, -7.0),
            (1.0, 1e4),
        ],
    )
    def test_affine_image(self, three_gap, rng, scale, shift):
        # harmonic measures are invariant under x -> ax + b (a > 0), so the
        # image set has the same character at the image divisor
        img = GapSystem(
            b0=scale * three_gap.b0 + shift,
            a0=scale * three_gap.a0 + shift,
            gaps=tuple((scale * a + shift, scale * b + shift) for a, b in three_gap.gaps),
        )
        for _ in range(3):
            alpha = ab.Character(tuple(rng.random(3)))
            d = ab.invert_abel(three_gap, alpha)
            d_img = ab.invert_abel(img, alpha)
            assert ab.abel_map(img, d_img).distance(alpha) < 1e-9
            assert d_img.eps == d.eps
            assert np.allclose(d_img.xs, scale * np.asarray(d.xs) + shift, rtol=0, atol=1e-9 * scale)

    @pytest.mark.parametrize("name", ["3", "16", "thin_band"])
    def test_batched_newton_matches_rows(self, request, name):
        gs = _series_set(request, name)
        alpha = np.random.default_rng(7).random((12, gs.n_gaps))
        seed = ab._diagonal_seed(alpha)
        phis, res = ab._newton_invert(gs, alpha, seed)
        assert np.all(res < ab._NEWTON_TOL)
        for i in range(len(alpha)):
            row, row_res = ab._newton_invert(gs, alpha[i], seed[i])
            # the batch and a single row may round their matrix products differently
            assert np.allclose(row[0], phis[i], rtol=0.0, atol=1e-12)
            assert row_res[0] < ab._NEWTON_TOL

    @pytest.mark.parametrize("name", INVERT_PINNED)
    def test_pinned_chart_angles(self, request, name):
        gs = request.getfixturevalue(name)
        for alpha, angles in INVERT_PINNED[name].items():
            chart = ab.chart_from_divisor(gs, ab.invert_abel(gs, ab.Character(alpha)))
            assert np.allclose(chart.angles, angles, rtol=0.0, atol=1e-12)

    def test_restarts_are_capped(self, three_gap, monkeypatch):
        starts = []

        def stuck(gs, targets, phis):
            starts.append(phis[0])
            return phis, np.full(len(phis), 0.25)

        monkeypatch.setattr(ab, "_newton_invert", stuck)
        alpha = ab.Character((0.1, 0.2, 0.3))
        with pytest.raises(SolverError) as err:
            ab.invert_abel(three_gap, alpha)
        assert err.value.residual == 0.25
        # the diagonal seed, then 2N restarts
        assert len(starts) == 1 + 2 * three_gap.n_gaps
        assert np.allclose(starts[0], ab._diagonal_seed(alpha.alpha))

    def test_singular_newton_system_takes_the_regularized_step(self, two_gap, monkeypatch):
        alpha = ab.Character((0.1, 0.35))
        expected = ab.invert_abel(two_gap, alpha)
        solve, calls = np.linalg.solve, []

        def singular_once(a, b):
            calls.append(np.array(a))
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_once)
        d = ab.invert_abel(two_gap, alpha)
        # the fallback solves the same Jacobian plus 1e-10 I, and Newton still converges
        assert np.array_equal(calls[1], calls[0] + 1e-10 * np.eye(two_gap.n_gaps))
        assert ab.abel_map(two_gap, d).distance(alpha) < 1e-9
        assert np.allclose(d.xs, expected.xs, rtol=0.0, atol=1e-9) and d.eps == expected.eps

    @pytest.mark.parametrize("gaps, alpha", [
        (((-1.0, -0.3), (0.8, 1.6)), (0.1,)),
        (((-1.0, -0.3), (0.8, 1.6)), (0.1, 0.2, 0.3)),
        ((), (0.3,)),
    ], ids=["two-gap-short", "two-gap-long", "free-one-entry"])
    def test_character_length_must_match_the_gaps(self, gaps, alpha):
        gs = GapSystem(b0=-2.0, a0=3.0, gaps=gaps)
        with pytest.raises(ValidationError, match="gap count"):
            ab.invert_abel(gs, ab.Character(alpha))


class TestShiftCovariance:
    def test_one_step(self, one_gap, rng):
        for _ in range(5):
            d = random_divisor(one_gap, rng)
            assert ab.shift_covariance_residual(one_gap, d) < 1e-6

    def test_multi_step_linearity(self, two_gap, rng):
        d = random_divisor(two_gap, rng)
        for k in (1, 4, 10):
            assert ab.shift_covariance_residual(two_gap, d, steps=k) < 1e-6

    @pytest.mark.parametrize("n", [24, 32])
    def test_many_gaps(self, n):
        # abel_map and measure_box converge on 6 sets, every other one scaled and
        # moved, and three CF steps move the Abel image by -3 omega to 1e-12 on two
        # unmoved ones.  On the sets moved to 40 the rounding of the divisor points
        # alone, ulp(40) = 7.1e-15, leaves residuals of 1.2e-13 to 1.7e-12.
        for seed in range(6):
            scale, shift = ((1.0, 0.0), (0.5, 40.0))[seed % 2]
            gs = spaced_gap_system(np.random.default_rng(seed), n, scale=scale, shift=shift,
                                   min_share=0.3 / (2 * n + 1))
            d = random_divisor(gs, np.random.default_rng(seed))
            ab.abel_map(gs, d)
            box = [{"gap": j, "a": a + 0.25 * (b - a), "b": a + 0.75 * (b - a), "eps": 1}
                   for j, (a, b) in enumerate(gs.gaps, start=1)]
            assert 0.0 < ab.measure_box(gs, box) < 1.0
            if seed in (0, 2):
                assert ab.shift_covariance_residual(gs, d, steps=3) <= 1e-12


class TestKernel:
    def test_bounds_random(self, two_gap, rng):
        lo = ab.widom_delta(two_gap) ** 2
        for _ in range(50):
            d = random_divisor(two_gap, rng)
            k0 = ab.kernel_at_origin(two_gap, d)
            assert lo - 1e-12 <= k0 <= 1.0 + 1e-12

    def test_equality_cases(self, two_gap, two_gap_cp):
        cs = two_gap_cp.c
        up = Divisor(tuple((c, 1) for c in cs))
        dn = Divisor(tuple((c, -1) for c in cs))
        assert ab.kernel_at_origin(two_gap, dn) == pytest.approx(1.0, abs=1e-12)
        assert ab.kernel_at_origin(two_gap, up) == pytest.approx(
            ab.widom_delta(two_gap) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("name", ["one_gap", "two_gap", "three_gap", "thin_band", "thin_gap",
                                      "moved_1", "moved_3", "moved_6"])
    def test_stacked_green_matches_points(self, request, name):
        """One stacked integral for G at the N divisor points gives the kernel of
        N point calls of `green`, at random points and at gap endpoints."""
        if name.startswith("moved_"):
            n = int(name.split("_")[1])
            gs = spaced_gap_system(np.random.default_rng(n), n, scale=0.3, shift=-0.7 * n)
        else:
            gs = request.getfixturevalue(name)
        cp = critical_points(gs)
        rng = np.random.default_rng(gs.n_gaps)
        divisors = [random_divisor(gs, rng) for _ in range(3)]
        for first in (0, 1):  # a_1, b_2, a_3, ... and b_1, a_2, b_3, ...
            pts = [(gap[(j + first) % 2], e)
                   for j, (gap, (_, e)) in enumerate(zip(gs.gaps, divisors[0].points))]
            divisors.append(Divisor(tuple(pts)))
        for d in divisors:
            expo = sum(h + e * green(gs, x) for (x, e), h in zip(d.validate(gs).points, cp.h))
            assert ab.kernel_at_origin(gs, d) == pytest.approx(np.exp(-expo), rel=1e-13)



class TestMeasure:
    def test_full_gap_both_signs(self, two_gap):
        a, b = two_gap.gap(1)
        total = sum(
            ab.measure_box(two_gap, [{"gap": 1, "a": a, "b": b, "eps": e}])
            for e in (1, -1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_eps_independent_halves(self, two_gap):
        box = {"gap": 2, "a": 0.9, "b": 1.3}
        v1 = ab.measure_box(two_gap, [dict(box, eps=1)])
        v2 = ab.measure_box(two_gap, [dict(box, eps=-1)])
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_row_order_invariance(self, two_gap):
        arcs = [
            {"gap": 1, "a": -0.9, "b": -0.5, "eps": 1},
            {"gap": 2, "a": 1.0, "b": 1.5, "eps": -1},
        ]
        assert ab.measure_box(two_gap, arcs) == pytest.approx(
            ab.measure_box(two_gap, arcs[::-1]), abs=1e-12
        )

    def test_box_validation(self, two_gap):
        with pytest.raises(ValidationError):
            ab.measure_box(two_gap, [{"gap": 1, "a": -2.0, "b": 0.0, "eps": 1}])
        with pytest.raises(ValidationError):
            ab.measure_box(
                two_gap,
                [
                    {"gap": 1, "a": -0.9, "b": -0.7, "eps": 1},
                    {"gap": 1, "a": -0.6, "b": -0.4, "eps": 1},
                ],
            )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_pair_formula(self, n):
        # the N-arc box and each of its arcs alone against the l^2 scalar differences
        gs = _moved_set(n)

        def omega_diff(j, arc):
            return harmonic_measure(gs, j, arc["b"]) - harmonic_measure(gs, j, arc["a"])

        for shift in range(4):
            box = []
            for k, (a, b) in enumerate(gs.gaps, start=1):
                lo, hi = _edge_arcs(a, b)[(k + shift) % 4]
                box.append({"gap": k, "a": lo, "b": hi, "eps": (-1) ** k})
            for arcs in [box] + [[arc] for arc in box]:
                mat = [[omega_diff(r["gap"], s) for s in arcs] for r in arcs]
                ref = 2.0 ** -len(arcs) * abs(np.linalg.det(mat))
                assert abs(ab.measure_box(gs, arcs) - ref) < 1e-13

    def test_monte_carlo_matches_determinant(self, one_gap):
        box = [{"gap": 1, "a": -0.6, "b": 0.1, "eps": 1}]
        det = ab.measure_box(one_gap, box)
        est, se = ab.measure_mc(one_gap, box, samples=20_000, seed=7)
        assert abs(est - det) <= 3.0 * se

    @pytest.mark.parametrize("name", MC_PINNED)
    def test_monte_carlo_pinned(self, request, name):
        gs = request.getfixturevalue(name)
        box, hits = MC_PINNED[name]
        for seed, count in zip((1, 2, 3), hits):
            est, _ = ab.measure_mc(gs, box, samples=4000, seed=seed)
            assert est == count / 4000

    def test_monte_carlo_chunk_bounds_memory(self, thin_band):
        # one 4096-sample Newton call on thin_band (M = 696) peaked at 68.7 MB
        a, b = thin_band.gap(1)
        box = [{"gap": 1, "a": a + 0.25 * (b - a), "b": a + 0.75 * (b - a), "eps": 1}]
        ab.measure_mc(thin_band, box, samples=16, seed=1)  # the cached series, outside the trace
        tracemalloc.start()
        try:
            ab.measure_mc(thin_band, box, samples=4096, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 68.7e6

    def test_monte_carlo_stray_retried_by_invert_abel(self, two_gap, monkeypatch):
        """A sample whose batch Newton misses 1e-8 is inverted again, with restarts."""
        box = MC_PINNED["two_gap"][0]
        expected = ab.measure_mc(two_gap, box, samples=300, seed=4)
        newton, invert = ab._newton_invert, ab.invert_abel
        batches, retried = [], []

        def first_call_strays(gs, targets, phis):
            out, res = newton(gs, targets, phis)
            if not batches:
                res = res.copy()
                res[[0, 7]] = 1.0
            batches.append(len(phis))
            return out, res

        def counting(gs, alpha):
            retried.append(alpha)
            return invert(gs, alpha)

        monkeypatch.setattr(ab, "_newton_invert", first_call_strays)
        monkeypatch.setattr(ab, "invert_abel", counting)
        assert ab.measure_mc(two_gap, box, samples=300, seed=4) == expected
        assert batches[0] == 300 and len(retried) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_monte_carlo_full_chunk_on_short_series(self, n, monkeypatch):
        """Sets spaced as the benchmark's torus sets keep 4096 samples per Newton call."""
        rows = []
        newton = ab._newton_invert

        def recording(gs, targets, phis):
            rows.append(len(phis))
            return newton(gs, targets, phis)

        monkeypatch.setattr(ab, "_newton_invert", recording)
        for seed in range(3):
            gs = spaced_gap_system(np.random.default_rng([n, seed]), n)
            a, b = gs.gap(1)
            rows.clear()
            ab.measure_mc(gs, [{"gap": 1, "a": a, "b": 0.5 * (a + b), "eps": 1}], 5000, seed)
            assert rows == [4096, 904]

    @pytest.mark.parametrize("n_gaps", [4, 6])
    def test_monte_carlo_beyond_three_gaps(self, n_gaps):
        gs = random_gap_system(np.random.default_rng(n_gaps), n_gaps=n_gaps)
        (a1, b1), (an, bn) = gs.gap(1), gs.gap(n_gaps)
        box = [
            {"gap": 1, "a": a1, "b": 0.5 * (a1 + b1), "eps": 1},
            {"gap": n_gaps, "a": an + 0.25 * (bn - an), "b": bn, "eps": -1},
        ]
        det = ab.measure_box(gs, box)
        est, se = ab.measure_mc(gs, box, samples=4000, seed=n_gaps)
        assert abs(est - det) <= 5.0 * se
