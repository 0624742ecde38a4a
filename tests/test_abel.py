import numpy as np
import pytest

from conftest import random_divisor, random_gap_system
from finitegap import abel as ab
from finitegap.errors import SolverError, ValidationError
from finitegap.herglotz import Divisor
from finitegap.spectral_set import GapSystem, critical_points

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
    def test_base_divisor_is_zero(self, two_gap, two_gap_cp):
        base = Divisor(tuple((a, 1) for a, _ in two_gap.gaps))
        alpha = ab.abel_map(two_gap, two_gap_cp, base)
        assert np.allclose(alpha.alpha, 0.0, atol=1e-12)

    def test_symmetric_center_quarter(self, sym_one_gap, sym_one_gap_cp):
        alpha = ab.abel_map(sym_one_gap, sym_one_gap_cp, Divisor(((0.0, 1),)))
        assert alpha.alpha[0] == pytest.approx(0.25, abs=1e-12)

    def test_eps_flip_negates_increment(self, one_gap, one_gap_cp):
        up = np.asarray(ab.abel_map(one_gap, one_gap_cp, Divisor(((0.2, 1),))).alpha)
        dn = np.asarray(ab.abel_map(one_gap, one_gap_cp, Divisor(((0.2, -1),))).alpha)
        assert ab.torus_distance(up, -dn) < 1e-12

    def test_series_matches_quadrature(self, three_gap, three_gap_cp, thin_band, rng):
        for gs, cp in ((three_gap, three_gap_cp), (thin_band, critical_points(thin_band))):
            for _ in range(5):
                d = random_divisor(gs, rng)
                direct = np.asarray(ab.abel_map(gs, cp, d).alpha)
                chart = ab.chart_from_divisor(gs, d)
                fast = ab.abel_map_angles(gs, np.asarray(chart.angles)[None, :])[0]
                assert ab.torus_distance(direct, fast) < 1e-11

    def test_continuity_through_endpoints(self, two_gap):
        # the map mod 1 is continuous across phi = 0 and pi (eps flips)
        for pivot in (0.0, np.pi):
            lo = ab.abel_map_angles(two_gap, np.array([[pivot - 1e-7, 1.0]]))[0]
            hi = ab.abel_map_angles(two_gap, np.array([[pivot + 1e-7, 1.0]]))[0]
            assert ab.torus_distance(lo, hi) < 1e-5


class TestJacobian:
    def test_matches_finite_differences(self, two_gap, two_gap_cp, rng):
        d = random_divisor(two_gap, rng, margin=0.05)
        phi = np.asarray(ab.chart_from_divisor(two_gap, d).angles)
        jac = ab.abel_jacobian(two_gap, two_gap_cp, d)
        h = 1e-6
        for k in range(2):
            dphi = np.zeros(2)
            dphi[k] = h
            fd = (
                ab.abel_map_angles(two_gap, (phi + dphi)[None, :])[0]
                - ab.abel_map_angles(two_gap, (phi - dphi)[None, :])[0]
            ) / (2 * h)
            assert np.allclose(jac[:, k], fd, atol=1e-6)

    def test_nonsingular_interior(self, three_gap, three_gap_cp, rng):
        d = random_divisor(three_gap, rng, margin=0.05)
        jac = ab.abel_jacobian(three_gap, three_gap_cp, d)
        assert np.linalg.cond(jac) < 1e6


class TestInversion:
    def test_zero_maps_to_base(self, two_gap, two_gap_cp):
        d = ab.invert_abel(two_gap, two_gap_cp, ab.Character((0.0, 0.0)))
        for (x, _), (a, _) in zip(d.points, two_gap.gaps):
            assert x == pytest.approx(a, abs=1e-8)

    @pytest.mark.parametrize("name", list(ROUNDTRIP_COUNTS))
    def test_roundtrip(self, request, rng, name):
        gs = _named_set(request, name)
        cp = critical_points(gs)
        alphas = [ab.Character(tuple(rng.random(gs.n_gaps))) for _ in range(ROUNDTRIP_COUNTS[name])]
        # divisors 1e-9 of a gap width inside the left / right gap endpoints
        for side, e in ((0, 1), (1, -1)):
            pts = tuple(((a, b)[side] + (1 - 2 * side) * 1e-9 * (b - a), e) for a, b in gs.gaps)
            alphas.append(ab.abel_map(gs, cp, Divisor(pts)))
        for alpha in alphas:
            d = ab.invert_abel(gs, cp, alpha)
            assert ab.abel_map(gs, cp, d).distance(alpha) < 1e-9

    @pytest.mark.parametrize(
        "scale, shift",
        [
            (250.0, 1e4),
            (1e-3, 0.0),
            (1e-3, -7.0),
            (1.0, 1e4),
        ],
    )
    def test_affine_image(self, three_gap, three_gap_cp, rng, scale, shift):
        # harmonic measures are invariant under x -> ax + b (a > 0), so the
        # image set has the same character at the image divisor
        img = GapSystem(
            b0=scale * three_gap.b0 + shift,
            a0=scale * three_gap.a0 + shift,
            gaps=tuple((scale * a + shift, scale * b + shift) for a, b in three_gap.gaps),
        )
        img_cp = critical_points(img)
        for _ in range(3):
            alpha = ab.Character(tuple(rng.random(3)))
            d = ab.invert_abel(three_gap, three_gap_cp, alpha)
            d_img = ab.invert_abel(img, img_cp, alpha)
            assert ab.abel_map(img, img_cp, d_img).distance(alpha) < 1e-9
            assert d_img.eps == d.eps
            assert np.allclose(d_img.xs, scale * np.asarray(d.xs) + shift, rtol=0, atol=1e-9 * scale)

    def test_restarts_are_capped(self, three_gap, three_gap_cp, monkeypatch):
        starts = []

        def stuck(gs, targets, phis):
            starts.append(phis[0])
            return phis, np.full(len(phis), 0.25)

        monkeypatch.setattr(ab, "_newton_invert", stuck)
        alpha = ab.Character((0.1, 0.2, 0.3))
        guess = Divisor(tuple((a, 1) for a, _ in three_gap.gaps))
        with pytest.raises(SolverError) as err:
            ab.invert_abel(three_gap, three_gap_cp, alpha, guess=guess)
        assert err.value.residual == 0.25
        # the guess, the diagonal seed, then 2N restarts
        assert len(starts) == 2 + 2 * three_gap.n_gaps
        assert np.allclose(starts[1], ab._diagonal_seed(alpha.alpha))


class TestShiftCovariance:
    def test_one_step(self, one_gap, one_gap_cp, rng):
        for _ in range(5):
            d = random_divisor(one_gap, rng)
            assert ab.shift_covariance_residual(one_gap, one_gap_cp, d) < 1e-6

    def test_multi_step_linearity(self, two_gap, two_gap_cp, rng):
        d = random_divisor(two_gap, rng)
        for k in (1, 4, 10):
            assert ab.shift_covariance_residual(two_gap, two_gap_cp, d, steps=k) < 1e-6


class TestKernel:
    def test_bounds_random(self, two_gap, two_gap_cp, rng):
        lo = ab.widom_delta(two_gap_cp) ** 2
        for _ in range(50):
            d = random_divisor(two_gap, rng)
            k0 = ab.kernel_at_origin(two_gap, two_gap_cp, d)
            assert lo - 1e-12 <= k0 <= 1.0 + 1e-12

    def test_equality_cases(self, two_gap, two_gap_cp):
        cs = two_gap_cp.c
        up = Divisor(tuple((c, 1) for c in cs))
        dn = Divisor(tuple((c, -1) for c in cs))
        assert ab.kernel_at_origin(two_gap, two_gap_cp, dn) == pytest.approx(1.0, abs=1e-12)
        assert ab.kernel_at_origin(two_gap, two_gap_cp, up) == pytest.approx(
            ab.widom_delta(two_gap_cp) ** 2, abs=1e-12
        )


class TestMeasure:
    def test_full_gap_both_signs(self, two_gap, two_gap_cp):
        a, b = two_gap.gap(1)
        total = sum(
            ab.measure_box(two_gap, two_gap_cp, [{"gap": 1, "a": a, "b": b, "eps": e}])
            for e in (1, -1)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_eps_independent_halves(self, two_gap, two_gap_cp):
        box = {"gap": 2, "a": 0.9, "b": 1.3}
        v1 = ab.measure_box(two_gap, two_gap_cp, [dict(box, eps=1)])
        v2 = ab.measure_box(two_gap, two_gap_cp, [dict(box, eps=-1)])
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_row_order_invariance(self, two_gap, two_gap_cp):
        arcs = [
            {"gap": 1, "a": -0.9, "b": -0.5, "eps": 1},
            {"gap": 2, "a": 1.0, "b": 1.5, "eps": -1},
        ]
        assert ab.measure_box(two_gap, two_gap_cp, arcs) == pytest.approx(
            ab.measure_box(two_gap, two_gap_cp, arcs[::-1]), abs=1e-12
        )

    def test_box_validation(self, two_gap, two_gap_cp):
        with pytest.raises(ValidationError):
            ab.measure_box(two_gap, two_gap_cp, [{"gap": 1, "a": -2.0, "b": 0.0, "eps": 1}])
        with pytest.raises(ValidationError):
            ab.measure_box(
                two_gap,
                two_gap_cp,
                [
                    {"gap": 1, "a": -0.9, "b": -0.7, "eps": 1},
                    {"gap": 1, "a": -0.6, "b": -0.4, "eps": 1},
                ],
            )

    def test_monte_carlo_matches_determinant(self, one_gap, one_gap_cp):
        box = [{"gap": 1, "a": -0.6, "b": 0.1, "eps": 1}]
        det = ab.measure_box(one_gap, one_gap_cp, box)
        est, se = ab.measure_mc(one_gap, one_gap_cp, box, samples=20_000, seed=7)
        assert abs(est - det) <= 3.0 * se

    @pytest.mark.parametrize("n_gaps", [4, 6])
    def test_monte_carlo_beyond_three_gaps(self, n_gaps):
        gs = random_gap_system(np.random.default_rng(n_gaps), n_gaps=n_gaps)
        cp = critical_points(gs)
        (a1, b1), (an, bn) = gs.gap(1), gs.gap(n_gaps)
        box = [
            {"gap": 1, "a": a1, "b": 0.5 * (a1 + b1), "eps": 1},
            {"gap": n_gaps, "a": an + 0.25 * (bn - an), "b": bn, "eps": -1},
        ]
        det = ab.measure_box(gs, cp, box)
        est, se = ab.measure_mc(gs, cp, box, samples=4000, seed=n_gaps)
        assert abs(est - det) <= 5.0 * se
