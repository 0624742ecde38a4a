import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gap_system, spaced_gap_system
from finitegap import spectral_set
from finitegap.errors import SolverError, ValidationError
from finitegap.spectral_set import (
    GapSystem,
    critical_points,
    dos_cdf,
    dos_density,
    frequencies,
    green,
    harmonic_measure,
    harmonic_measure_density,
    robin_constant,
    sqrt_R,
    thouless_potential,
)


class TestGapSystem:
    def test_validation(self):
        with pytest.raises(ValidationError):
            GapSystem(b0=1.0, a0=-1.0)
        with pytest.raises(ValidationError):
            GapSystem(b0=-2.0, a0=2.0, gaps=((0.5, 0.5),))
        with pytest.raises(ValidationError):
            GapSystem(b0=-2.0, a0=2.0, gaps=((-1.0, 0.5), (0.3, 1.0)))
        with pytest.raises(ValidationError):
            GapSystem(b0=-2.0, a0=2.0, gaps=((1.0, 2.5),))

    def test_geometry(self, two_gap):
        assert two_gap.n_gaps == 2
        assert two_gap.endpoints == (-2.0, -1.0, -0.3, 0.8, 1.6, 3.0)
        assert two_gap.bands == ((-2.0, -1.0), (-0.3, 0.8), (1.6, 3.0))
        assert two_gap.locate(-0.5) == ("gap", 1)
        assert two_gap.locate(0.0) == ("band", 1)
        assert two_gap.locate(-5.0) == ("left",)
        assert two_gap.locate(5.0) == ("right",)

    def test_json_roundtrip(self, two_gap):
        assert GapSystem.from_json(two_gap.to_json()) == two_gap


class TestSqrtR:
    def test_asymptotics(self, two_gap):
        z = 1e7 + 1e6j
        assert abs(sqrt_R(two_gap, z) / z**3 - 1.0) < 1e-6

    def test_branch_cut_on_bands(self, two_gap):
        # purely imaginary boundary values on the bands, conjugate across the cut
        for x in (0.2, -1.5, 2.0):
            up = sqrt_R(two_gap, complex(x))
            assert abs(up.real) < 1e-12 * abs(up)
            dn = sqrt_R(two_gap, x - 1e-12j)
            assert abs(dn - np.conj(up)) < 1e-4 * abs(up)

    def test_real_on_gaps_with_alternating_sign(self, two_gap):
        v2 = sqrt_R(two_gap, complex(1.2))  # gap 2, adjacent to (a0, inf): sign -1
        v1 = sqrt_R(two_gap, complex(-0.6))
        assert abs(v2.imag) < 1e-12 and v2.real < 0
        assert abs(v1.imag) < 1e-12 and v1.real > 0


class TestCriticalPoints:
    def test_free_set_trivial(self, free_set):
        cp = critical_points(free_set)
        assert cp.c == () and cp.h == ()

    def test_symmetric_one_gap_closed_form(self, sym_one_gap, sym_one_gap_cp):
        # c = 0 by symmetry; G(0) = log sqrt(3) for [-2,-1] u [1,2]
        assert abs(sym_one_gap_cp.c[0]) < 1e-14
        assert sym_one_gap_cp.h[0] == pytest.approx(np.log(np.sqrt(3.0)), abs=1e-12)

    def test_symmetric_three_band(self):
        gs = GapSystem(b0=-2.0, a0=2.0, gaps=((-1.2, -0.4), (0.4, 1.2)))
        cp = critical_points(gs)
        assert cp.c[0] == pytest.approx(-cp.c[1], abs=1e-12)
        assert cp.h[0] == pytest.approx(cp.h[1], abs=1e-12)

    def test_heights_positive(self, three_gap_cp):
        assert all(h > 0 for h in three_gap_cp.h)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_periods_vanish(self, n):
        # independent check: a 2^14-node Chebyshev rule written here, on sets
        # moved as the benchmark moves them
        rng = np.random.default_rng(100 + n)
        for _ in range(4):
            scale = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            gs = spaced_gap_system(rng, n, scale, scale * rng.uniform(-1.8, 1.8))
            c = np.asarray(critical_points(gs).c)
            for lo, hi in gs.gaps:
                t = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(_REF_THETA)
                rest = [e for e in gs.endpoints if e not in (lo, hi)]
                root = np.sqrt(np.prod(np.abs(t[:, None] - np.array(rest)), axis=1))
                poly = np.prod(t[:, None] - c, axis=1)
                assert abs(np.sum(poly / root)) <= 1e-12 * np.sum(np.abs(poly) / root)

    def test_lost_root_raises(self, monkeypatch):
        # two zeros polished onto the root in gap 2 leave gap 1 without one:
        # an error, never a clamp into the gap
        gs = GapSystem(b0=-2.0, a0=2.0, gaps=((-1.0, -0.5), (0.5, 1.0)))
        monkeypatch.setattr(spectral_set, "chebroots", lambda p: np.array([0.37, 0.38]))
        with pytest.raises(SolverError):
            critical_points(gs)


_REF_THETA = (np.arange(1 << 14) + 0.5) * (np.pi / (1 << 14))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_gaps=st.integers(1, 8),
    log_scale=st.floats(-3.0, 3.0),
    shift_share=st.floats(-1.0, 1.0),
)
def test_affine_covariance(seed, n_gaps, log_scale, shift_share):
    # c maps by x -> scale x + shift to rounding of the moved endpoints;
    # h is invariant
    scale = 10.0**log_scale
    shift = shift_share * min(1e4, 1e5 * scale)
    base = spaced_gap_system(np.random.default_rng(seed), n_gaps)
    img = GapSystem(
        b0=scale * base.b0 + shift,
        a0=scale * base.a0 + shift,
        gaps=tuple((scale * a + shift, scale * b + shift) for a, b in base.gaps),
    )
    cp, cp_img = critical_points(base), critical_points(img)
    tol = max(1e-12 * img.diameter, 4.0 * np.spacing(abs(shift) + img.diameter))
    assert np.max(np.abs(np.asarray(cp_img.c) - (scale * np.asarray(cp.c) + shift))) <= tol
    assert np.max(np.abs(np.asarray(cp_img.h) - np.asarray(cp.h))) <= 1e-9


class TestGreen:
    def test_free_closed_form(self, free_set):
        cp = critical_points(free_set)
        for z in (3.0, -2.5, 1.0 + 2.0j, 0.5 + 0.1j):
            # branch of sqrt(z^2-4) that behaves like z at infinity
            sr = np.sqrt(complex(z) - 2.0) * np.sqrt(complex(z) + 2.0)
            expect = np.log(abs((z + sr) / 2.0))
            assert green(free_set, cp, z) == pytest.approx(expect, abs=1e-10)

    def test_zero_on_bands(self, two_gap, two_gap_cp):
        for x in (-1.5, 0.3, 2.5):
            assert green(two_gap, two_gap_cp, x) == 0.0

    def test_maximum_at_critical_point(self, one_gap, one_gap_cp):
        c = one_gap_cp.c[0]
        h = one_gap_cp.h[0]
        assert green(one_gap, one_gap_cp, c) == pytest.approx(h, abs=1e-12)
        assert green(one_gap, one_gap_cp, c + 0.1) < h
        assert green(one_gap, one_gap_cp, c - 0.1) < h

    def test_positive_off_set(self, two_gap, two_gap_cp):
        for z in (-3.0, 4.0, 1.2, 1.0j):
            assert green(two_gap, two_gap_cp, z) > 0


class TestHarmonicMeasure:
    def test_band_boundary_values(self, two_gap, two_gap_cp):
        assert harmonic_measure(two_gap, two_gap_cp, 1, -1.5) == 0.0
        assert harmonic_measure(two_gap, two_gap_cp, 1, 0.0) == 1.0
        assert harmonic_measure(two_gap, two_gap_cp, 2, 0.0) == 0.0
        assert harmonic_measure(two_gap, two_gap_cp, 2, 2.0) == 1.0

    def test_gap_increment_identity(self, two_gap, two_gap_cp):
        # omega_k(b_j) - omega_k(a_j) = delta_kj
        for k in (1, 2):
            for j in (1, 2):
                a, b = two_gap.gap(j)
                inc = harmonic_measure(two_gap, two_gap_cp, k, b) - harmonic_measure(
                    two_gap, two_gap_cp, k, a
                )
                assert inc == pytest.approx(1.0 if k == j else 0.0, abs=1e-10)

    def test_range_in_unit_interval(self, two_gap, two_gap_cp):
        for x in np.linspace(-3.0, 4.0, 41):
            v = harmonic_measure(two_gap, two_gap_cp, 1, x)
            assert -1e-10 <= v <= 1.0 + 1e-10

    def test_qtol_reaches_period_matrix(self, two_gap, two_gap_cp, monkeypatch):
        # in a gap the only Chebyshev quadratures are the period matrix's:
        # one vector quadrature of the N + 1 moments per gap
        seen = []
        quad = spectral_set.chebyshev_quad

        def spy(g, lo, hi, qtol):
            seen.append(qtol)
            return quad(g, lo, hi, qtol)

        monkeypatch.setattr(spectral_set, "chebyshev_quad", spy)
        spectral_set._harmonic_poly_coeffs.cache_clear()
        loose = harmonic_measure(two_gap, two_gap_cp, 1, -0.6, qtol=1e-6)
        assert seen == [1e-6] * 2
        assert loose == pytest.approx(harmonic_measure(two_gap, two_gap_cp, 1, -0.6), abs=1e-6)

    def test_density_sign(self, two_gap, two_gap_cp):
        # omega_1 decreases through gap 2 toward the right tail piece E_2 complement
        d = harmonic_measure_density(two_gap, two_gap_cp, 1, 1.2)
        fd = (
            harmonic_measure(two_gap, two_gap_cp, 1, 1.201)
            - harmonic_measure(two_gap, two_gap_cp, 1, 1.199)
        ) / 0.002
        assert d == pytest.approx(fd, rel=1e-4)


class TestDensityOfStates:
    def test_free_arcsine(self, free_set):
        cp = critical_points(free_set)
        for x in (-1.0, 0.0, 1.3):
            assert dos_density(free_set, cp, x) == pytest.approx(
                1.0 / (np.pi * np.sqrt(4.0 - x * x)), abs=1e-14
            )

    def test_total_mass(self, three_gap, three_gap_cp):
        assert dos_cdf(three_gap, three_gap_cp, three_gap.a0) == pytest.approx(1.0, abs=1e-10)

    def test_frequencies_match_symmetric_half(self, sym_one_gap, sym_one_gap_cp):
        om = frequencies(sym_one_gap, sym_one_gap_cp)
        assert om[0] == pytest.approx(0.5, abs=1e-12)

    def test_cdf_monotone(self, two_gap, two_gap_cp):
        xs = np.linspace(-2.0, 3.0, 31)
        vals = [dos_cdf(two_gap, two_gap_cp, x) for x in xs]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_density_validation(self, two_gap, two_gap_cp):
        with pytest.raises(ValidationError):
            dos_density(two_gap, two_gap_cp, -0.5)  # gap point


class TestThouless:
    def test_identity_pointwise(self, one_gap, one_gap_cp):
        rc = robin_constant(one_gap, one_gap_cp)
        for z in (4.0, -3.0, 0.2 + 1.0j, one_gap_cp.c[0]):
            lhs = green(one_gap, one_gap_cp, z)
            rhs = rc + thouless_potential(one_gap, one_gap_cp, z)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_free_capacity_one(self, free_set):
        cp = critical_points(free_set)
        assert abs(robin_constant(free_set, cp)) < 1e-10

    def test_symmetric_one_gap_capacity(self, sym_one_gap, sym_one_gap_cp):
        # cap([-2,-1] u [1,2]) = sqrt(3)/2 via the quadratic preimage of [-2,2]
        assert robin_constant(sym_one_gap, sym_one_gap_cp) == pytest.approx(
            -np.log(np.sqrt(3.0) / 2.0), abs=1e-10
        )


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_geometry_invariants(data):
    seed = data.draw(st.integers(0, 2**31 - 1))
    n_gaps = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    gs = random_gap_system(rng, n_gaps)
    cp = critical_points(gs)
    assert all(a < c < b for c, (a, b) in zip(cp.c, gs.gaps))
    assert all(h > 0 for h in cp.h)
    om = frequencies(gs, cp)
    assert np.all(om > 0) and np.all(om < 1)
    assert np.all(np.diff(om) < 0)  # tail masses strictly decrease
