import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_gap_system, spaced_gap_system
from finitegap import spectral_set
from finitegap.abel import abel_map, kernel_at_origin
from finitegap.errors import SolverError, ValidationError
from finitegap.herglotz import Divisor
from finitegap.spectral_set import (
    GapSystem,
    critical_points,
    dos_cdf,
    dos_density,
    frequencies,
    gap_branch_sign,
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
        with pytest.raises(ValidationError, match="cannot locate nan"):
            two_gap.locate(float("nan"))

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

    @pytest.mark.parametrize("n", [*range(1, 9), 24, 32, 48, 64])
    def test_periods_vanish(self, n):
        # independent check: a 2^14-node Chebyshev rule written here, on sets
        # moved as the benchmark moves them; one set per N past 8, where every
        # band and gap is 0.3 / (2N + 1) of the diameter or more
        rng = np.random.default_rng(100 + n)
        for _ in range(4 if n <= 8 else 1):
            scale = float(np.exp(rng.uniform(np.log(0.25), np.log(4.0))))
            gs = spaced_gap_system(rng, n, scale, scale * rng.uniform(-1.8, 1.8),
                                   min_share=0.02 if n <= 8 else 0.3 / (2 * n + 1))
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
        monkeypatch.setattr(spectral_set, "_lagrange_roots", lambda xi, w: np.array([0.37, 0.38]))
        with pytest.raises(SolverError):
            critical_points(gs)

    def test_moved_root_raises(self, monkeypatch):
        # a zero moved by 1e-3 of its gap at N = 16 leaves that gap's period
        # residual 3e6 times its bound
        gs = spaced_gap_system(np.random.default_rng(3), 16, min_share=0.009)
        a, b = gs.centred.gaps[8]
        roots = spectral_set._lagrange_roots

        def moved(xi, w):
            s = np.sort(roots(xi, w))
            s[8] += 1e-3 * (b - a)
            return s

        critical_points(gs)
        # the cache entry holds the solved points; a fresh entry runs the period check
        spectral_set._harmonic_poly_coeffs.cache_clear()
        monkeypatch.setattr(spectral_set, "_lagrange_roots", moved)
        with pytest.raises(SolverError, match="period residual above tolerance"):
            critical_points(gs)


@pytest.fixture
def spies(monkeypatch):
    """The rule calls made through spectral_set, and the _lagrange_roots calls."""
    seen = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            seen.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("chebyshev_quad", "theta_partial_quad", "gl_quad", "_lagrange_roots"):
        monkeypatch.setattr(spectral_set, name, spy(name, getattr(spectral_set, name)))
    spectral_set._harmonic_poly_coeffs.cache_clear()
    return seen


class TestCriticalPointsCache:
    """The _harmonic_poly_coeffs entry of a set and qtol keeps its critical points."""

    def test_repeated_call_is_the_same_object(self, three_gap, spies):
        cp = critical_points(three_gap)
        assert spies == ["chebyshev_quad", "_lagrange_roots", "theta_partial_quad"]
        spies.clear()
        assert critical_points(three_gap) is cp
        assert critical_points(GapSystem(three_gap.b0, three_gap.a0, three_gap.gaps)) is cp
        assert spies == []

    def test_other_qtol_solves_again(self, three_gap, spies):
        cp = critical_points(three_gap)
        spies.clear()
        loose = critical_points(three_gap, 1e-10)
        assert loose is not cp
        assert spies == ["chebyshev_quad", "_lagrange_roots", "theta_partial_quad"]
        assert critical_points(three_gap, 1e-10) is loose
        assert spectral_set._harmonic_poly_coeffs.cache_info().currsize == 2

    def test_harmonic_measure_solves_no_critical_points(self, three_gap, spies):
        harmonic_measure(three_gap, 2, -3.0)
        divisor = Divisor(tuple((0.5 * (a + b), 1) for a, b in three_gap.gaps))
        abel_map(three_gap, divisor)
        assert "_lagrange_roots" not in spies
        spies.clear()
        critical_points(three_gap)
        # the moments are cached; the points are solved on this first request
        assert spies == ["_lagrange_roots", "theta_partial_quad"]

    def test_error_is_not_kept(self, monkeypatch):
        gs = GapSystem(b0=-2.0, a0=2.0, gaps=((-1.0, -0.5), (0.5, 1.0)))
        tries = []

        def lost(xi, w):
            tries.append(1)
            return np.array([0.37, 0.38])

        spectral_set._harmonic_poly_coeffs.cache_clear()
        monkeypatch.setattr(spectral_set, "_lagrange_roots", lost)
        for attempt in (1, 2):
            with pytest.raises(SolverError, match="critical point outside its gap"):
                critical_points(gs)
            assert len(tries) == attempt

    def test_cache_clear_drops_the_points(self, three_gap, spies):
        cp = critical_points(three_gap)
        spectral_set._harmonic_poly_coeffs.cache_clear()
        spies.clear()
        again = critical_points(three_gap)
        assert again is not cp and again == cp
        assert spies == ["chebyshev_quad", "_lagrange_roots", "theta_partial_quad"]


class TestBandMassesCache:
    """The _harmonic_poly_coeffs entry of a set and qtol keeps the dos masses of its bands."""

    # critical points converge here, while the Chebyshev rule over the bands does not
    THIN = GapSystem(b0=-2.0, a0=2.0, gaps=((1.5698628375269088, 1.56986283780736),))

    def test_integrated_once(self, three_gap, spies):
        critical_points(three_gap)
        entry = spectral_set._harmonic_poly_coeffs(three_gap, 1e-12)
        spies.clear()
        masses = entry.band_masses
        assert spies == ["chebyshev_quad"] and masses.shape == (4,)
        assert entry.band_masses is masses
        frequencies(three_gap)
        dos_cdf(three_gap, three_gap.a0)
        dos_cdf(three_gap, -1.7)  # in gap 1
        assert spies == ["chebyshev_quad"]
        # a point in a band integrates that band alone
        dos_cdf(three_gap, 0.5)
        assert spies == ["chebyshev_quad", "theta_partial_quad"]

    def test_other_readers_integrate_no_masses(self, three_gap, spies):
        for z in (-1.7, 4.0, 0.3 + 1.0j):
            green(three_gap, z)
        harmonic_measure(three_gap, 2, -1.7)
        abel_map(three_gap, Divisor(tuple((0.5 * (a + b), 1) for a, b in three_gap.gaps)))
        assert "band_masses" not in vars(spectral_set._harmonic_poly_coeffs(three_gap, 1e-12))

    def test_error_is_not_kept(self, spies):
        cp = critical_points(self.THIN)
        for _ in range(2):
            spies.clear()
            with pytest.raises(SolverError, match="Chebyshev doubling did not converge"):
                frequencies(self.THIN)
            assert spies == ["chebyshev_quad"]
        assert critical_points(self.THIN) is cp

    def test_cache_clear_drops_the_masses(self, three_gap, spies):
        critical_points(three_gap)
        masses = spectral_set._harmonic_poly_coeffs(three_gap, 1e-12).band_masses
        spectral_set._harmonic_poly_coeffs.cache_clear()
        critical_points(three_gap)
        spies.clear()
        again = spectral_set._harmonic_poly_coeffs(three_gap, 1e-12).band_masses
        assert again is not masses and np.array_equal(again, masses)
        assert spies == ["chebyshev_quad"]


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
        for z in (3.0, -2.5, 1.0 + 2.0j, 0.5 + 0.1j):
            # branch of sqrt(z^2-4) that behaves like z at infinity
            sr = np.sqrt(complex(z) - 2.0) * np.sqrt(complex(z) + 2.0)
            expect = np.log(abs((z + sr) / 2.0))
            assert green(free_set, z) == pytest.approx(expect, abs=1e-10)

    def test_zero_on_bands(self, two_gap):
        for x in (-1.5, 0.3, 2.5):
            assert green(two_gap, x) == 0.0

    def test_maximum_at_critical_point(self, one_gap, one_gap_cp):
        c = one_gap_cp.c[0]
        h = one_gap_cp.h[0]
        assert green(one_gap, c) == pytest.approx(h, abs=1e-12)
        assert green(one_gap, c + 0.1) < h
        assert green(one_gap, c - 0.1) < h

    def test_positive_off_set(self, two_gap):
        for z in (-3.0, 4.0, 1.2, 1.0j):
            assert green(two_gap, z) > 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_thouless_identity_off_the_axis(self, n):
        # 6 upper-half-plane points (Im 1e-3..1 diameters) and 12 outer real
        # points per N, on sets moved as in test_stacked_quadrature: each ray
        # from the nearest branch point converges, and G = c + int log|z - x| d omega
        rng = np.random.default_rng(100 + n)
        scale, shift = ((1.0, 0.0), (1e-2, 3.0), (1.0, 100.0), (50.0, -1e4))[n % 4]
        gs = spaced_gap_system(rng, n, scale=scale, shift=shift)
        rc = robin_constant(gs)
        d = gs.diameter
        upper = rng.uniform(gs.b0, gs.a0, 6) + 1j * d * 10 ** rng.uniform(-3, 0, 6)
        outer = np.concatenate([gs.b0 - d * 10 ** rng.uniform(-3, 1, 6),
                                gs.a0 + d * 10 ** rng.uniform(-3, 1, 6)])
        for z in (*upper, *outer):
            g = green(gs, z)
            assert g > 0.0
            assert abs(g - rc - thouless_potential(gs, z)) <= 1e-10 * max(1.0, g)
            assert green(gs, np.conj(z)) == g

    @pytest.mark.parametrize("n", [24, 32, 48, 64])
    def test_thouless_identity_many_gaps(self, n):
        # G = c + int log|z - x| d omega at 4 upper-half-plane and 4 outer real
        # points, with the sets at N = 32 and 64 scaled and moved
        rng = np.random.default_rng(100 + n)
        scale, shift = {24: (1.0, 0.0), 32: (0.5, 40.0), 48: (1.0, 0.0), 64: (1e-2, 3.0)}[n]
        gs = spaced_gap_system(rng, n, scale=scale, shift=shift, min_share=0.3 / (2 * n + 1))
        rc = robin_constant(gs)
        d = gs.diameter
        upper = rng.uniform(gs.b0, gs.a0, 4) + 1j * d * 10 ** rng.uniform(-2, 0, 4)
        outer = np.concatenate([gs.b0 - d * 10 ** rng.uniform(-2, 1, 2),
                                gs.a0 + d * 10 ** rng.uniform(-2, 1, 2)])
        for z in (*upper, *outer):
            g = green(gs, z)
            assert abs(g - rc - thouless_potential(gs, z)) <= 1e-12 * max(1.0, g)

    @pytest.mark.parametrize("name", ["thin_band", "thin_gap"])
    def test_complex_points_near_an_edge(self, name, request):
        # 1e-9 to 1e-1 diameters from each branch point, in every direction
        # of the upper half-plane
        gs = request.getfixturevalue(name)
        rng = np.random.default_rng(7)
        for e in gs.endpoints:
            r = gs.diameter * 10 ** rng.uniform(-9, -1, 6)
            for z in e + r * np.exp(1j * rng.uniform(0.01, np.pi - 0.01, 6)):
                assert np.isfinite(green(gs, z)) and green(gs, z) >= 0.0

    def test_gap_point_next_to_an_edge(self, two_gap, two_gap_cp):
        # 2e-13 inside gap 1 from a_1 = -1 and from b_1 = -0.3: G = 2 sqrt|x - e| |P(e)|
        # / sqrt|R'(e)| up to a relative O(x - e)
        a, b = two_gap.gap(1)
        for e, x in ((a, a + 2e-13), (b, b - 2e-13)):
            rest = np.array([f for f in two_gap.endpoints if f != e])
            lead = 2.0 * np.sqrt(abs(x - e)) * np.prod(np.abs(e - np.array(two_gap_cp.c))) / np.sqrt(
                np.prod(np.abs(e - rest)))
            assert green(two_gap, x) == pytest.approx(lead, rel=1e-9)
            assert green(two_gap, complex(x, 0.0)) == green(two_gap, x)


class TestHarmonicMeasure:
    def test_band_boundary_values(self, two_gap):
        assert harmonic_measure(two_gap, 1, -1.5) == 0.0
        assert harmonic_measure(two_gap, 1, 0.0) == 1.0
        assert harmonic_measure(two_gap, 2, 0.0) == 0.0
        assert harmonic_measure(two_gap, 2, 2.0) == 1.0

    def test_gap_increment_identity(self, two_gap):
        # omega_k(b_j) - omega_k(a_j) = delta_kj
        for k in (1, 2):
            for j in (1, 2):
                a, b = two_gap.gap(j)
                inc = harmonic_measure(two_gap, k, b) - harmonic_measure(two_gap, k, a)
                assert inc == pytest.approx(1.0 if k == j else 0.0, abs=1e-10)

    def test_range_in_unit_interval(self, two_gap):
        for x in np.linspace(-3.0, 4.0, 41):
            v = harmonic_measure(two_gap, 1, x)
            assert -1e-10 <= v <= 1.0 + 1e-10

    def test_qtol_reaches_period_matrix(self, two_gap, two_gap_cp, monkeypatch):
        # in a gap the only Chebyshev quadrature is the period matrix's: one
        # vector quadrature of the N + 1 moments over the stack of gaps; the
        # partial integrals of h (one stack), of G in a gap and of omega in a
        # gap take qtol too
        seen, seen_partial = [], []
        quad, partial = spectral_set.chebyshev_quad, spectral_set.theta_partial_quad

        def spy(g, lo, hi, qtol):
            seen.append(qtol)
            return quad(g, lo, hi, qtol)

        def spy_partial(g, lo, hi, x, qtol=None):
            seen_partial.append(qtol)
            return partial(g, lo, hi, x, qtol)

        monkeypatch.setattr(spectral_set, "chebyshev_quad", spy)
        monkeypatch.setattr(spectral_set, "theta_partial_quad", spy_partial)
        spectral_set._harmonic_poly_coeffs.cache_clear()
        loose = harmonic_measure(two_gap, 1, -0.6, qtol=1e-6)
        assert seen == [1e-6]
        assert seen_partial == [1e-6]
        assert loose == pytest.approx(harmonic_measure(two_gap, 1, -0.6), abs=1e-6)
        seen_partial.clear()
        cp = critical_points(two_gap, qtol=1e-6)
        green(two_gap, -0.6, qtol=1e-6)
        assert seen_partial == [1e-6] * 2
        assert cp.h == pytest.approx(two_gap_cp.h, abs=1e-6)

    @pytest.mark.parametrize("x", [-3.0, -2.1, 3.1, 4.0, 50.0])
    def test_outside_the_set(self, two_gap, x):
        # omega_k(x) = omega_k(edge) + int_edge^x P_k / sqrt(R) from the nearest
        # edge, where sqrt(R) = +-sqrt|R| (+ right of a0, (-1)^(N+1) left of
        # b0); scipy's algebraic weight takes the edge singularity
        from scipy.integrate import quad

        # P_k(t) dt / sqrt|R(t)| = half^N P_k(s) ds / sqrt|R(s)| on the centred set
        ends = np.array(two_gap.endpoints)
        mid, half = two_gap.frame
        cs = two_gap.centred
        for k in (1, 2):
            coeffs = spectral_set._harmonic_poly_coeffs(two_gap, 1e-12).coeffs[k - 1]
            poly = spectral_set._lagrange_basis(cs, coeffs)
            if x > two_gap.a0:
                rest = ends[ends != two_gap.a0]
                f = lambda t: half**2 * poly((t - mid) / half) / np.sqrt(
                    np.prod(np.abs(t - rest)))
                ref = 1.0 + quad(f, two_gap.a0, x, weight="alg", wvar=(-0.5, 0.0),
                                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
            else:
                rest = ends[ends != two_gap.b0]
                f = lambda t: half**2 * poly((t - mid) / half) / np.sqrt(
                    np.prod(np.abs(t - rest)))
                ref = quad(f, x, two_gap.b0, weight="alg", wvar=(0.0, -0.5),
                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
            assert harmonic_measure(two_gap, k, x) == pytest.approx(ref, rel=1e-10)

    def test_tends_to_frequencies(self, two_gap):
        # harmonic measure at infinity of E_k is the dos mass of bands k..N,
        # which frequencies computes from band integrals
        om = frequencies(two_gap)
        for x in (-1e6 * two_gap.diameter, 1e6 * two_gap.diameter):
            for k in (1, 2):
                assert abs(harmonic_measure(two_gap, k, x) - om[k - 1]) < 1e-5

    def test_density_at_a_node(self, sym_one_gap):
        # x = 0 is the Lagrange node of the gap, where the basis takes its value at
        # the node instead of dividing by s - xi = 0
        d = harmonic_measure_density(sym_one_gap, 1, 0.0)
        assert np.isfinite(d)
        assert d == pytest.approx(harmonic_measure_density(sym_one_gap, 1, 1e-9), rel=1e-12)

    def test_at_gap_midpoints(self):
        # dyadic endpoints put every gap midpoint exactly on its node; the
        # value there is the mean of its neighbours 2^-30 away to 1e-15
        gs = GapSystem(-2.0, 2.0, ((-1.5, -1.25), (-0.5, 0.25), (0.75, 1.5)))
        for j, (a, b) in enumerate(gs.gaps, start=1):
            x = 0.5 * (a + b)
            for k in (1, 2, 3):
                mean = 0.5 * (harmonic_measure(gs, k, x - 2**-30) + harmonic_measure(gs, k, x + 2**-30))
                assert np.isfinite(harmonic_measure(gs, k, x))
                assert harmonic_measure(gs, k, x) == pytest.approx(mean, abs=1e-15)

    def test_density_sign(self, two_gap):
        # omega_1 decreases through gap 2 toward the right tail piece E_2 complement
        d = harmonic_measure_density(two_gap, 1, 1.2)
        fd = (harmonic_measure(two_gap, 1, 1.201) - harmonic_measure(two_gap, 1, 1.199)) / 0.002
        assert d == pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("k", [0, -1, 3])
    def test_density_gap_index(self, two_gap, k):
        # k indexes the coefficient rows, so 0 and -1 would read gaps 2 and 1
        with pytest.raises(ValidationError, match="gap index"):
            harmonic_measure_density(two_gap, k, 1.2)
        with pytest.raises(ValidationError, match="gap index"):
            gap_branch_sign(two_gap, k)

    @pytest.mark.parametrize("x, match", [(0.0, "open gaps only"), (1.6 - 1e-14, "blow-up"),
                                          (0.8 + 1e-14, "blow-up")])
    def test_density_needs_a_point_inside_a_gap(self, two_gap, x, match):
        with pytest.raises(ValidationError, match=match):
            harmonic_measure_density(two_gap, 1, x)


class TestDensityOfStates:
    def test_free_arcsine(self, free_set):
        for x in (-1.0, 0.0, 1.3):
            assert dos_density(free_set, x) == pytest.approx(
                1.0 / (np.pi * np.sqrt(4.0 - x * x)), abs=1e-14
            )

    @pytest.mark.parametrize("b0, a0", [(-2.0, 2.0), (9500.0, 10500.0), (-7.002, -6.998)],
                             ids=["free", "moved", "scaled"])
    def test_free_cdf_is_the_arcsine_law(self, b0, a0):
        # with no gaps the dos is the equilibrium measure of [b0, a0]
        gs = GapSystem(b0=b0, a0=a0)
        mid, half = gs.frame
        for x in (b0 - half, b0, b0 + 1e-3 * half, mid - 0.4 * half, mid, mid + 0.7 * half,
                  a0 - 1e-9 * half, a0, a0 + half):
            s = min(1.0, max(-1.0, (x - mid) / half))
            assert abs(dos_cdf(gs, x) - (0.5 + np.arcsin(s) / np.pi)) <= 1e-14
        assert frequencies(gs).shape == (0,)

    def test_total_mass(self, three_gap):
        assert dos_cdf(three_gap, three_gap.a0) == pytest.approx(1.0, abs=1e-10)

    def test_frequencies_match_symmetric_half(self, sym_one_gap):
        om = frequencies(sym_one_gap)
        assert om[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_translation_moves_no_mass(self, n):
        # endpoints on a 2^-20 grid make E + 1e4 exact in float64, with the same
        # centred set as E: the dos masses, taken there with the centred roots,
        # agree to rounding, which the raw c_j at 1e4 cannot give
        def grid(x):
            return round(x * 2**20) / 2**20

        ends = [grid(e) for e in spaced_gap_system(np.random.default_rng(n), n).endpoints]
        gs, img = (GapSystem(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))
                   for e in (ends, [x + 1e4 for x in ends]))
        assert np.max(np.abs(frequencies(img) - frequencies(gs))) <= 1e-14
        for lo, hi in gs.bands:
            x = grid(lo + 0.3 * (hi - lo))
            assert abs(dos_cdf(img, x + 1e4) - dos_cdf(gs, x)) <= 1e-14

    def test_cdf_monotone(self, two_gap):
        xs = np.linspace(-2.0, 3.0, 31)
        vals = [dos_cdf(two_gap, x) for x in xs]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_density_validation(self, two_gap):
        with pytest.raises(ValidationError):
            dos_density(two_gap, -0.5)  # gap point
        with pytest.raises(ValidationError, match="band endpoint"):
            dos_density(two_gap, -1.0 - 1e-14)


@pytest.mark.parametrize("n", range(1, 9))
def test_readers_of_critical_points_are_covariant(n):
    # endpoints, points and divisor on a 2^-20 grid make x -> alpha x + beta exact in
    # float64 for beta = 1e4 and alpha = 2^-10, 2^10: G and the kernel at the origin
    # are invariant, the Robin constant moves by -log alpha and the Thouless
    # potential by log alpha
    def grid(x):
        return round(x * 2**20) / 2**20

    rng = np.random.default_rng(n)
    ends = [grid(e) for e in spaced_gap_system(rng, n).endpoints]
    gaps = list(zip(ends[1:-1:2], ends[2:-1:2]))
    zs = [grid(ends[-1] + 0.75), grid(ends[0] - 0.25), complex(grid(ends[1] + 0.3), 0.5),
          *(grid(a + 0.3 * (b - a)) for a, b in gaps)]
    points = [(grid(a + 0.6 * (b - a)), int(rng.choice([-1, 1]))) for a, b in gaps]

    def readers(alpha, beta):
        gs = GapSystem(alpha * ends[0] + beta, alpha * ends[-1] + beta,
                       tuple((alpha * a + beta, alpha * b + beta) for a, b in gaps))
        divisor = Divisor(tuple((alpha * x + beta, e) for x, e in points))
        return np.array([
            *(green(gs, alpha * z + beta) for z in zs),
            *(thouless_potential(gs, alpha * z + beta) - np.log(alpha) for z in zs),
            robin_constant(gs) + np.log(alpha),
            kernel_at_origin(gs, divisor),
        ])

    base = readers(1.0, 0.0)
    for alpha, beta in ((1.0, 1e4), (2.0**-10, 0.0), (2.0**10, 0.0), (2.0**-10, 1e4)):
        assert np.all(np.abs(readers(alpha, beta) - base) <= 1e-13 * np.maximum(1.0, np.abs(base)))


class TestThouless:
    def test_identity_pointwise(self, one_gap, one_gap_cp):
        rc = robin_constant(one_gap)
        for z in (4.0, -3.0, 0.2 + 1.0j, one_gap_cp.c[0]):
            lhs = green(one_gap, z)
            rhs = rc + thouless_potential(one_gap, z)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_free_capacity_one(self, free_set):
        assert abs(robin_constant(free_set)) < 1e-10

    def test_symmetric_one_gap_capacity(self, sym_one_gap):
        # cap([-2,-1] u [1,2]) = sqrt(3)/2 via the quadratic preimage of [-2,2]
        assert robin_constant(sym_one_gap) == pytest.approx(
            -np.log(np.sqrt(3.0) / 2.0), abs=1e-10
        )

    @pytest.mark.parametrize("scale, shift", [(1.0, 100.0), (1e-3, 0.0), (1e-3, 7.0), (250.0, 1e4)])
    def test_moved_symmetric_one_gap_capacity(self, scale, shift):
        # cap = sqrt(3)/2 scale for the image of [-2,-1] u [1,2]
        gs = GapSystem(shift - 2.0 * scale, shift + 2.0 * scale, ((shift - scale, shift + scale),))
        assert robin_constant(gs) == pytest.approx(
            -np.log(np.sqrt(3.0) / 2.0 * scale), abs=1e-12
        )

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_robin_constant_affine_covariance(self, n):
        # c(alpha E + beta) = c(E) - log alpha; endpoints on a 2^-20 grid
        # make every image exact in float64
        def grid(x):
            return round(x * 2**20) / 2**20

        base = spaced_gap_system(np.random.default_rng(n), n)
        ends = [grid(e) for e in base.endpoints]
        c0 = robin_constant(self._moved(ends, 1.0, 0.0))
        for alpha, beta in ((2.0**-10, 0.0), (2.0**10, 0.0), (1.0, 100.0), (0.125, -7.0), (256.0, 1e4)):
            assert robin_constant(self._moved(ends, alpha, beta)) == pytest.approx(
                c0 - np.log(alpha), abs=1e-12
            )

    @staticmethod
    def _moved(ends, alpha, beta):
        e = [alpha * x + beta for x in ends]
        return GapSystem(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2])))


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
    om = frequencies(gs)
    assert np.all(om > 0) and np.all(om < 1)
    assert np.all(np.diff(om) < 0)  # tail masses strictly decrease


def test_singular_period_matrix_raises_and_the_cli_exits_3(monkeypatch, capsys, tmp_path):
    # every moment zero: the period matrix is singular, a SolverError that is not cached
    edge_integral = spectral_set._edge_integral
    monkeypatch.setattr(spectral_set, "_edge_integral",
                        lambda *args: np.zeros_like(edge_integral(*args)))
    gs = GapSystem(-2.0, 2.0, ((-0.7, 0.45),))
    with pytest.raises(SolverError, match="singular period matrix"):
        critical_points(gs)
    path = tmp_path / "in.json"
    path.write_text('{"band": [-2.0, 2.0], "gaps": [[-0.7, 0.45]]}')
    from finitegap.cli import main
    assert main(["critical", "--input", str(path)]) == 3
    assert capsys.readouterr().out == ""
    monkeypatch.undo()
    assert np.all(np.isfinite(critical_points(gs).c))
