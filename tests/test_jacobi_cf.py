import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from conftest import random_divisor, random_gap_system, spaced_gap_system
from finitegap import jacobi_cf as jc
from finitegap.abel import shift_covariance_residual
from finitegap.errors import SolverError, ValidationError
from finitegap.herglotz import Divisor, _fixed_state, _pfromroots, _to_fixed, split_resolvents
from finitegap.spectral_set import GapSystem, frequencies
from oracle_stieltjes import halfline_measure, stieltjes_coefficients

# period-2 coefficients of the symmetric one-gap set with divisor (0.3, +1),
# frozen from the resolvent splitting: p^2 alternates between these values
_P2_HI = 2.1481463301100208
_P2_LO = 0.2618536698899794


_REMAINDER = "polynomial division remainder above tolerance"


def _chain(state, nsteps):
    """(qs, psqs, final state) of nsteps calls of cf_step."""
    qs, psqs = [], []
    for _ in range(nsteps):
        q, psq, state = jc.cf_step(state)
        qs.append(q)
        psqs.append(psq)
    return qs, psqs, state


def _bits(run):
    """A run of iterate or _chain with its floats as float.hex."""
    qs, psqs, state = run
    return [q.hex() for q in qs], [p.hex() for p in psqs], state


def _moved_t_states(n):
    """The site-0 state of a random divisor on an N-gap set with one T
    coefficient moved by 2^-80 of itself, once for each coefficient below
    the leading one."""
    gs = spaced_gap_system(np.random.default_rng(n), n)
    st = jc.initial_state(gs, random_divisor(gs, np.random.default_rng(n + 1), margin=0.01))
    for k in range(n + 1):
        t = list(st.t_coeffs)
        t[k] += abs(t[k]) >> 80
        yield replace(st, t_coeffs=tuple(t))


class TestCfStep:
    def test_free_fixed_point(self, free_set):
        st = jc.initial_state(free_set, Divisor(()))
        for _ in range(3):
            q, psq, st = jc.cf_step(st)
            assert q == pytest.approx(0.0, abs=1e-14)
            assert psq == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_period_two(self, sym_one_gap):
        st = jc.initial_state(sym_one_gap, Divisor(((0.3, 1),)))
        qs, psqs, _ = jc.iterate(st, 6)
        assert qs == pytest.approx([-0.3, 0.3, -0.3, 0.3, -0.3, 0.3], abs=1e-12)
        assert psqs == pytest.approx([_P2_HI, _P2_LO] * 3, abs=1e-12)

    def test_divisor_stays_in_gaps(self, three_gap, rng):
        st = jc.initial_state(three_gap, random_divisor(three_gap, rng))
        for _ in range(30):
            _, _, st = jc.cf_step(st)
            for (a, b), x in zip(three_gap.gaps, st.divisor.xs):
                assert a <= x <= b

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_remainder_test_rejects_a_moved_t_coefficient(self, n):
        # Pi no longer comes from polished roots, so the remainder test is
        # the one check that (T, Pi) still satisfies Pi | R - T^2
        for bad in _moved_t_states(n):
            for step in (jc.cf_step, lambda s: jc.iterate(s, 5), jc.dual_state):
                with pytest.raises(SolverError, match=_REMAINDER):
                    step(bad)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_failing_step_is_tried_once_at_the_state_bits(self, n, monkeypatch):
        # a step runs at the state's own bits only: a moved-T state raises at
        # its first division, after one attempt
        divide, widths = jc._reduce_divide, []

        def spy(t, pi, w, r_terms):
            widths.append(w)
            return divide(t, pi, w, r_terms)

        monkeypatch.setattr(jc, "_reduce_divide", spy)
        for bad in _moved_t_states(n):
            for step in (jc.cf_step, lambda s: jc.iterate(s, 5)):
                widths.clear()
                with pytest.raises(SolverError, match=_REMAINDER) as info:
                    step(bad)
                assert widths == [bad.prec]
                assert info.value.__cause__ is None

    def test_step_finds_no_divisor(self, three_gap, rng, monkeypatch):
        # roots and sheet signs are found only when CFState.divisor is read
        calls = []

        def spy(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("_gap_roots", "_eps_from_t"):
            monkeypatch.setattr(jc, name, spy(name, getattr(jc, name)))
        d = random_divisor(three_gap, rng)
        st = jc.initial_state(three_gap, d)
        jc.cf_step(st)
        jc.dual_state(st)
        jc.transfer_matrix(jc.coefficients(three_gap, d, -4, 9), 0.3 + 0.5j, 8)
        assert calls == []
        st.divisor
        assert calls == ["_gap_roots", "_eps_from_t"]

    def test_advanced_divisor_matches_resolvent_data(self, two_gap, rng):
        # p^2 produced by the step equals p0^2 of the advanced divisor
        from finitegap.herglotz import split_resolvents

        st = jc.initial_state(two_gap, random_divisor(two_gap, rng))
        for _ in range(5):
            _, psq, st = jc.cf_step(st)
            assert psq == pytest.approx(split_resolvents(two_gap, st.divisor).p0sq, rel=1e-10)

    def test_n8_moved_set_remainder_test(self):
        # N = 8 set on [-10.76, 2.35] from the benchmark's coeffs workload (seed
        # 404, request 101): in raw coordinates, where |x| reaches 10, the
        # step raised "polynomial division remainder above tolerance" at 256
        # bits and again after the retry at 512
        doc = {
            "band": [-10.764565259161568, 2.347342127590304],
            "gaps": [[-10.455233527018484, -9.990754360960945],
                     [-8.682906245581448, -6.445497962195155],
                     [-5.24906783065601, -4.7067784838470015],
                     [-2.2113939788656802, -1.8732104943178176],
                     [-1.4209940995420611, -1.0081113789187182],
                     [-0.7096183374102516, -0.32110386702242444],
                     [0.18743658263082175, 1.0740176148718703],
                     [1.43364730195737, 1.966789771855879]],
            "divisor": [{"x": -10.346884837964906, "eps": -1}, {"x": -8.204029149210061, "eps": 1},
                        {"x": -5.161200234498688, "eps": -1}, {"x": -2.0064282435709653, "eps": -1},
                        {"x": -1.2413627903998516, "eps": -1}, {"x": -0.4800697484163612, "eps": 1},
                        {"x": 0.284846069699325, "eps": -1}, {"x": 1.4637669019965713, "eps": 1}],
        }
        gs, d = GapSystem.from_json(doc), Divisor.from_json(doc)
        seg = jc.coefficients(gs, d, 0, 9, prec=256)
        qo, po = stieltjes_coefficients(*halfline_measure(gs, d), 9)
        bound = 1e-8 * gs.diameter / 4
        assert np.max(np.abs(qo - np.array(seg.q))) < bound
        assert np.max(np.abs(po - np.array(seg.p)[1:])) < bound


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_gaps=st.integers(1, 8),
    log_scale=st.floats(-3.0, 3.0),
    shift_share=st.floats(-1.0, 1.0),
)
def test_affine_covariance(seed, n_gaps, log_scale, shift_share):
    # under x -> scale x + shift the coefficients map by q -> shift + scale q
    # and p -> scale p, to the rounding of the moved endpoints and divisor
    scale, shift = 10.0**log_scale, 1e4 * shift_share
    base = spaced_gap_system(np.random.default_rng(seed), n_gaps)
    img = spaced_gap_system(np.random.default_rng(seed), n_gaps, scale, shift)
    rng = np.random.default_rng(seed + 1)
    share, eps = rng.uniform(0.01, 0.99, n_gaps), rng.choice([-1, 1], n_gaps)

    def window(gs):
        d = Divisor(tuple((a + u * (b - a), int(e)) for (a, b), u, e in zip(gs.gaps, share, eps)))
        seg = jc.coefficients(gs, d, -3, 8)
        return np.array(seg.q), np.array(seg.p)

    (q, p), (q_img, p_img) = window(base), window(img)
    tol = 64.0 * np.spacing(abs(shift) + 2.0 * scale)
    assert np.max(np.abs(q_img - (shift + scale * q))) <= tol
    assert np.max(np.abs(p_img - scale * p)) <= tol


# p_n, q_n on -8..8 of one set each at N = 1, 2, 3, 4, 6, 8, the sets at
# N = 2, 4, 8 scaled and moved as the benchmark moves its sets, frozen from
# the multiprecision-float continued fraction that preceded the fixed-point
# one; it gave the same floats at 128 and 256 bits
_PINNED = json.loads((Path(__file__).parent / "cf_pinned.json").read_text())


class TestWindow:
    # iterate runs a window as one loop on the integer lists of the state; it
    # must give the floats and the final state of the cf_step chain bit for bit

    @pytest.mark.parametrize("prec", [128, 256, 512])
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_window_equals_the_step_chain(self, n, prec):
        rng = np.random.default_rng([n, prec])
        gs = spaced_gap_system(rng, n, scale=3.0, shift=rng.uniform(-40.0, 40.0))
        st = jc.initial_state(gs, random_divisor(gs, rng, margin=0.01), prec)
        for start in (st, jc.dual_state(st)):
            assert _bits(jc.iterate(start, 12)) == _bits(_chain(start, 12))

    @pytest.mark.parametrize("n0, n1", [(0, 0), (0, 1), (0, 7), (-1, 0), (-4, 0), (-3, 12)])
    @pytest.mark.parametrize("n", [1, 4])
    def test_window_runs_the_divisions_it_reads(self, n, n0, n1, monkeypatch):
        # n1 forward divisions, or one at [0, 0]; for n0 < 0 the dual one and
        # |n0| backward ones
        divide, calls = jc._reduce_divide, []

        def spy(t, pi, w, r_terms):
            calls.append(w)
            return divide(t, pi, w, r_terms)

        monkeypatch.setattr(jc, "_reduce_divide", spy)
        gs = spaced_gap_system(np.random.default_rng(n), n)
        jc.coefficients(gs, random_divisor(gs, np.random.default_rng(n + 1)), n0, n1)
        assert len(calls) == (n1 or n0 == 0) + (1 - n0 if n0 else 0)

    @pytest.mark.parametrize("n0, calls", [(-3, 1), (0, 0)])
    def test_window_reaches_dual_state_by_name(self, two_gap, rng, monkeypatch, n0, calls):
        # the backward run starts from the public dual_state, looked up on the module
        # at call time, as a wrapper installed there sees it
        dual, seen = jc.dual_state, []
        monkeypatch.setattr(jc, "dual_state", lambda state: seen.append(state) or dual(state))
        jc.coefficients(two_gap, random_divisor(two_gap, rng), n0, 4)
        assert len(seen) == calls

    def test_r_terms_are_formed_once_per_initial_state(self, two_gap, rng, monkeypatch):
        # R's division terms are a field of the state: initial_state forms them, and every
        # state that cf_step, iterate and dual_state derive holds the same object
        terms, calls = jc._r_terms, []
        monkeypatch.setattr(jc, "_r_terms", lambda r, w: calls.append(w) or terms(r, w))
        d = random_divisor(two_gap, rng)
        st = jc.initial_state(two_gap, d)
        assert calls == [st.prec]
        derived = [jc.cf_step(st)[2], jc.iterate(st, 5)[2], jc.dual_state(st)]
        derived.append(jc.iterate(derived[-1], 3)[2])
        assert calls == [st.prec]
        assert all(s.r_terms is st.r_terms for s in derived)
        # a window forms them once, in its own initial_state
        jc.coefficients(two_gap, d, -4, 6)
        assert calls == [st.prec] * 2

    @pytest.mark.parametrize("n0, n1", [(0, 0), (-1, 0), (0, 1), (-2, 3)])
    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_window_tests_the_origin_state(self, n, n0, n1, monkeypatch):
        # at [0, 0] the one forward division is T_0's only remainder test
        for bad in _moved_t_states(n):
            monkeypatch.setattr(jc, "initial_state", lambda gs, d, prec, bad=bad: bad)
            with pytest.raises(SolverError, match=_REMAINDER):
                jc.coefficients(bad.gs, None, n0, n1)

@pytest.mark.parametrize("prec", [128, 256])
@pytest.mark.parametrize("doc", _PINNED, ids=[f"n{len(d['gaps'])}" for d in _PINNED])
def test_pinned_window(doc, prec):
    seg = jc.coefficients(GapSystem.from_json(doc), Divisor.from_json(doc), -8, 8, prec=prec)
    for got, want in ((seg.p, doc["p"]), (seg.q, doc["q"])):
        got, want = np.array(got), np.array(want)
        assert np.all(np.abs(got - want) <= np.spacing(np.maximum(np.abs(got), np.abs(want))))


@pytest.mark.parametrize("doc", _PINNED, ids=[f"n{len(d['gaps'])}" for d in _PINNED])
def test_split_resolvents_rounds_the_cf_state(doc):
    # split_resolvents and initial_state read one fixed-point build of T,
    # 4 p0^2 and q0, so at 128 bits the pair holds the CF state rounded to
    # float64, also on the set moved far from the origin
    for shift in (0.0, 1e4, 1e6):
        gs, d = GapSystem.from_json(doc), Divisor.from_json(doc)
        gs = GapSystem(gs.b0 + shift, gs.a0 + shift, tuple((a + shift, b + shift) for a, b in gs.gaps))
        d = Divisor(tuple((x + shift, e) for x, e in d.points))
        pair = split_resolvents(gs, d)
        st = jc.initial_state(gs, d, prec=128)
        half = Fraction(0.5 * (gs.a0 - gs.b0))
        assert pair.t_centred == tuple(c / 2**128 for c in st.t_coeffs)
        assert pair.p0sq == float(Fraction(st.four_p0sq, 2**130) * half**2)
        assert pair.q0 == jc.coefficients(gs, d, 0, 0, prec=128).q[0]


@pytest.mark.parametrize("doc", _PINNED, ids=[f"n{len(d['gaps'])}" for d in _PINNED])
def test_window_is_a_slice_of_the_wide_window(doc):
    gs, d = GapSystem.from_json(doc), Divisor.from_json(doc)
    wide = jc.coefficients(gs, d, -8, 8)
    for n0 in (-8, -1, 0):
        for n1 in (0, 1, 8):
            seg = jc.coefficients(gs, d, n0, n1)
            assert seg.p == wide.p[n0 + 8:n1 + 9] and seg.q == wide.q[n0 + 8:n1 + 9]


class TestGapRoots:
    # the root polisher at 256 bits on quotients with a root at the edge of
    # gap 1 = [-1, -0.5], and one more root in gap 2; roots are fixed-point
    # integers v standing for v / 2^256
    W = 256

    @classmethod
    def _roots(cls, root):
        ends = [cls._fixed(e, 2) for e in (-4, -2, -1, 1, 2, 4)]  # [-2, 2] with gaps [-1, -0.5], [0.5, 1]
        return jc._gap_roots(ends, _pfromroots([root, cls._fixed(7, 10)], cls.W), cls.W)

    @classmethod
    def _fixed(cls, num, den):
        return (num << cls.W) // den

    @pytest.mark.parametrize("edge, inward", [(-1.0, 1), (-0.5, -1)])
    def test_root_just_inside_endpoint(self, edge, inward):
        want = [self._fixed(int(2 * edge), 2) + inward * self._fixed(1, 2 * 10**30), self._fixed(7, 10)]
        for got, root in zip(self._roots(want[0]), want):
            assert abs(got - root) <= abs(root) >> 200

    @pytest.mark.parametrize("edge, outward", [(-1.0, -1), (-0.5, 1)])
    def test_root_just_outside_endpoint_is_the_endpoint(self, edge, outward):
        # 1e-12 gap widths outside: far below the escape distance, far above rounding
        end = self._fixed(int(2 * edge), 2)
        got = self._roots(end + outward * self._fixed(1, 2 * 10**12))
        assert got[0] == end
        assert abs(got[1] - self._fixed(7, 10)) <= self._fixed(7, 10) >> 200

    @pytest.mark.parametrize("edge, outward", [(-1.0, -1), (-0.5, 1)])
    def test_root_outside_gap_raises(self, edge, outward):
        with pytest.raises(SolverError, match="divisor root escaped gap 1") as exc:
            self._roots(self._fixed(int(2 * edge), 2) + outward * self._fixed(1, 2 * 10**6))
        # the residual is the root's distance to the gap, 5e-7
        assert exc.value.residual == pytest.approx(5e-7, rel=1e-6)

    def test_root_on_an_edge_at_the_rounding_floor(self):
        # x_1 = b_1: at 128 bits Newton's steps reach the rounding floor of f,
        # 3 to 27 units, above the tolerance of 1 unit
        gs = GapSystem(635.3469737832343, 684.3804613556226,
                       ((646.4618208016293, 657.5378736626162), (658.8686782278693, 671.2939172855669),
                        (675.2241015077735, 679.2965157625694)))
        d = Divisor(((657.5378736626162, 1), (669.2514023776356, 1), (675.2241015077736, -1)))
        _, ends, pi, _, _, _ = _fixed_state(gs, d, 128)
        xs = [_to_fixed((x - gs.frame[0]) / gs.frame[1], 128) for x in d.xs]
        roots = jc._gap_roots(ends, pi, 128)
        assert max(abs(r - x) for r, x in zip(roots, xs)) <= 2**5
        assert jc.initial_state(gs, d).divisor == d.validate(gs)


class TestSiteZeroDivisor:
    # on [-2, 2] the centred coordinate is exact, so the state at site 0
    # holds the divisor's points exactly and must read them back, with the
    # sign T gives a point however close to an edge it is, short of on it
    GS = GapSystem(-2.0, 2.0, ((-1.0, -0.5), (0.5, 1.0)))

    @pytest.mark.parametrize("share", [0.0, 1e-16, 1e-13, 1e-11])
    @pytest.mark.parametrize("eps", [1, -1])
    def test_points_next_to_an_edge_read_back(self, share, eps):
        gs = self.GS
        for j, (a, b) in enumerate(gs.gaps):
            for x in (a + share * (b - a), b - share * (b - a)):
                pts = [(x, eps) if k == j else (0.5 * (lo + hi), -eps) for k, (lo, hi) in enumerate(gs.gaps)]
                d = Divisor(tuple(pts))
                assert jc.initial_state(gs, d).divisor == d.validate(gs)
                assert shift_covariance_residual(gs, d, steps=0) == 0.0


class TestDualState:
    def test_free_self_dual(self, free_set):
        st = jc.initial_state(free_set, Divisor(()))
        dual = jc.dual_state(st)
        assert float(dual.p0sq) == pytest.approx(1.0, abs=1e-14)

    def test_involution(self, two_gap, rng):
        d = random_divisor(two_gap, rng, margin=0.05)
        st = jc.initial_state(two_gap, d)
        back = jc.dual_state(jc.dual_state(st))
        assert np.max(np.abs(np.array(back.divisor.xs) - np.array(d.xs))) < 1e-9
        assert back.divisor.eps == st.divisor.eps


class TestCoefficients:
    def test_free_window(self, free_set):
        seg = jc.coefficients(free_set, Divisor(()), -100, 100)
        assert max(abs(p - 1.0) for p in seg.p) < 1e-12
        assert max(abs(q) for q in seg.q) < 1e-12

    def test_window_validation(self, free_set):
        with pytest.raises(ValidationError):
            jc.coefficients(free_set, Divisor(()), 1, 5)

    def test_shift_covariance_of_segments(self, one_gap, rng):
        d = random_divisor(one_gap, rng)
        st = jc.initial_state(one_gap, d)
        k = 3
        for _ in range(k):
            _, _, st = jc.cf_step(st)
        seg0 = jc.coefficients(one_gap, d, 0, 12)
        segk = jc.coefficients(one_gap, st.divisor, 0, 12 - k)
        for n in range(0, 12 - k):
            assert segk.q_at(n) == pytest.approx(seg0.q_at(n + k), abs=1e-9)
            assert segk.p_at(n + 1) == pytest.approx(seg0.p_at(n + k + 1), abs=1e-9)

    def test_csv_export(self, free_set):
        seg = jc.coefficients(free_set, Divisor(()), 0, 2)
        lines = seg.to_csv().strip().splitlines()
        assert lines[0] == "n,p,q"
        assert len(lines) == 4


def _moved_set(n):
    """Fixed N-gap set scaled by 3 and translated by up to 90 % of its
    half-width, as the benchmark moves its sets, with a divisor."""
    rng = np.random.default_rng(0)
    shift = 3.0 * rng.uniform(-1.8, 1.8)
    gs = random_gap_system(rng, n, lo=shift - 6.0, hi=shift + 6.0)
    return gs, random_divisor(gs, rng, margin=0.01)


# N = 6 and 8 moved sets at two precisions, checked to criterion 4's bound
# per unit of diameter / 4
_MOVED = [
    pytest.param(lambda request, n=n: _moved_set(n), prec, None, id=f"n{n}-p{prec}")
    for n in (6, 8)
    for prec in (128, 256)
]


def _assert_as_at_512_bits(gs, d, seg):
    ref = jc.coefficients(gs, d, seg.n0, seg.n1, prec=512)
    assert np.max(np.abs(np.array(seg.q) - ref.q)) < 1e-13
    assert np.max(np.abs(np.array(seg.p) - ref.p)) < 1e-13


class TestStieltjesOracle:
    @pytest.mark.parametrize(
        "make, prec, tol",
        [
            pytest.param(lambda request, e=e: (request.getfixturevalue("one_gap"), Divisor(((0.2, e),))),
                         jc.DEFAULT_PREC, 1e-10, id=f"one_gap-eps{e:+d}")
            for e in (1, -1)
        ]
        + _MOVED,
    )
    def test_forward_window(self, request, make, prec, tol):
        gs, d = make(request)
        tol = tol or 1e-8 * max(1.0, gs.diameter / 4)
        xs, ws = halfline_measure(gs, d)
        assert ws.sum() == pytest.approx(1.0, abs=1e-10)
        qo, po = stieltjes_coefficients(xs, ws, 30)
        seg = jc.coefficients(gs, d, 0, 31, prec=prec)
        assert np.max(np.abs(qo - np.array(seg.q)[:31])) < tol
        assert np.max(np.abs(po - np.array(seg.p)[1:31])) < tol
        _assert_as_at_512_bits(gs, d, seg)

    @pytest.mark.parametrize(
        "make, prec, tol",
        [
            pytest.param(lambda request: (request.getfixturevalue("two_gap"),
                                          random_divisor(request.getfixturevalue("two_gap"),
                                                         request.getfixturevalue("rng"), margin=0.05)),
                         jc.DEFAULT_PREC, 1e-9, id="two_gap")
        ]
        + _MOVED,
    )
    def test_dual_side_measure(self, request, make, prec, tol):
        # negative-index coefficients come from the dual divisor's measure
        gs, d = make(request)
        tol = tol or 1e-8 * max(1.0, gs.diameter / 4)
        st = jc.initial_state(gs, d, prec=prec)
        dual = jc.dual_state(st)
        xs, ws = halfline_measure(gs, dual.divisor)
        qo, po = stieltjes_coefficients(xs, ws, 10)
        seg = jc.coefficients(gs, d, -11, 0, prec=prec)
        # dual forward coefficients are (q_-1, p_-1), (q_-2, p_-2), ...
        for n in range(10):
            assert qo[n] == pytest.approx(seg.q_at(-n - 1), abs=tol)
            assert po[n] == pytest.approx(seg.p_at(-n - 1), abs=tol)
        _assert_as_at_512_bits(gs, d, seg)

    @pytest.mark.parametrize("shift", [0.0, 1e2, 1e3])
    def test_measure_on_translated_sets(self, shift):
        # T and T' of the oracle come from the centred coefficients; read from
        # the raw monomials they found 5 atoms at shift 1e2 and a negative one
        # at 1e3
        rng = np.random.default_rng(7)
        gs = spaced_gap_system(rng, 4, shift=shift)
        xs, ws = halfline_measure(gs, random_divisor(gs, rng, margin=0.1))
        assert ws.sum() == pytest.approx(1.0, abs=1e-9)
        atoms = ws[400 * (gs.n_gaps + 1):]
        assert len(atoms) == 3 and np.all(atoms > 0)


class TestTransfer:
    def test_orthogonal_poly_start(self, one_gap, rng):
        seg = jc.coefficients(one_gap, random_divisor(one_gap, rng), 0, 5)
        p0, q0 = jc.orthogonal_polys(seg, 1.3 + 0.2j, 0)
        assert p0 == 1.0 and q0 == 0.0

    def test_free_chebyshev(self, free_set):
        # P_n(2 cos t) = sin((n+1)t)/sin(t) for the free matrix
        seg = jc.coefficients(free_set, Divisor(()), 0, 12)
        t = 0.7
        z = 2.0 * np.cos(t)
        for n in (1, 4, 9):
            pn, _ = jc.orthogonal_polys(seg, z, n)
            assert pn.real == pytest.approx(np.sin((n + 1) * t) / np.sin(t), abs=1e-12)

    def test_wronskian_constant(self, two_gap, rng):
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), 0, 12)
        z = 0.4 + 0.6j
        vals = []
        for n in range(0, 10):
            pn, qn = jc.orthogonal_polys(seg, z, n)
            pn1, qn1 = jc.orthogonal_polys(seg, z, n + 1)
            vals.append(seg.p_at(n + 1) * (pn1 * qn - pn * qn1))
        assert np.max(np.abs(np.diff(vals))) < 1e-12

    def test_det_one(self, three_gap, rng):
        seg = jc.coefficients(three_gap, random_divisor(three_gap, rng), 0, 51)
        # sample near the spectrum, where j-unitarity keeps the entries O(1)
        pts = np.concatenate(
            [np.linspace(lo + 0.05, hi - 0.05, 5) for lo, hi in three_gap.bands]
        )
        for z in list(pts) + [x + 0.05j for x in pts[:5]]:
            for n in (5, 25, 50):
                a = jc.transfer_matrix(seg, z, n - 1)
                assert abs(np.linalg.det(a) - 1.0) < 1e-10

    def test_det_one_relative_off_spectrum(self, three_gap, rng):
        seg = jc.coefficients(three_gap, random_divisor(three_gap, rng), 0, 31)
        for z in (2.0j, -2.5 + 1.0j):
            a = jc.transfer_matrix(seg, z, 30)
            scale = max(1.0, np.max(np.abs(a)) ** 2)
            assert abs(np.linalg.det(a) - 1.0) / scale < 1e-12

    def test_christoffel_darboux(self, two_gap, rng):
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), 0, 22)
        for n in (1, 7, 20):
            assert jc.cd_residual(seg, 0.3 + 0.9j, n) < 1e-8

    def test_cd_residual_matches_per_row_kernel_sum(self, two_gap, rng):
        # the kernel sum as Y^* Y against one outer product per row k
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), 0, 31)
        z = 0.3 + 0.9j
        for n in (0, 1, 7, 30):
            a = jc.transfer_matrix(seg, z, n)
            lhs = (a.conj().T @ jc._J @ a - jc._J) / (z - np.conj(z))
            rows = [np.array(jc.orthogonal_polys(seg, z, k), dtype=complex) for k in range(n + 1)]
            rhs = sum(np.outer(v.conj(), v) for v in rows)
            want = np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs)))
            assert jc.cd_residual(seg, z, n) == pytest.approx(want, abs=1e-15)

    def test_cd_needs_nonreal(self, free_set):
        seg = jc.coefficients(free_set, Divisor(()), 0, 5)
        with pytest.raises(ValidationError):
            jc.cd_residual(seg, 1.0, 2)

    @pytest.mark.parametrize("read, match", [
        (lambda seg: jc.transfer_matrix(seg, 0.5j, -1), "is negative"),
        (lambda seg: jc.orthogonal_polys(seg, 0.5j, seg.n1 + 1), "must cover"),
    ], ids=["negative_index", "past_the_window"])
    def test_reads_outside_the_segment(self, free_set, read, match):
        with pytest.raises(ValidationError, match=match):
            read(jc.coefficients(free_set, Divisor(()), 0, 5))

    @pytest.mark.parametrize("p, q, match", [
        ((1.0, 1.0), (0.0,), "length mismatch"),
        ((1.0, 1.0, 1.0), (0.0, 0.0), "length mismatch"),
        ((1.0, 0.0), (0.0, 0.0), "must be positive"),
        ((1.0, -1.0), (0.0, 0.0), "must be positive"),
    ])
    def test_segment_validation(self, p, q, match):
        with pytest.raises(ValidationError, match=match):
            jc.JacobiSegment(n0=0, n1=1, p=p, q=q)

    def test_j_unitary_on_real_line(self, two_gap, rng):
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), 0, 12)
        for x in (-1.5, 0.2, 2.4):
            assert jc.j_unitarity_residual(seg, x, 10) < 1e-8

    def test_j_expanding_upper_half_plane(self, two_gap, rng):
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), 0, 12)
        for z in (0.5j, 1.0 + 0.2j, -1.5 + 1.5j):
            assert jc.j_expanding_min_eig(seg, z, 10) >= -1e-10

    def test_hat_check_normalization(self, one_gap, rng):
        d = random_divisor(one_gap, rng)
        seg = jc.coefficients(one_gap, d, 0, 16)
        rep = jc.hat_check_normalization(one_gap, d, seg)
        assert rep["residual"] < 1e-8

    @pytest.mark.parametrize("scale_p1, shift_q0", [(1.0 + 1e-6, 0.0), (1.0, 1e-6)])
    def test_hat_check_flags_a_perturbed_segment(self, one_gap, rng, scale_p1, shift_q0):
        # p_1 scaled by 1 + 1e-6 moves the residual to 2e-6, q_0 moved by
        # 1e-6 to 3.6e-5
        d = random_divisor(one_gap, rng)
        seg = jc.coefficients(one_gap, d, 0, 16)
        bad = jc.JacobiSegment(n0=0, n1=16, p=(seg.p[0], seg.p[1] * scale_p1) + seg.p[2:],
                               q=(seg.q[0] + shift_q0,) + seg.q[1:])
        assert jc.hat_check_normalization(one_gap, d, bad)["residual"] > 1e-8

    def test_hat_check_needs_twelve_sites(self, one_gap, rng):
        d = random_divisor(one_gap, rng)
        with pytest.raises(ValidationError):
            jc.hat_check_normalization(one_gap, d, jc.coefficients(one_gap, d, 0, 11))


class TestTruncationSpectrum:
    def test_eigenvalues_near_hull(self, two_gap, rng):
        seg = jc.coefficients(two_gap, random_divisor(two_gap, rng), -200, 200)
        diag, off = jc.truncation_matrix(seg)
        ev = eigh_tridiagonal(diag, off)[0]
        assert ev.min() >= two_gap.b0 - 0.05
        assert ev.max() <= two_gap.a0 + 0.05


class TestAlmostPeriodicity:
    def test_free_all_zero(self, free_set):
        seg = jc.coefficients(free_set, Divisor(()), 0, 120)
        rep = jc.almost_periodicity_report(seg, np.zeros(0), delta=1.0, window=50)
        assert all(e["sup_discrepancy"] == 0.0 for e in rep)

    def test_rational_frequency_exact_period(self, sym_one_gap):
        om = frequencies(sym_one_gap)
        seg = jc.coefficients(sym_one_gap, Divisor(((0.3, 1),)), 0, 120)
        rep = jc.almost_periodicity_report(seg, om, delta=1e-6, window=60)
        by_n = {e["n"]: e for e in rep}
        assert by_n[2]["sup_discrepancy"] < 1e-11

    def test_matches_per_site_sup(self, one_gap, rng):
        om = frequencies(one_gap)
        seg = jc.coefficients(one_gap, random_divisor(one_gap, rng), -20, 99)
        rep = jc.almost_periodicity_report(seg, om, delta=1.0, window=40)
        assert sorted(e["n"] for e in rep) == list(range(1, 81))
        for e in rep:
            n = e["n"]
            want = max(abs(seg.q_at(k + n) - seg.q_at(k)) + abs(seg.p_at(k + n) - seg.p_at(k))
                       for k in range(-20, 20))
            assert e["sup_discrepancy"] == want

    def test_discrepancy_scales_with_torus_distance(self, one_gap, rng):
        om = frequencies(one_gap)
        seg = jc.coefficients(one_gap, random_divisor(one_gap, rng), 0, 300)
        rep = jc.almost_periodicity_report(seg, om, delta=0.05, window=50)
        assert rep, "expected at least one near-period"
        for e in rep:
            assert e["sup_discrepancy"] <= 20.0 * e["torus_distance"] + 1e-9
