import itertools

import numpy as np
import pytest

from conftest import spaced_gap_system
from finitegap import comb as cb
from finitegap.errors import SolverError, ValidationError
from finitegap.spectral_set import GapSystem, critical_points, frequencies


class TestCombData:
    def test_validation(self):
        with pytest.raises(ValidationError):
            cb.CombData(teeth=((0.5, 0.1), (0.5, 0.2)))  # duplicate frequency
        with pytest.raises(ValidationError):
            cb.CombData(teeth=((0.5, -0.1),))
        with pytest.raises(ValidationError):
            cb.CombData(teeth=((1.5, 0.1),))

    def test_widom_flag(self):
        finite = cb.CombData(teeth=((0.5, 0.3),), tail_bound=0.25)
        assert finite.is_widom
        diverging = cb.CombData(teeth=((0.5, 0.3),), tail_bound=np.inf)
        assert not diverging.is_widom

    def test_json_roundtrip(self):
        c = cb.CombData(teeth=((0.3, 0.5), (0.6, 0.2)), tail_bound=0.1)
        assert cb.CombData.from_json(c.to_json()) == c

    def test_rational_relation_search(self):
        rel = cb.CombData(teeth=((0.5, 0.1),)).rational_relation_report(max_coeff=3)
        assert (2,) in rel
        none = cb.CombData(teeth=((1 / np.pi, 0.1),)).rational_relation_report(max_coeff=3)
        assert none == []

    @pytest.mark.parametrize("n", range(1, 7))
    def test_relation_search_matches_mesh(self, n):
        rng = np.random.default_rng(n)
        twelfths = rng.choice(np.arange(1, 12), n, replace=False) / 12.0
        mixed = np.append(twelfths[: n - 1], 1.0 / np.pi)
        for omegas in (twelfths, rng.random(n), mixed):
            comb = cb.CombData(teeth=tuple((o, 0.1) for o in omegas))
            assert comb.rational_relation_report() == _mesh_relations(omegas)


class TestForwardMap:
    def test_symmetric_one_gap(self, sym_one_gap, sym_one_gap_cp):
        c = cb.comb_from_gaps(sym_one_gap, sym_one_gap_cp)
        assert c.omegas[0] == pytest.approx(0.5, abs=1e-12)
        assert c.heights[0] == pytest.approx(np.log(np.sqrt(3.0)), abs=1e-12)

    def test_heights_positive_three_gap(self, three_gap, three_gap_cp):
        c = cb.comb_from_gaps(three_gap, three_gap_cp)
        assert all(h > 0 for h in c.heights)
        assert c.delta0 == pytest.approx(np.exp(-sum(three_gap_cp.h)), abs=1e-14)


class TestInverseMap:
    def test_roundtrip_one_gap(self, sym_one_gap, sym_one_gap_cp):
        c = cb.comb_from_gaps(sym_one_gap, sym_one_gap_cp)
        bracket = GapSystem(-2.0, 2.0, ((-0.8, 0.9),))
        rec = cb.gaps_from_comb(c, bracket)
        assert np.allclose(rec.gaps, sym_one_gap.gaps, atol=1e-8)

    def test_roundtrip_two_gap(self, two_gap, two_gap_cp):
        c = cb.comb_from_gaps(two_gap, two_gap_cp)
        bracket = GapSystem(-2.0, 3.0, ((-1.1, -0.25), (0.7, 1.7)))
        rec = cb.gaps_from_comb(c, bracket)
        err = np.max(np.abs(np.asarray(rec.gaps) - np.asarray(two_gap.gaps)))
        assert err / two_gap.diameter < 1e-6

    def test_small_tooth_gives_small_gap(self):
        base = GapSystem(-2.0, 2.0, ((-0.1, 0.1),))
        c0 = cb.comb_from_gaps(base)
        tiny = cb.CombData(teeth=((c0.omegas[0], 1e-6),))
        rec = cb.gaps_from_comb(tiny, base)
        a, b = rec.gaps[0]
        assert b - a < 1e-2

    def test_requires_finite_comb(self, sym_one_gap):
        c = cb.CombData(teeth=((0.5, 0.3),), tail_bound=0.1)
        with pytest.raises(ValidationError):
            cb.gaps_from_comb(c, sym_one_gap)

    def test_bracket_mismatch(self, two_gap):
        c = cb.CombData(teeth=((0.5, 0.3),))
        with pytest.raises(ValidationError):
            cb.gaps_from_comb(c, two_gap)


def _perturbed_bracket(gs, rng):
    """gs with every interior endpoint moved by up to 10 % of the shorter of
    its two neighbouring segments, as the benchmark draws its brackets."""
    pts = list(gs.endpoints)
    moved = list(pts)
    for i in range(1, len(pts) - 1):
        room = min(pts[i] - pts[i - 1], pts[i + 1] - pts[i])
        moved[i] = pts[i] + room * rng.uniform(-0.1, 0.1)
    inner = moved[1:-1]
    return GapSystem(gs.b0, gs.a0, tuple(zip(inner[::2], inner[1::2])))


def _forward(gs, x, qtol=1e-13):
    """(omega, h) of gs with its interior endpoints replaced by x."""
    moved = GapSystem(gs.b0, gs.a0, tuple(zip(x[::2], x[1::2])))
    cp = critical_points(moved, qtol)
    return np.concatenate([frequencies(moved, cp, qtol), cp.h])


class TestCombJacobian:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_central_differences(self, n):
        """Against a 4th-order central difference of the forward map at 1e-4 of the
        diameter, on four moved sets per N, one of them shifted by 1e3."""
        rng = np.random.default_rng([n, 17])
        for scale, shift in [(1.0, 0.0), (0.3, -0.5), (3.0, 4.0), (1.0, 1e3)]:
            gs = spaced_gap_system(rng, n, scale=scale, shift=shift)
            jac = cb.comb_jacobian(gs, critical_points(gs, 1e-13), 1e-13)
            x = np.array(gs.endpoints[1:-1])
            step = 1e-4 * gs.diameter
            diff = np.empty_like(jac)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = step
                diff[:, i] = (8.0 * (_forward(gs, x + e) - _forward(gs, x - e))
                              - _forward(gs, x + 2 * e) + _forward(gs, x - 2 * e)) / (12.0 * step)
            err = np.abs(jac - diff).max(axis=1)
            assert np.all(err <= 1e-8 * np.abs(diff).max(axis=1))

    def test_no_gaps(self, free_set):
        assert cb.comb_jacobian(free_set, critical_points(free_set)).shape == (0, 0)


class TestLevenbergMarquardt:
    """The comb inverse, Newton with step halving.  The class keeps the name of
    the damped solver it first tested, so that its test ids stay put."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16])
    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (0.25, -0.4), (4.0, 6.5)])
    def test_moved_set_roundtrip(self, n, scale, shift):
        rng = np.random.default_rng([n, int(100 * scale)])
        for _ in range(2):
            gs = spaced_gap_system(rng, n, scale=scale, shift=shift,
                                   min_share=min(0.02, 0.3 / (2 * n + 1)))
            rec = cb.gaps_from_comb(cb.comb_from_gaps(gs), _perturbed_bracket(gs, rng))
            err = np.max(np.abs(np.asarray(rec.gaps) - np.asarray(gs.gaps)))
            assert err <= 1e-12 * gs.diameter

    def test_unreachable_comb_raises_with_residual(self, monkeypatch):
        # frequencies decrease from gap 1 to gap 2 on every 2-gap set
        comb = cb.CombData(teeth=((0.3, 0.2), (0.6, 0.2)))
        bracket = GapSystem(-2.0, 2.0, ((-1.0, -0.5), (0.5, 1.0)))
        seen = _record_inner_sets(monkeypatch)
        with pytest.raises(SolverError, match="did not reach tolerance") as info:
            cb.gaps_from_comb(comb, bracket)
        assert np.isfinite(info.value.residual) and info.value.residual > 1e-8
        # one start, then one trial point per iteration; the Jacobian solves nothing
        assert len(seen) <= 1 + cb._MAX_ITER

    def test_halved_step_on_feasible_comb(self, monkeypatch):
        # the full Newton step from this bracket raises the residual, so the
        # first accepted step is a halved one
        comb = cb.CombData(teeth=((0.3, 0.4),))
        bracket = GapSystem(-2.0, 2.0, ((-0.5, 0.5),))
        seen = _record_inner_sets(monkeypatch)
        jacobians, jacobian = [], cb.comb_jacobian

        def counting(*args):
            jacobians.append(args[0])
            return jacobian(*args)

        monkeypatch.setattr(cb, "comb_jacobian", counting)
        rec = cb.gaps_from_comb(comb, bracket)
        # without a rejected trial point, every evaluated set but the start
        # is an accepted iterate, and each of those but the last takes a Jacobian
        assert len(seen) > len(jacobians) + 1
        found = cb.comb_from_gaps(rec, qtol=1e-13)
        residual = np.concatenate([np.subtract(found.omegas, comb.omegas),
                                   np.subtract(found.heights, comb.heights)])
        assert np.max(np.abs(residual)) <= 1e-12

    def test_residual_sees_only_ordered_sets(self, monkeypatch, two_gap, two_gap_cp):
        seen = _record_inner_sets(monkeypatch)
        bracket = GapSystem(-2.0, 3.0, ((-1.1, -0.25), (0.7, 1.7)))
        cb.gaps_from_comb(cb.comb_from_gaps(two_gap, two_gap_cp), bracket)
        with pytest.raises(SolverError):
            cb.gaps_from_comb(cb.CombData(teeth=((0.3, 0.2), (0.6, 0.2))), bracket)
        with pytest.raises(SolverError):  # pushes the gap against both band edges
            cb.gaps_from_comb(cb.CombData(teeth=((0.4, 50.0),)),
                              GapSystem(-2.0, 3.0, ((0.0, 1.0),)))
        assert seen
        for gs in seen:  # GapSystem itself enforces a_1 < b_1 < ... < a_N < b_N
            margin = 1e-8 * gs.diameter
            assert gs.gaps[0][0] > gs.b0 + margin and gs.gaps[-1][1] < gs.a0 - margin


def _record_inner_sets(monkeypatch):
    """Every gap system the comb inverse hands to critical_points."""
    seen = []

    def recording(gs, *args, **kwargs):
        seen.append(gs)
        return critical_points(gs, *args, **kwargs)

    monkeypatch.setattr(cb, "critical_points", recording)
    return seen


class TestTruncation:
    def test_arithmetic(self):
        c = cb.CombData(teeth=((0.3, 0.5), (0.6, 0.2), (0.8, 0.05)))
        t = cb.truncate_comb(c, 10)
        assert t.teeth == ((0.3, 0.4), (0.6, 0.1))

    def test_large_n_recovers_heights(self):
        c = cb.CombData(teeth=((0.3, 0.5), (0.6, 0.2)))
        t = cb.truncate_comb(c, 10**9)
        assert np.allclose(t.heights, c.heights, atol=1e-8)

    def test_small_n_empties(self):
        c = cb.CombData(teeth=((0.3, 0.5),))
        assert cb.truncate_comb(c, 2).teeth == ()

    def test_delta_report_monotone_with_exact_limit(self):
        c = cb.CombData(teeth=((0.3, 0.5), (0.6, 0.2), (0.8, 0.05)))
        rep = cb.widom_delta_report(c, [2, 5, 10, 50, 10**12])
        vals = [r["delta_n0"] for r in rep]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(c.delta0, abs=1e-6)

    def test_geometric_tail_limit(self):
        # heights 2^-j sum to 1, so Delta(0) -> exp(-1)
        teeth = tuple((0.5 * (j + 1) / 22.0, 2.0 ** -(j + 1)) for j in range(20))
        c = cb.CombData(teeth=teeth)
        rep = cb.widom_delta_report(c, [10**9])
        assert rep[0]["delta_n0"] == pytest.approx(np.exp(-1.0), abs=1e-5)


class TestKernelTruncation:
    def test_envelopes(self, two_gap):
        up = cb.kernel_truncation_report(two_gap, [3, 10, 100], eps=-1)
        dn = cb.kernel_truncation_report(two_gap, [3, 10, 100], eps=1)
        for r in up:
            assert r["k0"] == pytest.approx(1.0, abs=1e-9)
        for r in dn:
            assert r["k0"] == pytest.approx(r["delta_n0"] ** 2, abs=1e-9)

    def test_generic_divisor_between_envelopes(self, two_gap):
        rep = cb.kernel_truncation_report(
            two_gap, [10, 100], eps=[1, -1], rel_positions=[0.3, 0.7]
        )
        for r in rep:
            assert r["delta_n0"] ** 2 - 1e-12 <= r["k0"] <= 1.0 + 1e-12


class TestSixGapRoundtrip:
    def test_relative_error(self):
        gs = GapSystem(
            -4.0, 4.0,
            ((-3.4, -3.0), (-2.4, -1.9), (-1.2, -0.8), (0.1, 0.5), (1.3, 1.9), (2.7, 3.2)),
        )
        c = cb.comb_from_gaps(gs)
        bracket = GapSystem(-4.0, 4.0, tuple((a + 0.03, b - 0.02) for a, b in gs.gaps))
        rec = cb.gaps_from_comb(c, bracket)
        err = np.max(np.abs(np.asarray(rec.gaps) - np.asarray(gs.gaps)))
        assert err / gs.diameter < 1e-6


def _mesh_relations(omegas, max_coeff=5):
    """The full (2 max_coeff + 1)^N mesh search, one value of the first
    coefficient at a time to bound memory; rows in lexicographic order."""
    span = range(-max_coeff, max_coeff + 1)
    rest = np.array(list(itertools.product(span, repeat=omegas.size - 1)), dtype=int)
    rest = rest.reshape(len(span) ** (omegas.size - 1), omegas.size - 1)
    found = []
    for first in span:
        mesh = np.concatenate([np.full((len(rest), 1), first), rest], axis=1)
        vals = mesh @ omegas
        near = np.abs(vals - np.round(vals)) < 1e-9
        found.extend(tuple(row) for row in mesh[near].tolist() if any(row))
    return found
