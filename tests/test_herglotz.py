import json
from dataclasses import fields, replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_divisor, spaced_gap_system
from finitegap.errors import ValidationError
from finitegap.herglotz import (
    Divisor,
    HerglotzPair,
    r00,
    reflectionless_residual,
    split_resolvents,
    wronskian_residual,
)
from finitegap.spectral_set import GapSystem


class TestDivisor:
    def test_validation(self, two_gap):
        with pytest.raises(ValidationError):
            Divisor(((0.0, 2),))
        with pytest.raises(ValidationError, match="divisor has 1 points, gap system has 2 gaps"):
            Divisor(((-0.6, 1),)).validate(two_gap)  # wrong count
        with pytest.raises(ValidationError, match=r"divisor point -1.5 outside closed gap 1 \[-1.0, -0.3\]"):
            Divisor(((-1.5, 1), (1.0, 1))).validate(two_gap)  # outside gap

    def test_endpoint_normalization(self, two_gap):
        d = Divisor(((-1.0, -1), (1.1, -1))).validate(two_gap)
        assert d.points[0] == (-1.0, 1)
        assert d.points[1] == (1.1, -1)

    def test_validate_puts_both_gap_ends_on_the_upper_sheet(self, two_gap):
        d = Divisor(((-1.0, -1), (1.6, -1)))
        assert d.validate(two_gap).points == ((-1.0, 1), (1.6, 1))
        assert d.validate(two_gap).validate(two_gap) == d.validate(two_gap)

    def test_json_roundtrip(self):
        d = Divisor(((-0.6, 1), (1.1, -1)))
        assert Divisor.from_json(d.to_json()) == d


class TestDiagonalResolvent:
    def test_free_closed_form(self, free_set):
        d = Divisor(())
        # R00 = -1/sqrt(z^2-4); at 2i equals i/(2 sqrt 2)
        assert r00(free_set, d, 2j) == pytest.approx(1j / (2.0 * np.sqrt(2.0)), abs=1e-14)
        for z in (3.0 + 1.0j, -1.0 + 0.5j):
            # branch of sqrt(z^2-4) that behaves like z at infinity
            sr = np.sqrt(z - 2.0) * np.sqrt(z + 2.0)
            assert r00(free_set, d, z) == pytest.approx(-1.0 / sr, abs=1e-14)

    def test_herglotz_upper_half_plane(self, two_gap):
        d = Divisor(((-0.6, 1), (1.1, -1)))
        for z in (1.0j, -1.5 + 0.3j, 2.0 + 2.0j):
            assert np.imag(r00(two_gap, d, z)) > 0


class TestSplitResolvents:
    def test_free_jacobi(self, free_set):
        pair = split_resolvents(free_set, Divisor(()))
        assert pair.p0sq == pytest.approx(1.0, abs=1e-14)
        assert pair.q0 == pytest.approx(0.0, abs=1e-14)
        assert tuple(pair.t_coeffs) == pytest.approx((0.0, 1.0), abs=1e-14)

    def test_pair_stores_t_once(self, two_gap, three_gap, rng, monkeypatch):
        assert [f.name for f in fields(HerglotzPair)] == ["gs", "divisor", "t_centred", "p0sq", "q0"]
        pair = split_resolvents(two_gap, random_divisor(two_gap, rng))
        other = split_resolvents(two_gap, random_divisor(two_gap, rng))
        # the raw export follows t_centred, so a replaced pair cannot disagree with itself
        assert replace(pair, t_centred=other.t_centred).t_coeffs == other.t_coeffs

        def no_convolve(*args, **kwargs):
            raise AssertionError("split_resolvents builds the raw export")

        monkeypatch.setattr(np, "convolve", no_convolve)
        split_resolvents(three_gap, random_divisor(three_gap, rng))

    @pytest.mark.parametrize("name, shift, expected", [
        ("n0_free", 0.0, ("0x0.0p+0", "0x1.0000000000000p+0")),
        ("n1_symmetric", 0.0, ("0x1.cbd9d5f5b09e7p+0", "0x0.0p+0", "0x1.0000000000000p+0")),
        ("n2_asymmetric", 0.0, ("0x1.d0a0fdf4b1ebep+0", "-0x1.eb1dee295a102p-3",
                                "-0x1.0cccccccccccep+0", "0x1.0000000000000p+0")),
        ("n3_three_gap", 0.0, ("-0x1.2d628cf18f4e6p+1", "-0x1.253064231edfep-2", "-0x1.7d89a6c93e5dep+1",
                               "0x1.3333333333330p-2", "0x1.0000000000000p+0")),
        ("n2_asymmetric", 1e2, ("-0x1.ed65468d1c20cp+19", "0x1.d8070a7108eb6p+14",
                                "-0x1.2d0cccccccccdp+8", "0x1.0000000000000p+0")),
        ("n2_asymmetric", 1e4, ("-0x1.d1b5ce65c04e7p+39", "0x1.1e1f507c29c42p+28",
                                "-0x1.d4c4333333333p+14", "0x1.0000000000000p+0")),
    ])
    def test_t_coeffs_are_pinned(self, name, shift, expected):
        # the raw monomial export, bit for bit as when it was a stored field; the
        # fixture moved by shift, every endpoint and divisor point by + shift
        doc = json.loads((resources.files("finitegap") / "fixtures" / f"{name}.json").read_text())
        gs = GapSystem.from_json(doc)
        gs = GapSystem(gs.b0 + shift, gs.a0 + shift, tuple((a + shift, b + shift) for a, b in gs.gaps))
        d = Divisor(tuple((x + shift, e) for x, e in Divisor.from_json(doc).points))
        assert tuple(c.hex() for c in split_resolvents(gs, d).t_coeffs) == expected

    def test_resolvent_algebra(self, two_gap, rng):
        # u + v = -1/R00 for the split pair
        for _ in range(5):
            d = random_divisor(two_gap, rng)
            pair = split_resolvents(two_gap, d)
            zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.1, 2.0, 20)
            res = np.abs(pair.u(zs) + pair.v(zs) + 1.0 / np.asarray(r00(two_gap, d, zs)))
            assert np.max(res) < 1e-12

    def test_herglotz_signs(self, three_gap, rng):
        d = random_divisor(three_gap, rng)
        pair = split_resolvents(three_gap, d)
        zs = rng.uniform(-4, 4, 50) + 1j * rng.uniform(0.05, 3.0, 50)
        assert np.min(np.imag(pair.u(zs))) > 0
        assert np.min(np.imag(pair.v(zs))) > 0

    def test_asymptotics(self, two_gap, rng):
        d = random_divisor(two_gap, rng)
        pair = split_resolvents(two_gap, d)
        y = 1e6j
        assert abs(pair.u(y) - y + pair.q0) < 1e-4
        assert abs(y * pair.v(y) + pair.p0sq) < 1e-3

    def test_interpolation_property(self, two_gap, rng):
        # T matches the gap branch of sqrt R with the divisor signs
        from finitegap.spectral_set import sqrt_R_gap

        d = random_divisor(two_gap, rng)
        pair = split_resolvents(two_gap, d)
        for j, (x, e) in enumerate(d.points, start=1):
            t = np.polynomial.polynomial.polyval(x, pair.t_coeffs)
            assert t == pytest.approx(e * sqrt_R_gap(two_gap, j, x), abs=1e-10)

    @pytest.mark.parametrize("shift", [0.0, 1e2, 1e3, 1e4])
    def test_interpolation_on_translated_sets(self, shift):
        # T is evaluated on the centred set; read from the raw monomial
        # coefficients it misses these values by a relative 8 at shift 1e3
        # and 1e5 at shift 1e4
        from finitegap.spectral_set import sqrt_R_gap

        rng = np.random.default_rng(7)
        gs = spaced_gap_system(rng, 4, shift=shift)
        d = random_divisor(gs, rng, margin=0.1)
        pair = split_resolvents(gs, d)
        for j, (x, e) in enumerate(d.points, start=1):
            sr = sqrt_R_gap(gs, j, x)
            assert abs(pair.t(x) - e * sr) <= 1e-10 * abs(sr)
        lo, hi = gs.bands[1]
        assert reflectionless_residual(gs, pair, 0.5 * (lo + hi)) < 1e-10
        # u and v depend on T alone through its sign and size: both Herglotz
        zs = rng.uniform(gs.b0, gs.a0, 20) + 1j * rng.uniform(0.05, 2.0, 20)
        assert np.min(np.imag(pair.u(zs))) > 0 and np.min(np.imag(pair.v(zs))) > 0

    def test_eps_flip_preserves_p0sq_parity(self, one_gap):
        # both signs give valid positive p0^2
        for e in (-1, 1):
            pair = split_resolvents(one_gap, Divisor(((0.2, e),)))
            assert pair.p0sq > 0


class TestBoundaryIdentities:
    def test_reflectionless_on_bands(self, three_gap, rng):
        d = random_divisor(three_gap, rng)
        pair = split_resolvents(three_gap, d)
        for lo, hi in three_gap.bands:
            for x in np.linspace(lo + 0.02, hi - 0.02, 7):
                assert reflectionless_residual(three_gap, pair, x) < 1e-10

    def test_reflectionless_rejects_gap_points(self, two_gap, rng):
        d = random_divisor(two_gap, rng)
        pair = split_resolvents(two_gap, d)
        with pytest.raises(ValidationError):
            reflectionless_residual(two_gap, pair, -0.5)

    def test_wronskian_identity(self, two_gap, rng):
        d = random_divisor(two_gap, rng, margin=0.05)
        pair = split_resolvents(two_gap, d)
        for x in (-1.3, 0.4, 2.1):
            assert wronskian_residual(two_gap, pair, x) < 1e-10


@settings(max_examples=20, deadline=None)
@given(
    x=st.floats(-0.99, 0.99),
    e=st.sampled_from([-1, 1]),
    zre=st.floats(-3.0, 3.0),
    zim=st.floats(0.05, 2.0),
)
def test_split_identity_property(sym_one_gap, x, e, zre, zim):
    d = Divisor(((x, e),))
    pair = split_resolvents(sym_one_gap, d)
    z = complex(zre, zim)
    lhs = pair.u(z) + pair.v(z)
    rhs = -1.0 / r00(sym_one_gap, d, z)
    assert abs(lhs - rhs) < 1e-11
    assert np.imag(pair.u(z)) > 0 and np.imag(pair.v(z)) > 0
