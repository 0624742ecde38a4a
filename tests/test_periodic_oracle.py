"""Periodic sets against the closed forms of tests/oracle_periodic.py: each of the p bands
of a p-periodic Jacobi matrix carries mass 1/p, the critical points, G and the Robin
constant follow from the discriminant, every divisor gives p-periodic coefficients
with the same discriminant, which is also the trace of one period of their transfer
matrices, and the comb of the closed forms inverts to the set.  Each set is taken in
three affine frames, and each bound is sized from the rounding of the edges in that
frame."""

from functools import lru_cache

import numpy as np
import pytest

import oracle_periodic as oracle
from conftest import random_divisor
from finitegap import jacobi_cf as jc
from finitegap.abel import abel_map, shift_covariance_residual
from finitegap.comb import CombData, gaps_from_comb
from finitegap.spectral_set import (
    GapSystem,
    critical_points,
    dos_cdf,
    frequencies,
    green,
    robin_constant,
)

# (scale, shift) of the frames
FRAMES = ((1.0, 0.0), (250.0, 1e4), (1e-3, -7.0))


def _gap_system(edges):
    return GapSystem(edges[0], edges[-1], tuple(zip(edges[1:-1:2], edges[2:-1:2])))


def _oracle_error(edges):
    """max |p omega_k - (p - k)| and |dos_cdf - j/p| at the midpoint of gap j, on the set
    with these 2p edges."""
    p = edges.size // 2
    gs = _gap_system(edges)
    err = np.max(np.abs(p * frequencies(gs) - (p - np.arange(1, p))))
    for j, (lo, hi) in enumerate(gs.gaps, start=1):
        err = max(err, abs(dos_cdf(gs, 0.5 * (lo + hi)) - j / p))
    return err


def _bound(edges, k=100.0):
    """The tolerance of a set whose edges are each rounded to float64: k times that
    rounding relative to the diameter, above a floor of 1e-13."""
    return 1e-13 + k * np.finfo(float).eps * np.abs(edges).max() / (edges[-1] - edges[0])


def _moved(edges):
    """The edges with inner edge p moved by 1e-10 of the diameter."""
    moved = edges.copy()
    moved[edges.size // 2] += 1e-10 * (edges[-1] - edges[0])
    return moved


@pytest.mark.parametrize("frame", FRAMES, ids=["unit", "moved", "scaled"])
@pytest.mark.parametrize("amp", [0.3, 0.05])
@pytest.mark.parametrize("p", range(3, 9))
def test_band_masses_are_multiples_of_one_over_p(p, amp, frame):
    a, b = oracle.periodic_coefficients(p, amp, np.random.default_rng(p))
    edges = frame[0] * oracle.band_edges(a, b) + frame[1]
    assert _oracle_error(edges) <= _bound(edges)
    # the check has the power to fail: one inner edge moved by 1e-10 of the diameter
    assert _oracle_error(_moved(edges)) > _bound(edges)


@lru_cache(maxsize=None)
def _closed_forms(p, amp):
    """The unit-frame edges, c_j, h_j, the points of G and G there, and the Robin constant.
    G's points: the midpoint of the gap that has edge p as an end (the edge _moved moves),
    a real point right of the set and two points of the upper half-plane."""
    a, b = oracle.periodic_coefficients(p, amp, np.random.default_rng(p))
    edges = oracle.band_edges(a, b)
    c = oracle.critical_points(a, b, edges)
    diam, j = edges[-1] - edges[0], (p + 1) // 2
    zs = np.array([0.5 * (edges[2 * j - 1] + edges[2 * j]), edges[-1] + 0.25 * diam,
                   0.5 * (edges[0] + edges[-1]) + 0.37j * diam, edges[1] + 0.05 * diam * (1 + 1j)])
    return (edges, c, np.array([oracle.green(a, b, x) for x in c]), zs,
            np.array([oracle.green(a, b, z) for z in zs]), oracle.robin_constant(a))


def _geometry_errors(edges, frame, forms):
    """|error| of c_j / diameter, h_j, G at the points and the Robin constant, on the set with
    these edges in the frame (scale, shift), against the closed forms of the unit frame: c_j
    and the points move with the frame, h_j and G do not, and the Robin constant moves by
    -log scale."""
    scale, shift = frame
    _, c, h, zs, g, robin = forms
    gs = _gap_system(edges)
    cp = critical_points(gs)
    return np.array([
        np.max(np.abs(np.array(cp.c) - (scale * c + shift))) / gs.diameter,
        np.max(np.abs(np.array(cp.h) - h)),
        max(abs(green(gs, scale * z + shift) - gz) for z, gz in zip(zs, g)),
        abs(robin_constant(gs) + np.log(scale) - robin),
    ])


@pytest.mark.parametrize("frame", FRAMES, ids=["unit", "moved", "scaled"])
@pytest.mark.parametrize("amp", [0.3, 0.05])
@pytest.mark.parametrize("p", range(3, 9))
def test_critical_points_green_and_robin_constant(p, amp, frame):
    forms = _closed_forms(p, amp)
    edges = frame[0] * forms[0] + frame[1]
    assert np.all(_geometry_errors(edges, frame, forms) <= _bound(edges))
    # each sees one inner edge moved by 1e-10 of the diameter, but for the Robin constant
    # in the scaled frame: it moves by about 7e-13, under that frame's bound
    seen = _geometry_errors(_moved(edges), frame, forms) > _bound(edges)
    assert seen[:3].all() and (seen[3] or frame == FRAMES[2])


def _engine_errors(p, amp, frame, edges, divisor):
    """Errors of the coefficient engine on the set with these edges in the frame
    (scale, shift), against the closed forms of the p-periodic (a, b) of the unit frame:
    - max |c_(n+p) - c_n| / diameter over the coefficients p_n, q_n, 0 <= n <= p;
    - max |edge - frame image of the oracle's edge| / diameter, the edges of one period
      (a = p_1..p_p, b = q_0..q_(p-1)) from oracle.band_edges;
    - max |Delta - Delta_oracle| / |Delta_oracle| of that period at the frame images of two
      complex z (isospectral periodic matrices share Delta, and it is affine invariant);
    - the same for tr(A_p A_0^-1), A_n = transfer_matrix(seg, z, n): A_p A_0^-1 carries the
      solution's values at sites 0, 1 to those at p, p + 1, one period's monodromy;
    - the torus distance between the Abel images of the divisor after p sites and of the
      divisor itself, as p omega_k is an integer;
    - shift_covariance_residual over p steps, which reads the computed frequencies."""
    scale, shift = frame
    a, b = oracle.periodic_coefficients(p, amp, np.random.default_rng(p))
    unit = _closed_forms(p, amp)[0]
    gs = _gap_system(edges)
    seg = jc.coefficients(gs, divisor, 0, 2 * p)
    coef = np.array([seg.p, seg.q])
    period = coef[0, 1:p + 1], coef[1, :p]
    diam, j = unit[-1] - unit[0], (p + 1) // 2
    zs = (0.5 * (unit[2 * j - 1] + unit[2 * j]) + 0.05j * diam, unit[-1] + (0.25 + 0.1j) * diam)
    back = jc.iterate(jc.initial_state(gs, divisor), p)[2].divisor
    monodromy = [jc.transfer_matrix(seg, scale * z + shift, p)
                 @ np.linalg.inv(jc.transfer_matrix(seg, scale * z + shift, 0)) for z in zs]
    return np.array([
        np.max(np.abs(coef[:, p:] - coef[:, :p + 1])) / gs.diameter,
        np.max(np.abs(oracle.band_edges(*period) - (scale * unit + shift))) / gs.diameter,
        max(abs(oracle.discriminant(*period, scale * z + shift)[0] / oracle.discriminant(a, b, z)[0] - 1)
            for z in zs),
        max(abs(np.trace(m) / oracle.discriminant(a, b, z)[0] - 1) for m, z in zip(monodromy, zs)),
        abel_map(gs, back).distance(abel_map(gs, divisor)),
        shift_covariance_residual(gs, divisor, steps=p),
    ])


# the multiple of the edges' rounding each engine check allows.  Over the 12 sets of the
# scaled frame, where that rounding is about 3.9e-13 of the diameter, the largest error
# was 4.6, 3.4, 6.8, 6.9, 8.3 and 3.6 times it, and the smallest with an edge moved by
# 1e-10 of the diameter 9.7, 130, 72, 55, 232 and 0.6 times it; the other frames have
# wider margins
_ENGINE_K = np.array([6.5, 40.0, 25.0, 20.0, 50.0, 100.0])


@pytest.mark.parametrize("frame", FRAMES, ids=["unit", "moved", "scaled"])
@pytest.mark.parametrize("amp", [0.3, 0.05])
@pytest.mark.parametrize("p", range(3, 9))
def test_coefficients_are_periodic_with_the_same_discriminant(p, amp, frame):
    edges = frame[0] * _closed_forms(p, amp)[0] + frame[1]
    divisor = random_divisor(_gap_system(edges), np.random.default_rng([p, 1]), margin=0.05)
    bound = _bound(edges, _ENGINE_K)
    assert np.all(_engine_errors(p, amp, frame, edges, divisor) <= bound)
    # each but the last sees one inner edge moved by 1e-10 of the diameter; the shift
    # covariance residual holds on every set, as it reads the set's own frequencies
    seen = _engine_errors(p, amp, frame, _moved(edges), divisor) > bound
    assert seen[:5].all()


def _bracket(gs):
    """gs with every gap widened, as verify's comb round trip starts: each interior endpoint
    moves out of its gap by 5 % of the shorter neighbouring segment."""
    pts = np.asarray(gs.endpoints)
    room = np.minimum(np.diff(pts)[:-1], np.diff(pts)[1:])
    inner = pts[1:-1] - 0.05 * room * (-1.0) ** np.arange(room.size)
    return GapSystem(gs.b0, gs.a0, tuple(zip(inner[::2], inner[1::2])))


def _comb_error(p, amp, edges, move=0.0):
    """max |edge - oracle's edge| / diameter of gaps_from_comb on the comb of the closed
    forms, teeth ((p - j) / p, h_j) with h_1 scaled by 1 + move, from the widened bracket of
    the set with these edges; the teeth are affine invariant, so every frame reads them."""
    h = _closed_forms(p, amp)[2].copy()
    h[0] *= 1.0 + move
    comb = CombData(tuple(((p - j) / p, hj) for j, hj in enumerate(h, start=1)))
    gs = _gap_system(edges)
    found = np.array(gaps_from_comb(comb, _bracket(gs)).endpoints)
    return np.max(np.abs(found - edges)) / gs.diameter


@pytest.mark.parametrize("frame", FRAMES, ids=["unit", "moved", "scaled"])
@pytest.mark.parametrize("amp", [0.3, 0.05])
@pytest.mark.parametrize("p", range(3, 9))
def test_comb_inverse_returns_the_oracle_edges(p, amp, frame):
    # over the 36 sets the largest error was 0.46 times the edges' rounding, in the scaled
    # frame.  h_1 moved by 1e-9 of itself moves the edges by 7.7 times it or more in every
    # frame; a move of 1e-10 gave only 0.9 times it in the scaled frame
    edges = frame[0] * _closed_forms(p, amp)[0] + frame[1]
    assert _comb_error(p, amp, edges) <= _bound(edges, 1.0)
    assert _comb_error(p, amp, edges, 1e-9) > _bound(edges, 1.0)
