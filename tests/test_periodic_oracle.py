"""Periodic sets against the closed forms of tests/oracle_periodic.py: each of the p bands
of a p-periodic Jacobi matrix carries mass 1/p, and the critical points, G and the
Robin constant follow from the discriminant.  Each set is taken in three affine
frames, and each bound is sized from the rounding of the edges in that frame."""

from functools import lru_cache

import numpy as np
import pytest

import oracle_periodic as oracle
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


def _bound(edges):
    """The tolerance of a set whose edges are each rounded to float64."""
    return 1e-13 + 100.0 * np.finfo(float).eps * np.abs(edges).max() / (edges[-1] - edges[0])


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
