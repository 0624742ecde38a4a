"""Frequencies and the integrated density of states of periodic sets against the
closed form of tests/oracle_periodic.py: each of the p bands of a p-periodic
Jacobi matrix carries mass 1/p.  Each set is taken in three affine frames, and
each bound is sized from the rounding of the edges in that frame."""

import numpy as np
import pytest

from finitegap.spectral_set import GapSystem, critical_points, dos_cdf, frequencies
from oracle_periodic import band_edges, periodic_coefficients

# (scale, shift) of the frames
FRAMES = ((1.0, 0.0), (250.0, 1e4), (1e-3, -7.0))


def _oracle_error(edges):
    """max |p omega_k - (p - k)| and |dos_cdf - j/p| at the midpoint of gap j, on the set
    with these 2p edges."""
    p = edges.size // 2
    gs = GapSystem(edges[0], edges[-1], tuple(zip(edges[1:-1:2], edges[2:-1:2])))
    cp = critical_points(gs)
    err = np.max(np.abs(p * frequencies(gs, cp) - (p - np.arange(1, p))))
    for j, (lo, hi) in enumerate(gs.gaps, start=1):
        err = max(err, abs(dos_cdf(gs, cp, 0.5 * (lo + hi)) - j / p))
    return err


def _bound(edges):
    """The tolerance of a set whose edges are each rounded to float64."""
    return 1e-13 + 100.0 * np.finfo(float).eps * np.abs(edges).max() / (edges[-1] - edges[0])


@pytest.mark.parametrize("frame", FRAMES, ids=["unit", "moved", "scaled"])
@pytest.mark.parametrize("amp", [0.3, 0.05])
@pytest.mark.parametrize("p", range(3, 9))
def test_band_masses_are_multiples_of_one_over_p(p, amp, frame):
    a, b = periodic_coefficients(p, amp, np.random.default_rng(p))
    edges = frame[0] * band_edges(a, b) + frame[1]
    assert _oracle_error(edges) <= _bound(edges)
    # the check has the power to fail: one inner edge moved by 1e-10 of the diameter
    moved = edges.copy()
    moved[p] += 1e-10 * (edges[-1] - edges[0])
    assert _oracle_error(moved) > _bound(edges)
