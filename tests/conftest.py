import numpy as np
import pytest

from finitegap.herglotz import Divisor
from finitegap.spectral_set import GapSystem, critical_points


@pytest.fixture(scope="session")
def free_set():
    return GapSystem(b0=-2.0, a0=2.0, gaps=())


@pytest.fixture(scope="session")
def sym_one_gap():
    return GapSystem(b0=-2.0, a0=2.0, gaps=((-1.0, 1.0),))


@pytest.fixture(scope="session")
def sym_one_gap_cp(sym_one_gap):
    return critical_points(sym_one_gap)


@pytest.fixture(scope="session")
def one_gap():
    return GapSystem(b0=-2.0, a0=2.2, gaps=((-1.0, 0.5),))


@pytest.fixture(scope="session")
def one_gap_cp(one_gap):
    return critical_points(one_gap)


@pytest.fixture(scope="session")
def two_gap():
    return GapSystem(b0=-2.0, a0=3.0, gaps=((-1.0, -0.3), (0.8, 1.6)))


@pytest.fixture(scope="session")
def two_gap_cp(two_gap):
    return critical_points(two_gap)


@pytest.fixture(scope="session")
def three_gap():
    return GapSystem(b0=-3.0, a0=3.0, gaps=((-2.0, -1.4), (-0.5, 0.2), (1.1, 2.0)))


@pytest.fixture(scope="session")
def three_gap_cp(three_gap):
    return critical_points(three_gap)


@pytest.fixture(scope="session")
def thin_band():
    """Two bands of width 1e-3 at the ends of [-2, 2]."""
    return GapSystem(b0=-2.0, a0=2.0, gaps=((-1.999, 1.999),))


@pytest.fixture(scope="session")
def thin_gap():
    """A gap of width 1e-6 next to an ordinary one."""
    return GapSystem(b0=-2.0, a0=2.0, gaps=((-1.0, -1.0 + 1e-6), (0.5, 1.2)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_divisor(gs, rng, margin=0.0):
    pts = []
    for a, b in gs.gaps:
        w = b - a
        x = rng.uniform(a + margin * w, b - margin * w)
        pts.append((x, int(rng.choice([-1, 1]))))
    return Divisor(tuple(pts))


def random_gap_system(rng, n_gaps=1, lo=-2.0, hi=2.0):
    cuts = np.sort(rng.uniform(lo + 0.1, hi - 0.1, 2 * n_gaps))
    # enforce separation so gaps stay non-degenerate and apart
    for i in range(1, len(cuts)):
        cuts[i] = max(cuts[i], cuts[i - 1] + 0.05)
    if cuts[-1] >= hi - 0.05:
        cuts -= cuts[-1] - (hi - 0.05)
    gaps = tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(n_gaps))
    return GapSystem(b0=lo, a0=hi, gaps=gaps)


def spaced_gap_system(rng, n_gaps, scale=1.0, shift=0.0, min_share=0.02):
    """N gaps on [shift - 2 scale, shift + 2 scale], every band and gap at
    least min_share of the diameter, as the benchmark draws its sets."""
    free = 1.0 - (2 * n_gaps + 1) * min_share
    lengths = min_share + free * rng.dirichlet(np.ones(2 * n_gaps + 1))
    cuts = shift + scale * (-2.0 + 4.0 * np.cumsum(lengths)[:-1])
    gaps = tuple((cuts[2 * i], cuts[2 * i + 1]) for i in range(n_gaps))
    return GapSystem(b0=shift - 2.0 * scale, a0=shift + 2.0 * scale, gaps=gaps)
