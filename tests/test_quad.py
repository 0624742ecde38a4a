import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finitegap import quad, spectral_set
from finitegap.errors import SolverError
from finitegap.quad import DEFAULT_QTOL, _chart_angle, chebyshev_quad, gl_quad, theta_partial_quad


def test_gl_quad_smooth():
    assert gl_quad(np.cos, 0.0, np.pi / 2) == pytest.approx(1.0, abs=1e-13)
    assert gl_quad(lambda x: x**7, -1.0, 2.0) == pytest.approx((2.0**8 - 1.0) / 8.0, rel=1e-13)


def test_chebyshev_weight_normalization():
    # integral of the bare weight over any interval is pi
    assert chebyshev_quad(lambda t: np.ones_like(t), -3.0, 7.0) == pytest.approx(np.pi, abs=1e-13)


def test_chebyshev_first_moment():
    # int_0^1 t / sqrt(t(1-t)) dt = pi/2
    assert chebyshev_quad(lambda t: t, 0.0, 1.0) == pytest.approx(np.pi / 2.0, abs=1e-13)


def test_theta_partial_matches_full_range():
    full = chebyshev_quad(np.exp, -1.0, 1.0)
    part = theta_partial_quad(np.exp, -1.0, 1.0, 1.0)
    assert part == pytest.approx(full, abs=1e-12)


def test_theta_partial_half_symmetric():
    # even integrand: half the interval carries half the mass
    half = theta_partial_quad(lambda t: t * t, -1.0, 1.0, 0.0)
    full = chebyshev_quad(lambda t: t * t, -1.0, 1.0)
    assert half == pytest.approx(0.5 * full, abs=1e-12)


@pytest.mark.parametrize("share", [0.0, 1e-9, 0.5, 1.0])
def test_theta_partial_closed_form_next_to_edges(share):
    # int_lo^x dt / sqrt((t-lo)(hi-t)) = 2 asin sqrt((x-lo)/(hi-lo)), on an
    # interval of width 1e-6 where the edges lie far below the rounding of x
    lo, hi = -1.0, -1.0 + 1e-6
    x = lo + share * (hi - lo)
    exact = 2.0 * np.arcsin(np.sqrt((x - lo) / (hi - lo)))
    part = theta_partial_quad(lambda t: np.ones_like(t), lo, hi, x)
    assert part == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_gl_quad_order_is_capped():
    # a jump never converges; the doubling stops at 2048 nodes with the
    # last difference as residual instead of building ever larger rules
    sizes = []

    def step(x):
        sizes.append(x.size)
        return np.where(x < 0.3, 0.0, 1.0)

    with pytest.raises(SolverError, match="did not converge") as err:
        gl_quad(step, 0.0, 1.0)
    assert max(sizes) == 2048
    assert err.value.residual > 0.0


def test_chebyshev_quad_vector_rows():
    # rows converge together and match separate scalar calls
    rows = chebyshev_quad(lambda t: np.stack([np.ones_like(t), t, t * t]), 0.0, 1.0)
    assert rows.shape == (3,)
    for k, val in enumerate(rows):
        assert val == chebyshev_quad(lambda t: t**k * np.ones_like(t), 0.0, 1.0)


# The first two orders share one integrand call.  The references below call the
# integrand once per order, as the doubling did before, and return (value, order)
# or (None, last difference) when the order runs out.


def _ref_doubling(values, n_max, qtol=DEFAULT_QTOL):
    prev, n = np.inf, 32
    while n <= n_max:
        val = values(n)
        if (diff := np.abs(val - prev).max()) <= qtol * max(1.0, np.abs(val).max()):
            return val, n
        prev, n = val, 2 * n
    return None, diff


def _ref_gl(f, a, b):
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    rows = half[..., 0] if np.ndim(half) else half

    def values(n):
        x, w = np.polynomial.legendre.leggauss(n)
        return rows * np.add.reduce(w * f(mid + half * x), axis=-1)

    return _ref_doubling(values, 2048)


def _ref_chebyshev(g, lo, hi, n_max=1 << 16):
    m, r = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def values(n):
        theta = (2 * np.arange(1, n + 1) - 1) * (np.pi / (2 * n))
        return (np.pi / n) * np.add.reduce(g(m + r * np.cos(theta)), axis=-1)

    return _ref_doubling(values, n_max)


def _ref_theta_partial(g, lo, hi, x):
    rows = np.broadcast(lo, hi, x)
    phi = np.reshape([_chart_angle(-h, -l, -y) for l, h, y in rows], rows.shape)
    m, r = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return _ref_gl(lambda ph: g(m - r * np.cos(ph)), 0.0, phi)


def _counted(f):
    """f, and the list of the node-array shapes it is called on."""
    shapes = []

    def wrapper(x):
        shapes.append(np.shape(x))
        return f(x)

    return wrapper, shapes


LO = np.array([[-1.0], [0.0], [2.0]])
HI = np.array([[1.0], [0.5], [3.0]])
X = LO + np.array([[0.3], [0.9], [1.0]]) * (HI - LO)


def _smooth(t):
    return np.stack([np.exp(t), np.cos(3.0 * t), t**5])


def _near_pole(t):
    # a pole 1e-2 widths right of each row's interval: the order climbs past 64
    return 1.0 / (HI + 1e-2 * (HI - LO) - t)


def _kink(t):
    # a square-root kink inside each row: the error falls like n^-1.5, too slowly for any cap
    return np.sqrt(np.abs(t - LO - 0.3 * (HI - LO)))


CASES = {
    "gl_quad": (lambda f: gl_quad(f, LO, HI), lambda f: _ref_gl(f, LO, HI)),
    "chebyshev_quad": (lambda f: chebyshev_quad(f, LO, HI),
                       lambda f: _ref_chebyshev(f, LO, HI)),
    "theta_partial_quad": (lambda f: theta_partial_quad(f, LO, HI, X),
                           lambda f: _ref_theta_partial(f, LO, HI, X)),
}


@pytest.mark.parametrize("rule", CASES)
def test_converged_at_64_in_one_call(rule):
    quad, ref = CASES[rule]
    f, shapes = _counted(_smooth)
    val = quad(f)
    ref_val, n = ref(_smooth)
    assert n == 64
    assert shapes == [(3, 96)]
    assert val.shape == ref_val.shape and (val == ref_val).all()


@pytest.mark.parametrize("rule", CASES)
def test_escalating_stack_matches_per_order_calls(rule):
    quad, ref = CASES[rule]
    f, shapes = _counted(_near_pole)
    val = quad(f)
    ref_val, n = ref(_near_pole)
    assert n > 64
    # one call for 32 and 64 nodes, then one per order
    assert [s[-1] for s in shapes] == [96] + [1 << k for k in range(7, n.bit_length())]
    assert (val == ref_val).all()


def test_far_ray_matches_per_order_calls(monkeypatch, two_gap):
    # omega_k at +-1e6 diameters of two_gap: the ray integrand needs 1024 nodes
    seen = []

    def spy(f, a, b, qtol=DEFAULT_QTOL):
        seen.append((f, a, b))
        return gl_quad(f, a, b, qtol)

    monkeypatch.setattr(spectral_set, "gl_quad", spy)
    for x in (-1e6 * two_gap.diameter, 1e6 * two_gap.diameter):
        for k in (1, 2):
            seen.clear()
            spectral_set.harmonic_measure(two_gap, k, x)
            (f, a, b), = seen
            ref_val, n = _ref_gl(f, a, b)
            assert n == 1024
            assert gl_quad(f, a, b) == ref_val


@pytest.mark.parametrize("rule", CASES)
def test_unconverged_stack_keeps_its_residual(rule):
    quad, ref = CASES[rule]
    with pytest.raises(SolverError, match="did not converge") as err:
        quad(_kink)
    ref_val, diff = ref(_kink)
    assert ref_val is None
    assert err.value.residual == diff


def test_doubling_stops_before_the_element_budget(monkeypatch):
    # 3 values per node: 256 nodes fill a budget of 768 values, so the doubling
    # stops before it forms the nodes of 512, with the last difference as residual
    monkeypatch.setattr(quad, "_ELEMENT_BUDGET", 3 * 256)
    f, shapes = _counted(_kink)
    with pytest.raises(SolverError, match="stopped before 512 nodes.*budget of 768") as err:
        chebyshev_quad(f, LO, HI)
    assert [s[-1] for s in shapes] == [96, 128, 256]
    assert err.value.residual == _ref_chebyshev(_kink, LO, HI, 256)[1]


_THIN_BANDS = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
import oracle_periodic as oracle
from finitegap.errors import SolverError
from finitegap.spectral_set import GapSystem, critical_points
e = oracle.band_edges(*oracle.periodic_coefficients({p}, 0.3, np.random.default_rng(7)))
try:
    critical_points(GapSystem(e[0], e[-1], tuple(zip(e[1:-1:2], e[2:-1:2]))))
except SolverError as exc:
    print(exc)
"""


@pytest.mark.parametrize("p", [48, 65])
def test_thin_bands_stop_at_the_element_budget(p):
    # periodic sets whose thinnest band is 1.3e-12 (p = 48) and 1.1e-14 (p = 65) of the
    # diameter: the stacked moment rule of critical_points doubles until its next order
    # would pass the budget, and stops there in a process held to 2 GiB of address space
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    proc = subprocess.run([sys.executable, "-c", _THIN_BANDS.format(p=p)], env=env,
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert "Chebyshev doubling stopped before" in proc.stdout
