import numpy as np
import pytest

from finitegap.errors import SolverError
from finitegap.quad import chebyshev_quad, gl_quad, theta_partial_quad


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
