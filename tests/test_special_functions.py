"""Tests for the in-house special function behind Gompertz: Wright omega.

The module imports no scipy: the Wright omega properties and the exact
oracle below run on numpy and the decimal module alone.  The scipy oracle
imports ``scipy.special`` inside the test.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitlab.distributions import _wright_omega

# every z that Gompertz.quantile reaches is ln eta + ln p + eta, eta and p
# doubles in (0, 1.8e308] and (0, 1): from 2 ln(5e-324) = -1489.3 up to 1.8e308
Z_EDGES = [-math.inf, -1489.3, -745.0, -37.0, 0.0, 1.0, 1e308, 1.7976931348623157e308, math.inf]
OMEGA_GRID = np.unique(np.concatenate([
    -np.logspace(-300, math.log10(1489.3), 301),
    np.logspace(-300, 308.25, 401),
    np.linspace(-40.0, 40.0, 801),  # every region switch and the ill-conditioned z < -1
    np.linspace(-1.0, 0.0, 2001),  # where the exact z - w of the last step matters
    Z_EDGES[1:-1],
]))


def _omega_exact(z: float) -> Decimal:
    """omega(z) to 45 digits: Newton's method on w + ln w = z in decimal arithmetic.

    From e^z (z <= 1, right of the root) or z - ln z (left of it); f is
    increasing and concave, so after at most one step the iterates rise
    monotonically to the root.
    """
    with localcontext() as ctx:
        ctx.prec = 45
        zd = Decimal(z)
        w = zd - zd.ln() if z > 1 else zd.exp()
        for _ in range(200):
            step = (w + w.ln() - zd) * w / (w + 1)
            w -= step
            if abs(step) <= w.scaleb(-38):  # the residual's own rounding is ~1e-45 |z|
                return w
    raise AssertionError(f"no convergence at z = {z!r}")


def _ulps(got: np.ndarray, exact: list[Decimal]) -> np.ndarray:
    """|got - exact| in ulps of the double nearest the exact value."""
    return np.array([float(abs(Decimal(float(g)) - e) / Decimal(math.ulp(float(e))))
                     for g, e in zip(got, exact)])


class TestWrightOmega:
    @settings(deadline=None)
    @given(st.floats(allow_nan=False) | st.sampled_from(Z_EDGES))
    def test_solves_its_equation(self, z):
        w = float(_wright_omega(z))
        if z < -37.0:  # e^z, the rest of the series is under half an ulp
            # numpy's exp and math.exp may round apart by an ulp, 5e-324 if subnormal
            assert w == pytest.approx(math.exp(z), rel=4e-16, abs=5e-324)
            return
        assert w > 0.0
        if math.isinf(z):
            assert w == math.inf
            return
        # z - omega - ln omega is 0 up to the rounding of the largest term
        tol = 4.0 * (math.ulp(z) + math.ulp(w) + math.ulp(math.log(w)))
        assert abs((z - w) - math.log(w)) <= tol

    @settings(deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from(Z_EDGES), min_size=2, max_size=50))
    def test_monotone_and_positive(self, zs):
        z = np.sort(np.array(zs))
        w = _wright_omega(z)
        assert np.all(w >= 0.0)
        assert np.all(w[z > -745.0] > 0.0)  # e^z is a double above -745.13
        # non-decreasing up to the rounding of each value (about one ulp)
        two_ulps_below = np.nextafter(np.nextafter(w[:-1], -math.inf), -math.inf)
        assert np.all(w[1:] >= two_ulps_below)

    def test_fixed_values(self):
        assert _wright_omega(1.0) == 1.0  # 1 + ln 1 = 1
        assert _wright_omega(-math.inf) == 0.0
        assert np.isnan(_wright_omega(math.nan))
        assert _wright_omega(0.0) == pytest.approx(0.5671432904097838, rel=2e-16, abs=0.0)  # the omega constant
        # shape is kept; an array that spans several passes comes back in order
        z = np.linspace(-50.0, 50.0, 7 * 3513).reshape(7, -1)
        w = _wright_omega(z)
        assert w.shape == z.shape
        assert np.array_equal(w.ravel(), [float(_wright_omega(v)) for v in z.ravel()])

    def test_matches_exact_root(self):
        exact = [_omega_exact(z) for z in OMEGA_GRID]
        err = _ulps(_wright_omega(OMEGA_GRID), exact)
        worst = int(np.argmax(err))
        # at most 1.07 ulp with numpy's exp and log on AVX-512; 1.5 ulp on
        # (-1, 0) without the exact z - w
        assert err.max() <= 1.25, (OMEGA_GRID[worst], err[worst])

    def test_agrees_with_scipy(self):
        from scipy import special

        ours, theirs = _wright_omega(OMEGA_GRID), special.wrightomega(OMEGA_GRID)
        apart = np.abs(ours - theirs) > 2.0 * np.array([math.ulp(v) for v in theirs])
        # scipy takes its residual z - w - ln w in doubles, which costs it up
        # to 30 ulps on (-37, -1), where ln w carries the rounding of |z|;
        # outside that band the two agree to 2 ulps, inside it ours must be
        # the one nearer the exact root wherever they part
        band = (OMEGA_GRID > -37.0) & (OMEGA_GRID <= -1.0)
        assert not np.any(apart & ~band), OMEGA_GRID[apart & ~band]
        exact = [_omega_exact(z) for z in OMEGA_GRID[apart]]
        nearer = _ulps(ours[apart], exact) < _ulps(theirs[apart], exact)
        assert np.all(nearer), OMEGA_GRID[apart][~nearer]
