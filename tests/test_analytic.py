"""Tests for the analytic LD machinery.

The folding path and the quadrature path are independent; several tests
assert their agreement, which is the module's main self-check.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from digitlab import analytic
from digitlab.digits import benford_first
from digitlab.distributions import (
    Exponential,
    Gamma,
    Gompertz,
    LogNormal,
    Normal,
    PowerLaw,
    Uniform,
    Weibull,
)
from digitlab.errors import (
    BadParamsError,
    BadRangeError,
    QuadratureFailureError,
    TooLargeError,
    UnsupportedFamilyError,
)

DIGITS = range(1, 10)
LOG10E = math.log10(math.e)


def max_dev_from_benford(dist) -> float:
    return max(abs(dist.probs[d] - benford_first(d)) for d in DIGITS)


class TestLdKx:
    @pytest.mark.parametrize("g", range(1, 11))
    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.7])
    def test_integer_g_exact(self, s, g):
        assert max_dev_from_benford(analytic.ld_kx(s, g)) < 1e-12

    def test_non_integer_g(self):
        # true deviation at g = 2.5 (frozen from the closed form; the
        # digit-1 share is 3 log10(2) / 2.5)
        r = analytic.ld_kx(0.0, 2.5)
        assert r.probs[1] == pytest.approx(3 * math.log10(2) / 2.5, abs=1e-12)
        assert max_dev_from_benford(r) == pytest.approx(0.0602, abs=1e-3)

    def test_deviation_curve_envelope(self):
        # worst-case deviation at g = N + phi peaks near phi = log10(2) and
        # scales like log10(2)(1 - log10(2))/g
        for g_int in (5, 26, 100):
            g = g_int + math.log10(2)
            dev = max_dev_from_benford(analytic.ld_kx(0.0, g))
            envelope = math.log10(2) * (1 - math.log10(2)) / g
            assert dev == pytest.approx(envelope, rel=0.02)

    def test_threshold_for_1e3(self):
        # deviation stays below 1e-3 for every g only once g >= ~211
        worst_211 = math.log10(2) * (1 - math.log10(2)) / 211
        assert worst_211 < 1e-3
        assert max_dev_from_benford(analytic.ld_kx(0.0, 211 + math.log10(2))) < 1e-3
        assert max_dev_from_benford(analytic.ld_kx(0.0, 26 + math.log10(2))) > 1e-3

    def test_bad_range(self):
        with pytest.raises(BadRangeError):
            analytic.ld_kx(0.0, 0.0)

    @pytest.mark.parametrize("s,g", [(0.0, 1e308), (0.0, math.inf), (math.nan, 1.0),
                                     (0.0, math.nan), (-400.0, 2.0), (308.0, 1.0)])
    def test_support_outside_the_doubles(self, s, g):
        # 10**s .. 10**(s+g) must be doubles; g = 1e308 used to loop over 1e308 decades
        with pytest.raises(BadParamsError):
            analytic.ld_kx(s, g)

    def test_support_at_the_double_range(self):
        assert max_dev_from_benford(analytic.ld_kx(-324.0, 632.0)) < 1e-12


class TestLdPowerLaw:
    def test_m2_column(self):
        r = analytic.ld_power_law(2.0, 1.0, 1000.0)
        assert r.probs[1] == pytest.approx(0.56, abs=0.01)
        assert r.probs[2] == pytest.approx(0.19, abs=0.01)

    def test_m_half_column(self):
        r = analytic.ld_power_law(0.5, 1.0, 1000.0)
        assert r.probs[1] == pytest.approx(0.19, abs=0.01)

    def test_m1_is_benford(self):
        assert max_dev_from_benford(analytic.ld_power_law(1.0, 1.0, 1000.0)) < 1e-12

    def test_matches_quadrature(self):
        m, lo, hi = 2.0, 1.0, 1000.0
        k = PowerLaw(m, lo, hi).k
        quad = analytic.ld_of_density(lambda x: k * x**-m if lo <= x <= hi else 0.0, (lo, hi))
        exact = analytic.ld_power_law(m, lo, hi)
        assert exact.l_inf(quad) < 1e-9


    @pytest.mark.parametrize("m,lo,digit", [(1e300, 0.5, 5), (1e300, 2.0, 2), (1e17, 7.5, 7)])
    def test_extreme_exponent_is_a_point_mass(self, m, lo, digit):
        # x**(1 - m) is far outside the doubles; the mass sits at lo
        assert analytic.ld_power_law(m, lo, 1000.0).probs[digit] == 1.0

    def test_vanishing_exponent_is_uniform(self):
        r = analytic.ld_power_law(1e-300, 1.0, 10.0)
        assert max(abs(r.probs[d] - 1 / 9) for d in DIGITS) < 1e-15

    def test_smooth_through_m1(self):
        # no cancellation near m = 1: the slope dP/dm holds down to a 1e-12 step
        at1 = analytic.ld_power_law(1.0, 1.0, 1000.0)

        def slope(h):
            r = analytic.ld_power_law(1.0 + h, 1.0, 1000.0)
            return max(abs(r.probs[d] - at1.probs[d]) for d in DIGITS) / abs(h)

        ref = slope(1e-6)
        for h in (1e-9, -1e-9, 1e-12):
            assert slope(h) == pytest.approx(ref, rel=1e-2)

    def test_whole_double_range(self):
        r = analytic.ld_power_law(0.5, 5e-324, 1.7e308)
        assert math.fsum(r.probs.values()) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("m,lo,hi", [(1.0, 1.0, math.inf), (math.inf, 1.0, 10.0),
                                         (math.nan, 1.0, 10.0), (1.0, math.nan, 10.0)])
    def test_non_finite_rejected(self, m, lo, hi):
        with pytest.raises(BadRangeError):
            analytic.ld_power_law(m, lo, hi)


class TestLdExponential:
    # frozen from the closed-form decade sum, cross-checked against
    # independent quadrature of the density (agreement < 1e-12)
    MEDIAN10_VECTOR = [0.32109, 0.19088, 0.12443, 0.08949, 0.07042,
                       0.05939, 0.05248, 0.04772, 0.04412]

    def test_median_10_vector(self):
        r = analytic.ld_exponential(0.069314718)
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(self.MEDIAN10_VECTOR[d - 1], abs=1e-5)

    def test_scale_invariance(self):
        for p in (0.02547, 0.3, 7.0):
            a, b = analytic.ld_exponential(p), analytic.ld_exponential(10 * p)
            assert a.l_inf(b) < 1e-12

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf, 1e308, 1e-320])
    def test_bad_rate(self, p):
        # 1e308 used to hang (p (d+1) 10^j overflows, then NaN terms), 1e-320 to overflow
        with pytest.raises(BadParamsError):
            analytic.ld_exponential(p)

    @pytest.mark.parametrize("p", [1e-300, 1e300])
    def test_rate_range_ends(self, p):
        assert math.fsum(analytic.ld_exponential(p).probs.values()) == pytest.approx(1.0)

    def test_decade_walk_capped(self, monkeypatch):
        monkeypatch.setattr(analytic, "_MAX_DECADES", 3)
        with pytest.raises(QuadratureFailureError):
            analytic.ld_exponential(1.0)

    def test_never_exactly_benford(self):
        for p in (0.01, 0.069314718, 1.0, 12.0):
            assert max_dev_from_benford(analytic.ld_exponential(p)) > 1e-4

    def test_matches_quadrature(self):
        p = 0.271
        quad = analytic.ld_of_density(lambda x: p * math.exp(-p * x) if x > 0 else 0.0,
                                      (0.0, math.inf))
        assert analytic.ld_exponential(p).l_inf(quad) < 1e-8

    def test_digit1_oscillation_amplitude(self):
        ps = np.arange(0.05, 35.0 + 1e-9, 0.05)
        d1 = [analytic.ld_exponential(p).probs[1] for p in ps]
        assert max(d1) - min(d1) == pytest.approx(0.062, abs=0.005)


class TestTenToSymmetric:
    @pytest.mark.parametrize("make", [
        lambda: analytic.SemiCircularLog(1e308, 1.0),  # used to divide by a zero total mass
        lambda: analytic.SemiCircularLog(11.0, 0.0),
        lambda: analytic.SemiCircularLog(11.0, math.nan),
        lambda: analytic.SemiCircularLog(11.0, 1e-300),  # both ends round to 11
        lambda: analytic.UniformLog(0.0, 1e308),
        lambda: analytic.TriangularLog(0.0, math.nan, 3.0),
        lambda: analytic.SemiCircularLog(5.0, 1.5, math.inf),
    ])
    def test_bad_shapes(self, make):
        with pytest.raises(BadParamsError):
            make()

    def test_semicircle_r1_column(self):
        r = analytic.ld_ten_to_symmetric(analytic.SemiCircularLog(11.0, 1.0))
        published = [0.2828, 0.1919, 0.1377, 0.1047, 0.0827, 0.0669, 0.0544, 0.0442, 0.0347]
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(published[d - 1], abs=5e-4)

    def test_semicircle_r21_column(self):
        r = analytic.ld_ten_to_symmetric(analytic.SemiCircularLog(11.0, 2.1))
        assert r.probs[1] == pytest.approx(0.2987, abs=5e-4)
        assert r.probs[9] == pytest.approx(0.0464, abs=5e-4)

    def test_uniform_integer_span_exact(self):
        for r0 in (0.0, 0.37, 5.2, -1.8):
            dist = analytic.ld_ten_to_symmetric(analytic.UniformLog(r0, r0 + 3.0))
            assert max_dev_from_benford(dist) < 1e-12

    def test_cross_path_agreement(self):
        specs = [
            analytic.UniformLog(0.3, 2.9),
            analytic.TriangularLog(0.0, 1.2, 3.0),
            analytic.SemiCircularLog(11.0, 1.3),
            analytic.SemiCircularLog(5.0, 1.5, 0.2),
        ]
        for spec in specs:
            fold = analytic.ld_ten_to_symmetric(spec)
            pdf, support = analytic.induced_x_density(spec)
            quad = analytic.ld_of_density(pdf, support, tol=1e-9)
            assert fold.l_inf(quad) < 1e-6

    def test_integer_translation_invariance(self):
        specs = [
            analytic.UniformLog(0.3, 2.4),
            analytic.TriangularLog(0.0, 0.8, 2.5),
            analytic.SemiCircularLog(11.0, 1.3),
            analytic.SemiCircularLog(5.0, 1.5, 0.2),
        ]
        for spec in specs:
            base = analytic.ld_ten_to_symmetric(spec)
            for shift in (-4, 1, 7):
                moved = analytic.ld_ten_to_symmetric(spec.translated(shift))
                assert base.l_inf(moved) < 1e-12

    def test_triangular_wide_range_near_benford(self):
        # ranges over ~2 units produce near-perfect conformity
        dist = analytic.ld_ten_to_symmetric(analytic.TriangularLog(3.0, 4.5, 6.0))
        assert max_dev_from_benford(dist) < 0.02

    def test_symmetric_triangular_integer_width_exact(self):
        # symmetric triangle spanning an integral width folds exactly flat
        for width in (2.0, 4.0):
            spec = analytic.TriangularLog(3.3, 3.3 + width / 2, 3.3 + width)
            assert max_dev_from_benford(analytic.ld_ten_to_symmetric(spec)) < 1e-12

    def test_e_base_constructions(self):
        # e**Uniform == 10**(Uniform scaled by log10 e); needs a much wider
        # range than the base-10 version for the same conformity
        narrow = analytic.ld_ten_to_symmetric(analytic.UniformLog(0.0, 4.0).scaled(LOG10E))
        wide = analytic.ld_ten_to_symmetric(analytic.UniformLog(0.0, 60.0).scaled(LOG10E))
        assert max_dev_from_benford(wide) < 0.006
        assert max_dev_from_benford(wide) < max_dev_from_benford(narrow)


class TestSemiCircleCdf:
    # centers and radii for which y - center and radius - |y - center| are
    # exact in doubles next to both ends, so the cdf's input is the exact
    # distance to the end
    SHAPES = [(12.702, 1.286), (11.0, 2.1), (-9.5, 3.25)]

    @staticmethod
    def _edge_mass(dist: Fraction, radius: float) -> float:
        """Mass within dist of an end, from the series of the integral of sqrt(2v - v^2).

        (2 sqrt 2 / pi) s^1.5 sum_n binom(1/2, n) (-s/2)^n / (n + 3/2), s =
        dist / r; the sum is taken in rationals until its terms fall under
        1e-25 of it.
        """
        s = dist / Fraction(radius)
        total, coef, n = Fraction(0), Fraction(1), 0  # coef = binom(1/2, n) (-1/2)^n
        while True:
            term = coef * s**n / (n + Fraction(3, 2))
            total += term
            if abs(term) < total * Fraction(1, 10**25):
                break
            coef *= (Fraction(1, 2) - n) / (n + 1) * Fraction(-1, 2)
            n += 1
        return 2.0 * math.sqrt(2.0) / math.pi * float(s) ** 1.5 * float(total)

    @pytest.mark.parametrize("center,radius", SHAPES)
    def test_edges_match_exact_mass(self, center, radius):
        spec = analytic.SemiCircularLog(center, radius)
        lo = Fraction(center) - Fraction(radius)
        hi = Fraction(center) + Fraction(radius)
        for offset in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.6):
            y = float(lo + Fraction(offset))
            assert spec.cdf(y) == pytest.approx(self._edge_mass(Fraction(y) - lo, radius),
                                                rel=1e-14, abs=0.0)
            y = float(hi - Fraction(offset))
            assert spec.cdf(y) == pytest.approx(1.0 - self._edge_mass(hi - Fraction(y), radius),
                                                rel=0.0, abs=1.2e-16)

    def test_mass_next_to_the_left_end_is_not_negative(self):
        # 11.416 lies 2^-52 above the float end 12.702 - 1.286; the textbook
        # form returned -3.19e-11 here
        spec = analytic.SemiCircularLog(12.702, 1.286)
        dist = Fraction(11.416) - (Fraction(12.702) - Fraction(1.286))
        assert dist == Fraction(1, 2**51)
        assert spec.cdf(11.416) == pytest.approx(self._edge_mass(dist, 1.286), rel=1e-14, abs=0.0)

    @staticmethod
    def _grid(spec) -> list[float]:
        """A grid from 0.1 below to 0.1 above the support, plus the 200 doubles
        on each side of both ends and of the center."""
        a, b = spec.bounds
        ys = list(np.linspace(a - 0.1, b + 0.1, 4001))
        for end in (a, spec.center, b):
            ys += [float(v) for v in end + np.arange(-200, 201) * np.spacing(end)]
        return sorted(ys)

    @pytest.mark.parametrize("spec", [analytic.SemiCircularLog(12.702, 1.286),
                                      analytic.SemiCircularLog(0.0, 1.286),  # u down to 5e-324
                                      analytic.SemiCircularLog(5.0, 1.5, 0.2)],
                             ids=repr)
    def test_monotone_within_unit_interval(self, spec):
        cdf = np.array([spec.cdf(y) for y in self._grid(spec)])
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)

    @pytest.mark.parametrize("center,radius", [*SHAPES, (0.0, 1.286)])
    def test_no_elevation_is_the_semicircle_bit_for_bit(self, center, radius):
        spec = analytic.SemiCircularLog(center, radius)
        for y in self._grid(spec):
            u = y - center
            assert spec.cdf(y) == analytic._half_disc_share(u, radius)
            semi = (2.0 * math.sqrt(radius * radius - u * u) / (math.pi * radius * radius)
                    if abs(u) <= radius else 0.0)
            assert spec.pdf(y) == semi

    @pytest.mark.parametrize("elevation", [0.2, 3.0])
    def test_elevation_is_the_raised_semicircle(self, elevation):
        # the density h + sqrt(R^2 - u^2) over its integral 2Rh + pi R^2 / 2
        r, h = 1.5, elevation
        spec = analytic.SemiCircularLog(5.0, r, h)
        norm = 2.0 * r * h + 0.5 * math.pi * r * r
        for y in self._grid(spec):
            u = y - 5.0
            cdf = ((h * (u + r) + 0.5 * math.pi * r * r * analytic._half_disc_share(u, r)) / norm
                   if abs(u) < r else float(u > 0))
            assert spec.cdf(y) == pytest.approx(cdf, rel=1e-15, abs=0.0)
            pdf = (h + math.sqrt(r * r - u * u)) / norm if abs(u) <= r else 0.0
            assert spec.pdf(y) == pytest.approx(pdf, rel=1e-15, abs=0.0)


class TestMantissaDensity:
    def test_uniform_is_flat(self):
        h = analytic.mantissa_density(analytic.UniformLog(0.0, 3.0), 50)
        assert np.abs(h - 1.0).max() < 1e-12

    def test_semicircle_r8_nearly_flat(self):
        h = analytic.mantissa_density(analytic.SemiCircularLog(11.0, 8.0), 50)
        assert 0 < np.abs(h - 1.0).max() < 0.02

    def test_semicircle_r1_visibly_non_flat(self):
        h = analytic.mantissa_density(analytic.SemiCircularLog(11.0, 1.0), 50)
        assert np.abs(h - 1.0).max() > 0.05

    def test_integrates_to_one(self):
        for spec in (analytic.TriangularLog(0.2, 1.0, 3.3),
                     analytic.SemiCircularLog(4.0, 2.2)):
            h = analytic.mantissa_density(spec, 80)
            assert h.mean() == pytest.approx(1.0, abs=1e-12)

    def test_work_capped_before_allocation(self):
        # one cdf difference per bin and unit of the support, plus two
        with pytest.raises(TooLargeError):
            analytic.mantissa_density(analytic.UniformLog(0.0, 1.0), 10**11)
        with pytest.raises(TooLargeError):
            analytic.mantissa_density(analytic.UniformLog(-300.0, 300.0), 2000)
        assert analytic.mantissa_density(analytic.UniformLog(-300.0, 300.0), 1000).size == 1000


SHIFTED_KX = (lambda x: 1.0 / (math.log(10.0) * (x - 4.0)), 5.0, 14.0)
SEMICIRCLE_X, (SEMI_LO, SEMI_HI) = analytic.induced_x_density(analytic.SemiCircularLog(11.0, 0.8))


class TestQuad:
    @pytest.mark.parametrize("f,a,b,tol", [
        (Normal(0.0, 1.0).pdf, -3.0, 2.0, 1e-10),
        (Normal(0.0, 1.0).pdf, 0.1, 0.2, 1e-10),
        (LogNormal(0.0, 1.0).pdf, 0.01, 50.0, 1e-10),
        (LogNormal(0.0, 1.0).pdf, 1.0, 2.0, 1e-10),
        # next to the x^(-1/2) pole at 0
        (Gamma(0.5, 1.0).pdf, 1e-12, 2e-12, 1e-10),
        (Gamma(0.5, 1.0).pdf, 1e-300, 2e-300, 1e-10),
        (Gamma(0.5, 1.0).pdf, 1e-8, 1.0, 1e-10),
        (*SHIFTED_KX, 1e-10),
        (SEMICIRCLE_X, 2e10, 3e10, 1e-10),
        # the square-root edges need the tighter tolerance
        (SEMICIRCLE_X, SEMI_LO, SEMI_HI, 1e-13),
    ], ids=["normal", "normal-short", "lognormal", "lognormal-short", "gamma-pole-1e-12",
            "gamma-pole-1e-300", "gamma-to-pole", "shifted-kx", "semicircle-digit", "semicircle"])
    def test_agrees_with_scipy(self, f, a, b, tol):
        from scipy import integrate

        want = integrate.quad(f, a, b, limit=200, epsabs=0.0, epsrel=1e-13)[0]
        value, err = analytic.quad(f, a, b, tol)
        assert value == pytest.approx(want, rel=1e-12, abs=0.0)
        assert err <= tol * max(1.0, abs(value))

    @pytest.mark.parametrize("f", [lambda x: math.inf, lambda x: math.nan,
                                   lambda x: math.inf if x < 0.5 else 1.0])
    def test_non_finite_raises(self, f):
        with pytest.raises(QuadratureFailureError):
            analytic.quad(f, 0.0, 1.0, 1e-9)

    @pytest.mark.parametrize("a,b", [(0.0, math.inf), (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)])
    def test_needs_finite_ordered_limits(self, a, b):
        with pytest.raises(BadRangeError):
            analytic.quad(math.exp, a, b, 1e-9)

    def test_limit_caps_the_pieces(self, monkeypatch):
        # sqrt's infinite slope at 0 keeps the error estimate above 1e-15
        # until the pieces run out; the value is still close
        monkeypatch.setattr(analytic, "_LIMIT", 5)
        value, err = analytic.quad(math.sqrt, 0.0, 1.0, 1e-15)
        assert err > 1e-15
        assert value == pytest.approx(2.0 / 3.0, rel=1e-4)

    def test_gompertz_mean(self):
        # the integral of x pdf(x) over [0, 40]: the value scipy.integrate.quad gave
        # before the in-house rule
        g = Gompertz(1.0, 1.0)
        mean = analytic.quad(lambda x: x * g.pdf(x), 0.0, 40.0, 1e-12)[0]
        assert mean == pytest.approx(1.4287201581256104, rel=0.0, abs=1e-14)


class TestLdOfDensity:
    def test_tolerance_takes_effect(self):
        # the square-root edges of the semicircle need more pieces the tighter tol is
        calls = []

        def pdf(x):
            calls.append(x)
            return SEMICIRCLE_X(x)

        loose = analytic.ld_of_density(pdf, (SEMI_LO, SEMI_HI), tol=1e-3)
        n_loose = len(calls)
        tight = analytic.ld_of_density(pdf, (SEMI_LO, SEMI_HI), tol=1e-13)
        assert len(calls) - n_loose > 2 * n_loose
        assert 1e-9 < loose.l_inf(tight) < 1e-3

    @pytest.mark.parametrize("model,far", [
        (Gamma(2.0, 1.0), Gamma(2.0, 1e300)),
        (Weibull(2.0, 1.0), Weibull(2.0, 1e300)),
        (Gamma(2.0, 1.0), Gamma(2.0, 1e-300)),
        (Normal(0.0, 1.0), Normal(0.0, 1e-300)),
    ], ids=["gamma-1e300", "weibull-1e300", "gamma-1e-300", "normal-1e-300"])
    def test_mass_far_from_decade_zero_is_found(self, model, far):
        # a scale of 10^(+-300) keeps the leading-digit law; the walk starts
        # where 10^j pdf(10^j) peaks instead of at decade 0
        def ld(m):
            sup = m.support()
            return analytic.ld_of_density(m.pdf, (sup.lo, sup.hi), tol=1e-10)

        assert ld(far).l_inf(ld(model)) < 1e-12

    @pytest.mark.parametrize("model,want", [
        # pdf(1) and pdf(10) underflow to 0; the mass is found at 5 * 10^j
        (Normal(5.0, 0.1), {4: 0.5, 5: 0.5}),
        (Normal(50.0, 1.0), {4: 0.5, 5: 0.5}),
        (Normal(5e100, 1e99), {4: 0.5, 5: 0.5}),
        # zero at every d * 10^j too: the walk starts at decade 0, as it always did
        (Normal(5.5, 0.01), {5: 1.0}),
        # the pdf divides by zero at 1e-323 and its mass is 9.4 sigma inside [4, 5)
        (LogNormal(1.6, 0.001), {4: 1.0}),
    ], ids=["normal-5", "normal-50", "normal-5e100", "normal-5.5", "lognormal-narrow"])
    def test_narrow_mass_between_powers_of_ten(self, model, want):
        sup = model.support()
        ld = analytic.ld_of_density(model.pdf, (sup.lo, sup.hi), tol=1e-10)
        for d in range(1, 10):
            assert ld.probs[d] == pytest.approx(want.get(d, 0.0), abs=1e-12)

    def test_shifted_kx(self):
        k = 1.0 / math.log(10.0)
        r = analytic.ld_of_density(lambda x: k / (x - 4) if 5 <= x <= 14 else 0.0, (5, 14))
        published = [0.22, 0.0, 0.0, 0.0, 0.30, 0.18, 0.12, 0.10, 0.08]
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(published[d - 1], abs=0.005)

    def test_mixed_sign_kx(self):
        k = 1.0 / math.log(10.0)
        r = analytic.ld_of_density(lambda x: k / (x + 4) if -3 <= x <= 6 else 0.0, (-3, 6))
        published = [0.28, 0.39, 0.08, 0.08, 0.07, 0.02, 0.02, 0.03, 0.03]
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(published[d - 1], abs=0.005)

    def test_flat_density(self):
        r = analytic.ld_of_density(lambda x: 1 / 900 if 100 <= x <= 1000 else 0.0, (100, 1000))
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(100 * 1 / 900 * (1 if d < 10 else 0), abs=1e-9)

    def test_shifted_kx_long_range(self):
        # k/(x-4) over (5, 1004): close to Benford on (100, 1000), not on (10, 100)
        k = 1.0 / math.log(1000.0)

        def pdf(x):
            return k / (x - 4) if 5 <= x <= 1004 else 0.0

        def conditional(lo, hi):
            from scipy import integrate

            vec = []
            for d in DIGITS:
                total = 0.0
                j = int(math.floor(math.log10(lo)))
                while 10.0**j < hi:
                    a, b = max(lo, d * 10.0**j), min(hi, (d + 1) * 10.0**j)
                    if b > a:
                        total += integrate.quad(pdf, a, b)[0]
                    j += 1
                vec.append(total)
            s = sum(vec)
            return [v / s for v in vec]

        high = conditional(100, 1000)
        low = conditional(10, 100)
        assert max(abs(high[d - 1] - benford_first(d)) for d in DIGITS) < 0.01
        assert max(abs(low[d - 1] - benford_first(d)) for d in DIGITS) > 0.02

    def test_symmetric_x_densities_fail_benford(self):
        cases = [Uniform(0.0, b) for b in (3.0, 7.0, 50.0)] + [
            Normal(m, s) for m, s in ((10.0, 3.0), (100.0, 40.0), (5.0, 1.0))
        ]
        for model in cases:
            sup = model.support()
            r = analytic.ld_of_density(model.pdf, (sup.lo, sup.hi), tol=1e-9)
            assert max_dev_from_benford(r) > 0.02


class TestLdDecades:
    def test_lognormal_table14_locals(self):
        dec = analytic.ld_decades(LogNormal(1.0, 2.3), (-3, 4))
        by_span = dict(zip(dec.decades, dec.locals_))
        # true conditional digit-1 shares (the published 78-case simulated
        # column for the top decade carries ~0.055 standard error)
        assert by_span[(1.0, 10.0)].probs[1] == pytest.approx(0.31, abs=0.02)
        assert by_span[(1000.0, 10000.0)].probs[1] == pytest.approx(0.6197, abs=0.01)

    def test_powerlaw_locals_all_benford(self):
        dec = analytic.ld_decades(PowerLaw(1.0, 1.0, 1000.0), (0, 2))
        for loc in dec.locals_:
            assert max_dev_from_benford(loc) < 1e-9

    def test_exponential_inflection_decade(self):
        # the decade containing 1/p hosts the most logarithmic-like local
        # LD; its true deviation is ~0.05 (the published column shows the
        # same gap: digit-1 at 0.24 vs 0.30)
        dec = analytic.ld_decades(Exponential(0.02547), (-2, 3))
        by_span = dict(zip(dec.decades, dec.locals_))
        inflection = by_span[(10.0, 100.0)]
        assert max_dev_from_benford(inflection) < 0.07
        for span in ((0.1, 1.0), (1000.0, 10000.0)):
            assert max_dev_from_benford(by_span[span]) > max_dev_from_benford(inflection)

    def test_blend_identity(self):
        for model in (LogNormal(1.0, 2.3), Exponential(0.02547), PowerLaw(1.0, 1.0, 1000.0)):
            lo, hi = (-3, 4) if not isinstance(model, PowerLaw) else (0, 2)
            dec = analytic.ld_decades(model, (lo, hi))
            # the blend is the LD of the density restricted to the decades
            restricted = analytic.ld_of_density(model.pdf, (10.0**lo, 10.0 ** (hi + 1)), tol=1e-10)
            assert dec.overall.l_inf(restricted) < 1e-9
            assert sum(dec.weights) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("decades", [(300, 308), (-324, -323), (-324, 307), (5, 4)])
    def test_decades_past_the_doubles_rejected(self, decades):
        # 10.0**309 overflows and 10.0**-324 is 0.0: refused before any quad
        with pytest.raises(BadRangeError, match="-323 <= j_lo <= j_hi <= 307"):
            analytic.ld_decades(LogNormal(1.0, 2.3), decades)

    def test_decades_at_the_ends_of_the_doubles_run(self):
        dec = analytic.ld_decades(LogNormal(1.0, 2.3), (-323, 307))
        assert dec.decades[0] == (1e-323, 1e-322) and dec.decades[-1] == (1e307, 1e308)
        assert sum(dec.weights) == pytest.approx(1.0, abs=1e-9)
        top = analytic.ld_decades(Uniform(0.0, 1e308), (307, 307))
        assert top.weights == [1.0]
        assert top.truncated_mass == pytest.approx(0.1, abs=1e-12)
        assert max(abs(p - 1 / 9) for p in top.locals_[0].probs.values()) < 1e-12
        # the lowest decade passes the range check; this model has no mass there
        with pytest.raises(QuadratureFailureError, match="no mass"):
            analytic.ld_decades(LogNormal(1.0, 2.3), (-323, -323))


class TestInflectionPoint:
    def test_exponential(self):
        assert analytic.ld_inflection_point(Exponential(0.271)) == pytest.approx(3.690, abs=1e-3)
        assert analytic.ld_inflection_point(Exponential(1.0)) == 1.0

    def test_lognormal(self):
        assert analytic.ld_inflection_point(LogNormal(2.303, 1.11)) == pytest.approx(10.0, abs=0.01)

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamilyError):
            analytic.ld_inflection_point(Uniform(0.0, 1.0))


class TestRatioOfUniforms:
    def test_closed_form(self):
        r = analytic.ratio_of_uniforms_ld()
        assert r.probs[1] == pytest.approx(1 / 3, abs=1e-12)
        assert r.probs[9] == pytest.approx(0.0617, abs=1e-4)
        published = [0.333, 0.148, 0.102, 0.083, 0.074, 0.069, 0.066, 0.063, 0.062]
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(published[d - 1], abs=1e-3)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(2024)
        x = rng.random(10**6) / rng.random(10**6)
        mant = np.log10(x) % 1.0
        bounds = np.array([math.log10(d) for d in range(1, 11)])
        digs = np.searchsorted(bounds, mant, side="right").clip(1, 9)
        shares = np.bincount(digs, minlength=10)[1:10] / x.size
        r = analytic.ratio_of_uniforms_ld()
        for d in DIGITS:
            assert abs(shares[d - 1] - r.probs[d]) < 0.003


class TestOverSteepness:
    def test_benford_is_zero(self):
        from digitlab.digits import benford_distribution

        assert analytic.over_steepness(benford_distribution()) == pytest.approx(0.0, abs=1e-12)

    def test_steep_power_law_positive(self):
        assert analytic.over_steepness(analytic.ld_power_law(2.0, 1.0, 1000.0)) > 0

    def test_shallow_power_law_negative(self):
        assert analytic.over_steepness(analytic.ld_power_law(0.5, 1.0, 1000.0)) < 0


class TestPropositions:
    def test_log_of_kx_is_uniform(self):
        # samples of k/x over (10^0.5, 10^3.5), log10-transformed, pass a KS
        # uniformity test at the 1% level
        rng = np.random.default_rng(77)
        model = PowerLaw(1.0, 10.0**0.5, 10.0**3.5)
        logs = np.log10(model.sample_n(100_000, rng))
        stat, pvalue = stats.kstest(logs, "uniform", args=(0.5, 3.0))
        assert pvalue > 0.01

    def test_ten_to_uniform_density_is_reciprocal(self):
        # 10**U(R, S) has empirical density proportional to 1/x binwise
        rng = np.random.default_rng(78)
        y = rng.uniform(1.0, 4.0, 200_000)
        x = 10.0**y
        # interior decade (100, 1000), 9 logarithmic bins
        edges = np.logspace(2, 3, 10)
        hist, _ = np.histogram(x, bins=edges)
        density = hist / np.diff(edges) / x.size
        k = 1.0 / (3.0 * math.log(10.0))
        centers = np.sqrt(edges[:-1] * edges[1:])
        expected = k / centers
        assert np.max(np.abs(density / expected - 1.0)) < 0.05
