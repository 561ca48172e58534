"""Acceptance suite: one test per published-results criterion.

Each test prints an `ACCEPTANCE <id> ... PASS/FAIL` line.  Tolerances are
pinned here, not configurable.  Every criterion must pass.

Six sub-criteria, named *_published_figure, cover published figures that no
correct computation reaches (simulation noise, typos, or tolerances the
mathematics rules out).  Each of them records the published figure and the
size of its gap in a comment, and asserts the exact value instead, backed by
a reference computed in the test itself along a path that does not go
through the code under test.

Monte Carlo criteria run with frozen seeds; the verdict-grid seeds are
(101, 202, 303).
"""

import csv
import math
import os

import numpy as np
import pytest

from digitlab import analytic, chains, conformity, growth, schemes
from chainability_grid import GRID
from digitlab.digits import (
    benford_first,
    benford_nth_unconditional,
    benford_conditional,
    digital_usage,
)
from digitlab.distributions import Exponential, GeneralizedExp1, Normal

DIGITS = range(1, 10)
ARTIFACTS = os.path.join(os.path.dirname(__file__), "_artifacts")


def _announce(tag: str):
    """Decorator printing the criterion verdict line."""

    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {tag}: FAIL")
                raise
            print(f"ACCEPTANCE {tag}: PASS")
            return out

        inner.__name__ = fn.__name__
        return inner

    return wrap


def _match_archive(name: str, header, rows):
    """Compare computed rows with the tracked CSV of the same curve.

    Same header, same row count, every value within 1e-12.  A drift fails
    the test instead of rewriting the file in the source tree.
    """
    with open(os.path.join(ARTIFACTS, name), newline="") as fh:
        tracked = list(csv.reader(fh))
    assert tracked[0] == header, name
    assert len(tracked) - 1 == len(rows), name
    for want, got in zip(tracked[1:], rows):
        assert [float(v) for v in got] == pytest.approx([float(v) for v in want], abs=1e-12), (
            f"{name}: computed {got} drifted from archived {want}"
        )


# -- 1. Benford law tables ---------------------------------------------------

DIGIT_LAW_ROWS = {
    1: [0.0, 30.1, 17.6, 12.5, 9.7, 7.9, 6.7, 5.8, 5.1, 4.6],
    2: [12.0, 11.4, 10.9, 10.4, 10.0, 9.7, 9.3, 9.0, 8.8, 8.5],
    3: [10.2, 10.1, 10.1, 10.1, 10.0, 10.0, 9.9, 9.9, 9.9, 9.8],
}
USAGE_4_DIGIT = [8.0, 15.4, 12.2, 10.7, 9.9, 9.4, 9.0, 8.7, 8.4, 8.2]
USAGE_7_DIGIT = [8.9, 13.1, 11.2, 10.4, 10.0, 9.7, 9.4, 9.2, 9.1, 9.0]


@_announce("1 digit-law tables")
def test_criterion_01_digit_law_tables():
    for d in DIGITS:
        assert benford_first(d) * 100 == pytest.approx(DIGIT_LAW_ROWS[1][d], abs=0.1)
    for order in (2, 3):
        for d in range(10):
            got = benford_nth_unconditional(order, d) * 100
            assert got == pytest.approx(DIGIT_LAW_ROWS[order][d], abs=0.1)
    u4, u7 = digital_usage(4), digital_usage(7)
    for d in range(10):
        assert u4[d] * 100 == pytest.approx(USAGE_4_DIGIT[d], abs=0.1)
        assert u7[d] * 100 == pytest.approx(USAGE_7_DIGIT[d], abs=0.1)
    assert benford_conditional(2, 2, [1]) == pytest.approx(0.115, abs=1e-3)
    assert benford_conditional(2, 2, [9]) == pytest.approx(0.103, abs=1e-3)


# -- 2. Averaging schemes ----------------------------------------------------

SIMPLE_SCHEME_COLUMNS = {
    (1, 1, 9):          [31.4, 20.3, 14.8, 11.1, 8.3, 6.1, 4.2, 2.6, 1.2],
    (1, 1, 99):         [25.3, 18.7, 14.6, 11.6, 9.3, 7.4, 5.8, 4.3, 3.1],
    (1, 1, 999):        [24.3, 18.4, 14.6, 11.7, 9.5, 7.6, 6.0, 4.6, 3.4],
    (1, 1, 9999):       [24.2, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.6, 3.4],
    (1, 1, 99999):      [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
    (1, 1000, 10000):   [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
    (1, 10000, 100000): [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
}
STIGLER = [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4]
DEPTH2_DIGIT1 = {(1, 99): 34.8, (1, 999): 30.9, (1, 9999): 30.2, (99, 999): 30.5, (1, 3000): 30.5}
DEPTH3_DIGIT1 = [(1, (99, 999), 32.4), (9, (99, 300), 30.6), (9, (99, 999), 31.9),
             (35, (79, 238), 29.5), (17, (55, 333), 31.5)]


@_announce("2 averaging schemes")
def test_criterion_02_averaging_schemes():
    for args, col in SIMPLE_SCHEME_COLUMNS.items():
        res = schemes.simple_scheme(*args)
        for d in DIGITS:
            assert res.ld.probs[d] * 100 == pytest.approx(col[d - 1], abs=0.3)
    res = schemes.simple_scheme(1, 10000, 100000)
    for d in DIGITS:
        assert res.ld.probs[d] * 100 == pytest.approx(STIGLER[d - 1], abs=0.1)
    for top, want in DEPTH2_DIGIT1.items():
        assert schemes.iterated_scheme(1, 1, top, 2).ld.probs[1] * 100 == pytest.approx(want, abs=0.3)
    for mid, top, want in DEPTH3_DIGIT1:
        got = schemes.iterated_scheme(1, 1, top, 3, mid_min=mid).ld.probs[1] * 100
        assert got == pytest.approx(want, abs=0.3)


# -- 3. k/x exactness --------------------------------------------------------


@_announce("3a k/x integer-exponent exactness")
def test_criterion_03a_kx_exactness():
    for g in range(1, 11):
        for s in (0.0, 0.25, 1.7):
            r = analytic.ld_kx(s, g)
            assert max(abs(r.probs[d] - benford_first(d)) for d in DIGITS) < 1e-12


LOG10_EDGES = np.log10(np.arange(1.0, 11.0))
LOG10_2 = math.log10(2.0)


def _kx_deviation(g: float) -> float:
    """max_d |LD_d - Benford_d| of k/x on [1, 10**g], in closed form.

    The mantissa of k/x is uniform on [0, g].  The floor(g) whole decades
    give Benford exactly; the leftover [0, f), f = frac(g), puts
    clip(f - log10 d, 0, w_d) on digit d instead of f w_d, w_d = log10(1+1/d).
    """
    f = g % 1.0
    widths = np.diff(LOG10_EDGES)
    overlap = np.clip(f - LOG10_EDGES[:-1], 0.0, widths)
    return float(np.max(np.abs(overlap - f * widths)) / g)


def _kx_envelope(g: float) -> float:
    # no digit deviates by more than digit 1 does at f = log10 2
    return LOG10_2 * (1.0 - LOG10_2) / g


def _kx_program_deviation(g: float) -> float:
    return max(abs(analytic.ld_kx(0.0, g).probs[d] - benford_first(d)) for d in DIGITS)


@_announce("3b k/x non-integer deviation curve")
def test_criterion_03b_kx_noninteger_published_figure():
    # Published: max deviation below 1e-3 for g >= 26.  The true worst on
    # [26, 30] is 7.97e-3, eight times that bound; the envelope
    # log10(2)(1 - log10(2))/g ~ 0.2104/g drops below 1e-3 only past
    # g ~ 210.4.  Asserted instead: the curve equals the closed form of
    # _kx_deviation, vanishes at integer g, stays under the envelope, and
    # crosses 1e-3 between g = 200.301 and g = 211.301.
    grid = np.arange(1.0, 30.0 + 1e-9, 0.05)
    rows = []
    for g in grid:
        g = float(g)
        dev = _kx_program_deviation(g)
        assert dev == pytest.approx(_kx_deviation(g), abs=1e-12), g
        assert dev <= _kx_envelope(g) + 1e-12, g
        if abs(g - round(g)) < 1e-9:
            assert dev <= 1e-12, g
        rows.append((round(g, 2), dev))
    _match_archive("kx_noninteger_deviation.csv", ["g", "max_abs_deviation"], rows)
    for g in (200.301, 211.301):
        assert _kx_program_deviation(g) == pytest.approx(_kx_deviation(g), abs=1e-12), g
    assert _kx_program_deviation(200.301) > 1e-3
    assert _kx_program_deviation(211.301) < 1e-3
    # the envelope decreases in g, so the bound holds from 211.301 on
    assert _kx_envelope(211.301) < 1e-3


# -- 4. Power-law table ------------------------------------------------------

POWER_LAW_LD_COLUMNS = {
    0.5: [0.19, 0.15, 0.12, 0.11, 0.10, 0.09, 0.08, 0.08, 0.08],
    1:   [0.30, 0.18, 0.12, 0.10, 0.08, 0.07, 0.06, 0.05, 0.05],
    2:   [0.56, 0.19, 0.09, 0.06, 0.04, 0.03, 0.02, 0.02, 0.01],
    3:   [0.76, 0.14, 0.05, 0.02, 0.01, 0.01, 0.00, 0.00, 0.00],
    4:   [0.88, 0.09, 0.02, 0.01, 0.00, 0.00, 0.00, 0.00, 0.00],
    5:   [0.94, 0.05, 0.01, 0.00, 0.00, 0.00, 0.00, 0.00, 0.00],
}
# m = 5 is published as 4.03, a typo 0.03 off the exact 4/(1 - 1e-12)
POWER_LAW_K_ROW = {0.5: 0.02, 1: 0.14, 2: 1.00, 3: 2.00, 4: 3.01, 5: 4.00}


@_announce("4a power-law table LD cells")
def test_criterion_04a_power_law_cells():
    for m, col in POWER_LAW_LD_COLUMNS.items():
        r = analytic.ld_power_law(float(m), 1.0, 1000.0)
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(col[d - 1], abs=0.01), (m, d)


@_announce("4b power-law normalization row")
def test_criterion_04b_power_law_k_published_figure():
    # Closed-form k: (1-m)/(hi^(1-m) - lo^(1-m)), 1/ln(hi/lo) at m = 1.  The
    # published 4.03 at m = 5 differs from the exact 4.000000000004 by 0.03;
    # the row asserts 4.00, and the normalization is checked by quadrature.
    from scipy import integrate

    from digitlab.distributions import PowerLaw

    lo, hi = 1.0, 1000.0
    for m, want in POWER_LAW_K_ROW.items():
        law = PowerLaw(float(m), lo, hi)
        got = law.k
        closed = 1.0 / math.log(hi / lo) if m == 1 else (1 - m) / (hi ** (1 - m) - lo ** (1 - m))
        assert got == pytest.approx(closed, rel=1e-12), m
        assert integrate.quad(law.pdf, lo, hi)[0] == pytest.approx(1.0, abs=1e-9), m
        assert got == pytest.approx(want, abs=0.01), (
            f"m={m}: exact k = {got:.6f}, table {want}"
        )


# -- 5. Chain convergence ----------------------------------------------------


@_announce("5 depth-4 uniform chain convergence")
def test_criterion_05_chain_convergence():
    n = 200_000
    constants = (1e5, 2e5, 4e5, 5e5, 6e5, 8e5, 9e5)
    acc = np.zeros(9)
    for i, m in enumerate(constants):
        res = chains.simulate_chain(chains.preset("flehinger", depth=4, m=m), n, seed=900 + i)
        acc += np.array([res.ld.probs[d] for d in DIGITS])
    avg = acc / len(constants)
    for d in DIGITS:
        p = benford_first(d)
        se = math.sqrt(p * (1 - p) / (n * len(constants)))
        assert abs(avg[d - 1] - p) < 0.01 + 3 * se


# -- 6. Chainability grid ----------------------------------------------------


@_announce("6 chainability verdict grid")
def test_criterion_06_chainability_grid():
    failures = []
    for row in GRID:
        verdict, results = chains.chainability_majority(
            row.family, row.chained, row.fixed, chainer=row.chainer,
            seeds=(101, 202, 303), baseline_values=row.baseline or None)
        if verdict not in row.expected.split("|"):
            failures.append((row.family, row.chained, row.expected, verdict,
                             [(round(r.chi_chained, 1), round(r.chi_baseline, 1)) for r in results]))
    assert not failures, failures
    assert len(GRID) == 51


# -- 7. Power-of-ten invariance ----------------------------------------------


@_announce("7 power-of-ten invariance")
def test_criterion_07_invariance():
    assert chains.power_of_ten_invariance_check(Exponential(0.3), 1, "analytic") < 1e-9
    assert chains.power_of_ten_invariance_check(Normal(5.0, 2.0), 1, "analytic") < 1e-9
    d = chains.power_of_ten_invariance_check(
        GeneralizedExp1(1.0, 3.0), 1, mode="montecarlo", n=10**6, seed=71)
    assert d > 0.01


# -- 8. Analytic case studies ------------------------------------------------

SEMICIRCLE_LD_COLUMNS = {
    1.0: [0.2828, 0.1919, 0.1377, 0.1047, 0.0827, 0.0669, 0.0544, 0.0442, 0.0347],
    # digit 2 is published as 0.1783, 6.2e-4 off the exact 0.177682
    2.1: [0.2987, 0.1777, 0.1265, 0.0979, 0.0787, 0.0662, 0.0562, 0.0511, 0.0464],
}
# exact LD of p e^{-px} at p = 0.069314718, to 4 decimals
EXP_VECTOR = [0.3211, 0.1909, 0.1244, 0.0895, 0.0704, 0.0594, 0.0525, 0.0477, 0.0441]
# published: sums to 0.997, is up to 3.1e-3 off EXP_VECTOR, and lies within
# 2.6e-3 of the exact LD at no p whatever
EXP_VECTOR_PUBLISHED = [0.318, 0.189, 0.127, 0.088, 0.069, 0.062, 0.051, 0.047, 0.046]
SHIFTED = [0.22, 0.0, 0.0, 0.0, 0.30, 0.18, 0.12, 0.10, 0.08]
MIXED = [0.28, 0.39, 0.08, 0.08, 0.07, 0.02, 0.02, 0.03, 0.03]


def _exponential_ld_cycle():
    """Exact LD rows of p e^{-px} for 4001 log-spaced p over the cycle [0.01, 0.1].

    Scaling p by 10 only shifts the decades, so the LD is periodic in
    log10 p and one decade of p holds every value it takes.  P(d) is the
    decade sum over j of e^{-p d 10^j} - e^{-p (d+1) 10^j}, vectorized over
    (p, j, d) here without analytic.ld_exponential; j in [-18, 6] leaves
    out terms below 1e-19.
    """
    p = 10.0 ** np.linspace(-2.0, -1.0, 4001)
    d = np.arange(1.0, 10.0)
    width = p[:, None, None] * 10.0 ** np.arange(-18.0, 7.0)[None, :, None]
    terms = np.exp(-width * d) * -np.expm1(-width)
    return terms.sum(axis=1)


@_announce("8a semicircular log-density table")
def test_criterion_08a_semicircle_columns_published_figure():
    # 17 of 18 published cells agree within 4.4e-4.  The R = 2.1 digit-2
    # cell is published as 0.1783 while the exact folded value is 0.177682,
    # 6.2e-4 apart; the table holds 0.1777.  The folding is cross-checked
    # against quadrature of the induced x-space density.
    for radius, col in SEMICIRCLE_LD_COLUMNS.items():
        spec = analytic.SemiCircularLog(11.0, radius)
        r = analytic.ld_ten_to_symmetric(spec)
        assert analytic.ld_of_density(*analytic.induced_x_density(spec)).l_inf(r) < 1e-9
        for d in DIGITS:
            assert r.probs[d] == pytest.approx(col[d - 1], abs=5e-4), (
                f"R={radius} digit {d}: exact {r.probs[d]:.5f} vs table {col[d - 1]}"
            )


@_announce("8b exponential LD vector")
def test_criterion_08b_exponential_vector_published_figure():
    # The published vector carries simulation-grade error (see
    # EXP_VECTOR_PUBLISHED); no choice of p reproduces it, so it is not a
    # parameter mismatch.  The decade sum is asserted against EXP_VECTOR
    # and cross-checked by quadrature of the density itself.
    p = 0.069314718
    r = analytic.ld_exponential(p)
    quad = analytic.ld_of_density(lambda x: p * math.exp(-p * x), (0.0, math.inf))
    assert quad.l_inf(r) < 1e-9
    for d in DIGITS:
        assert r.probs[d] == pytest.approx(EXP_VECTOR[d - 1], abs=1e-4), (
            f"digit {d}: exact {r.probs[d]:.6f} vs table {EXP_VECTOR[d - 1]}"
        )
    cycle = _exponential_ld_cycle()
    assert np.abs(cycle - EXP_VECTOR_PUBLISHED).max(axis=1).min() > 2.6e-3


@_announce("8c ratio of uniforms vs Monte Carlo")
def test_criterion_08c_ratio_uniforms():
    rng = np.random.default_rng(88)
    x = rng.random(10**6) / rng.random(10**6)
    mant = np.log10(x) % 1.0
    bounds = np.array([math.log10(d) for d in range(1, 11)])
    shares = np.bincount(np.searchsorted(bounds, mant, side="right").clip(1, 9),
                         minlength=10)[1:10] / x.size
    closed = analytic.ratio_of_uniforms_ld()
    for d in DIGITS:
        assert abs(shares[d - 1] - closed.probs[d]) < 0.003


@_announce("8d shifted and mixed-sign densities")
def test_criterion_08d_shifted_mixed():
    k = 1.0 / math.log(10.0)
    r = analytic.ld_of_density(lambda x: k / (x - 4) if 5 <= x <= 14 else 0.0, (5, 14))
    for d in DIGITS:
        assert r.probs[d] == pytest.approx(SHIFTED[d - 1], abs=0.005)
    r = analytic.ld_of_density(lambda x: k / (x + 4) if -3 <= x <= 6 else 0.0, (-3, 6))
    for d in DIGITS:
        assert r.probs[d] == pytest.approx(MIXED[d - 1], abs=0.005)


# -- 9. Exponential oscillation ----------------------------------------------

# Exact cycle amplitudes (max - min over p, in %) of the exponential's LD.
# The published row [6.2, 4.3, 3.3, 2.8, 2.2, 2.0, 1.7, 1.6, 1.5] sits
# 0.32-0.63 above every one of them, as an extreme-value bias of a
# simulated sweep would.
OSCILLATION_AMPLITUDES = [5.8809, 3.8106, 2.7742, 2.1742, 1.7856, 1.5142, 1.3141, 1.1605, 1.0390]


@_announce("9 exponential oscillation amplitudes")
def test_criterion_09_oscillation_published_figure():
    # The p-grid below reproduces the exact amplitudes to 1.8e-4, so it
    # does not undersample the crests; the exact amplitudes are recomputed
    # over a full cycle by _exponential_ld_cycle.
    cycle = _exponential_ld_cycle()
    exact = (cycle.max(axis=0) - cycle.min(axis=0)) * 100
    for d in DIGITS:
        assert exact[d - 1] == pytest.approx(OSCILLATION_AMPLITUDES[d - 1], abs=1e-4), d
    ps = np.arange(0.05, 35.0 + 1e-9, 0.05)
    per_digit = {d: [] for d in DIGITS}
    for p in ps:
        r = analytic.ld_exponential(float(p))
        for d in DIGITS:
            per_digit[d].append(r.probs[d])
    rows = []
    for d in DIGITS:
        amp = (max(per_digit[d]) - min(per_digit[d])) * 100
        rows.append((d, round(amp, 4)))
    _match_archive("exponential_oscillation_amplitudes.csv", ["digit", "amplitude_pct"], rows)
    for d, amp in rows:
        assert amp == pytest.approx(exact[d - 1], abs=1e-3), (
            f"digit {d}: grid amplitude {amp:.4f} vs exact {exact[d - 1]:.4f}"
        )


# -- 10. Growth singularities -------------------------------------------------

BASIC_SINGULAR_RATES = [
    (1, 1, 900.0000), (1, 2, 216.2278), (1, 3, 115.4435), (1, 4, 77.8279),
    (1, 5, 58.4893), (1, 6, 46.7799), (1, 7, 38.9495), (1, 8, 33.3521),
    (1, 9, 29.1550), (1, 10, 25.8925), (1, 11, 23.2847), (1, 12, 21.1528),
    (1, 13, 19.3777), (1, 14, 17.8769), (1, 15, 16.5914), (1, 16, 15.4782),
    (1, 17, 14.5048), (1, 18, 13.6464), (1, 19, 12.8838), (1, 20, 12.2018),
    (1, 21, 11.5884), (1, 22, 11.0336), (1, 23, 10.5295), (1, 24, 10.0694),
    (1, 25, 9.6478), (1, 26, 9.2601), (1, 27, 8.9023), (1, 28, 8.5711),
    (1, 29, 8.2637), (1, 30, 7.9775), (1, 31, 7.7105), (1, 32, 7.4608),
    (1, 33, 7.2267), (1, 34, 7.0069), (1, 35, 6.8000), (1, 36, 6.6050),
    (1, 37, 6.4209), (1, 38, 6.2468), (1, 39, 6.0818), (1, 40, 5.9254),
    (1, 41, 5.7768), (1, 42, 5.6354), (1, 43, 5.5008), (1, 44, 5.3725),
    (1, 45, 5.2500), (1, 50, 4.7129), (1, 100, 2.3293),
]
SPAN2_SINGULAR_RATES = [
    (2, 5, 151.1886), (2, 7, 93.0698), (2, 9, 66.8101), (2, 13, 42.5103),
    (2, 17, 31.1134), (2, 23, 22.1677), (2, 25, 20.2264), (2, 47, 10.2943),
    (2, 67, 7.1151), (2, 71, 6.7011), (2, 120, 3.9122), (2, 214, 2.1753),
    (2, 344, 1.3477), (2, 657, 0.7034),
]
GENERAL_SINGULAR_RATES = [
    (3, 4, 462.3413), (3, 5, 298.1072), (3, 7, 168.2696), (4, 7, 272.7594),
    (6, 7, 619.6857), (4, 9, 178.2559), (3, 11, 87.3817), (4, 11, 131.0130),
    (5, 12, 161.0157), (4, 13, 103.0918), (4, 17, 71.9072), (3, 25, 31.8257),
    (4, 25, 44.5440), (6, 25, 73.7801), (7, 25, 90.5461), (8, 25, 108.9296),
    (11, 25, 175.4229), (13, 25, 231.1311), (17, 25, 378.6301), (19, 25, 475.4399),
    (23, 25, 731.7638), (24, 25, 812.0108), (3, 67, 10.8603), (6, 67, 22.9001),
    (20, 67, 98.8417), (50, 67, 457.5305), (20, 123, 45.4125), (20, 133, 41.3761),
    (3, 344, 2.0284), (4, 344, 2.7136), (6, 344, 4.0979), (20, 344, 14.3246),
    (50, 344, 39.7490), (20, 345, 14.2802), (277, 600, 189.5121), (20, 1223, 3.8373),
    (277, 3000, 23.6896), (500, 11200, 10.8263), (747, 13577, 13.5062),
]
# Table 17 chi-square column at base 3, 1000 elements (deterministic).
BASIC_RATE_CHI = {
    1: 7003.9, 2: 6464.6, 3: 1918.1, 4: 1659.7, 5: 954.2, 6: 785.1, 7: 418.9,
    8: 518.2, 9: 416.9, 10: 296.4, 12: 122.5, 16: 36.9, 25: 51.9,
}


@_announce("10a singular rates regenerate to 4 decimals")
def test_criterion_10a_rate_columns():
    # one published pair, (500, 11200), is unreduced (gcd 100): the rate is
    # regenerated from the raw quotient and round-trips to (5, 112)
    for l, t, pct in BASIC_SINGULAR_RATES + SPAN2_SINGULAR_RATES + GENERAL_SINGULAR_RATES:
        got = 100.0 * (10.0 ** (l / t) - 1.0)
        assert got == pytest.approx(pct, abs=5.001e-5), (l, t, got)


@_announce("10b detection round-trips")
def test_criterion_10b_detection_round_trips():
    for l, t, _pct in BASIC_SINGULAR_RATES + SPAN2_SINGULAR_RATES + GENERAL_SINGULAR_RATES:
        g = math.gcd(l, t)
        pct = 100.0 * (10.0 ** (l / t) - 1.0)
        rec = growth.detect_anomalous(pct, t_max=t)
        assert rec is not None and (rec.L, rec.T) == (l // g, t // g), (l, t, rec)


@_announce("10c cumulative factor power-of-ten cycle")
def test_criterion_10c_cumulative_factors():
    cases = {29.154: (9, 1), 58.489: (5, 1), 93.070: (7, 2)}
    for pct, (t, l) in cases.items():
        facs = growth.cumulative_factors(pct, 31)
        for j in range(1, 31 // t + 1):
            want = 10.0 ** (l * j)
            assert facs[j * t - 1] == pytest.approx(want, rel=1e-3), (pct, j)


@_announce("10d chi-square columns to order of magnitude")
def test_criterion_10d_chi_columns():
    # deterministic series: most cells land within a few percent; the
    # factor-2 envelope is the stated bound.  Two published general-type
    # cells, (2,5) and (3,4), print the basic-type M=1 value 7003.9; the
    # residue-set identity frac(log10 B + j L/T) == frac(log10 B + j/T)
    # pins their true targets to the published T=5 and T=4 rows instead.
    for m, chi_pub in BASIC_RATE_CHI.items():
        pct = BASIC_SINGULAR_RATES[[r[1] for r in BASIC_SINGULAR_RATES].index(m)][2]
        _, chi = growth.series_ld(growth.GrowthSeries(3.0, pct, 1000))
        assert chi_pub / 2 < chi < chi_pub * 2, (m, chi, chi_pub)
    redirected = {(2, 5): BASIC_RATE_CHI[5], (3, 4): BASIC_RATE_CHI[4]}
    for (l, t), chi_pub in redirected.items():
        pct = growth.AnomalyRecord(l, t).percent
        _, chi = growth.series_ld(growth.GrowthSeries(3.0, pct, 1000))
        assert chi_pub / 2 < chi < chi_pub * 2, (l, t, chi, chi_pub)


@_announce("10e distinct leader counts, T <= 8")
def test_criterion_10e_distinct_digit_labels():
    # published labels: 1 / 2 / 3 / 4-5 / 4-5 / 5-6 / 5-6 / 6-7
    labels = {1: {1}, 2: {2}, 3: {3}, 4: {4, 5}, 5: {4, 5}, 6: {5, 6}, 7: {5, 6}, 8: {6, 7}}
    for t, allowed in labels.items():
        ld, _ = growth.series_ld(growth.GrowthSeries(3.0, growth.AnomalyRecord(1, t).percent, 1000))
        distinct = sum(1 for d in DIGITS if ld.probs[d] > 0)
        assert distinct in allowed, (t, distinct)


@_announce("10f distinct leader count at T = 9")
def test_criterion_10f_t9_label_published_figure():
    # The published label says 7 digits lead; the true count is 6.  The
    # series cycles through the nine anchors 3 * 10**(k/9), which fall in
    # the compartments {1, 2, 3, 5, 6, 8}.  Nor does the published rate
    # 29.1550 reach a seventh: over 1000 elements it moves the anchors by
    # 1.1e-4, while the nearest unused compartment is 3.7e-4 below the
    # k = 2 anchor (log10 5) and the next 0.0138 above k = 1 (log10 4).
    # The set is derived with integers because the k = 0 anchor sits
    # exactly on the digit-3 edge:
    # d leads 3 * 10**(k/9) iff (d 10^e)^9 <= 3^9 10^k < ((d+1) 10^e)^9.
    leaders = {
        d
        for k in range(9)
        for e in (0, 1)
        for d in DIGITS
        if (d * 10**e) ** 9 <= 3**9 * 10**k < ((d + 1) * 10**e) ** 9
    }
    assert leaders == {1, 2, 3, 5, 6, 8}
    ld, _ = growth.series_ld(growth.GrowthSeries(3.0, growth.AnomalyRecord(1, 9).percent, 1000))
    got = {d for d in DIGITS if ld.probs[d] > 0}
    assert got == leaders, f"leaders {sorted(got)}"
    assert len(got) == 6


# -- 11. Property suite -------------------------------------------------------


@_announce("11 property suite")
def test_criterion_11_properties():
    # mantissa periodicity
    from digitlab.digits import mantissa10

    for x in (4.782, 0.0367, 9.0):
        for m in (-3, 2, 6):
            a, b = mantissa10(x), mantissa10(x * 10.0**m)
            assert min(abs(a - b), 1 - abs(a - b)) < 1e-12

    # compartment/first-digit identity
    rng = np.random.default_rng(111)
    vals = 10.0 ** rng.uniform(0.0, 3.0, 20_000)
    res = conformity.compartmental_allotment_test(vals)
    from digitlab.digits import first_digit

    counts = np.bincount([first_digit(float(v)) for v in vals], minlength=10)[1:10]
    for d in DIGITS:
        assert res.masses[d] == pytest.approx(counts[d - 1] / vals.size, abs=1e-12)

    # decade-blend identity
    from digitlab.distributions import LogNormal

    model = LogNormal(1.0, 2.3)
    dec = analytic.ld_decades(model, (-3, 4))
    assert dec.overall.l_inf(analytic.ld_of_density(model.pdf, (1e-3, 1e5), tol=1e-10)) < 1e-9

    # integer-translation invariance of 10**Y
    spec = analytic.SemiCircularLog(11.0, 1.3)
    moved = analytic.ld_ten_to_symmetric(spec.translated(5))
    assert analytic.ld_ten_to_symmetric(spec).l_inf(moved) < 1e-12

    # brute-force interval oracle at the 1e5 boundary
    from digitlab.digits import first_digit as fd

    counts_brute = {d: 0 for d in DIGITS}
    for n in range(99_000, 100_001):
        counts_brute[fd(n)] += 1
    closed = schemes.interval_ld_counts(99_000, 100_000)
    assert closed == counts_brute

    # scheme monotonicity
    r = schemes.simple_scheme(1, 1, 9999)
    for d in range(1, 9):
        assert r.ld.probs[d] >= r.ld.probs[d + 1]

    # anomalous-mantissa cardinality
    for l, t in [(1, 7), (2, 5), (1, 25)]:
        m = growth.series_mantissas(
            growth.GrowthSeries(3.0, growth.AnomalyRecord(l, t).percent, 10 * t))
        assert len(np.unique(np.round(m, 9))) == t
