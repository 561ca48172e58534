"""Tests for the deterministic averaging schemes.

The closed-form digit-block counting is checked against brute-force
enumeration; the published scheme tables are regression targets.
"""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from digitlab import schemes
from digitlab.conformity import chi_sqr_vs_benford
from digitlab.digits import first_digit
from digitlab.errors import BadParamsError, TooLargeError

DIGITS = range(1, 10)


def brute_counts(lb: int, ub: int) -> dict[int, int]:
    counts = {d: 0 for d in DIGITS}
    for n in range(lb, ub + 1):
        counts[first_digit(n)] += 1
    return counts


def fraction_bounds(rate: str, start: int, end: int) -> list[int]:
    """floor(start (1 + rate/100)^j) up to end in exact rational arithmetic, duplicates collapsed."""
    f, x, out = 1 + Fraction(rate) / 100, Fraction(start), []
    while math.floor(x) <= end:
        if not out or math.floor(x) != out[-1]:
            out.append(math.floor(x))
        x *= f
    return out


class TestIntervalLd:
    @pytest.mark.parametrize("lb,ub", [(1, 9), (1, 99), (1, 2999), (5, 5),
                                       (17, 333), (999, 10001), (1, 100000)])
    def test_matches_enumeration(self, lb, ub):
        assert schemes.interval_ld_counts(lb, ub) == brute_counts(lb, ub)

    def test_random_windows_match_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            lb = int(rng.integers(1, 50_000))
            ub = lb + int(rng.integers(0, 50_000))
            assert schemes.interval_ld_counts(lb, ub) == brute_counts(lb, ub)

    def test_known_shares(self):
        r = schemes.interval_ld(1, 2999)
        assert r.probs[1] == pytest.approx(1111 / 2999)
        assert r.probs[2] == pytest.approx(1111 / 2999)
        assert r.probs[3] == pytest.approx(111 / 2999)
        r = schemes.interval_ld(1, 9)
        assert all(r.probs[d] == pytest.approx(1 / 9) for d in DIGITS)
        r = schemes.interval_ld(1, 5)
        assert r.probs[1] == pytest.approx(0.2)
        assert r.probs[7] == 0.0

    def test_huge_bounds_stay_exact(self):
        c = schemes.interval_ld_counts(1, 10**15)
        # counts for digit 1 in [1, 10^15]: sum of 10^k for k=0..14 plus 1
        assert c[1] == sum(10**k for k in range(15)) + 1
        c = schemes.interval_ld_counts(10**18 - 5, 10**18)
        assert c == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 5}

    @pytest.mark.parametrize("call", [
        lambda: schemes.interval_ld_counts(1, 10**18 + 1),
        lambda: schemes.simple_scheme(1, 1, 10**22),
        lambda: schemes.iterated_scheme(1, 1, (5, 10**8 + 1), 2),
        lambda: schemes.fixed_width_scheme(3, 1, 10**8 + 1),
        lambda: schemes.fixed_width_scheme(10**18, 1, 2),
        lambda: schemes.benford_twist_scheme(1e-300, 1, 10),
    ], ids=["bound", "simple bound", "iterated rows", "windows", "window bound", "twist steps"])
    def test_too_large_refused(self, call):
        with pytest.raises(TooLargeError):
            call()

    def test_validation(self):
        with pytest.raises(BadParamsError, match="need 1 <= lb <= ub"):
            schemes.interval_ld(0, 5)
        with pytest.raises(BadParamsError, match="need 1 <= lb <= ub"):
            schemes.interval_ld(7, 3)


# Table of simple averaging schemes: digit -> percent, for each UB range.
PUBLISHED_SIMPLE_COLUMNS = {
    (1, 1, 9):      [31.4, 20.3, 14.8, 11.1, 8.3, 6.1, 4.2, 2.6, 1.2],
    (1, 1, 99):     [25.3, 18.7, 14.6, 11.6, 9.3, 7.4, 5.8, 4.3, 3.1],
    (1, 1, 999):    [24.3, 18.4, 14.6, 11.7, 9.5, 7.6, 6.0, 4.6, 3.4],
    (1, 1, 9999):   [24.2, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.6, 3.4],
    (1, 1, 99999):  [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
    (1, 1000, 10000):   [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
    (1, 10000, 100000): [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4],
}


class TestSimpleScheme:
    @pytest.mark.parametrize("args", sorted(PUBLISHED_SIMPLE_COLUMNS), ids=str)
    def test_published_table(self, args):
        result = schemes.simple_scheme(*args)
        for d in DIGITS:
            assert result.ld.probs[d] * 100 == pytest.approx(PUBLISHED_SIMPLE_COLUMNS[args][d - 1], abs=0.3)

    def test_stigler_column_tight(self):
        result = schemes.simple_scheme(1, 10000, 100000)
        stigler = [24.1, 18.3, 14.5, 11.7, 9.5, 7.6, 6.0, 4.7, 3.4]
        for d in DIGITS:
            assert result.ld.probs[d] * 100 == pytest.approx(stigler[d - 1], abs=0.1)

    def test_decade_periodicity(self):
        # full-decade schemes converge geometrically to a common limit: each
        # decade step shrinks the gap tenfold (exact identity holds only in
        # the limit; the published columns agree at their 3-decimal rounding)
        prev = schemes.simple_scheme(1, 10**2, 10**3)
        last_gap = None
        for k in (3, 4, 5):
            cur = schemes.simple_scheme(1, 10**k, 10 ** (k + 1))
            gap = max(abs(cur.ld.probs[d] - prev.ld.probs[d]) for d in DIGITS)
            assert gap < 5e-4
            if last_gap is not None:
                assert gap < last_gap / 5
            last_gap = gap
            prev = cur

    def test_monotone_digit_shares(self):
        for args in [(1, 1, 9999), (1, 500, 20000), (1, 99, 999)]:
            r = schemes.simple_scheme(*args)
            for d in range(1, 9):
                assert r.ld.probs[d] >= r.ld.probs[d + 1]

    def test_lb_insensitivity(self):
        results = [schemes.simple_scheme(lb, 999, 9999) for lb in DIGITS]
        for a in results:
            for b in results:
                for d in DIGITS:
                    assert abs(a.ld.probs[d] - b.ld.probs[d]) < 0.01


class TestIteratedScheme:
    @pytest.mark.parametrize(
        "top,want",
        [((1, 99), 34.8), ((1, 999), 30.9), ((1, 9999), 30.2),
         ((99, 999), 30.5), ((1, 3000), 30.5)],
    )
    def test_depth2_digit1_columns(self, top, want):
        r = schemes.iterated_scheme(1, 1, top, 2)
        assert r.ld.probs[1] * 100 == pytest.approx(want, abs=0.3)

    def test_depth2_3000_cutoff_artifact(self):
        # the published digit-2 dip at the 3000 cutoff is real, not a typo
        r = schemes.iterated_scheme(1, 1, (1, 3000), 2)
        assert r.ld.probs[2] * 100 == pytest.approx(16.1, abs=0.3)

    @pytest.mark.parametrize(
        "mid,top,want",
        [(1, (99, 999), 32.4), (9, (99, 300), 30.6), (9, (99, 999), 31.9),
         (35, (79, 238), 29.5), (17, (55, 333), 31.5)],
    )
    def test_depth3_digit1_columns(self, mid, top, want):
        r = schemes.iterated_scheme(1, 1, top, 3, mid_min=mid)
        assert r.ld.probs[1] * 100 == pytest.approx(want, abs=0.3)

    def test_depth2_matches_direct_average(self):
        # oracle: plain loop over simple schemes
        lo, hi = 60, 140
        acc = np.zeros(9)
        for t in range(lo, hi + 1):
            r = schemes.simple_scheme(1, 1, t)
            acc += np.array([r.ld.probs[d] for d in DIGITS])
        want = acc / (hi - lo + 1)
        got = schemes.iterated_scheme(1, 1, (lo, hi), 2)
        for d in DIGITS:
            assert got.ld.probs[d] == pytest.approx(want[d - 1], abs=1e-12)

    def test_depth_cap(self):
        with pytest.raises(BadParamsError, match="supports depths 2 and 3, got 4"):
            schemes.iterated_scheme(1, 1, (10, 100), 4)


class TestBenfordTwist:
    def test_beats_simple_scheme(self):
        twist = schemes.benford_twist_scheme(2.0, 99, 999)
        simple = schemes.simple_scheme(1, 99, 999)

        def chi(res):
            return chi_sqr_vs_benford([res.ld.probs[d] * 1000 for d in DIGITS])

        assert chi(twist) < chi(simple)

    def test_long_range_converges(self):
        from digitlab.digits import benford_first

        r = schemes.benford_twist_scheme(2.0, 99, 999999)
        for d in DIGITS:
            assert abs(r.ld.probs[d] - benford_first(d)) < 0.005

    def test_degenerate_single_step(self):
        r = schemes.benford_twist_scheme(2.0, 500, 500)
        base = schemes.interval_ld(1, 500)
        for d in DIGITS:
            assert r.ld.probs[d] == pytest.approx(base.probs[d], abs=1e-15)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(BadParamsError, match="growth_percent must be finite and > 0"):
            schemes.benford_twist_scheme(rate, 99, 999)

    @pytest.mark.parametrize("rate,index,want", [("0.1", 14290, 591862695),
                                                 ("0.25", 5931, 405680106)])
    def test_bounds_are_exact_floors(self, rate, index, want):
        # a float walk x *= f lands one below the true floor at these indices
        bounds = schemes.geometric_upper_bounds(float(rate), 7, 10**9)
        assert bounds == fraction_bounds(rate, 7, 10**9)
        assert bounds[index] == want

    def test_bounds_exact_with_few_guard_bits(self, monkeypatch):
        # 24 fraction bits are too few for the walk alone: nearly every step
        # must fall back on the exact recheck, and the floors stay exact
        monkeypatch.setattr(schemes, "_GUARD_BITS", 24)
        assert schemes.geometric_upper_bounds(2.0, 99, 10**6) == fraction_bounds("2.0", 99, 10**6)

    def test_bounds_sequence(self):
        # 2% growth from 99: the published head of the sequence, fractions floored
        bounds = schemes.geometric_upper_bounds(2.0, 99, 125)
        assert bounds[:5] == [99, 100, 102, 105, 107]


class TestFixedWidthCounterexample:
    def test_not_logarithmic(self):
        r = schemes.fixed_width_scheme(1000, 1, 9000)
        counts = [r.ld.probs[d] * 9000 for d in DIGITS]
        assert chi_sqr_vs_benford(counts) > 100


# ranges spanning three 65,536-row blocks of the streamed schemes, with lb > 1
SPAN = 3 * 65_536 + 7
LB, INNER, MID, TOP_LO = 7, 50, 70_001, 140_000
ORACLE_MAX = 10**6


@pytest.fixture(scope="module")
def leader_cumsum():
    """cum[n, d-1] = how many of 1..n lead with d, read off the decimal strings, n <= 10^6 + 1."""
    first = np.array([0] + [int(str(n)[0]) for n in range(1, ORACLE_MAX + 2)], dtype=np.int8)
    return np.cumsum(first[:, None] == np.arange(1, 10, dtype=np.int8), axis=0, dtype=np.int32)


def _shares(cum):
    n = np.arange(LB, SPAN + 1)
    return n, (cum[n] - cum[LB - 1]) / (n - LB + 1)[:, None]


def _running_mean(n, v, start):
    """Rows N >= start of the mean of v over [start, N]."""
    keep = n >= start
    return n[keep], np.cumsum(v[keep], axis=0) / (n[keep] - start + 1)[:, None]


def _probs(result):
    return np.array([result.ld.probs[d] for d in DIGITS])


class TestBlockStreaming:
    def test_simple(self, leader_cumsum):
        n, v = _shares(leader_cumsum)
        got = _probs(schemes.simple_scheme(LB, MID, SPAN))
        np.testing.assert_allclose(got, v[n >= MID].mean(axis=0), rtol=0, atol=1e-12)

    @given(st.lists(st.integers(1, ORACLE_MAX), min_size=3, max_size=3).map(sorted))
    @example([1, 1, ORACLE_MAX])
    @example([ORACLE_MAX, ORACLE_MAX, ORACLE_MAX])
    @example([150, 151, 999_999])
    @settings(deadline=None)  # an oracle walks up to 10^6 rows
    def test_simple_closed_form(self, leader_cumsum, bounds):
        # the closed form against the mean of the enumerated shares, 65,536 rows at a time
        lb, ub_min, ub_max = bounds
        total = np.zeros(9)
        for first in range(ub_min, ub_max + 1, 65_536):
            n = np.arange(first, min(first + 65_536, ub_max + 1))
            total += ((leader_cumsum[n] - leader_cumsum[lb - 1]) / (n - lb + 1)[:, None]).sum(axis=0)
        got = _probs(schemes.simple_scheme(lb, ub_min, ub_max))
        np.testing.assert_allclose(got, total / (ub_max - ub_min + 1), rtol=0, atol=1e-12)

    def test_simple_is_logarithmic_in_the_range(self):
        start = time.perf_counter()
        r = schemes.simple_scheme(1, 1, 10**18)
        assert time.perf_counter() - start < 1.0
        assert math.fsum(r.ld.probs.values()) == pytest.approx(1.0, abs=1e-14)

    def test_depth2(self, leader_cumsum):
        n, v = _running_mean(*_shares(leader_cumsum), INNER)
        got = _probs(schemes.iterated_scheme(LB, INNER, (TOP_LO, SPAN), 2))
        np.testing.assert_allclose(got, v[n >= TOP_LO].mean(axis=0), rtol=0, atol=1e-12)

    def test_depth3(self, leader_cumsum):
        n, v = _running_mean(*_running_mean(*_shares(leader_cumsum), INNER), MID)
        got = _probs(schemes.iterated_scheme(LB, INNER, (TOP_LO, SPAN), 3, mid_min=MID))
        np.testing.assert_allclose(got, v[n >= TOP_LO].mean(axis=0), rtol=0, atol=1e-12)

    def test_fixed_width(self, leader_cumsum):
        width, a = 1234, np.arange(5, SPAN + 1)
        want = ((leader_cumsum[a + width - 1] - leader_cumsum[a - 1]) / width).mean(axis=0)
        got = _probs(schemes.fixed_width_scheme(width, 5, SPAN))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_memory_stays_flat(self):
        tracemalloc.start()
        try:
            schemes.iterated_scheme(1, 1, (1, 2_000_000), 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6


class TestSchemeDataset:
    def test_greek_parable(self):
        greek_shares = [0.314, 0.203, 0.148, 0.111, 0.083, 0.061, 0.042, 0.026, 0.012]
        # fixture seed: one concrete 81-element dataset close to the scheme
        values, hist = schemes.scheme_dataset(1, 1, 9, seed=5)
        assert values.size == 81
        shares = np.bincount([first_digit(int(v)) for v in values], minlength=10)[1:] / 81
        for d in DIGITS:
            assert abs(shares[d - 1] - greek_shares[d - 1]) < 0.02
        # and the padding is unbiased: seed-averaged shares sit much closer
        acc = np.zeros(9)
        for seed in range(20):
            v, _ = schemes.scheme_dataset(1, 1, 9, seed=seed)
            acc += np.bincount([first_digit(int(x)) for x in v], minlength=10)[1:] / 81
        acc /= 20
        for d in DIGITS:
            assert abs(acc[d - 1] - greek_shares[d - 1]) < 0.01

    def test_density_tails_right(self):
        _, hist = schemes.scheme_dataset(1, 9, 99, seed=1)
        block1 = hist[1:10].mean()
        block2 = hist[10:100].mean()
        assert block1 >= block2

    def test_trivial(self):
        values, _ = schemes.scheme_dataset(1, 1, 1)
        assert np.all(values == 1)

    def test_size_cap(self):
        with pytest.raises(TooLargeError):
            schemes.scheme_dataset(1, 1, 10**6)
