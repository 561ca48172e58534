"""Tests for growth series, singularity detection, and multiplication processes."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from digitlab import growth
from digitlab.digits import benford_first, leading_digits
from digitlab.distributions import PowerLaw, Uniform
from digitlab.errors import BadParamsError, EmptyInputError, TooLargeError

DIGITS = range(1, 10)


class TestGenerateSeries:
    def test_12_percent_head(self):
        s = growth.GrowthSeries(base=1.0, percent=12.0, length=21)
        vals = np.round(growth.generate_series(s), 1)
        assert list(vals[:7]) == [1.0, 1.1, 1.3, 1.4, 1.6, 1.8, 2.0]
        assert vals[-1] == 9.6

    def test_8_percent_reaches_2000_at_10(self):
        s = growth.GrowthSeries(base=1000.0, percent=8.0, length=15)
        vals = growth.generate_series(s)
        assert int(np.argmax(vals >= 2000.0)) == 10

    def test_zero_growth_constant(self):
        s = growth.GrowthSeries(base=3.0, percent=0.0, length=5)
        assert np.allclose(growth.generate_series(s), 3.0)

    def test_validation(self):
        with pytest.raises(BadParamsError):
            growth.GrowthSeries(base=0.0, percent=5.0, length=3)
        with pytest.raises(BadParamsError):
            growth.GrowthSeries(base=1.0, percent=-100.0, length=3)

    @pytest.mark.parametrize("make", [lambda n: growth.GrowthSeries(3.0, 10.0, n),
                                      lambda n: growth.cumulative_factors(10.0, n)])
    def test_element_count_capped(self, make):
        make(growth._MAX_RATES)
        with pytest.raises(BadParamsError):
            make(0)
        with pytest.raises(TooLargeError):
            make(growth._MAX_RATES + 1)


class TestSeriesLd:
    def test_typical_rate_logarithmic(self):
        _, chi = growth.series_ld(growth.GrowthSeries(3.0, 2.3293, 1000))
        assert chi < 15.5  # published: 1.5

    def test_half_fraction_two_digits(self):
        ld, chi = growth.series_ld(growth.GrowthSeries(3.0, 216.2278, 1000))
        assert sum(1 for d in DIGITS if ld.probs[d] > 0) == 2
        assert chi == pytest.approx(6464.6, rel=0.5)  # published order of magnitude

    def test_factor_ten_single_digit(self):
        ld, _ = growth.series_ld(growth.GrowthSeries(3.0, 900.0, 1000))
        assert ld.probs[3] == 1.0

    def test_huge_series_no_overflow(self):
        # 300% growth over 10^6 elements spans ~600k decades
        _, chi = growth.series_ld(growth.GrowthSeries(3.0, 300.0, 10**6))
        assert math.isfinite(chi) and chi < 25

    def test_power_of_ten_elements_lead_with_one(self):
        # 10^(j/12): every 12th element is a power of ten, whose accumulated
        # mantissa can land just below 1; the leaders are those of the exact
        # values, taken at 40 digits
        from decimal import Decimal, localcontext

        ld, _ = growth.series_ld(growth.GrowthSeries(1.0, growth.AnomalyRecord(1, 12).percent, 120))
        with localcontext() as ctx:
            ctx.prec = 40
            leaders = [int(str(Decimal(10) ** (Decimal(j) / 12))[0]) for j in range(120)]
        assert ld.probs == {d: leaders.count(d) / 120 for d in DIGITS}
        assert ld.probs[9] == 0.0

    def test_value_vector_input(self):
        vals = [1, 1, 1, 2, 2, 3, 0, -4]
        ld, _ = growth.series_ld(vals)
        assert ld.probs[1] == pytest.approx(3 / 7)
        assert ld.probs[4] == pytest.approx(1 / 7)  # sign-neutral, zero skipped

    @pytest.mark.parametrize("x,digit", [(1.9999999999, 1), (2.9999999995, 2), (0.99999999999, 9)])
    def test_value_vector_digits_are_the_package_rule(self, x, digit):
        # a mantissa snap within 1e-9 of log10 d gave these digit d + 1 (9 -> 1)
        ld, _ = growth.series_ld([x, -x])
        assert ld.probs[digit] == 1.0
        assert leading_digits([x]).prefix[0] == digit

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
           .filter(any))
    def test_value_vector_tallies_match_repr(self, vals):
        firsts = [next(c for c in repr(abs(v)) if c in "123456789") for v in vals if v != 0]
        ld, _ = growth.series_ld(vals)
        assert ld.probs == {d: firsts.count(str(d)) / len(firsts) for d in DIGITS}

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            growth.series_ld([0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(BadParamsError, match="non-finite"):
            growth.series_ld([1.0, bad])

    def test_distinct_digit_counts_basic_rates(self):
        # Distinct leaders at base 3, 1000 elements, frozen from the residue
        # oracle: the T anchor mantissas frac(log10 3 + k/T) map into
        # compartments, with collisions at T = 5 and T = 9.  The published
        # labels (1, 2, 3, 4-5, 4-5, 5-6, 5-6, 6-7, 7) agree except T = 9,
        # where the true count is 6.
        expected = {1: 1, 2: 2, 3: 3, 4: 4, 5: 4, 6: 6, 7: 6, 8: 7, 9: 6}
        for t, want in expected.items():
            rec = growth.AnomalyRecord(1, t)
            ld, _ = growth.series_ld(growth.GrowthSeries(3.0, rec.percent, 1000))
            distinct = sum(1 for d in DIGITS if ld.probs[d] > 0)
            assert distinct == want
            # oracle: count compartments hit by the exact anchor residues
            bounds = [math.log10(d) for d in range(1, 11)]
            anchors = [(math.log10(3.0) + k / t) % 1.0 for k in range(t)]
            comps = set()
            for a in anchors:
                c = sum(1 for b in bounds[1:-1] if a >= b - 1e-12) + 1
                comps.add(c)
            assert distinct == len(comps)


class TestDetection:
    def test_basic_rate_t12(self):
        rec = growth.detect_anomalous(21.152765862859, 100)
        assert (rec.L, rec.T) == (1, 12)

    def test_general_rate_row(self):
        rec = growth.detect_anomalous(151.1886, 100, tol=1e-6)
        assert (rec.L, rec.T) == (2, 5)

    def test_typical_rate_clean(self):
        assert growth.detect_anomalous(40.0, 1000, tol=1e-12) is None

    def test_round_trips_all_enumerated(self):
        for l, t_range in [(1, (1, 50)), (2, (5, 25)), (3, (4, 67)), (4, (7, 25))]:
            for rec in growth.enumerate_anomalous([l], t_range):
                back = growth.detect_anomalous(rec.percent, rec.T)
                assert back is not None and (back.L, back.T) == (rec.L, rec.T)

    def test_power_identity_verified(self):
        rec = growth.detect_anomalous(29.154, 100, tol=1e-5)
        assert (rec.L, rec.T) == (1, 9)

    def test_decay_returns_none(self):
        assert growth.detect_anomalous(-25.0, 100) is None

    @pytest.mark.parametrize("percent", [math.nan, math.inf, -math.inf, -100.0, -150.0])
    def test_rate_outside_the_series_rule_rejected(self, percent):
        with pytest.raises(BadParamsError, match="percent"):
            growth.detect_anomalous(percent, 100)

    def test_t_max_below_one_rejected(self):
        with pytest.raises(BadParamsError, match="t_max"):
            growth.detect_anomalous(10.0, 0)


def _flag_oracle(x: float, t_max: int, tol: float):
    """The documented flag rule on one x = log10(1 + P/100), through
    Fraction.limit_denominator: (L, T) or None."""
    if x <= 0:
        return None
    f = Fraction(x).limit_denominator(t_max)
    num, den = f.numerator, f.denominator
    if num < 1 or abs(x - num / den) > tol:
        return None
    if abs(den * x - num) > 10.0 * tol * max(1.0, num):
        return None
    return num, den


def _pairs(records):
    return [(r.L, r.T) if r else None for r in records]


T_MAXES = st.sampled_from([1, 2, 100, 10**4, 2**62, 10**21])
TOLERANCES = st.sampled_from([1e-10, 0.5 / 1000, 0.5, math.inf])  # inf: limit_denominator alone
RATES = st.one_of(
    st.floats(-99.0, 1e4, exclude_min=True),
    st.floats(1e-12, 1e-3),
    # the rates of small-T rationals L/T, on them and nudged off
    st.builds(lambda l, t, nudge: 100.0 * (10.0 ** (l / t) - 1.0) + nudge * 2**-40,
              st.integers(1, 3), st.integers(1, 120), st.integers(-3, 3)),
)


class TestFlagKernel:
    @given(st.lists(RATES, min_size=1, max_size=40), T_MAXES, TOLERANCES)
    def test_matches_limit_denominator(self, rates, t_max, tol):
        # rows of one call mix the int64 and the Python-int rows
        x = np.array([math.log10(1.0 + p / 100.0) for p in rates])
        got = growth._anomalies(x, t_max, tol)
        assert _pairs(got) == [_flag_oracle(v, t_max, tol) for v in x.tolist()]
        assert growth.detect_anomalous(rates[0], t_max, tol) == got[0]

    @given(st.integers(1, 30), st.integers(0, 2**20), st.integers(-2, 2), TOLERANCES)
    @example(1, 0, 0, math.inf)  # x = 1/2, T <= 1: 0/1 and 1/1 tie
    @example(2, 0, 0, math.inf)  # x = 1/4, T <= 2: 0/1 and 1/2 tie
    @example(2, 1, 0, math.inf)  # x = 3/4, T <= 2: 1/2 and 1/1 tie
    @example(1, 2, 0, math.inf)  # x = 5/2, T <= 1: 2/1 and 3/1 tie
    def test_halfway_ties(self, j, k, dt, tol):
        # x = (2k + 1) / 2**j sits half-way between k/2**(j-1) and
        # (k + 1)/2**(j-1); T around 2**(j-1) makes them the two candidates
        x = (2 * k + 1) / 2**j
        t_max = max(1, 2 ** (j - 1) + dt)
        got = growth._anomalies(np.array([x, x / 3, x + 1]), t_max, tol)
        assert _pairs(got) == [_flag_oracle(v, t_max, tol) for v in (x, x / 3, x + 1)]

    def test_scan_grid_has_no_mismatch(self):
        pcts = [1.0 + i * 0.01 for i in range(20_000)]
        x = np.array([math.log10(1.0 + p / 100.0) for p in pcts])
        got = growth._anomalies(x, 100, 0.5 / 1000)
        assert _pairs(got) == [_flag_oracle(v, 100, 0.5 / 1000) for v in x.tolist()]


class TestEnumerate:
    @pytest.mark.parametrize(
        "l,t,percent",
        [(1, 1, 900.0), (1, 2, 216.2278), (1, 12, 21.1528), (2, 5, 151.1886),
         (3, 4, 462.3413), (2, 25, 20.2264), (3, 5, 298.1072), (6, 7, 619.6857),
         (2, 47, 10.2943), (4, 13, 103.0918)],
    )
    def test_published_rates(self, l, t, percent):
        assert growth.AnomalyRecord(l, t).percent == pytest.approx(percent, abs=5e-5)

    def test_only_reduced_fractions(self):
        recs = growth.enumerate_anomalous([2], (1, 10))
        assert all(math.gcd(r.L, r.T) == 1 for r in recs)
        assert not any(r.T in (2, 4, 6, 8, 10) for r in recs)

    def test_sorted_by_percent(self):
        recs = growth.enumerate_anomalous([1, 2], (1, 30))
        pcts = [r.percent for r in recs]
        assert pcts == sorted(pcts)

    def test_big_l_exact_power(self):
        assert growth.AnomalyRecord(277, 600).first_power_of_ten_factor == 10**277

    @pytest.mark.parametrize("t_range", [(0, 5), (1, 0), (-3, 4)])
    def test_t_below_one_rejected(self, t_range):
        with pytest.raises(BadParamsError, match="T must be"):
            growth.enumerate_anomalous([1], t_range)

    def test_too_many_pairs_refused_before_building(self):
        # 10**12 pairs would take hours; the cap answers at once
        with pytest.raises(TooLargeError):
            growth.enumerate_anomalous([1], (1, 10**12))
        with pytest.raises(TooLargeError):
            growth.enumerate_anomalous(range(1, 3), (1, growth._MAX_RATES // 2 + 1))
        assert len(growth.enumerate_anomalous([1], (1, 1000))) == 1000

    def test_invalid_records(self):
        with pytest.raises(BadParamsError):
            growth.AnomalyRecord(2, 4)  # not reduced
        with pytest.raises(BadParamsError):
            growth.AnomalyRecord(0, 5)

    def test_percent_past_the_doubles_refused(self):
        assert growth.AnomalyRecord(401, 2).percent == pytest.approx(100.0 * 10.0**200.5)
        with pytest.raises(TooLargeError):
            growth.AnomalyRecord(400, 1).percent
        with pytest.raises(TooLargeError):
            growth.enumerate_anomalous([400], (1, 10))


class TestCumulativeFactors:
    def test_published_power_of_ten_hits(self):
        f = growth.cumulative_factors(29.154, 31)
        assert f[9 - 1] == pytest.approx(10.0, abs=0.01)
        assert f[18 - 1] == pytest.approx(100.0, rel=1e-3)
        assert f[27 - 1] == pytest.approx(1000.0, rel=1e-3)
        f = growth.cumulative_factors(58.489, 15)
        assert f[5 - 1] == pytest.approx(10.0, abs=0.01)
        assert f[10 - 1] == pytest.approx(100.0, rel=1e-3)
        f = growth.cumulative_factors(93.070, 28)
        assert f[7 - 1] == pytest.approx(100.0, abs=0.1)
        assert f[14 - 1] == pytest.approx(10000.0, rel=1e-3)

    @pytest.mark.parametrize("percent", [-150.0, -100.0, math.nan, math.inf])
    def test_rate_outside_the_series_rule_rejected(self, percent):
        with pytest.raises(BadParamsError, match="percent"):
            growth.cumulative_factors(percent, 3)

    def test_typical_series_column(self):
        f = growth.cumulative_factors(40.0, 31)
        assert f[0] == pytest.approx(1.40)
        assert f[30] == pytest.approx(33882.01, rel=1e-4)

    def test_anomalous_cycle_in_log_space(self):
        for l, t in [(1, 9), (1, 5), (2, 7)]:
            pct = growth.AnomalyRecord(l, t).percent
            log_f = math.log10(1 + pct / 100)
            for j in range(1, 6):
                assert abs(j * t * log_f - j * l) < 1e-9


class TestMantissaCardinality:
    @pytest.mark.parametrize("l,t", [(1, 2), (1, 7), (2, 5), (1, 12), (3, 25), (1, 25)])
    def test_anomalous_rate_has_t_mantissas(self, l, t):
        rec = growth.AnomalyRecord(l, t)
        m = growth.series_mantissas(growth.GrowthSeries(3.0, rec.percent, 10 * t))
        assert len(np.unique(np.round(m, 9))) == t


class TestRateScan:
    def test_spikes_match_rationality(self):
        cells = growth.rate_scan(15.0, 30.0, 0.01, 1000, 3.0, t_flag=100)
        for c in cells:
            if c.chi_sqr > 50:
                assert c.anomaly is not None, f"spike at {c.percent}% with no rational"
                assert c.anomaly.T <= 100

    def test_rates_far_from_small_t_rationals_stay_quiet(self):
        # Farey density makes intervals empty of T <= 100 rationals
        # impossible, so quietness is distance-based: grid rates at least
        # 1e-4 (in log10-fraction space) away from every T <= 60 rational
        # keep low chi-squares at 1000 elements.
        recs = growth.enumerate_anomalous(range(1, 40), (1, 60))
        fracs = [float(r.fraction) for r in recs]
        cells = growth.rate_scan(5.0, 5.2, 0.01, 1000, 3.0, t_flag=60)
        checked = 0
        for c in cells:
            x = math.log10(1 + c.percent / 100)
            if min(abs(x - f) for f in fracs) > 1e-4:
                checked += 1
                assert c.chi_sqr < 30, f"{c.percent}% unexpectedly rebellious"
        assert checked >= 10

    def test_near_miss_recovers(self):
        # 0.02% away from the T=12 rebellious rate is logarithmic again
        _, chi = growth.series_ld(growth.GrowthSeries(3.0, 21.1727, 1000))
        assert chi < 15.5

    def test_csv_format(self):
        cells = growth.rate_scan(21.14, 21.17, 0.01, 500, 3.0, t_flag=50)
        assert growth.scan_to_csv(cells) == (
            "rate_percent,chi_sqr,anomaly_L,anomaly_T\n"
            "21.14,58.0405,1,12\n"
            "21.15,75.1834,1,12\n"
            "21.16,38.9074,1,12\n"
            "21.17,24.7791,1,12\n"
        )

    @pytest.mark.parametrize("n_elements", [1000, growth._BLOCK + 7])
    def test_block_seams_match_single_series(self, n_elements):
        # three full blocks plus a partial one (one series per block once a
        # series alone fills the block), across the T = 12 spike at 21.15%
        rows = max(1, growth._BLOCK // n_elements)
        n_rates = 3 * rows + max(1, rows // 2)
        lo, step = 21.0, 0.01
        cells = growth.rate_scan(lo, lo + (n_rates - 1) * step, step, n_elements, 3.0, t_flag=50)
        assert len(cells) == n_rates
        j = np.arange(n_elements, dtype=np.float64)
        for i, c in enumerate(cells):
            pct = lo + i * step
            assert c.percent == pct
            series = growth.GrowthSeries(3.0, pct, n_elements)
            # the documented mantissa formula, bit for bit
            want = (math.log10(3.0) % 1.0 + j * (math.log10(1.0 + pct / 100.0) % 1.0)) % 1.0
            assert np.array_equal(growth.series_mantissas(series), want)
            assert c.chi_sqr == growth.series_ld(series)[1]
            assert c.anomaly == growth.detect_anomalous(pct, 50, tol=0.5 / n_elements)
        if rows > 1:
            assert any(c.anomaly is not None for c in cells)

    @pytest.mark.parametrize("args,digest", [
        # the bench grid's shape: 14,901 rates, n = 1000, T <= 100
        ((1.0037, 150.0037, 0.01, 1000, 4.217, 100),
         "a7a85b09751679a4f84ae4322f972652825c6745663fff2a8078afa62bba20b5"),
        # across 900 %, where log10(1 + P/100) passes 1
        ((850.0, 950.0, 0.01, 500, 3.0, 100),
         "f5c40f92c27c7a1a32f61e2db52453e405e7c6a2e5bfa8e5c29f336727ced2e6"),
        # decay, zero and tiny growth
        ((-99.0, 5.0, 0.013, 300, 7.3, 60),
         "48ca18279f77ea228392adc9d20b1a1d2cadfbc6c46b50730db37b434c05c47d"),
        # tiny rates with large T: the Python-int rows
        ((1e-9, 1e-3, 1e-6, 200, 2.5, 10**12),
         "bf41f456feae7311645849314f6168d07b62876ed44c2e201344ed13c5d9d3fe"),
        ((1e-12, 1e-9, 1e-12, 50, 2.5, 10**21),
         "3aa3b69aacf77f1511e78158f48e3d3a2bc68d1bba99bce04e99749ca0cb9a02"),
    ], ids=["bench", "cross-900", "negative", "tiny", "tiny-huge-t"])
    def test_csv_golden(self, args, digest):
        # sha256 of scan_to_csv as the per-rate Fraction loop and the
        # searchsorted digit rule wrote it
        csv = growth.scan_to_csv(growth.rate_scan(*args))
        assert hashlib.sha256(csv.encode()).hexdigest() == digest

    def test_t_flag_below_one_rejected(self):
        with pytest.raises(BadParamsError, match="t_max"):
            growth.rate_scan(1.0, 2.0, 0.5, 10, 3.0, t_flag=0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_elements": 0}, {"base": 0.0}, {"base": -2.0}, {"lo_percent": -150.0},
         {"lo_percent": -100.0}],
    )
    def test_invalid_scan_rejected(self, kwargs):
        args = {"lo_percent": 1.0, "hi_percent": 2.0, "step": 0.5, "n_elements": 10,
                "base": 3.0, "t_flag": 10, **kwargs}
        with pytest.raises(BadParamsError):
            growth.rate_scan(**args)


    @pytest.mark.parametrize("lo,hi,step", [(1.0, 2.0, 1e-300), (-99.0, 1e308, 1e-10),
                                            (1.0, 1.0 + 0.5 * growth._MAX_RATES, 0.5)])
    def test_oversized_grid_refused(self, lo, hi, step):
        # refused before any list is built; the last grid is one rate too many
        with pytest.raises(TooLargeError):
            growth.rate_scan(lo, hi, step, 10, 3.0, t_flag=10)


def _snap_reference(m: float) -> int:
    """The documented digit rule, one mantissa at a time: within 1e-9 of
    the edge log10 d means digit d (d = 10, the edge 1, is a power of ten:
    digit 1); otherwise the compartment [log10 d, log10(d+1)) holding m."""
    edges = [math.log10(d) for d in range(1, 11)]
    for d, e in enumerate(edges, start=1):
        if abs(m - e) < 1e-9:
            return 1 if d == 10 else d
    return max(1, min(9, sum(1 for e in edges if e <= m)))


def _edge_neighbourhood() -> list[float]:
    out = [1.0 - 2**-53, 1.0 - 1e-10, 1.0 - 1e-9, 1.0 - 2e-9, 0.0, 2**-1074]
    for e in (math.log10(d) for d in range(1, 11)):
        out += [e, math.nextafter(e, 0.0), math.nextafter(e, 2.0)]
        out += [e + s * (1e-9 + t * 1e-12) for s in (-1, 1) for t in (-1, 1)]
        # a few ulps either side of the snap threshold e +- 1e-9
        for m in (e - 1e-9, e + 1e-9):
            for _ in range(3):
                m = math.nextafter(m, 0.0)
            for _ in range(7):
                out.append(m)
                m = math.nextafter(m, 2.0)
    return [m for m in out if 0.0 <= m < 1.0]


EDGE_VALUES = _edge_neighbourhood()


class TestDigitsFromMantissas:
    @given(st.lists(
        st.one_of(
            st.sampled_from(EDGE_VALUES),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
            st.builds(lambda e, off: min(max(e + off, 0.0), math.nextafter(1.0, 0.0)),
                      st.sampled_from(EDGE_VALUES), st.floats(-3e-9, 3e-9)),
        ),
        min_size=1, max_size=60,
    ))
    @example(EDGE_VALUES)
    def test_matches_snap_rule(self, mants):
        got = growth._digits_from_mantissas(np.array(mants))
        assert got.tolist() == [_snap_reference(m) for m in mants]
        # the 2-D (block) form is elementwise the same
        twice = np.array([mants, mants[::-1]])
        assert growth._digits_from_mantissas(twice).tolist() == [got.tolist(), got.tolist()[::-1]]


class TestDigitTable:
    @pytest.mark.parametrize("d", range(2, 11))
    def test_thresholds_are_where_the_rule_switches(self, d):
        # the bisected threshold goes to digit d, the double below it does not
        thr, want = growth._snap_threshold(math.log10(d)), 1 if d == 10 else d
        below = math.nextafter(thr, 0.0)
        assert (_snap_reference(below), _snap_reference(thr)) == (d - 1, want)
        assert growth._digits_from_mantissas(np.array([below, thr])).tolist() == [d - 1, want]

    def test_mantissa_one_counts_as_digit_one(self):
        # (x - floor(x)) rounds to 1.0 just below a power of ten
        assert growth._digit_counts(np.array([1.0, 0.0, 0.5])).tolist() == [2, 0, 1, 0, 0, 0, 0, 0, 0]


class TestEquivalentRate:
    def test_annual_to_monthly(self):
        assert growth.equivalent_rate(150.0, 12) == pytest.approx(7.93, abs=0.05)

    def test_anomalous_root_relation(self):
        # sqrt(1.291550) = 1.136464: M=9 continues to M=18
        out = growth.equivalent_rate(29.1550, 2)
        assert out == pytest.approx(13.6464, abs=1e-4)
        rec = growth.detect_anomalous(out, 100, tol=1e-6)
        assert (rec.L, rec.T) == (1, 18)

    def test_identity(self):
        assert growth.equivalent_rate(37.5, 1) == pytest.approx(37.5, abs=1e-12)


class TestNonAnomalousInvariants:
    def test_long_series_conform(self):
        # rates well away from low-T rationals (4.7129 would not qualify:
        # it is the published T = 50 singular rate, rounded)
        for pct in (13.1, 40.0, 87.3, 3.77):
            assert growth.detect_anomalous(pct, 500, tol=1e-12) is None
            _, chi = growth.series_ld(growth.GrowthSeries(3.0, pct, 10_000))
            assert chi < 25

    def test_base_invariance(self):
        a, _ = growth.series_ld(growth.GrowthSeries(1.0, 4.7129, 10_000))
        b, _ = growth.series_ld(growth.GrowthSeries(7.3, 4.7129, 10_000))
        se = 3.0 * math.sqrt(0.3 * 0.7 / 10_000)
        for d in DIGITS:
            assert abs(a.probs[d] - b.probs[d]) < 3 * se


class TestMultiplicationProcess:
    def test_random_factors_benford(self):
        res = growth.random_multiplication_process(Uniform(0.5, 2.5), 100_000, 1.0, seed=42)
        assert res.chi_sqr < 15.5

    def test_constant_power_of_ten_neutral(self):
        res = growth.random_multiplication_process(10.0, 5000, 3.0, seed=1)
        assert res.ld.probs[3] == 1.0

    def test_division_process(self):
        # reciprocals of U(0.5, 2.5) factors follow a 1/x^2 law on (0.4, 2);
        # trajectory autocorrelation inflates chi-square above its iid
        # distribution, so the bound reflects per-digit deviation < 1%
        recip = PowerLaw(2.0, 1 / 2.5, 1 / 0.5)
        res = growth.random_multiplication_process(recip, 100_000, 1.0, seed=43)
        assert res.chi_sqr < 30
        assert max(abs(res.ld.probs[d] - benford_first(d)) for d in DIGITS) < 0.01

    def test_rejects_nonpositive_factors(self):
        from digitlab.distributions import Normal

        res = growth.random_multiplication_process(Normal(2.0, 0.5), 20_000, 1.0, seed=3)
        assert res.n_rejected >= 0 and res.chi_sqr < 30


class TestPowerTransform:
    def test_untransformed_uniform_not_benford(self):
        _, chi = growth.power_transform_ld(Uniform(0.0, 1.0), 1, 100_000, seed=7)
        assert chi > 1000

    def test_trend_toward_benford(self):
        chis = [growth.power_transform_ld(Uniform(0.0, 1.0), n, 100_000, seed=7)[1]
                for n in (2, 4, 8, 13)]
        assert all(b < a * 1.15 for a, b in zip(chis, chis[1:]))
        # the 13th power is visibly close: per-digit deviation ~1.5%
        dist, chi13 = growth.power_transform_ld(Uniform(0.0, 1.0), 13, 100_000, seed=7)
        assert max(abs(dist.probs[d] - benford_first(d)) for d in DIGITS) < 0.03
        # chi-square at n=1e5 resolves that residual (frozen true behavior:
        # the residual first-harmonic amplitude is ~1/36 at the 13th power)
        assert 100 < chi13 < 500
