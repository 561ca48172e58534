"""Tests for the goodness-of-fit machinery."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitlab import conformity, digits
from digitlab.digits import benford_distribution, benford_first, leading_digits
from digitlab.distributions import PowerLaw
from digitlab.errors import BadParamsError, EmptyInputError

DIGITS = range(1, 10)


def benford_sample(n: int, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(0.0, 3.0, n)  # exactly-Benford synthetic data


class TestChiSqr:
    def test_exact_counts_give_zero(self):
        n = 100_000
        counts = {d: n * benford_first(d) for d in DIGITS}
        assert conformity.chi_sqr(counts) == pytest.approx(0.0, abs=1e-18)

    def test_uniform_counts_closed_form(self):
        n = 9000
        counts = {d: 1000 for d in DIGITS}
        expected = sum(
            (1000 - n * benford_first(d)) ** 2 / (n * benford_first(d)) for d in DIGITS
        )
        assert conformity.chi_sqr(counts) == pytest.approx(expected)

    def test_point_mass_closed_form(self):
        counts = {1: 100}
        p1 = benford_first(1)
        expected = 100 * (1 - p1) ** 2 / p1 + sum(100 * benford_first(d) for d in range(2, 10))
        assert conformity.chi_sqr(counts) == pytest.approx(expected)

    def test_vs_benford_rowwise(self):
        from scipy import stats

        rows = np.array([[30, 18, 12, 10, 8, 7, 6, 5, 4], [1000] * 9, [0, 0, 5, 0, 0, 0, 0, 0, 0]])
        got = conformity.chi_sqr_vs_benford(rows)
        assert isinstance(conformity.chi_sqr_vs_benford(rows[0]), float)
        benford = np.array(benford_distribution().first_order_vector())
        oracle = [stats.chisquare(r, r.sum() * benford).statistic for r in rows]
        assert got == pytest.approx(oracle, rel=1e-12)
        with pytest.raises(EmptyInputError):
            conformity.chi_sqr_vs_benford(np.vstack([rows, np.zeros(9)]))

    @given(st.lists(st.lists(st.integers(0, 10**9), min_size=9, max_size=9), min_size=1, max_size=8)
           .filter(lambda rows: all(sum(r) > 0 for r in rows)))
    def test_dict_sequence_and_rows_agree_bit_for_bit(self, rows):
        # the dict form summed its terms one by one and the rows form pairwise,
        # so the two differed in the last bits on about 3 vectors in 10
        by_row = conformity.chi_sqr(np.array(rows)).tolist()
        assert [conformity.chi_sqr(r) for r in rows] == by_row
        assert [conformity.chi_sqr(dict(zip(DIGITS, r))) for r in rows] == by_row

    def test_power_of_ten_invariance(self):
        vals = benford_sample(20_000, seed=3)
        base = conformity.chi_sqr_vs_benford(_counts(vals))
        for m in (-2, 1, 3):
            scaled = conformity.chi_sqr_vs_benford(_counts(vals * 10.0**m))
            assert scaled == pytest.approx(base, abs=1e-9)


def _counts(vals: np.ndarray) -> np.ndarray:
    from digitlab.digits import first_digit

    digs = [first_digit(float(v)) for v in vals]
    return np.bincount(digs, minlength=10)[1:10]


class TestCriticalValues:
    def test_chi_sqr_critical(self):
        # the tabulated upper 0.01 point of chi-square(8), 20.090 (A&S Table 26.8)
        assert conformity.CHI_SQR_CRITICAL == pytest.approx(20.090, abs=5e-4)

    def test_chi_sqr_critical_default_is_scipys_double(self):
        # the analyze report's chi_sqr_critical_001, bit for bit as scipy gives it
        from scipy import stats

        assert conformity.CHI_SQR_CRITICAL == float(stats.chi2.isf(0.01, 8)) == 20.090235029663233
        assert conformity.report([1.0, 2.0]).chi_sqr_critical_001 == conformity.CHI_SQR_CRITICAL

    def test_ks_critical(self):
        # sqrt(-ln(0.005)/2)/sqrt(n)
        assert conformity.ks_critical(10_000) == pytest.approx(1.6276 / 100.0, abs=1e-5)


class TestMantissaUniformity:
    def test_kx_samples_pass(self):
        rng = np.random.default_rng(4)
        vals = PowerLaw(1.0, 1.0, 1000.0).sample_n(100_000, rng)
        res = conformity.mantissa_uniformity_test(vals)
        assert res.passed

    def test_uniform_data_fails(self):
        rng = np.random.default_rng(5)
        vals = rng.random(100_000)
        res = conformity.mantissa_uniformity_test(vals)
        assert not res.passed

    def test_point_mass_fails(self):
        res = conformity.mantissa_uniformity_test(np.full(1000, 2.0))
        assert not res.passed
        assert res.statistic > 0.3

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            conformity.mantissa_uniformity_test([])


class TestCompartmentalAllotment:
    def test_conforming_data(self):
        vals = benford_sample(200_000, seed=6)
        res = conformity.compartmental_allotment_test(vals)
        assert res.masses[2] == pytest.approx(0.176, abs=0.01)
        assert res.max_deviation < 0.01

    def test_identity_with_first_digit_shares(self):
        vals = np.concatenate([benford_sample(5000, seed=7), [2.0, 0.2, 10.0, 99.9]])
        res = conformity.compartmental_allotment_test(vals)
        counts = _counts(vals)
        for d in DIGITS:
            assert res.masses[d] == pytest.approx(counts[d - 1] / vals.size, abs=1e-12)

    def test_reshuffle_preserves_allotment_not_uniformity(self):
        vals = benford_sample(100_000, seed=8)
        shuffled = conformity.reshuffle_within_compartments(vals, seed=9)
        before = conformity.compartmental_allotment_test(vals)
        after = conformity.compartmental_allotment_test(shuffled)
        for d in DIGITS:
            assert after.masses[d] == pytest.approx(before.masses[d], abs=2e-3)
        assert after.max_deviation < 0.01
        assert conformity.mantissa_uniformity_test(vals).passed
        assert not conformity.mantissa_uniformity_test(shuffled).passed

    def test_high_digit_only_data(self):
        vals = np.concatenate([np.full(500, 8.1), np.full(500, 9.3)])
        res = conformity.compartmental_allotment_test(vals)
        assert res.max_deviation > 0.25

    def test_uniformity_implies_allotment(self):
        # one-directional: across synthetic sets, a KS pass implies a small
        # max compartment deviation; the converse is broken by reshuffles
        rng = np.random.default_rng(10)
        for k in range(20):
            vals = 10.0 ** rng.uniform(0.0, 3.0 + k % 3, 20_000)
            ks = conformity.mantissa_uniformity_test(vals)
            allot = conformity.compartmental_allotment_test(vals)
            if ks.passed:
                assert allot.max_deviation < 0.02


class TestScaleInvarianceProbe:
    def test_conforming_data_barely_nudged(self):
        vals = benford_sample(100_000, seed=11)
        deltas = conformity.scale_invariance_probe(vals, [2.0, math.pi, 0.30919])
        for delta in deltas.values():
            assert abs(delta) < 2.0 * math.sqrt(2.0 * 8.0) * 2

    def test_factor_ten_exactly_zero(self):
        vals = benford_sample(50_000, seed=12)
        deltas = conformity.scale_invariance_probe(vals, [10.0, 100.0])
        assert deltas[10.0] == pytest.approx(0.0, abs=1e-9)
        assert deltas[100.0] == pytest.approx(0.0, abs=1e-9)

    def test_round_values_exactly_zero(self):
        # products of integers by 10 and 100 are exact, so no value moves
        # between compartments (30 leads with 3, not with 2)
        vals = [3.0 * 10**k for k in range(12)] + [d * 10.0**k for d in DIGITS for k in range(12)]
        assert conformity.scale_invariance_probe(vals, [10.0, 100.0]) == {10.0: 0.0, 100.0: 0.0}

    def test_non_conforming_data_detected(self):
        rng = np.random.default_rng(13)
        vals = rng.random(100_000)
        deltas = conformity.scale_invariance_probe(vals, [3.0])
        assert abs(deltas[3.0]) > 100

    @pytest.mark.parametrize("factor", [0.0, -2.0, math.nan, math.inf])
    def test_nonpositive_factor_rejected(self, factor):
        with pytest.raises(BadParamsError):
            conformity.scale_invariance_probe([1.0, 2.0], [2.0, factor])


class TestReport:
    def test_benford_conforming(self):
        rep = conformity.report(benford_sample(50_000, seed=14))
        assert rep.chi_sqr_first < 15.5
        assert rep.mantissa_ks < 0.01
        assert rep.l_inf < 0.01
        assert not rep.annotations

    def test_phone_number_like_uniform_digits(self):
        rng = np.random.default_rng(15)
        vals = rng.integers(1_000_000, 10_000_000, 50_000)  # 7-digit numbers
        rep = conformity.report(vals)
        shares = {d: rep.observed_first[d] / rep.n for d in DIGITS}
        for d in DIGITS:
            assert shares[d] == pytest.approx(1 / 9, abs=0.01)
        assert rep.chi_sqr_first > conformity.CHI_SQR_CRITICAL

    def test_empty_input(self):
        rep = conformity.report([])
        assert rep.n == 0
        assert rep.chi_sqr_first is None
        assert rep.l_inf is None

    def test_zeros_counted_and_skipped(self):
        rep = conformity.report([0.0, 0.0, 5.0, 7.0])
        assert rep.n == 2
        assert rep.skipped_zeros == 2

    def test_nonfinite_counted_apart_from_zeros(self):
        rep = conformity.report([math.inf, math.nan, 0.0, 5.0])
        assert (rep.n, rep.skipped_zeros, rep.skipped_nonfinite) == (1, 1, 2)
        assert rep.to_json_dict()["skipped_nonfinite"] == 2

    def test_sign_neutrality(self):
        vals = np.array([1.5, -2.5, 33.0, -470.0, 0.062])
        a = conformity.report(vals)
        b = conformity.report(np.abs(vals))
        assert a.observed_first == b.observed_first
        assert a.chi_sqr_first == pytest.approx(b.chi_sqr_first)

    def test_small_sample_annotated(self):
        rep = conformity.report(benford_sample(500, seed=16))
        assert any("small sample" in a for a in rep.annotations)

    def test_narrow_range_annotated(self):
        rng = np.random.default_rng(17)
        rep = conformity.report(rng.uniform(10.0, 99.0, 5000))
        assert any("narrow range" in a for a in rep.annotations)

    def test_higher_order_exclusions(self):
        # integers with one significant digit are excluded from order 2/3
        rep = conformity.report([5.0, 50.0, 5.25, 1.5])
        assert rep.excluded_second == 2  # 5 and 50
        assert rep.excluded_third == 3  # all but 5.25
        assert sum(rep.observed_second.values()) == 2
        assert rep.observed_second[5] == 1  # from 1.5
        assert rep.observed_second[2] == 1  # from 5.25
        assert rep.observed_third[5] == 1  # from 5.25

    def test_subnormals_tallied_and_ambiguous_counted(self):
        rep = conformity.report([5e-324, 1e-323, 1e-320, 2.5, 0.0])
        assert (rep.n, rep.skipped_zeros) == (4, 1)
        assert rep.observed_first == {1: 2, 2: 1, 3: 0, 4: 0, 5: 1, 6: 0, 7: 0, 8: 0, 9: 0}
        assert rep.ambiguous == 2  # 3e-324..7e-324 and 8e-324..1e-323 share a double
        assert rep.excluded_second == 3 and rep.observed_second[5] == 1
        assert rep.to_json_dict()["ambiguous"] == 2

    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([0.0, 5e-324, 1e-320, 1.0, 30.0, 0.125]),
        st.integers(-10**15, 10**15).map(float),
    ), max_size=80))
    def test_tallies_plus_exclusions_equal_n(self, xs):
        rep = conformity.report(xs)
        assert rep.n == sum(1 for x in xs if math.isfinite(x) and x != 0)
        assert rep.skipped_zeros == sum(1 for x in xs if x == 0)
        assert rep.n + rep.skipped_zeros + rep.skipped_nonfinite == len(xs)
        assert sum(rep.observed_first.values()) == rep.n
        assert sum(rep.observed_second.values()) + rep.excluded_second == rep.n
        assert sum(rep.observed_third.values()) + rep.excluded_third == rep.n

    def test_json_round_trip(self):
        import json

        rep = conformity.report(benford_sample(2000, seed=18))
        doc = json.loads(json.dumps(rep.to_json_dict()))
        assert doc["schema_version"] == 1
        assert doc["n"] == rep.n


# report documents of edge inputs, as the one-shot report (one leading_digits call
# and one KS pass over all n values) wrote them; values are stored as their repr
_DOCUMENTS = os.path.join(os.path.dirname(__file__), "_artifacts", "conformity_report_documents.json")


def _mixed_values(n: int, seed: int) -> np.ndarray:
    """n values over 40 decades with subnormals, ties, both signs, zeros and non-finites."""
    rng = np.random.default_rng(seed)
    vals = 10.0 ** rng.uniform(-20.0, 20.0, n)
    pick = rng.random(n)
    vals[pick < 0.3] *= -1.0
    vals[pick < 0.01] = rng.choice([0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-320, 2.5, 2.5],
                                   int(np.count_nonzero(pick < 0.01)))
    return vals


def _one_shot(values) -> dict:
    """The tallies and KS distance over all values at once: the oracle of the blocked ones."""
    vals = np.asarray(values, dtype=np.float64)
    vals = np.abs(vals[np.isfinite(vals) & (vals != 0.0)])
    lead = leading_digits(vals, 3)
    m = np.sort(np.log10(vals) % 1.0)
    n = m.size
    i = np.arange(1, n + 1)
    return {
        "first": np.bincount(lead.prefix // 100, minlength=10)[1:10].tolist(),
        "second": np.bincount((lead.prefix // 10 % 10)[lead.ndig >= 2], minlength=10).tolist(),
        "third": np.bincount((lead.prefix % 10)[lead.ndig >= 3], minlength=10).tolist(),
        "ambiguous": lead.ambiguous,
        "ks": float(max(np.max(i / n - m), np.max(m - (i - 1) / n))) if n else None,
    }


class TestReportInBlocks:
    @pytest.mark.parametrize("case", ["empty", "all-non-finite", "subnormal", "mixed-sign"])
    def test_documents_unchanged(self, case):
        with open(_DOCUMENTS) as fh:
            stored = json.load(fh)[case]
        rep = conformity.report([float(t) for t in stored["values"]])
        assert (json.dumps(rep.to_json_dict(), sort_keys=True)
                == json.dumps(stored["document"], sort_keys=True))

    _B = digits._BLOCK

    @settings(max_examples=25, deadline=None)
    @given(n=st.one_of(st.sampled_from([1, 2, _B - 1, _B, _B + 1, 2 * _B - 1, 2 * _B, 2 * _B + 1]),
                       st.integers(1, 3 * _B)),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_tallies_and_ks_equal_one_shot(self, n, seed):
        vals = _mixed_values(n, seed)
        want = _one_shot(vals)
        rep = conformity.report(vals)
        assert [rep.observed_first.get(d, 0) for d in DIGITS] == want["first"]
        assert [rep.observed_second.get(d, 0) for d in range(10)] == want["second"]
        assert [rep.observed_third.get(d, 0) for d in range(10)] == want["third"]
        assert rep.ambiguous == want["ambiguous"]
        assert rep.mantissa_ks == want["ks"]
        if want["ks"] is not None:
            assert conformity.mantissa_uniformity_test(vals).statistic == want["ks"]

    def test_report_holds_two_arrays_of_n(self):
        # the cleaned copy and the sorted mantissae; the one-shot report peaked at
        # 49.7 MB over its 8 MB input
        vals = _mixed_values(10**6, 19)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            conformity.report(vals)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3 * vals.nbytes, peak / 2**20


def _traced_peak(fn, *args) -> int:
    """Bytes fn(*args) holds at its peak beyond what was allocated before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestStreamingTallies:
    # 1e6 log-uniform values over 15 decades, 30% negative: each caller of the tally
    # holds at most its cleaned copy besides the input.  With one leading_digits call
    # over all n values they peaked at 42.0, 49.6 and 64.9 MB above the 8 MB input
    @pytest.mark.parametrize("call", [
        conformity.first_digit_counts,
        conformity.compartmental_allotment_test,
        lambda v: conformity.scale_invariance_probe(v, [2.0]),
    ], ids=["first_digit_counts", "compartmental_allotment_test", "scale_invariance_probe"])
    def test_holds_under_three_arrays_of_n(self, call):
        rng = np.random.default_rng(23)
        vals = 10.0 ** rng.uniform(-7.0, 8.0, 10**6)
        vals[rng.random(vals.size) < 0.3] *= -1.0
        peak = _traced_peak(call, vals)
        assert peak < 3 * vals.nbytes, peak / 2**20  # 1.8, 9.4 and 10.3 MB

    def test_chain_buffer_tally_under_one_mib(self):
        # a 2^15-row buffer of the benchmark's Normal chain: 0.85 MiB, against 1.39 MiB
        # when the tally held per-value prefixes, digit counts and threshold hits
        rng = np.random.default_rng(29)
        buf = rng.normal(rng.uniform(-1.0, 1.0, 2**15), rng.uniform(0.01, 2.0, 2**15))
        conformity.first_digit_counts(buf)  # the exponents' tables are built and kept
        assert _traced_peak(conformity.first_digit_counts, buf) < 2**20

    def test_probe_streams_the_products_it_tallied_at_once(self):
        # the products of each block, cleaned, tally as the products of all n did
        vals = _mixed_values(3 * digits._BLOCK + 5, 31)
        clean = np.abs(vals[np.isfinite(vals) & (vals != 0.0)])
        for c in (2.0, 1e300, 1e-300):
            with np.errstate(over="ignore"):
                scaled = clean * c
            scaled = scaled[np.isfinite(scaled) & (scaled != 0.0)]
            want = conformity.chi_sqr(_one_shot(scaled)["first"])
            want -= conformity.chi_sqr(_one_shot(clean)["first"])
            assert conformity.scale_invariance_probe(vals, [c])[c] == want
