"""Tests for digit extraction, mantissa arithmetic, and the Benford laws."""

import math

import pytest
from hypothesis import given, strategies as st

from digitlab import digits
from digitlab.errors import (
    BadBaseError,
    BadDigitError,
    ZeroInputError,
)

DIGITS = range(1, 10)


class TestFirstDigit:
    @pytest.mark.parametrize(
        "x,expected",
        [(567.34, 5), (0.0367, 3), (-345.23, 3), (1.0, 1), (9.999, 9), (10.0, 1)],
    )
    def test_known_values(self, x, expected):
        assert digits.first_digit(x) == expected

    def test_other_bases(self):
        assert digits.first_digit(5, base=2) == 1
        assert digits.first_digit(7, base=8) == 7
        assert digits.first_digit(15, base=16) == 15

    def test_zero_rejected(self):
        with pytest.raises(ZeroInputError):
            digits.first_digit(0.0)

    def test_bad_base(self):
        with pytest.raises(BadBaseError):
            digits.first_digit(5, base=1)

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_matches_pattern_head(self, x):
        assert digits.first_digit(x) == digits.digit_pattern(x, 3)[0]


class TestDigitPattern:
    @pytest.mark.parametrize(
        "x,k,expected",
        [(4782, 3, (4, 7, 8)), (1.0, 3, (1, 0, 0)), (0.0314, 2, (3, 1)),
         (4.782, 3, (4, 7, 8)), (-4782, 2, (4, 7))],
    )
    def test_known_values(self, x, k, expected):
        assert digits.digit_pattern(x, k) == expected

    def test_first_element_never_zero(self):
        for x in (0.001, 0.0999, 5e-7, 123.456):
            assert digits.digit_pattern(x, 4)[0] != 0

    def test_bad_length(self):
        with pytest.raises(BadDigitError):
            digits.digit_pattern(5, 0)


class TestMantissa:
    def test_scale_periodicity(self):
        m = digits.mantissa10(4.782)
        for shift in (-6, -2, 3, 9):
            assert digits.mantissa10(4.782 * 10.0**shift) == pytest.approx(m, abs=1e-12)

    def test_one_complement_convention(self):
        # 0.2 and 2 share a mantissa: 1 - frac(|log10 0.2|) = log10 2
        assert digits.mantissa10(0.2) == pytest.approx(math.log10(2), abs=1e-12)

    def test_power_of_ten_is_zero(self):
        for x in (1.0, 10.0, 100.0, 1e6, 0.1, 1e-5):
            assert digits.mantissa10(x) == 0.0

    @given(st.floats(min_value=1e-250, max_value=1e250))
    def test_range(self, x):
        assert 0.0 <= digits.mantissa10(x) < 1.0

    @given(st.floats(min_value=1e-100, max_value=1e100), st.integers(-40, 40))
    def test_periodicity_property(self, x, m):
        a, b = digits.mantissa10(x), digits.mantissa10(x * 10.0**m)
        assert min(abs(a - b), 1 - abs(a - b)) < 1e-9

    def test_compartment_matches_first_digit(self):
        bounds = digits.compartment_boundaries()
        for x in (2.0, 0.2, 3.14, 9.999, 567.34, 1.0, 7e-9, 4782.0):
            m = digits.mantissa10(x)
            d = digits.first_digit(x)
            idx = 0
            while idx < 9 and m >= bounds[idx + 1]:
                idx += 1
            # half-open compartments; allow a one-ulp tie at a boundary
            near_edge = min(abs(m - b) for b in bounds) < 1e-12
            assert idx + 1 == d or near_edge


class TestLda:
    @pytest.mark.parametrize(
        "x,value,exponent",
        [(314, 3.14, 2), (0.0314, 3.14, -2), (1.0, 1.0, 0)],
    )
    def test_known_values(self, x, value, exponent):
        s = digits.lda(x)
        assert s.value == pytest.approx(value, rel=1e-12)
        assert s.exponent == exponent

    def test_reconstruction(self):
        for x in (567.34, 0.0367, 4782.0, 9.999e-7):
            s = digits.lda(x)
            assert s.reconstruct() == pytest.approx(x, rel=1e-15)

    def test_value_in_range(self):
        for x in (0.1, 1.0, 99.0, 12345.6789):
            s = digits.lda(x)
            assert 1.0 <= s.value < 10.0


class TestBenfordLaws:
    def test_first_digit_law(self):
        assert digits.benford_first(1) == pytest.approx(0.30103, abs=5e-6)
        assert digits.benford_first(9) == pytest.approx(0.04576, abs=5e-6)

    def test_binary_tautology(self):
        assert digits.benford_first(1, base=2) == 1.0

    def test_normalization_many_bases(self):
        for base in (2, 3, 7, 10, 16, 60):
            total = math.fsum(digits.benford_first(d, base) for d in range(1, base))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_pattern_law(self):
        assert digits.benford_pattern([1]) == pytest.approx(digits.benford_first(1))
        assert digits.benford_pattern([3, 1, 4]) == pytest.approx(math.log10(1 + 1 / 314))

    def test_pattern_normalization(self):
        total = math.fsum(
            digits.benford_pattern([d1, d2]) for d1 in DIGITS for d2 in range(10)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_bad_patterns(self):
        with pytest.raises(BadDigitError):
            digits.benford_pattern([0, 5])
        with pytest.raises(BadDigitError):
            digits.benford_pattern([3, 11])
        with pytest.raises(BadDigitError):
            digits.benford_pattern([])

    def test_from_counts(self):
        dist = digits.DigitDistribution.from_counts([3, 0, 1, 0, 0, 0, 0, 0, 2])
        assert (dist.base, dist.order) == (10, 1)
        assert dist.first_order_vector() == [3 / 6, 0.0, 1 / 6, 0.0, 0.0, 0.0, 0.0, 0.0, 2 / 6]
        assert digits.DigitDistribution.from_counts([1, 1, 2]).base == 4
        assert digits.DigitDistribution.from_counts([0] * 9).probs == {}

    def test_second_digit_values(self):
        assert digits.benford_nth_unconditional(2, 5) == pytest.approx(0.097, abs=5e-4)
        assert digits.benford_nth_unconditional(2, 2) == pytest.approx(0.109, abs=5e-4)

    def test_third_digit_zero(self):
        assert digits.benford_nth_unconditional(3, 0) == pytest.approx(0.102, abs=5e-4)

    def test_nth_matches_brute_force_summation(self):
        # oracle: direct summation over all 9 one-digit prefixes
        for d in range(10):
            brute = math.fsum(digits.benford_pattern([p, d]) for p in DIGITS)
            assert digits.benford_nth_unconditional(2, d) == pytest.approx(brute, abs=0)

    def test_higher_orders_converge_to_uniform(self):
        dev = max(abs(digits.benford_nth_unconditional(4, d) - 0.1) for d in range(10))
        assert dev < 0.002

    def test_conditional_values(self):
        assert digits.benford_conditional(2, 2, [1]) == pytest.approx(0.115, abs=1e-3)
        assert digits.benford_conditional(2, 2, [9]) == pytest.approx(0.103, abs=1e-3)

    def test_conditional_normalization(self):
        total = math.fsum(digits.benford_conditional(2, d, [7]) for d in range(10))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_conditional_prefix_length_checked(self):
        with pytest.raises(BadDigitError):
            digits.benford_conditional(2, 2, [1, 5])


class TestCompartments:
    def test_base10_boundaries(self):
        b = digits.compartment_boundaries()
        assert b[0] == 0.0
        assert b[1] == pytest.approx(0.301, abs=1e-3)
        assert b[2] == pytest.approx(0.478, abs=1e-3)
        assert b[3] == pytest.approx(0.603, abs=1e-3)
        assert b[-1] == 1.0

    def test_base2(self):
        assert digits.compartment_boundaries(2) == [0.0, 1.0]

    def test_widths_are_benford(self):
        b = digits.compartment_boundaries()
        for d in DIGITS:
            assert b[d] - b[d - 1] == pytest.approx(digits.benford_first(d), abs=1e-12)


class TestDigitalUsage:
    def test_four_digit_numbers(self):
        u = digits.digital_usage(4)
        assert u[1] == pytest.approx(0.154, abs=1e-3)
        assert u[0] == pytest.approx(0.080, abs=1e-3)

    def test_seven_digit_numbers(self):
        u = digits.digital_usage(7)
        assert u[1] == pytest.approx(0.131, abs=1e-3)
        assert u[0] == pytest.approx(0.089, abs=1e-3)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12])
    def test_rows_sum_to_one(self, k):
        assert math.fsum(digits.digital_usage(k).values()) == pytest.approx(1.0, abs=1e-12)


class TestDiagnostics:
    def test_boundary_ambiguity_counter(self):
        digits.reset_diagnostics()
        digits.first_digit(2.34)  # interior: no ambiguity
        base = digits.boundary_ambiguities()
        digits.first_digit(1.0)  # exact boundary: one ulp below normalizes to 9.99..
        assert digits.boundary_ambiguities() > base
        digits.reset_diagnostics()
        assert digits.boundary_ambiguities() == 0


class TestDigitDistribution:
    def test_invariants_enforced(self):
        with pytest.raises(BadDigitError):
            digits.DigitDistribution(base=10, order=1, probs={1: 0.9, 2: 0.3})

    def test_benford_distribution_valid(self):
        dist = digits.benford_distribution()
        assert math.fsum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)
        vec = dist.first_order_vector()
        assert len(vec) == 9 and vec[0] == pytest.approx(0.30103, abs=1e-5)
