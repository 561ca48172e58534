"""Tests for digit extraction, mantissa arithmetic, and the Benford laws."""

import math
import os
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

    @pytest.mark.parametrize(
        "x,expected",
        [(1e-11, 1), (30.0, 3), (40.0, 4), (0.03, 3), (5e-324, 5), (1e-323, 1),
         (1.7976931348623157e308, 1), (2.2250738585072014e-308, 2)],
    )
    def test_decimal_boundaries_and_extremes(self, x, expected):
        assert digits.first_digit(x) == expected


class TestDigitPattern:
    @pytest.mark.parametrize(
        "x,k,expected",
        [(4782, 3, (4, 7, 8)), (1.0, 3, (1, 0, 0)), (0.0314, 2, (3, 1)),
         (4.782, 3, (4, 7, 8)), (-4782, 2, (4, 7))],
    )
    def test_known_values(self, x, k, expected):
        assert digits.digit_pattern(x, k) == expected

    def test_shortest_repr_digits(self):
        assert digits.digit_pattern(12.3, 3) == (1, 2, 3)
        assert digits.digit_pattern(0.3, 3) == (3, 0, 0)
        assert digits.digit_pattern(5e-324, 3) == (5, 0, 0)

    def test_first_element_never_zero(self):
        for x in (0.001, 0.0999, 5e-7, 123.456):
            assert digits.digit_pattern(x, 4)[0] != 0

    def test_bad_length(self):
        with pytest.raises(BadDigitError):
            digits.digit_pattern(5, 0)
        with pytest.raises(BadDigitError):  # a 9e19-entry row is never built
            digits.digit_pattern(5, 20)


def _repr_reference(x: float, k: int) -> tuple[int, int]:
    """(k-digit prefix, significant digits capped at k) from the repr string."""
    sig = repr(abs(float(x))).split("e")[0].replace(".", "").strip("0")
    return int(sig[:k].ljust(k, "0")), min(len(sig), k)


def _round_values() -> list[float]:
    """Every d*10^k on the double range and its one-ulp neighbours."""
    out = []
    for e in range(-324, 309):
        for d in range(1, 10):
            x = float(f"{d}e{e}")
            if 0.0 < x < math.inf:
                out += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
    return [x for x in out if 0.0 < x < math.inf]


ROUND_VALUES = _round_values()
POSITIVE_DOUBLES = st.floats(min_value=5e-324, max_value=1.7976931348623157e308)


class TestLeadingDigits:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_round_values_and_neighbours_match_repr(self, k):
        lead = digits.leading_digits(ROUND_VALUES, k)
        got = list(zip(lead.prefix.tolist(), lead.ndig.tolist()))
        assert got == [_repr_reference(x, k) for x in ROUND_VALUES]
        scalar = [digits.digit_pattern(x, k) for x in ROUND_VALUES]
        assert scalar == [tuple(int(c) for c in f"{p:0{k}d}") for p, _ in got]

    @given(st.lists(POSITIVE_DOUBLES | st.floats(min_value=-1e300, max_value=-5e-324),
                    min_size=1, max_size=50), st.integers(1, 3))
    def test_random_doubles_match_repr(self, xs, k):
        lead = digits.leading_digits(xs, k)
        assert list(zip(lead.prefix.tolist(), lead.ndig.tolist())) == [
            _repr_reference(x, k) for x in xs]
        assert [digits.first_digit(x) for x in xs] == [_repr_reference(x, 1)[0] for x in xs]

    @given(st.lists(st.integers(1, 2**53), min_size=1, max_size=50), st.integers(1, 3))
    def test_integers_match_integer_arithmetic(self, ints, k):
        lead = digits.leading_digits([float(i) for i in ints], k)
        for i, p, nd in zip(ints, lead.prefix.tolist(), lead.ndig.tolist()):
            width = len(str(i))
            prefix = i // 10 ** (width - k) if width >= k else i * 10 ** (k - width)
            assert (p, nd) == (prefix, min(len(str(i).rstrip("0")), k))

    @given(st.lists(st.tuples(st.integers(1, 10**15 - 1), st.integers(-280, 270)),
                    min_size=1, max_size=50), st.integers(-15, 15))
    def test_counts_unchanged_exactly_under_powers_of_ten(self, decimals, m):
        # the decimals n*10^e and n*10^(e+m) carry the same digits, and any
        # decimal of up to 15 digits survives parsing, so every tally agrees
        a = digits.leading_digits([float(f"{n}e{e}") for n, e in decimals], 3)
        b = digits.leading_digits([float(f"{n}e{e + m}") for n, e in decimals], 3)
        assert np.array_equal(a.prefix, b.prefix)
        assert np.array_equal(a.ndig, b.ndig)

    def test_ambiguous_subnormals_counted(self):
        # 3e-324 .. 7e-324 all round to 5e-324; 8e-324 .. 1e-323 to 1e-323
        lead = digits.leading_digits([5e-324, 1e-323, 1.0, 2.5], 1)
        assert lead.ambiguous == 2
        assert lead.prefix.tolist() == [5, 1, 1, 2]
        assert digits.leading_digits([1.0, 2.5, 1e-300], 3).ambiguous == 0

    def test_empty_and_bad_input(self):
        assert digits.leading_digits([], 3).prefix.size == 0
        with pytest.raises(BadDigitError):
            digits.leading_digits([1.0], 4)
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ZeroInputError):
                digits.leading_digits([1.0, bad])


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _ambiguous_reference(x: float, k: int) -> bool:
    """Whether two or more k-digit decimals n*10^s parse to x.

    Only a subnormal can be: elsewhere half an ulp is under 2^-53 of x, far
    less than the 1/(10^k - 1) gap between k-digit decimals.  Below 2^-1022
    every double is m * 2^-1074 and the reals within 2^-1075 of it parse to
    it, a tie going to even m.
    """
    if x >= 2.0**-1022:
        return False
    q, h = Fraction(x), Fraction(1, 2**1075)
    tie = (q * 2**1074).numerator % 2 == 0
    e, count = math.floor(math.log10(x)), 0
    for s in range(e - k - 1, e + 2):
        unit = Fraction(10) ** s
        for n in range(max(math.ceil((q - h) / unit), 10 ** (k - 1)),
                       min(math.floor((q + h) / unit), 10**k - 1) + 1):
            gap = abs(n * unit - q)
            count += gap < h or (gap == h and tie)
    return count >= 2


@st.composite
def _kernel_case(draw) -> tuple[int, list[float]]:
    """k and values: any double, a k-digit threshold n*10^e or a neighbour, and
    the first or last double of a key cell (digits._KEY_BITS), of either sign."""
    k = draw(st.integers(1, 3))
    b = digits._KEY_BITS[k]
    whole = st.integers(1, 0x7FEFFFFFFFFFFFFF).map(_double)  # subnormals included
    threshold = st.builds(lambda n, e, step: [math.nextafter(float(f"{n}e{e}"), 0.0),
                                              float(f"{n}e{e}"),
                                              math.nextafter(float(f"{n}e{e}"), math.inf)][step],
                          st.integers(1, 10**k - 1), st.integers(-326 - k, 309 - k),
                          st.integers(0, 2))
    edge = st.builds(lambda exp, cell, last: _double((exp << 52) + ((cell + last) << (52 - b)) - last),
                     st.integers(0, 2046), st.integers(0, 2**b - 1), st.integers(0, 1))
    xs = draw(st.lists(st.one_of(whole, threshold, edge).filter(lambda x: 0.0 < x < math.inf),
                       min_size=1, max_size=40))
    return k, [x if draw(st.booleans()) else -x for x in xs]


class TestBitKeyedKernel:
    # a test that meets a new exponent or decade builds its table and rows once
    @settings(deadline=None)
    @given(_kernel_case())
    def test_matches_repr_reference(self, case):
        k, xs = case
        lead = digits.leading_digits(xs, k)
        assert list(zip(lead.prefix.tolist(), lead.ndig.tolist())) == [
            _repr_reference(x, k) for x in xs]
        assert lead.ambiguous == sum(_ambiguous_reference(abs(x), k) for x in xs)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_every_cell_start_matches_repr(self, k):
        # cell starts of every exponent with a decade boundary or a threshold inside
        b = digits._KEY_BITS[k]
        xs = [_double((exp << 52) + (cell << (52 - b)))
              for exp in range(1, 2047, 5) for cell in range(2**b)]
        lead = digits.leading_digits(xs, k)
        assert list(zip(lead.prefix.tolist(), lead.ndig.tolist())) == [
            _repr_reference(x, k) for x in xs]

    def test_import_builds_no_table(self):
        src = str(Path(digits.__file__).resolve().parents[1])
        code = ("import digitlab.digits as d; "
                "print(d._cells.cache_info().currsize, d._row.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "0"]


def _exact_prefix(x: float, k: int, base: int) -> int:
    """k-digit base-B prefix of the exact value of the double x."""
    q = Fraction(abs(x))
    e = 0
    while q >= Fraction(base) ** (e + 1):
        e += 1
    while q < Fraction(base) ** e:
        e -= 1
    return math.floor(q / Fraction(base) ** (e - k + 1))


# base 10 takes its digits from the shortest repr (TestLeadingDigits), not the exact value
EXACT_BASES = [b for b in range(2, 17) if b != 10]


def _with_rows_built(case: tuple[int, float]) -> tuple[int, float]:
    """Look (base, x) up once while hypothesis draws it.

    A threshold row is built on the first lookup in its (base, decade) and
    memoised; building it here keeps that one-time cost (up to a few hundred
    ms for base 15 or 16) out of the deadline, which then times the lookup.
    """
    digits.digit_pattern(case[1], 3, case[0])
    return case


class TestOtherBases:
    @given(st.integers(2, 16), st.integers(1, 3), st.integers(1, 2**53))
    def test_integers(self, base, k, i):
        digs, rest = [], i
        while rest:
            rest, r = divmod(rest, base)
            digs.insert(0, r)
        assert digits.digit_pattern(float(i), k, base) == tuple((digs + [0] * k)[:k])

    @pytest.mark.parametrize("base", [2, 3, 7, 10 + 1, 16])
    def test_powers_and_neighbours_match_exact_value(self, base):
        emax = int(1024 / math.log2(base))
        for e in range(-emax - 60, emax, 7):
            for d in range(1, base):
                x = float(Fraction(d) * Fraction(base) ** e) if e < emax - 1 else 0.0
                for y in (x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)):
                    if 0.0 < y < math.inf:
                        assert digits.first_digit(y, base) == _exact_prefix(y, 1, base)

    @given(st.tuples(st.sampled_from(EXACT_BASES),
                     POSITIVE_DOUBLES.filter(lambda x: 1e-200 < x < 1e200)).map(_with_rows_built))
    def test_random_doubles_match_exact_value(self, case):
        base, x = case
        n = _exact_prefix(x, 3, base)
        assert digits.digit_pattern(x, 3, base) == (n // base**2, n // base % base, n % base)


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


class TestDigitDistribution:
    def test_invariants_enforced(self):
        with pytest.raises(BadDigitError):
            digits.DigitDistribution(base=10, order=1, probs={1: 0.9, 2: 0.3})

    def test_benford_distribution_valid(self):
        dist = digits.benford_distribution()
        assert math.fsum(dist.probs.values()) == pytest.approx(1.0, abs=1e-12)
        vec = dist.first_order_vector()
        assert len(vec) == 9 and vec[0] == pytest.approx(0.30103, abs=1e-5)
