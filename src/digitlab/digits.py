"""Digit extraction, mantissa arithmetic, and the Benford probability laws.

Everything here is pure and deterministic.  Decimal digits are those of
the value's shortest ``repr`` (the decimal a data file held, if it had at
most 15 significant digits), read without strings: T[e, n] =
float(f"{n}e{e-k+1}") rounds the k-digit prefix n at decade e correctly,
rounding is monotone, so x's prefix is the largest n with T[e, n] <= |x|,
and x has fewer than k significant digits when |x| == T[e, n] and n ends
in zeros.  A decade's threshold row is built when a value first needs it
and memoised, never at import, and so is the table per binary exponent
that ``leading_digits`` looks n up in.  Below about 1e-320 several short
decimals round to one double (equal adjacent thresholds); such *ambiguous*
values take their digits from ``repr``, and ``leading_digits`` counts them.
Other bases use the double's exact value: their thresholds are the
smallest doubles >= n * base**(e-k+1).

Conventions: digits are plain ints, digit patterns are tuples of ints, the
mantissa is the fractional part of log10|x| (one-complement for |x| < 1),
and exact powers of the base have mantissa 0 (half-open throughout).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParamsError, TooLargeError

__all__ = [
    "DigitDistribution",
    "LeadingDigits",
    "Significand",
    "leading_digits",
    "prefix_counts",
    "first_digit",
    "digit_pattern",
    "mantissa10",
    "lda",
    "benford_first",
    "benford_pattern",
    "benford_nth_unconditional",
    "benford_conditional",
    "benford_distribution",
    "compartment_boundaries",
    "digital_usage",
]


def _check_base(base: int) -> None:
    if not isinstance(base, int) or base < 2:
        raise BadParamsError(f"base must be an integer >= 2, got {base!r}")


def _check_input(x: float) -> float:
    if x == 0:
        raise BadParamsError("digit operations are undefined for 0")
    if not math.isfinite(x):
        raise BadParamsError(f"digit operations need a finite input, got {x!r}")
    return abs(x)


def _normalize(a: float, base: int) -> tuple[float, int]:
    """Return (s, e) with s in [1, base) and s * base**e == a (to rounding).

    base**e is computed as an exact integer (or its reciprocal) so the
    normalization involves a single floating division/multiplication.
    """
    e = math.floor(math.log(a, base)) if base != 10 else math.floor(math.log10(a))
    s = a / (base**e) if e >= 0 else a * (base**-e)
    # log rounding can land one exponent off; fix up.
    while s >= base:
        s /= base
        e += 1
    while s < 1.0:
        s *= base
        e -= 1
    return s, e


def _ceil_double(q) -> float:
    """The smallest double >= q > 0, for an exact rational q (inf beyond the double range)."""
    try:
        t = float(q)
    except OverflowError:
        return math.inf
    return t if q <= t else math.nextafter(t, math.inf)  # a Fraction compares exactly with a float


# a double carries at most 17 significant decimal digits; rows grow as base**k
_MAX_ROW = 10**5


@functools.cache
def _row(base: int, k: int, e: int) -> tuple[float, ...]:
    """Thresholds of the k-digit prefixes n = base**(k-1) .. base**k - 1 at decade e.

    A value x has prefix n exactly when row[n - base**(k-1)] <= |x| < the
    next threshold (the next row's first one after the last).
    """
    s = e - k + 1
    prefixes = range(base ** (k - 1), base**k)
    if base == 10:
        return tuple(float(f"{n}e{s}") for n in prefixes)
    from fractions import Fraction  # loads decimal: only a non-decimal base pays for it

    unit = Fraction(base) ** s
    return tuple(_ceil_double(n * unit) for n in prefixes)


def _repr_digits(a: float, k: int) -> tuple[int, int]:
    """(k-digit prefix, significant digits capped at k) read off repr(a)."""
    sig = repr(float(a)).split("e")[0].replace(".", "").strip("0")
    return int(sig[:k].ljust(k, "0")), min(len(sig), k)


def _prefix(a: float, k: int, base: int) -> int:
    """The k-digit prefix of a finite a > 0: the scalar lookup in the same rows."""
    if base**k > _MAX_ROW:
        raise TooLargeError(f"{k} base-{base} digits need rows of {base}**{k} thresholds; "
                            f"at most {_MAX_ROW} are built")
    if base == 10 and a < sys.float_info.min:
        return _repr_digits(a, k)[0]  # subnormal: possibly ambiguous
    e = math.floor(math.log10(a) if base == 10 else math.log(a, base))
    while a < _row(base, k, e)[0]:  # the log can land a decade off
        e -= 1
    while a >= _row(base, k, e + 1)[0]:
        e += 1
    return base ** (k - 1) + bisect.bisect_right(_row(base, k, e), a) - 1


class LeadingDigits(NamedTuple):
    """Per-value k-digit prefixes and significant-digit counts (capped at k)."""

    prefix: np.ndarray
    ndig: np.ndarray
    ambiguous: int


# key bits b per prefix length k: 2**-b < 1/(10**k - 1), so a cell of the key holds
# at most one k-digit threshold
_KEY_BITS = {1: 4, 2: 7, 3: 10}

# values per pass of a tally and of conformity's KS differences: scratch stays this long
_BLOCK = 1 << 16


def _ndig(prefix, k: int):
    """Significant digits of the decimal that is its k-digit prefix: k less trailing zeros."""
    return k - sum((prefix % 10**t == 0 for t in range(1, k)), np.zeros_like(prefix))


@functools.cache
def _cells(k: int, exp: int) -> tuple[np.ndarray, np.ndarray]:
    """Per key cell of the normal doubles with biased exponent exp (the 2**b runs that
    share their top b mantissa bits), its threshold (inf if none), and per code 3 cell
    + class, the slot ndig * 10**k + prefix of the values below, above and on it.
    """
    b = _KEY_BITS[k]
    with np.errstate(over="ignore"):  # the top exponent's last cell ends at 2**1024
        edges = np.ldexp(np.arange(2**b, 2 ** (b + 1) + 1, dtype=np.float64), exp - 1023 - b)
    d = math.floor(math.log10(edges[0]))  # the cells lie within decades d and d + 1
    thr = np.array(_row(10, k, d - 1) + _row(10, k, d) + _row(10, k, d + 1))
    j = np.searchsorted(thr, edges[:-1]) - 1
    start = j % (9 * 10 ** (k - 1)) + 10 ** (k - 1)  # the prefix of the last threshold below
    up = start + 1
    up[up == 10**k] = 10 ** (k - 1)  # the threshold in the cell starts a decade
    ndig = np.stack([np.full_like(up, k), np.full_like(up, k), _ndig(up, k)], axis=1)
    slots = ndig * 10**k + np.stack([start, up, up], axis=1)
    return slots.astype(np.int16).ravel(), np.where(thr[j + 1] < edges[1:], thr[j + 1], math.inf)


def _slots(values: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """Each finite value's slot (_cells; 0 for a zero), signs ignored, and how many
    are ambiguous.  Subnormals are searched for in the rows of their decades; those
    that several k-digit decimals parse to take their digits from repr."""
    b = _KEY_BITS[k]
    key = values.view(np.int64) >> (52 - b)
    key &= (1 << (11 + b)) - 1  # the biased exponent, then b mantissa bits
    exp = key >> b
    count = np.bincount(exp)
    if count.size == 2048:  # the top exponent holds inf and NaN
        raise BadParamsError("leading digits need finite values")
    exps = np.flatnonzero(count).tolist()
    tiny = np.flatnonzero(exp == 0) if count[0] else key[:0]
    block = np.zeros(count.size, np.int64)  # one block of cells per exponent present
    block[exps] = (np.arange(len(exps)) - exps) << b
    key += block[exp]
    del exp
    # exponent 0 takes dummy cells: its zeros keep slot 0, its subnormals are searched for below
    cells = [_cells(k, e) if e else (np.zeros(3 << b, np.int16), np.full(2**b, math.inf))
             for e in exps]
    a = np.abs(values)
    split = np.concatenate([c[1] for c in cells])[key]
    key *= 3
    key += a >= split
    if k > 1:  # on the threshold, a prefix ending in 0 has fewer than k digits
        key += a == split
    del split
    slot = np.concatenate([c[0] for c in cells])[key]
    tiny = tiny[a[tiny] != 0.0]  # a zero keeps slot 0
    if not tiny.size:
        return slot, 0
    at = a[tiny]
    table = np.array([t for d in range(-325, -307) for t in _row(10, k, d)])
    j = np.searchsorted(table, at, side="right") - 1
    prefix = j % (9 * 10 ** (k - 1)) + 10 ** (k - 1)
    on = table[j] == at
    slot[tiny] = np.where(on, _ndig(prefix, k), k) * 10**k + prefix
    ambiguous = tiny[on & (table[j - 1] == at)]
    for t in ambiguous:
        prefix, ndig = _repr_digits(a[t], k)
        slot[t] = ndig * 10**k + prefix
    return slot, int(ambiguous.size)


def leading_digits(values, k: int = 1) -> LeadingDigits:
    """Decimal k-digit prefixes (k <= 3) of finite nonzero values, vectorized.

    ``prefix`` is each |x|'s first k digits as one integer, ``ndig`` its
    significant digits capped at k (50.0 has one), both as its shortest
    repr gives them; ``ambiguous`` counts the values read off repr.  A
    normal double is keyed by its exponent and top b mantissa bits
    (_KEY_BITS); its key's cell holds at most one threshold (_cells).
    """
    if not 1 <= k <= 3:
        raise BadParamsError(f"prefix length must be 1..3, got {k}")
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        return LeadingDigits(np.zeros(0, np.int16), np.zeros(0, np.int8), 0)
    slot, ambiguous = _slots(vals, k)
    if not slot.all():
        raise BadParamsError("leading digits need nonzero values")
    return LeadingDigits(slot % 10**k, (slot // 10**k).astype(np.int8), ambiguous)


def prefix_counts(values, k: int = 1) -> tuple[np.ndarray, int]:
    """Tallies of the first k (<= 3) significant digits of finite values, zeros
    skipped, and how many values are ambiguous.

    Row j of the (k, 10) tallies counts the (j + 1)-th digits 0..9, as leading_digits
    reads them, of the values with j + 1 significant digits: row 0 is the first-digit
    tally.  _BLOCK values at a time are counted by slot (_slots): about 27 bytes of
    scratch a value, and no per-value prefix or digit count.
    """
    if not 1 <= k <= 3:
        raise BadParamsError(f"prefix length must be 1..3, got {k}")
    vals = np.asarray(values, dtype=np.float64).ravel()
    slots = np.zeros((k + 1) * 10**k, np.int64)
    ambiguous = 0
    for lo in range(0, vals.size, _BLOCK):
        slot, more = _slots(vals[lo:lo + _BLOCK], k)
        slots += np.bincount(slot, minlength=slots.size)
        ambiguous += more
    # values per significant digits and prefix; slot 0 holds the zeros
    rows = slots.reshape(k + 1, 10**k)[:, 10 ** (k - 1):]
    prefixes = np.arange(10 ** (k - 1), 10**k)
    counts = np.zeros((k, 10), np.int64)
    for j in range(k):
        np.add.at(counts[j], prefixes // 10 ** (k - 1 - j) % 10, rows[j + 1:].sum(0))
    return counts, ambiguous


def first_digit(x: float, base: int = 10) -> int:
    """First significant digit of |x| in the given base (never 0)."""
    return digit_pattern(x, 1, base)[0]


def digit_pattern(x: float, k: int, base: int = 10) -> tuple[int, ...]:
    """The first k significant digits of |x|, in order; first is never 0.

    Positions past the last significant digit are 0.
    """
    _check_base(base)
    if k < 1:
        raise BadParamsError(f"pattern length must be >= 1, got {k}")
    n = _prefix(_check_input(x), k, base)
    return tuple(n // base**j % base for j in range(k - 1, -1, -1))


def mantissa10(x: float) -> float:
    """Fractional part of log10|x|, in [0, 1).

    For |x| < 1 this equals one minus the fractional part of |log10|x||,
    which Python's modulo gives directly.  Exact powers of ten map to 0.
    """
    a = _check_input(x)
    m = math.log10(a) % 1.0
    return 0.0 if m == 1.0 else m


@dataclass(frozen=True)
class Significand:
    """The unique value in [1, base) with |x| = value * base**exponent."""

    value: float
    exponent: int
    base: int = 10

    def reconstruct(self) -> float:
        e = self.exponent
        return self.value * (self.base**e) if e >= 0 else self.value / (self.base**-e)


def lda(x: float, base: int = 10) -> Significand:
    """Leading-digits arrangement: all significant digits as one number."""
    _check_base(base)
    a = _check_input(x)
    s, e = _normalize(a, base)
    return Significand(value=s, exponent=e, base=base)


def benford_first(d: int, base: int = 10) -> float:
    """P[first digit = d] = log(1 + 1/d) / log(base)."""
    _check_base(base)
    if not 1 <= d <= base - 1:
        raise BadParamsError(f"first digit must be in [1, {base - 1}], got {d}")
    return math.log1p(1.0 / d) / math.log(base)


def benford_pattern(pattern, base: int = 10) -> float:
    """P[first digits = pattern] = log(1 + 1/n)/log(base), n the pattern value."""
    _check_base(base)
    pattern = tuple(pattern)
    if not pattern:
        raise BadParamsError("pattern must be non-empty")
    if pattern[0] < 1:
        raise BadParamsError("first digit of a pattern is never 0")
    n = 0
    for d in pattern:
        if not 0 <= d <= base - 1:
            raise BadParamsError(f"digit {d} out of range for base {base}")
        n = n * base + d
    return math.log1p(1 / n) / math.log(base)  # 1 / n of a long pattern underflows to 0.0


def benford_nth_unconditional(n: int, d: int, base: int = 10) -> float:
    """Unconditional probability that the n-th significant digit is d (n >= 2)."""
    _check_base(base)
    if n < 2:
        raise BadParamsError("nth-digit law needs n >= 2; use benford_first for n = 1")
    if not 0 <= d <= base - 1:
        raise BadParamsError(f"digit {d} out of range for base {base}")
    prefixes = itertools.product(range(1, base), *[range(base)] * (n - 2))
    return math.fsum(benford_pattern(prefix + (d,), base) for prefix in prefixes)


def benford_conditional(n: int, d: int, prefix, base: int = 10) -> float:
    """P[n-th digit = d | first n-1 digits = prefix]."""
    _check_base(base)
    prefix = tuple(prefix)
    if len(prefix) != n - 1:
        raise BadParamsError(f"prefix length {len(prefix)} != n - 1 = {n - 1}")
    p_prefix = benford_pattern(prefix, base)
    if p_prefix <= 0.0:  # a prefix of about 324 or more digits: its law underflows
        raise BadParamsError(f"prefix {prefix} has zero probability")
    return benford_pattern(prefix + (d,), base) / p_prefix


@dataclass(frozen=True)
class DigitDistribution:
    """Probability vector over the leading digits 1..base-1.

    ``probs`` maps a digit to its probability.  Probabilities sum to 1
    within 1e-9.
    """

    base: int
    probs: dict

    def __post_init__(self):
        _check_base(self.base)
        total = math.fsum(self.probs.values())
        if self.probs and abs(total - 1.0) > 1e-9:
            raise BadParamsError(f"probabilities sum to {total}, not 1")
        for p in self.probs.values():
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise BadParamsError(f"probability {p} outside [0, 1]")

    @classmethod
    def from_counts(cls, counts) -> "DigitDistribution":
        """Law of per-digit counts or masses for digits 1..len(counts).

        Each probability is count / math.fsum(counts); a zero total gives empty probs.
        """
        total = math.fsum(counts)
        probs = {d: float(counts[d - 1] / total) for d in range(1, len(counts) + 1)} if total else {}
        return cls(base=len(counts) + 1, probs=probs)

    def first_order_vector(self):
        """Probabilities for digits 1..base-1 as a list."""
        return [self.probs.get(d, 0.0) for d in range(1, self.base)]

    def l_inf(self, other: "DigitDistribution") -> float:
        keys = set(self.probs) | set(other.probs)
        return max(abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0)) for k in keys)

    def l1(self, other: "DigitDistribution") -> float:
        keys = set(self.probs) | set(other.probs)
        return math.fsum(
            abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0)) for k in keys
        )


def benford_distribution(base: int = 10) -> DigitDistribution:
    """The first-order Benford law as a DigitDistribution."""
    return DigitDistribution(
        base=base,
        probs={d: benford_first(d, base) for d in range(1, base)},
    )


def compartment_boundaries(base: int = 10) -> list[float]:
    """Mantissa-space compartment edges [0, log_B 2, log_B 3, ..., 1].

    The cumulative Benford sums telescope to log_B(d + 1), so the edges are
    computed directly from that closed form; the last edge is exactly 1.
    """
    _check_base(base)
    if base == 10:
        return [math.log10(d) for d in range(1, base + 1)]
    return [math.log(d, base) for d in range(1, base + 1)]


def digital_usage(num_digits: int) -> dict[int, float]:
    """Average usage frequency of each digit 0-9 in num_digits-long numbers.

    Positions 1-3 use the exact first/second/third-order laws; positions 4
    and beyond are approximated as uniform 10% per digit.
    """
    if num_digits < 1:
        raise BadParamsError(f"num_digits must be >= 1, got {num_digits}")
    usage = {d: 0.0 for d in range(10)}
    for d in range(1, 10):
        usage[d] += benford_first(d)
    if num_digits >= 2:
        for d in range(10):
            usage[d] += benford_nth_unconditional(2, d)
    if num_digits >= 3:
        for d in range(10):
            usage[d] += benford_nth_unconditional(3, d)
    extra = max(0, num_digits - 3)
    for d in range(10):
        usage[d] = (usage[d] + extra * 0.1) / num_digits
    return usage
