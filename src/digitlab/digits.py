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
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import (
    BadBaseError,
    BadDigitError,
    ZeroInputError,
    ZeroPrefixProbabilityError,
)

__all__ = [
    "DigitDistribution",
    "LeadingDigits",
    "Significand",
    "leading_digits",
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
        raise BadBaseError(f"base must be an integer >= 2, got {base!r}")


def _check_input(x: float) -> float:
    if x == 0:
        raise ZeroInputError("digit operations are undefined for 0")
    if not math.isfinite(x):
        raise ZeroInputError(f"digit operations need a finite input, got {x!r}")
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


def _ceil_double(q: Fraction) -> float:
    """The smallest double >= q > 0 (inf beyond the double range)."""
    try:
        t = float(q)
    except OverflowError:
        return math.inf
    return t if Fraction(t) >= q else math.nextafter(t, math.inf)


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
    unit = Fraction(base) ** s
    return tuple(_ceil_double(n * unit) for n in prefixes)


def _repr_digits(a: float, k: int) -> tuple[int, int]:
    """(k-digit prefix, significant digits capped at k) read off repr(a)."""
    sig = repr(float(a)).split("e")[0].replace(".", "").strip("0")
    return int(sig[:k].ljust(k, "0")), min(len(sig), k)


def _prefix(a: float, k: int, base: int) -> int:
    """The k-digit prefix of a finite a > 0: the scalar lookup in the same rows."""
    if base**k > _MAX_ROW:
        raise BadDigitError(f"{k} base-{base} digits need rows of {base}**{k} thresholds; "
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


@functools.cache
def _cells(k: int, exp: int) -> tuple[np.ndarray, np.ndarray]:
    """Per key cell of the normal doubles with biased exponent exp: the prefix
    of the last threshold below the cell and the one threshold in it (inf if none).

    The cells are the 2**b runs of doubles that share their top b mantissa bits.
    """
    b = _KEY_BITS[k]
    with np.errstate(over="ignore"):  # the top exponent's last cell ends at 2**1024
        edges = np.ldexp(np.arange(2**b, 2 ** (b + 1) + 1, dtype=np.float64), exp - 1023 - b)
    d = math.floor(math.log10(edges[0]))  # the cells lie within decades d and d + 1
    thr = np.array(_row(10, k, d - 1) + _row(10, k, d) + _row(10, k, d + 1))
    j = np.searchsorted(thr, edges[:-1]) - 1
    start = (j % (9 * 10 ** (k - 1)) + 10 ** (k - 1)).astype(np.int16)
    return start, np.where(thr[j + 1] < edges[1:], thr[j + 1], math.inf)


def leading_digits(values, k: int = 1) -> LeadingDigits:
    """Decimal k-digit prefixes (k <= 3) of finite nonzero values, vectorized.

    ``prefix`` is each |x|'s first k digits as one integer, ``ndig`` its
    significant digits capped at k (50.0 has one), both as its shortest
    repr gives them; ``ambiguous`` counts the values read off repr.  A
    normal double is keyed by its exponent and top b mantissa bits
    (_KEY_BITS); its key's cell holds at most one threshold, so its prefix
    is the cell's start prefix, plus one from that threshold up.  Subnormals
    are searched for in the rows of their decades.
    """
    if not 1 <= k <= 3:
        raise BadDigitError(f"prefix length must be 1..3, got {k}")
    a = np.abs(np.asarray(values, dtype=np.float64)).ravel()
    if a.size == 0:
        return LeadingDigits(np.zeros(0, np.int16), np.zeros(0, np.int8), 0)
    if not (np.isfinite(a).all() and a.all()):
        raise ZeroInputError("leading digits need finite nonzero values")
    b = _KEY_BITS[k]
    key = a.view(np.int64) >> (52 - b)  # the biased exponent, then b mantissa bits
    exp = key >> b
    count = np.bincount(exp)
    exps = np.flatnonzero(count).tolist()
    block = np.zeros(count.size, np.int64)  # one block of cells per exponent present
    block[exps] = (np.arange(len(exps)) - exps) << b
    key += block[exp]
    # exponent 0 (the subnormals) takes a dummy block: they are searched for below
    cells = [_cells(k, e) if e else (np.zeros(2**b, np.int16), np.full(2**b, math.inf))
             for e in exps]
    split = np.concatenate([c[1] for c in cells])[key]
    prefix = np.concatenate([c[0] for c in cells])[key]
    prefix += a >= split
    prefix[prefix == 10**k] = 10 ** (k - 1)  # the threshold in the cell starts a decade
    hit = a == split
    tiny = np.flatnonzero(exp == 0) if count[0] else key[:0]
    ambiguous = tiny
    if tiny.size:
        table = np.array([t for d in range(-325, -307) for t in _row(10, k, d)])
        at = a[tiny]
        j = np.searchsorted(table, at, side="right") - 1
        prefix[tiny] = j % (9 * 10 ** (k - 1)) + 10 ** (k - 1)
        hit[tiny] = table[j] == at
        ambiguous = tiny[hit[tiny] & (table[j - 1] == at)]
    ndig = np.full(a.size, k, dtype=np.int8)
    for t in range(1, k):
        ndig -= hit & (prefix % 10**t == 0)
    for t in ambiguous:
        prefix[t], ndig[t] = _repr_digits(a[t], k)
    return LeadingDigits(prefix, ndig, int(ambiguous.size))


def first_digit(x: float, base: int = 10) -> int:
    """First significant digit of |x| in the given base (never 0)."""
    _check_base(base)
    return _prefix(_check_input(x), 1, base)


def digit_pattern(x: float, k: int, base: int = 10) -> tuple[int, ...]:
    """The first k significant digits of |x|, in order; first is never 0.

    Positions past the last significant digit are 0.
    """
    _check_base(base)
    if k < 1:
        raise BadDigitError(f"pattern length must be >= 1, got {k}")
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
        raise BadDigitError(f"first digit must be in [1, {base - 1}], got {d}")
    return math.log1p(1.0 / d) / math.log(base)


def benford_pattern(pattern, base: int = 10) -> float:
    """P[first digits = pattern] = log(1 + 1/n)/log(base), n the pattern value."""
    _check_base(base)
    pattern = tuple(pattern)
    if not pattern:
        raise BadDigitError("pattern must be non-empty")
    if pattern[0] < 1:
        raise BadDigitError("first digit of a pattern is never 0")
    n = 0
    for d in pattern:
        if not 0 <= d <= base - 1:
            raise BadDigitError(f"digit {d} out of range for base {base}")
        n = n * base + d
    return math.log1p(1.0 / n) / math.log(base)


def _prefixes(length: int, base: int):
    """All valid digit prefixes of the given length (first digit nonzero)."""
    if length == 0:
        yield ()
        return
    for first in range(1, base):
        if length == 1:
            yield (first,)
            continue
        rest = [0] * (length - 1)
        while True:
            yield (first, *rest)
            for i in range(length - 2, -1, -1):
                rest[i] += 1
                if rest[i] < base:
                    break
                rest[i] = 0
            else:
                break


def benford_nth_unconditional(n: int, d: int, base: int = 10) -> float:
    """Unconditional probability that the n-th significant digit is d (n >= 2)."""
    _check_base(base)
    if n < 2:
        raise BadDigitError("nth-digit law needs n >= 2; use benford_first for n = 1")
    if not 0 <= d <= base - 1:
        raise BadDigitError(f"digit {d} out of range for base {base}")
    return math.fsum(
        benford_pattern(prefix + (d,), base) for prefix in _prefixes(n - 1, base)
    )


def benford_conditional(n: int, d: int, prefix, base: int = 10) -> float:
    """P[n-th digit = d | first n-1 digits = prefix]."""
    _check_base(base)
    prefix = tuple(prefix)
    if len(prefix) != n - 1:
        raise BadDigitError(f"prefix length {len(prefix)} != n - 1 = {n - 1}")
    p_prefix = benford_pattern(prefix, base)
    if p_prefix <= 0.0:  # cannot occur for valid patterns; guard anyway
        raise ZeroPrefixProbabilityError(f"prefix {prefix} has zero probability")
    return benford_pattern(prefix + (d,), base) / p_prefix


@dataclass(frozen=True)
class DigitDistribution:
    """Probability vector over leading digits (or digit patterns).

    ``probs`` maps a digit (order 1) or a digit tuple (order > 1) to its
    probability.  Probabilities sum to 1 within 1e-9.
    """

    base: int
    order: int
    probs: dict

    def __post_init__(self):
        _check_base(self.base)
        total = math.fsum(self.probs.values())
        if self.probs and abs(total - 1.0) > 1e-9:
            raise BadDigitError(f"probabilities sum to {total}, not 1")
        for p in self.probs.values():
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise BadDigitError(f"probability {p} outside [0, 1]")

    @classmethod
    def from_counts(cls, counts) -> "DigitDistribution":
        """Order-1 law of per-digit counts for digits 1..len(counts).

        Each probability is count / total; a zero total gives empty probs.
        """
        total = sum(counts)
        probs = {d: counts[d - 1] / total for d in range(1, len(counts) + 1)} if total else {}
        return cls(base=len(counts) + 1, order=1, probs=probs)

    def first_order_vector(self):
        """Probabilities for digits 1..base-1 as a list (order-1 only)."""
        if self.order != 1:
            raise BadDigitError("first_order_vector requires an order-1 distribution")
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
        order=1,
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
        raise BadDigitError(f"num_digits must be >= 1, got {num_digits}")
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
