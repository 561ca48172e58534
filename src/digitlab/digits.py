"""Digit extraction, mantissa arithmetic, and the Benford probability laws.

Everything here is pure and deterministic.  First digits are extracted by
normalizing |x| into [1, base) with exponent arithmetic (no decimal string
round-trips), then truncating.  Inputs whose digit flips under a one-ulp
perturbation are counted in a diagnostics counter, since digit-law testing
is exactly about mass near compartment boundaries.

Conventions: digits are plain ints, digit patterns are tuples of ints, the
mantissa is the fractional part of log10|x| (one-complement for |x| < 1),
and exact powers of the base have mantissa 0 (half-open throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BadBaseError,
    BadDigitError,
    ZeroInputError,
    ZeroPrefixProbabilityError,
)

__all__ = [
    "DigitDistribution",
    "Significand",
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
    "boundary_ambiguities",
    "reset_diagnostics",
]

# Diagnostics only: number of inputs whose extracted digits changed under a
# one-ulp perturbation.  Not part of any result; callers may reset at will.
_BOUNDARY_AMBIGUITIES = 0


def boundary_ambiguities() -> int:
    """Return the count of boundary-ambiguous extractions seen so far."""
    return _BOUNDARY_AMBIGUITIES


def reset_diagnostics() -> None:
    global _BOUNDARY_AMBIGUITIES
    _BOUNDARY_AMBIGUITIES = 0


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


def _digits_of(s: float, k: int, base: int) -> tuple[int, ...]:
    """First k digits of a significand s in [1, base)."""
    out = []
    for _ in range(k):
        d = int(s)
        if d >= base:  # guard against accumulated rounding at the top edge
            d = base - 1
        out.append(d)
        s = (s - d) * base
    return tuple(out)


def _note_ambiguity(a: float, k: int, base: int, got: tuple[int, ...]) -> None:
    global _BOUNDARY_AMBIGUITIES
    for neighbour in (math.nextafter(a, math.inf), math.nextafter(a, 0.0)):
        if neighbour == 0.0:
            continue
        s, _ = _normalize(neighbour, base)
        if _digits_of(s, k, base) != got:
            _BOUNDARY_AMBIGUITIES += 1
            return


def first_digit(x: float, base: int = 10) -> int:
    """First significant digit of |x| in the given base (never 0)."""
    _check_base(base)
    a = _check_input(x)
    s, _ = _normalize(a, base)
    got = _digits_of(s, 1, base)
    _note_ambiguity(a, 1, base, got)
    return got[0]


def digit_pattern(x: float, k: int, base: int = 10) -> tuple[int, ...]:
    """The first k significant digits of |x|, in order; first is never 0."""
    _check_base(base)
    if k < 1:
        raise BadDigitError(f"pattern length must be >= 1, got {k}")
    a = _check_input(x)
    s, _ = _normalize(a, base)
    got = _digits_of(s, k, base)
    _note_ambiguity(a, k, base, got)
    return got


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
