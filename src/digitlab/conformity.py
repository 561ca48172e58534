"""Goodness-of-fit machinery for digit laws: chi-square and distance
metrics, mantissa uniformity (KS), compartmental allotment, the scale
invariance probe, and an aggregate ConformityReport.

Critical values are computed, not looked up.  The chi-square one inverts
the upper tail Q(x|nu), which for integer nu is a finite sum (Abramowitz &
Stegun 26.4.4-26.4.5), by bisection down to adjacent doubles; the KS one is
the asymptotic Kolmogorov formula.  Default significance 0.01.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .digits import (
    _BLOCK,
    DigitDistribution,
    benford_distribution,
    compartment_boundaries,
    leading_digits,
    prefix_counts,
)
from .errors import BadExpectedError, BadParamsError, EmptyInputError

__all__ = [
    "ConformityReport",
    "chi_sqr",
    "chi_sqr_vs_benford",
    "chi_sqr_critical",
    "first_digit_counts",
    "ks_critical",
    "mantissa_uniformity_test",
    "compartmental_allotment_test",
    "scale_invariance_probe",
    "report",
    "reshuffle_within_compartments",
]

SIGNIFICANCE = 0.01
_DIGITS = range(1, 10)


_BENFORD = np.array(benford_distribution().first_order_vector())


def chi_sqr(observed, expected: DigitDistribution | None = None):
    """Pearson chi-square of per-digit counts against a digit law (Benford by default).

    ``observed`` maps digits to counts, or is a sequence of the counts of
    digits 1..base-1, or an array of such rows: the sum runs over the last
    axis, so one vector gives a float and (rows, base-1) counts one
    chi-square per row.  Every row needs a positive total.  A digit of
    probability 0 is left out of the sum; a count on it raises BadExpectedError.
    """
    probs = _BENFORD if expected is None else np.array(expected.first_order_vector())
    if isinstance(observed, dict):
        observed = [observed.get(d, 0) for d in range(1, probs.size + 1)]
    counts = np.asarray(observed, dtype=np.float64)
    n = counts.sum(axis=-1, keepdims=True)
    if (n <= 0.0).any():
        raise EmptyInputError("no digits to test")
    if probs.min() <= 0.0:
        impossible = probs <= 0.0
        if counts[..., impossible].any():
            raise BadExpectedError("a digit of expected probability 0 has a count")
        counts, probs = counts[..., ~impossible], probs[~impossible]
    expected_counts = n * probs
    chi = ((counts - expected_counts) ** 2 / expected_counts).sum(axis=-1)
    return float(chi) if chi.ndim == 0 else chi


chi_sqr_vs_benford = chi_sqr


_MAX_DOF = 10**5  # each evaluation of Q sums dof/2 terms
_LN_1E300 = 300.0 * math.log(10.0)


def _chi_sqr_upper_tail(x: float, dof: int) -> float:
    """Q(x|dof) = P(chi-square(dof) > x) for integer dof >= 1.

    Even dof: e^{-x/2} sum_{k < dof/2} (x/2)^k / k!.  Odd dof: erfc(sqrt(x/2))
    plus e^{-x/2} sum_{r=1}^{(dof-1)/2} sqrt(2x/pi) x^{r-1} / (3 5 ... (2r-1)).
    The terms are summed without their e^{-x/2}, which is applied last; a
    partial sum past 1e300 is scaled down and the scale carried in the exponent.
    """
    h = 0.5 * x
    if dof % 2:
        head, term, k = math.erfc(math.sqrt(h)), math.sqrt(x * 2.0 / math.pi), 0.5
    else:
        head, term, k = 0.0, 1.0, 0.0
    total, exponent = 0.0, -h
    for _ in range(dof // 2):
        if term > 1e300:
            term *= 1e-300
            total *= 1e-300
            exponent += _LN_1E300
        total += term
        k += 1.0
        term *= h / k
    if exponent > -700.0 or total == 0.0:
        return head + total * math.exp(exponent)
    return head + math.exp(exponent + math.log(total))  # e^{-x/2} alone would underflow


@functools.lru_cache(maxsize=16, typed=True)  # typed: 8.0 must not hit the entry of 8
def chi_sqr_critical(significance: float = SIGNIFICANCE, dof: int = 8) -> float:
    """Upper critical value x of the chi-square(dof) law: Q(x|dof) = significance.

    Bisection on [0, hi], hi doubled from max(dof, 2) until it brackets,
    down to two adjacent doubles lo < hi with Q(lo) > significance >= Q(hi);
    hi is returned.  dof is an integer in 1..10^5.
    """
    if not 0.0 < significance < 1.0:
        raise BadParamsError(f"significance must lie in (0, 1), got {significance}")
    if not isinstance(dof, numbers.Integral) or not 1 <= dof <= _MAX_DOF:
        raise BadParamsError(f"dof must be an integer in 1..{_MAX_DOF}, got {dof!r}")
    lo, hi = 0.0, float(max(dof, 2))
    while _chi_sqr_upper_tail(hi, dof) > significance:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        if _chi_sqr_upper_tail(mid, dof) > significance:
            lo = mid
        else:
            hi = mid


def first_digit_counts(values) -> np.ndarray:
    """Counts of the first digits 1..9 (digit d at index d - 1) of finite values, zeros skipped."""
    return prefix_counts(values)[0][0, 1:]


def ks_critical(n: int, significance: float = SIGNIFICANCE) -> float:
    """Asymptotic one-sample KS critical distance sqrt(-ln(a/2)/2)/sqrt(n)."""
    return math.sqrt(-0.5 * math.log(significance / 2.0)) / math.sqrt(n)


def _clean(values) -> tuple[np.ndarray, int, int]:
    """(|x| of the nonzero finite values, number of zeros, number of non-finite values)."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    keep = np.isfinite(vals)
    finite = int(np.count_nonzero(keep))
    keep &= vals != 0.0
    out = vals[keep]
    np.abs(out, out=out)
    return out, finite - out.size, vals.size - finite


@dataclass(frozen=True)
class KSResult:
    statistic: float
    critical: float
    passed: bool
    n: int


def mantissa_uniformity_test(values, significance: float = SIGNIFICANCE) -> KSResult:
    """KS distance of empirical mantissae from the uniform on [0, 1)."""
    vals, _, _ = _clean(values)
    if vals.size == 0:
        raise EmptyInputError("mantissa test needs nonzero values")
    return _mantissa_ks(vals, significance)


def _mantissa_ks(vals: np.ndarray, significance: float) -> KSResult:
    """The KS test on cleaned values (nonempty, positive, finite): one array of n
    besides them, the sorted mantissae, and D+ = max(i/n - m), D- = max(m - (i-1)/n)
    taken a block of _BLOCK rows at a time."""
    m = np.log10(vals)
    np.mod(m, 1.0, out=m)
    m.sort()
    n = m.size
    stat = -math.inf
    for lo in range(0, n, _BLOCK):
        block = m[lo:lo + _BLOCK]
        i = np.arange(lo + 1, lo + block.size + 1)
        stat = max(stat, np.max(i / n - block), np.max(block - (i - 1) / n))
    stat = float(stat)
    crit = ks_critical(n, significance)
    return KSResult(statistic=stat, critical=crit, passed=stat < crit, n=n)


@dataclass(frozen=True)
class AllotmentResult:
    masses: dict[int, float]
    max_deviation: float
    n: int


def compartmental_allotment_test(values) -> AllotmentResult:
    """Mantissa mass per LD compartment against the Benford widths.

    By construction this equals the empirical first-digit shares (the
    compartment of mantissa10(x) is the first digit of x); it is reported
    in mantissa space.
    """
    vals, _, _ = _clean(values)
    if vals.size == 0:
        raise EmptyInputError("compartment test needs nonzero values")
    counts = first_digit_counts(vals)
    shares = DigitDistribution.from_counts(counts)
    return AllotmentResult(masses=shares.probs, max_deviation=shares.l_inf(benford_distribution()),
                           n=int(counts.sum()))


def reshuffle_within_compartments(values, seed=0) -> np.ndarray:
    """Redistribute each value's mantissa uniformly inside its own compartment.

    First digits (hence compartment masses) are preserved exactly while
    mantissa uniformity is destroyed: mass piles into compartment-local
    uniform blocks instead of the global uniform.
    """
    vals, _, _ = _clean(values)
    rng = np.random.default_rng(seed)
    bounds = np.array(compartment_boundaries(10))
    digs = leading_digits(vals).prefix
    lo = bounds[digs - 1]
    hi = bounds[digs]
    # squeeze each compartment's mass into its lower half: masses intact,
    # within-compartment distribution visibly non-uniform
    new_mant = lo + rng.random(vals.size) * 0.5 * (hi - lo)
    exponents = np.floor(np.log10(vals))
    return 10.0 ** (new_mant + exponents)


def scale_invariance_probe(values, factors, expected: DigitDistribution | None = None):
    """Chi-square deltas under multiplication by each factor.

    Returns {factor: chi_sqr(factor * x) - chi_sqr(x)}; powers of ten give
    exactly zero whenever the products keep the values' decimal digits, as
    for every integer-valued x.  Products that overflow or underflow to 0
    are left out of their tally.
    """
    vals, _, _ = _clean(values)
    if vals.size == 0:
        raise EmptyInputError("probe needs nonzero values")
    if expected is None:
        expected = benford_distribution()

    base_chi = chi_sqr(first_digit_counts(vals), expected)
    out = {}
    for c in factors:
        if c <= 0:
            raise BadExpectedError(f"factors must be positive, got {c}")
        counts = np.zeros(9, np.int64)
        for lo in range(0, vals.size, _BLOCK):  # the products a block at a time
            with np.errstate(over="ignore"):
                scaled = vals[lo:lo + _BLOCK] * c
            counts += first_digit_counts(scaled[np.isfinite(scaled)])
        out[c] = chi_sqr(counts, expected) - base_chi
    return out


@dataclass(frozen=True)
class ConformityReport:
    """Aggregate digit-law conformity statistics for one dataset."""

    n: int
    skipped_zeros: int
    skipped_nonfinite: int
    observed_first: dict[int, int]
    observed_second: dict[int, int]
    observed_third: dict[int, int]
    excluded_second: int
    excluded_third: int
    ambiguous: int
    chi_sqr_first: float | None
    chi_sqr_critical_001: float
    l_inf: float | None
    l1: float | None
    mantissa_ks: float | None
    mantissa_ks_critical: float | None
    compartment_masses: dict[int, float] | None
    annotations: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """A copy of the fields, in order, after schema_version; dict keys become strings."""
        doc = {"schema_version": 1, **asdict(self)}
        for name, value in doc.items():
            if isinstance(value, dict):
                doc[name] = {str(k): v for k, v in value.items()}
        return doc


def report(values) -> ConformityReport:
    """Fully populated conformity report; zeros and non-finite values counted and skipped."""
    vals, zeros, nonfinite = _clean(values)
    n = int(vals.size)
    crit = chi_sqr_critical()
    if n == 0:
        return ConformityReport(
            n=0,
            skipped_zeros=zeros,
            skipped_nonfinite=nonfinite,
            observed_first={},
            observed_second={},
            observed_third={},
            excluded_second=0,
            excluded_third=0,
            ambiguous=0,
            chi_sqr_first=None,
            chi_sqr_critical_001=crit,
            l_inf=None,
            l1=None,
            mantissa_ks=None,
            mantissa_ks_critical=None,
            compartment_masses=None,
            annotations=["empty input"],
        )

    (first, second, third), ambiguous = prefix_counts(vals, 3)
    first = first[1:10]
    first_counts = {d: int(first[d - 1]) for d in _DIGITS}
    second_counts = {d: int(second[d]) for d in range(10)}
    third_counts = {d: int(third[d]) for d in range(10)}

    shares = DigitDistribution.from_counts(first)
    benford = benford_distribution()
    ks = _mantissa_ks(vals, SIGNIFICANCE)

    annotations = []
    if n < 1000:
        annotations.append(
            "small sample (n < 1000): chi-square verdicts on subsets of data are unreliable"
        )
    span = math.log10(vals.max()) - math.log10(vals.min())
    if span < 2.0:
        annotations.append(
            f"narrow range ({span:.2f} decades < 2): digit laws need not apply to such subsets"
        )

    return ConformityReport(
        n=n,
        skipped_zeros=zeros,
        skipped_nonfinite=nonfinite,
        observed_first=first_counts,
        observed_second=second_counts,
        observed_third=third_counts,
        excluded_second=n - int(second.sum()),
        excluded_third=n - int(third.sum()),
        ambiguous=ambiguous,
        chi_sqr_first=chi_sqr(first),
        chi_sqr_critical_001=crit,
        l_inf=shares.l_inf(benford),
        l1=shares.l1(benford),
        mantissa_ks=ks.statistic,
        mantissa_ks_critical=ks.critical,
        compartment_masses=shares.probs,
        annotations=annotations,
    )
