"""Goodness-of-fit machinery for digit laws: chi-square and distance
metrics, mantissa uniformity (KS), compartmental allotment, the scale
invariance probe, and an aggregate ConformityReport.

Both critical values are at significance 0.01: the chi-square one is a
constant (8 dof), the KS one the asymptotic Kolmogorov formula.
"""

from __future__ import annotations

import math
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
from .errors import BadParamsError, EmptyInputError

__all__ = [
    "ConformityReport",
    "chi_sqr",
    "chi_sqr_vs_benford",
    "CHI_SQR_CRITICAL",
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


def chi_sqr(observed):
    """Pearson chi-square of per-digit counts against Benford's law.

    ``observed`` maps digits to counts, or is a sequence of the counts of
    digits 1..9, or an array of such rows: the sum runs over the last axis,
    so one vector gives a float and (rows, 9) counts one chi-square per row.
    Every row needs a positive total.
    """
    if isinstance(observed, dict):
        observed = [observed.get(d, 0) for d in _DIGITS]
    counts = np.asarray(observed, dtype=np.float64)
    n = counts.sum(axis=-1, keepdims=True)
    if (n <= 0.0).any():
        raise EmptyInputError("no digits to test")
    expected_counts = n * _BENFORD
    chi = ((counts - expected_counts) ** 2 / expected_counts).sum(axis=-1)
    return float(chi) if chi.ndim == 0 else chi


chi_sqr_vs_benford = chi_sqr

# The upper 0.01 point of chi-square with 8 dof, the one test the report makes:
# Q(x|8) = e^{-x/2} (1 + x/2 + (x/2)^2/2! + (x/2)^3/3!) = 0.01 (Abramowitz & Stegun
# 26.4.4), as the double scipy.stats.chi2.isf(0.01, 8) gives.
CHI_SQR_CRITICAL = 20.090235029663233


def first_digit_counts(values) -> np.ndarray:
    """Counts of the first digits 1..9 (digit d at index d - 1) of finite values, zeros skipped."""
    return prefix_counts(values)[0][0, 1:]


def ks_critical(n: int) -> float:
    """Asymptotic one-sample KS critical distance sqrt(-ln(a/2)/2)/sqrt(n), a = SIGNIFICANCE."""
    return math.sqrt(-0.5 * math.log(SIGNIFICANCE / 2.0)) / math.sqrt(n)


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


def mantissa_uniformity_test(values) -> KSResult:
    """KS distance of empirical mantissae from the uniform on [0, 1)."""
    vals, _, _ = _clean(values)
    if vals.size == 0:
        raise EmptyInputError("mantissa test needs nonzero values")
    return _mantissa_ks(vals)


def _mantissa_ks(vals: np.ndarray) -> KSResult:
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
    crit = ks_critical(n)
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


def scale_invariance_probe(values, factors):
    """Chi-square deltas under multiplication by each factor.

    Returns {factor: chi_sqr(factor * x) - chi_sqr(x)}; powers of ten give
    exactly zero whenever the products keep the values' decimal digits, as
    for every integer-valued x.  Products that overflow or underflow to 0
    are left out of their tally.
    """
    vals, _, _ = _clean(values)
    if vals.size == 0:
        raise EmptyInputError("probe needs nonzero values")

    base_chi = chi_sqr(first_digit_counts(vals))
    out = {}
    for c in factors:
        if not 0 < c < math.inf:
            raise BadParamsError(f"factors must be positive and finite, got {c}")
        counts = np.zeros(9, np.int64)
        for lo in range(0, vals.size, _BLOCK):  # the products a block at a time
            with np.errstate(over="ignore"):
                scaled = vals[lo:lo + _BLOCK] * c
            counts += first_digit_counts(scaled[np.isfinite(scaled)])
        out[c] = chi_sqr(counts) - base_chi
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
            chi_sqr_critical_001=CHI_SQR_CRITICAL,
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
    ks = _mantissa_ks(vals)

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
        chi_sqr_critical_001=CHI_SQR_CRITICAL,
        l_inf=shares.l_inf(benford),
        l1=shares.l1(benford),
        mantissa_ks=ks.statistic,
        mantissa_ks_critical=ks.critical,
        compartment_masses=shares.probs,
        annotations=annotations,
    )
