"""Exponential growth series, their leading-digit behavior, and the
rationality singularities: detection, enumeration, cumulative factors,
rate scans, plus multiplication-process and power-transform experiments.

Series digits are computed from mantissa accumulation,
frac(log10(B) + j * log10(f)), so million-element or 900%-growth series
never overflow; values themselves are materialized only on request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conformity import chi_sqr_vs_benford
from .digits import DigitDistribution, compartment_boundaries
from .distributions import DistributionModel
from .errors import BadParamsError, EmptyInputError, PolicyExhaustedError, TooLargeError

__all__ = [
    "GrowthSeries",
    "AnomalyRecord",
    "generate_series",
    "series_mantissas",
    "series_ld",
    "detect_anomalous",
    "enumerate_anomalous",
    "cumulative_factors",
    "rate_scan",
    "equivalent_rate",
    "random_multiplication_process",
    "power_transform_ld",
    "chi_sqr_vs_benford",
]

_BOUNDS = np.array(compartment_boundaries(10))
# elements per mantissa block of a rate scan; bounds the scan's scratch arrays
_BLOCK = 2**14
# rates in one scan: each result cell holds about 270 bytes and 0.1 ms of work
_MAX_RATES = 10**6


@dataclass(frozen=True)
class GrowthSeries:
    """Geometric series B, B f, B f^2, ... with f = 1 + percent/100."""

    base: float
    percent: float
    length: int

    def __post_init__(self):
        if not 0 < self.base < math.inf:
            raise BadParamsError(f"base must be finite and > 0, got {self.base}")
        if not -100 < self.percent < math.inf:
            raise BadParamsError(f"percent must be finite and > -100, got {self.percent}")
        if self.length < 1:
            raise BadParamsError(f"length must be >= 1, got {self.length}")

    @property
    def factor(self) -> float:
        return 1.0 + self.percent / 100.0


@dataclass(frozen=True)
class AnomalyRecord:
    """Rationality certificate log10(1+P/100) = L/T (gcd(L,T) = 1)."""

    L: int
    T: int

    def __post_init__(self):
        if self.L < 1 or self.T < 1:
            raise BadParamsError("L and T must be positive integers")
        if math.gcd(self.L, self.T) != 1:
            raise BadParamsError(f"L/T must be reduced, got {self.L}/{self.T}")

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.L, self.T)

    @property
    def percent(self) -> float:
        return 100.0 * (10.0 ** (self.L / self.T) - 1.0)

    @property
    def first_power_of_ten_factor(self) -> int:
        return 10**self.L


def generate_series(series: GrowthSeries) -> np.ndarray:
    """Materialize the series values; elements beyond float range overflow.

    For leading-digit work prefer series_mantissas / series_ld, which stay
    in log space.
    """
    j = np.arange(series.length, dtype=np.float64)
    log10_vals = math.log10(series.base) + j * math.log10(series.factor)
    with np.errstate(over="ignore"):
        return 10.0**log10_vals


def _mantissa_rows(m_b: float, m_f: np.ndarray, length: int) -> np.ndarray:
    """frac(m_b + j m_f) for j = 0..length-1, one row per factor mantissa."""
    x = m_b + np.arange(length, dtype=np.float64) * m_f[:, None]
    # x - floor(x) is x % 1.0 bit for bit (the remainder by 1 is exact), and
    # several times cheaper than numpy's remainder
    x -= np.floor(x)
    return x


def series_mantissas(series: GrowthSeries) -> np.ndarray:
    """frac(log10 B + j log10 f) for j = 0..length-1 (no overflow).

    The factor's log is reduced mod 1 before accumulating, so factors that
    are exact powers of ten stay exactly LD-neutral instead of drifting
    across a compartment boundary.
    """
    m_f = np.array([math.log10(series.factor) % 1.0])
    return _mantissa_rows(math.log10(series.base) % 1.0, m_f, series.length)[0]


def _digits_from_mantissas(mant: np.ndarray) -> np.ndarray:
    """First digits of mantissas in [0, 1), elementwise for any shape.

    A mantissa within 1e-9 of a compartment edge log10 d counts as sitting
    on it, so accumulated float drift cannot flip exact-boundary series
    elements (a series starting at 3 has every mantissa exactly on the
    digit-3 edge): it gets digit d.  Within 1e-9 of 0, and within 1e-9
    below 1 (an element that is a power of ten), give digit 1.
    """
    edge = np.searchsorted(_BOUNDS, mant).clip(0, 9)  # first edge >= mant
    digs = edge + (np.abs(mant - _BOUNDS[edge]) < 1e-9)
    return np.where(digs == 10, 1, digs)


def _digit_counts(mant: np.ndarray) -> np.ndarray:
    """Tallies of digits 1..9 along the last axis of a 1-D or 2-D mantissa array."""
    digs = np.atleast_2d(_digits_from_mantissas(mant))
    rows = digs.shape[0]
    offset = 10 * np.arange(rows)[:, None]
    counts = np.bincount((digs + offset).ravel(), minlength=10 * rows)
    return counts.reshape(mant.shape[:-1] + (10,))[..., 1:]


def _ld_chi(mant: np.ndarray) -> tuple[DigitDistribution, float]:
    """Digit law and Benford chi-square of a 1-D mantissa vector."""
    counts = _digit_counts(mant)
    return DigitDistribution.from_counts(counts), chi_sqr_vs_benford(counts)


def series_ld(values_or_series) -> tuple[DigitDistribution, float]:
    """First-digit distribution and Benford chi-square of a value vector.

    Accepts either a real vector (zeros skipped) or a GrowthSeries, which
    is processed in log space so huge series cannot overflow.
    """
    if isinstance(values_or_series, GrowthSeries):
        return _ld_chi(series_mantissas(values_or_series))
    vals = np.asarray(values_or_series, dtype=np.float64)
    vals = np.abs(vals[vals != 0])
    if vals.size == 0:
        raise EmptyInputError("no nonzero values")
    return _ld_chi(np.log10(vals) % 1.0)


def _best_rational(x: float, max_den: int) -> tuple[int, int]:
    """Best rational approximation to x with denominator <= max_den.

    Stern-Brocot mediant walk, exact in integer arithmetic via Fraction.
    """
    fx = Fraction(x).limit_denominator(max_den)
    return fx.numerator, fx.denominator


def detect_anomalous(percent: float, t_max: int, tol: float = 1e-10) -> AnomalyRecord | None:
    """Detect whether log10(1 + percent/100) is a rational L/T with T <= t_max.

    Returns the reduced record when the best bounded-denominator rational
    sits within tol of the fraction and the power identity
    (1+P/100)**T = 10**L holds within relative 10*tol; else None.
    """
    if percent <= -100:
        raise BadParamsError(f"percent must be > -100, got {percent}")
    if t_max < 1:
        raise BadParamsError(f"t_max must be >= 1, got {t_max}")
    x = math.log10(1.0 + percent / 100.0)
    if x <= 0:
        return None  # decay or zero growth never hits a positive L/T
    num, den = _best_rational(x, t_max)
    if num < 1 or abs(x - num / den) > tol:
        return None
    # verify the power identity in log space (10**L may be astronomical)
    lhs = den * math.log10(1.0 + percent / 100.0)
    if abs(lhs - num) > 10.0 * tol * max(1.0, num):
        return None
    return AnomalyRecord(L=num, T=den)


def enumerate_anomalous(l_set, t_range: tuple[int, int]) -> list[AnomalyRecord]:
    """All reduced (L, T) records with L in l_set, T in t_range, by percent."""
    t_lo, t_hi = t_range
    records = [
        AnomalyRecord(L=l, T=t)
        for l in sorted(set(l_set))
        for t in range(t_lo, t_hi + 1)
        if math.gcd(l, t) == 1
    ]
    return sorted(records, key=lambda r: r.percent)


def cumulative_factors(percent: float, count: int) -> np.ndarray:
    """(1+P/100)**j for j = 1..count, computed in log space."""
    if count < 1:
        raise BadParamsError(f"count must be >= 1, got {count}")
    j = np.arange(1, count + 1, dtype=np.float64)
    log_f = math.log10(1.0 + percent / 100.0)
    with np.errstate(over="ignore"):
        return 10.0 ** (j * log_f)


def equivalent_rate(percent: float, subdivisions: int) -> float:
    """Percent rate over 1/subdivisions of the period: 100((1+P/100)^(1/R)-1)."""
    if subdivisions < 1:
        raise BadParamsError(f"subdivisions must be >= 1, got {subdivisions}")
    return 100.0 * ((1.0 + percent / 100.0) ** (1.0 / subdivisions) - 1.0)


@dataclass(frozen=True)
class RateScanCell:
    percent: float
    chi_sqr: float
    anomaly: AnomalyRecord | None


def rate_scan(
    lo_percent: float,
    hi_percent: float,
    step: float,
    n_elements: int,
    base: float,
    t_flag: int,
) -> list[RateScanCell]:
    """Chi-square and anomaly detection across a grid of growth rates.

    The grid is lo + i*step for i = 0..round((hi - lo)/step), at most
    _MAX_RATES rates; a larger grid raises TooLargeError.  Each rate's
    chi-square equals series_ld(GrowthSeries(base, rate, n_elements))[1]:
    the rates go through in blocks of max(1, _BLOCK // n_elements) series,
    each block one (rates x n_elements) mantissa matrix, so memory stays
    bounded whatever the grid size.  Digits come from the mantissas, a
    mantissa within 1e-9 of the edge log10 d counting as digit d (see
    _digits_from_mantissas).  A rate is flagged by detect_anomalous
    with the fixed tolerance 1/(2 n_elements): a rate within that distance
    of a bounded-denominator rational behaves anomalously at this series
    length, which is what the flag is for.
    """
    if not (lo_percent < hi_percent < math.inf and 0 < step < math.inf):
        raise BadParamsError("need lo < hi and step > 0, all finite")
    GrowthSeries(base=base, percent=lo_percent, length=n_elements)  # validates the lowest rate
    steps = (hi_percent - lo_percent) / step
    if not steps + 1 <= _MAX_RATES:  # also inf; checked before any list is built
        raise TooLargeError(f"the grid has {steps + 1:.3g} rates, more than {_MAX_RATES}")
    n_steps = int(round(steps))
    pcts = [lo_percent + i * step for i in range(n_steps + 1)]
    m_b = math.log10(base) % 1.0
    m_f = np.array([math.log10(1.0 + pct / 100.0) % 1.0 for pct in pcts])
    rows = max(1, _BLOCK // n_elements)
    chis = np.concatenate([
        chi_sqr_vs_benford(_digit_counts(_mantissa_rows(m_b, m_f[i:i + rows], n_elements)))
        for i in range(0, len(pcts), rows)
    ])
    tol = 0.5 / n_elements
    return [
        RateScanCell(percent=pct, chi_sqr=chi, anomaly=detect_anomalous(pct, t_flag, tol=tol))
        for pct, chi in zip(pcts, chis.tolist())
    ]


def scan_to_csv(cells: list[RateScanCell]) -> str:
    lines = ["rate_percent,chi_sqr,anomaly_L,anomaly_T"]
    for c in cells:
        l = c.anomaly.L if c.anomaly else ""
        t = c.anomaly.T if c.anomaly else ""
        lines.append(f"{c.percent:.6g},{c.chi_sqr:.6g},{l},{t}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MultiplicationResult:
    """Trajectory of a random multiplication process, kept in log space."""

    log10_values: np.ndarray
    ld: DigitDistribution
    chi_sqr: float
    n_rejected: int


def random_multiplication_process(
    factor_model,
    n: int,
    start: float,
    seed=None,
    max_attempts: int = 100,
) -> MultiplicationResult:
    """x_{j+1} = x_j * factor_j with factors drawn from factor_model.

    A plain number is accepted as a degenerate constant-factor model (the
    LD-neutral power-of-ten case).  Nonpositive factors are rejected and
    redrawn (up to max_attempts rounds).  The trajectory accumulates in
    log10 space, so long or violent processes cannot overflow.
    """
    if start <= 0:
        raise BadParamsError(f"start must be > 0, got {start}")
    rng = np.random.default_rng(seed)
    if isinstance(factor_model, (int, float)):
        if factor_model <= 0:
            raise BadParamsError("constant factor must be > 0")
        factors = np.full(n, float(factor_model))
    else:
        factors = factor_model.sample_n(n, rng)
    bad = ~(factors > 0)
    rejected = 0
    attempts = 0
    while bad.any():
        attempts += 1
        if attempts > max_attempts:
            raise PolicyExhaustedError(
                f"factor model kept producing nonpositive factors after {max_attempts} rounds"
            )
        rejected += int(bad.sum())
        factors[bad] = factor_model.sample_n(int(bad.sum()), rng)  # type: ignore[union-attr]
        bad = ~(factors > 0)
    log10_factors = np.log10(factors)
    log10_vals = math.log10(start) + np.cumsum(log10_factors)
    # mantissas accumulate mod-1 increments so power-of-ten factors stay
    # exactly LD-neutral over arbitrarily long trajectories
    mant = (math.log10(start) % 1.0 + np.cumsum(log10_factors % 1.0)) % 1.0
    dist, chi = _ld_chi(mant)
    return MultiplicationResult(log10_values=log10_vals, ld=dist, chi_sqr=chi, n_rejected=rejected)


def power_transform_ld(
    sample_model: DistributionModel, exponent: int, n: int, seed=None
) -> tuple[DigitDistribution, float]:
    """LD of x**exponent for x drawn from the model (zeros skipped)."""
    if exponent < 1:
        raise BadParamsError(f"exponent must be >= 1, got {exponent}")
    rng = np.random.default_rng(seed)
    x = sample_model.sample_n(n, rng)
    x = np.abs(x[x != 0])
    if x.size == 0:
        raise EmptyInputError("model produced only zeros")
    return _ld_chi((exponent * np.log10(x)) % 1.0)
