"""Exponential growth series, their leading-digit behavior, and the
rationality singularities: detection, enumeration, cumulative factors,
rate scans, plus multiplication-process and power-transform experiments.

Series digits are computed from mantissa accumulation,
frac(log10(B) + j * log10(f)), so million-element or 900%-growth series
never overflow; values themselves are materialized only on request.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .conformity import chi_sqr, first_digit_counts
from .digits import DigitDistribution, compartment_boundaries
from .errors import BadParamsError, EmptyInputError, PolicyExhaustedError, TooLargeError

if TYPE_CHECKING:  # an annotation only; importing distributions would cost every growth start
    from .distributions import DistributionModel

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
]

_BOUNDS = np.array(compartment_boundaries(10))
# elements per mantissa block of a rate scan; bounds the scan's scratch arrays
_BLOCK = 2**14
# rates in one scan (each result cell holds about 130 bytes and 0.1 ms of
# work), (L, T) pairs one enumerate_anomalous call may consider, and the
# elements of one series or cumulative_factors array
_MAX_RATES = 10**6
# rates x n_elements one rate scan may tally: about a minute at the 20-35 ns an element measured
_MAX_SCAN_ELEMENTS = 2 * 10**9
# bins of the mantissa digit table: each holds at most one snap threshold
_BINS = 4096
# integers up to 2**53 are doubles exactly
_EXACT = 2**53


def _check_percent(percent: float) -> None:
    if not -100 < percent < math.inf:  # NaN fails too
        raise BadParamsError(f"percent must be finite and > -100, got {percent}")


def _check_count(name: str, count: int) -> None:
    if count < 1:
        raise BadParamsError(f"{name} must be >= 1, got {count}")
    if count > _MAX_RATES:
        raise TooLargeError(f"{name} must be at most {_MAX_RATES}, got {count}")


@dataclass(frozen=True)
class GrowthSeries:
    """Geometric series B, B f, B f^2, ... with f = 1 + percent/100."""

    base: float
    percent: float
    length: int

    def __post_init__(self):
        if not 0 < self.base < math.inf:
            raise BadParamsError(f"base must be finite and > 0, got {self.base}")
        _check_percent(self.percent)
        _check_count("length", self.length)

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
        try:
            return 100.0 * (10.0 ** (self.L / self.T) - 1.0)
        except OverflowError:
            raise TooLargeError(f"the growth percent of L/T = {self.L}/{self.T} is past the doubles") from None

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


def _snap_threshold(edge: float) -> float:
    """Smallest double m with abs(m - edge) < 1e-9, by bisection over doubles."""
    lo, hi = edge - 2e-9, edge  # the rule is false at lo and true at hi
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2
        if abs(mid - edge) < 1e-9:
            hi = mid
        else:
            lo = mid
    return hi


@functools.cache
def _digit_table() -> tuple[np.ndarray, np.ndarray]:
    """Per mantissa bin [i, i + 1) / _BINS (and one more bin for 1.0): the
    digit at the bin start and the snap threshold inside the bin (inf if
    none), where the next digit starts.  Digits run 1..10, 10 being a power
    of ten; built on first use."""
    thresholds = [_snap_threshold(edge) for edge in _BOUNDS[1:]]  # digits 2..10
    starts = np.arange(_BINS + 1) / _BINS
    start_digit = 1 + np.searchsorted(thresholds, starts, side="right")
    split = np.full(_BINS + 1, np.inf)
    for t in thresholds:
        i = int(t * _BINS)
        if t > starts[i]:
            split[i] = t
    start_digit.setflags(write=False)  # shared by every caller
    split.setflags(write=False)
    return start_digit, split


def _digits_from_mantissas(mant: np.ndarray) -> np.ndarray:
    """First digits of mantissas in [0, 1), elementwise for any shape.

    A mantissa within 1e-9 of a compartment edge log10 d counts as sitting
    on it, so accumulated float drift cannot flip exact-boundary series
    elements (a series starting at 3 has every mantissa exactly on the
    digit-3 edge): it gets digit d.  Within 1e-9 of 0, and within 1e-9
    below 1 (an element that is a power of ten), give digit 1 (so does a
    mantissa rounded up to 1.0).  The rule is applied through a table: each
    edge's threshold is the smallest double the rule sends to digit d,
    found once by bisection.
    """
    start_digit, split = _digit_table()
    i = (mant * _BINS).astype(np.intp)
    digs = start_digit[i] + (mant >= split[i])
    digs[digs == 10] = 1
    return digs


def _digit_counts(mant: np.ndarray) -> np.ndarray:
    """Tallies of digits 1..9 along the last axis of a 1-D or 2-D mantissa array."""
    digs = np.atleast_2d(_digits_from_mantissas(mant))
    rows = digs.shape[0]
    offset = 10 * np.arange(rows)[:, None]
    counts = np.bincount((digs + offset).ravel(), minlength=10 * rows)
    return counts.reshape(mant.shape[:-1] + (10,))[..., 1:]


def _ld_chi(x: np.ndarray, tally=_digit_counts) -> tuple[DigitDistribution, float]:
    """Digit law and Benford chi-square of a 1-D mantissa vector (or of values, tallied by tally)."""
    if not np.isfinite(x).all():
        raise BadParamsError("a non-finite value has no leading digit")
    counts = tally(x)
    return DigitDistribution.from_counts(counts), chi_sqr(counts)


def series_ld(values_or_series) -> tuple[DigitDistribution, float]:
    """First-digit distribution and Benford chi-square of a value vector.

    Accepts either a real vector (zeros skipped, digits as leading_digits
    reads them) or a GrowthSeries, processed in log space so huge series
    cannot overflow.
    """
    if isinstance(values_or_series, GrowthSeries):
        return _ld_chi(series_mantissas(values_or_series))
    vals = np.asarray(values_or_series, dtype=np.float64)
    if not vals.any():  # NaN counts as nonzero: it is refused as non-finite
        raise EmptyInputError("no nonzero values")
    return _ld_chi(vals, first_digit_counts)


def _limit_denominator(n: np.ndarray, d: np.ndarray, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """p, q with p/q == Fraction(n, d).limit_denominator(t_max), row by row.

    CPython's algorithm on every row at once: a fraction whose denominator
    is <= t_max is its own answer; the others run Euclid's recurrence until
    the next convergent's denominator would pass t_max (tested as
    a > (t_max - q0) // q1, so it is never formed), then take the last
    convergent or semiconvergent, whichever is nearer.  n/d must be reduced
    with d > 0, in int64 or object (Python int) arrays whose dtype holds d
    and (n // d + 1) * t_max.
    """
    p, q = n.copy(), d.copy()
    rows = np.flatnonzero(d > t_max)
    n, d = n[rows], d[rows]
    a = n // d
    p0, q0, p1, q1 = np.ones_like(a), np.zeros_like(a), a, np.ones_like(a)
    n, d, big_d = d, n - a * d, d
    while rows.size:
        a = n // d
        k = (t_max - q0) // q1
        stop = a > k
        if stop.any():
            # p1/q1 or the semiconvergent (p0 + k p1)/(q0 + k q1), whichever
            # is nearer, p1/q1 on a tie: 2 d (q0 + k q1) <= big_d, in integers
            qk = q0 + k * q1
            near = d <= big_d // (2 * qk)
            p[rows[stop]] = np.where(near, p1, p0 + k * p1)[stop]
            q[rows[stop]] = np.where(near, q1, qk)[stop]
            go = ~stop
            rows, a, big_d, p0, q0, p1, q1, n, d = (
                v[go] for v in (rows, a, big_d, p0, q0, p1, q1, n, d))
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        n, d = d, n - a * d
    return p, q


def _anomalies(x: np.ndarray, t_max: int, tol: float) -> list[AnomalyRecord | None]:
    """detect_anomalous for every x = log10(1 + P/100) of a 1-D array.

    Each positive x is the exact ratio n / 2**s of its double.  Rows where
    2**s <= 2**62 and (floor(x) + 1) t_max <= 2**53 run the recurrence in
    int64, where every p and q is also a double exactly; the rest (x < 2**-10,
    or a large t_max) run the same code on Python ints.
    """
    found: list[AnomalyRecord | None] = [None] * x.size
    mant, exp = np.frexp(x)
    shift = 53 - exp
    pos = x > 0  # decay or zero growth never hits a positive L/T
    small = pos & (shift <= 62) & (np.floor(x) < _EXACT // t_max)
    for mask, dtype in ((small, np.int64), (pos & ~small, object)):
        idx = np.flatnonzero(mask)
        if not idx.size:
            continue
        n = (mant[idx] * _EXACT).astype(np.int64).astype(dtype)
        d = np.left_shift(1, shift[idx].astype(dtype))
        g = np.minimum(n & -n, d)  # gcd(n, d): d is a power of two
        p, q = _limit_denominator(n // g, d // g, t_max)
        xr, pf = x[idx], p.astype(np.float64)
        ok = (p >= 1) & ~(np.abs(xr - (p / q).astype(np.float64)) > tol)
        # the power identity T x = L, in log space (10**L may be astronomical)
        lhs = (q * xr).astype(np.float64)
        ok &= ~(np.abs(lhs - pf) > 10.0 * tol * np.maximum(1.0, pf))
        records: dict[tuple[int, int], AnomalyRecord] = {}  # neighbouring rates share one
        for i, lt in zip(idx[ok].tolist(), zip(p[ok].tolist(), q[ok].tolist())):
            if lt not in records:
                records[lt] = AnomalyRecord(*lt)
            found[i] = records[lt]
    return found


def detect_anomalous(percent: float, t_max: int, tol: float = 1e-10) -> AnomalyRecord | None:
    """Detect whether log10(1 + percent/100) is a rational L/T with T <= t_max.

    L/T is Fraction(x).limit_denominator(t_max) of x = log10(1 + percent/100),
    computed as an exact continued fraction on the double x.  Returns the
    reduced record when L >= 1, L/T sits within tol of x and the power
    identity (1+P/100)**T = 10**L holds within 10*tol*max(1, L) in log
    space (|T x - L|); else None.  This is the one-rate call of the array
    kernel rate_scan uses.
    """
    _check_percent(percent)
    if t_max < 1:
        raise BadParamsError(f"t_max must be >= 1, got {t_max}")
    return _anomalies(np.array([math.log10(1.0 + percent / 100.0)]), t_max, tol)[0]


def enumerate_anomalous(l_set, t_range: tuple[int, int]) -> list[AnomalyRecord]:
    """All reduced (L, T) records with L in l_set, T in t_range, by percent.

    T values below 1 raise BadParamsError; more than _MAX_RATES (L, T) pairs
    raise TooLargeError before any record is built.
    """
    t_lo, t_hi = t_range
    if min(t_lo, t_hi) < 1:
        raise BadParamsError(f"T must be >= 1, got the range {t_lo}..{t_hi}")
    ls = sorted(set(l_set))
    if len(ls) * (t_hi - t_lo + 1) > _MAX_RATES:
        raise TooLargeError(f"{len(ls)} L values x T in {t_lo}..{t_hi} is more than {_MAX_RATES} pairs")
    records = [
        AnomalyRecord(L=l, T=t)
        for l in ls
        for t in range(t_lo, t_hi + 1)
        if math.gcd(l, t) == 1
    ]
    return sorted(records, key=lambda r: r.percent)


def cumulative_factors(percent: float, count: int) -> np.ndarray:
    """(1+P/100)**j for j = 1..count (at most _MAX_RATES), computed in log space."""
    _check_percent(percent)
    _check_count("count", count)
    j = np.arange(1, count + 1, dtype=np.float64)
    log_f = math.log10(1.0 + percent / 100.0)
    with np.errstate(over="ignore"):
        return 10.0 ** (j * log_f)


def equivalent_rate(percent: float, subdivisions: int) -> float:
    """Percent rate over 1/subdivisions of the period: 100((1+P/100)^(1/R)-1)."""
    if subdivisions < 1:
        raise BadParamsError(f"subdivisions must be >= 1, got {subdivisions}")
    return 100.0 * ((1.0 + percent / 100.0) ** (1.0 / subdivisions) - 1.0)


class RateScanCell(NamedTuple):
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
    _MAX_RATES rates and _MAX_SCAN_ELEMENTS rates x n_elements; a larger
    grid raises TooLargeError.  Each rate's
    chi-square equals series_ld(GrowthSeries(base, rate, n_elements))[1]:
    the rates go through in blocks of max(1, _BLOCK // n_elements) series,
    each block one (rates x n_elements) mantissa matrix, so memory stays
    bounded whatever the grid size.  Digits come from the mantissas, a
    mantissa within 1e-9 of the edge log10 d counting as digit d (see
    _digits_from_mantissas).  A rate is flagged as detect_anomalous(rate,
    t_flag, tol=1/(2 n_elements)) would flag it: a rate within that distance
    of a bounded-denominator rational behaves anomalously at this series
    length, which is what the flag is for.  _BLOCK rates at a time get one
    chi-square call over their stacked counts and one exact continued-fraction
    expansion for the flags, on the same x = log10(1 + rate/100) whose
    fractional part drives the mantissas.
    """
    if not (lo_percent < hi_percent < math.inf and 0 < step < math.inf):
        raise BadParamsError("need lo < hi and step > 0, all finite")
    if t_flag < 1:
        raise BadParamsError(f"t_max must be >= 1, got {t_flag}")
    GrowthSeries(base=base, percent=lo_percent, length=n_elements)  # validates the lowest rate
    steps = (hi_percent - lo_percent) / step
    if not steps + 1 <= _MAX_RATES:  # also inf; checked before any list is built
        raise TooLargeError(f"the grid has {steps + 1:.3g} rates, more than {_MAX_RATES}")
    n_steps = int(round(steps))
    if (n_steps + 1) * n_elements > _MAX_SCAN_ELEMENTS:
        raise TooLargeError(f"{n_steps + 1} rates x {n_elements} elements is over the budget "
                            f"of {_MAX_SCAN_ELEMENTS} series elements")
    pcts = [lo_percent + i * step for i in range(n_steps + 1)]
    # math.log10 as series_mantissas and detect_anomalous take it; numpy's
    # log10 can differ from it in the last bit
    x = np.array([math.log10(1.0 + pct / 100.0) for pct in pcts])
    m_b, m_f = math.log10(base) % 1.0, x % 1.0
    rows = max(1, _BLOCK // n_elements)
    tol = 0.5 / n_elements
    chis: list[float] = []
    flags: list[AnomalyRecord | None] = []
    for i in range(0, len(pcts), _BLOCK):
        end = min(i + _BLOCK, len(pcts))
        counts = np.concatenate([
            _digit_counts(_mantissa_rows(m_b, m_f[j:min(j + rows, end)], n_elements))
            for j in range(i, end, rows)
        ])
        chis += chi_sqr(counts).tolist()
        flags += _anomalies(x[i:end], t_flag, tol)
    return list(map(RateScanCell, pcts, chis, flags))


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
