"""Exact and quadrature-based leading-digit distributions of analytic densities.

Two computational styles coexist on purpose:

- closed-form decade summation where the density allows it (k/x, k/x**m,
  the exponential, and 10**Y for piecewise-analytic log-densities Y, which
  are folded modulo 1 exactly);
- generic adaptive quadrature over digit intervals (``ld_of_density``),
  which doubles as the independent cross-check path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .digits import DigitDistribution, benford_first
from .distributions import DistributionModel, Exponential, LogNormal
from .errors import (
    BadParamsError,
    BadRangeError,
    QuadratureFailureError,
    UnsupportedFamilyError,
)

__all__ = [
    "UniformLog",
    "TriangularLog",
    "SemiCircularLog",
    "HangingSemiCircularLog",
    "DecadeDecomposition",
    "ld_kx",
    "ld_power_law",
    "ld_of_density",
    "ld_exponential",
    "ld_ten_to_symmetric",
    "mantissa_density",
    "ld_decades",
    "ld_inflection_point",
    "ratio_of_uniforms_ld",
    "over_steepness",
    "induced_x_density",
]

_DIGITS = range(1, 10)
_LOG10 = math.log(10.0)
# log10 of the smallest subnormal and of the largest double
_LOG10_LO, _LOG10_HI = -324.0, 308.25
_MAX_DECADES = 1000  # cap of each exponential decade walk; the doubles span about 632


def _check_log_support(name: str, a: float, b: float) -> None:
    """[a, b] is a log10 support: a < b, and 10**a, 10**b are doubles."""
    if not _LOG10_LO <= a < b <= _LOG10_HI:
        raise BadParamsError(f"{name} needs a log10 support [a, b] with "
                             f"{_LOG10_LO} <= a < b <= {_LOG10_HI}, got [{a}, {b}]")


def _digit_dist(vec) -> DigitDistribution:
    total = math.fsum(vec)
    return DigitDistribution(
        base=10, order=1, probs={d: float(vec[d - 1] / total) for d in _DIGITS}
    )


# ---------------------------------------------------------------------------
# closed-form families


def ld_kx(s: float, g: float) -> DigitDistribution:
    """LD of the density k/x over [10**s, 10**(s+g)], k = 1/(g ln 10).

    Computed in log space: each digit's probability is the total overlap of
    its per-decade mantissa block with [s, s+g], divided by g.  Integer g
    telescopes to log10(1+1/d) exactly.
    """
    if g <= 0:
        raise BadRangeError(f"need g > 0, got {g}")
    lo, hi = s, s + g
    _check_log_support("k/x", lo, hi)
    vec = []
    for d in _DIGITS:
        block_lo, block_hi = math.log10(d), math.log10(d + 1)
        total = 0.0
        for j in range(math.floor(lo) - 1, math.ceil(hi) + 1):
            a = max(lo, j + block_lo)
            b = min(hi, j + block_hi)
            if b > a:
                total += b - a
        vec.append(total / g)
    return _digit_dist(vec)


def ld_power_law(m: float, lo: float, hi: float) -> DigitDistribution:
    """LD of the density k/x**m over (lo, hi), by closed-form integration.

    With p = 1 - m, a digit block (a, b) holds (b**p - a**p)/p, or ln(b/a)
    at m = 1.  Each block is taken relative to ref**p, ref the end of (lo, hi)
    where x**p is largest: (a/lo)**p or (b/hi)**p times -expm1(-|p| L)/|p|,
    L = ln(b/a).  Every factor is then at most 1, so no finite m overflows,
    and the block at ref keeps the total positive.
    """
    if not 0 < lo < hi < math.inf:
        raise BadRangeError(f"need 0 < lo < hi < inf, got ({lo}, {hi})")
    if not 0 < m < math.inf:
        raise BadRangeError(f"need 0 < m < inf, got {m}")
    p = 1.0 - m

    def mass(a: float, b: float) -> float:
        span = math.log1p((b - a) / a)
        if p == 0.0:
            return span
        edge, ref = (a, lo) if p < 0 else (b, hi)
        return (edge / ref) ** p * -math.expm1(-abs(p) * span) / abs(p)

    vec = []
    j_lo = math.floor(math.log10(lo))
    j_hi = min(math.floor(math.log10(hi)) + 1, 308)  # 10.0**309 is not a double
    for d in _DIGITS:
        total = 0.0
        for j in range(j_lo, j_hi + 1):
            a = max(lo, d * 10.0**j)
            b = min(hi, (d + 1) * 10.0**j)
            if b > a:
                total += mass(a, b)
        vec.append(total)
    return _digit_dist(vec)


def ld_exponential(p: float) -> DigitDistribution:
    """LD of the exponential density p e^{-px}, by the exact decade sum.

    P(d) = sum over decades j of exp(-p d 10^j) - exp(-p (d+1) 10^j),
    truncated once terms fall below 1e-16.  p lies in [1e-300, 1e300], where
    every decade the sum visits is a double.
    """
    if not 1e-300 <= p <= 1e300:
        raise BadParamsError(f"need 1e-300 <= p <= 1e300, got {p}")
    j0 = round(math.log10(1.0 / p))
    vec = []
    for d in _DIGITS:
        total = 0.0
        # upward from the inflection decade, then downward
        for js in (range(j0, j0 + _MAX_DECADES), range(j0 - 1, j0 - 1 - _MAX_DECADES, -1)):
            for j in js:
                term = math.exp(-p * d * 10.0**j) - math.exp(-p * (d + 1) * 10.0**j)
                total += term
                if term < 1e-16 and j != j0:
                    break
            else:
                raise QuadratureFailureError(
                    f"exponential decade sum for p={p} did not fall below 1e-16 "
                    f"in {_MAX_DECADES} decades")
        vec.append(total)
    return _digit_dist(vec)


def ratio_of_uniforms_ld() -> DigitDistribution:
    """LD of U(0,1)/U(0,1): P[d] = (1/18) (1 + 10/(d (d+1)))."""
    return _digit_dist([(1.0 + 10.0 / (d * (d + 1))) / 18.0 for d in _DIGITS])


def over_steepness(ld: DigitDistribution) -> float:
    """Signed aggregate comparing a first-order LD vector to Benford.

    Digits 1-2 enter as excesses (LD_d - benford_d), digits 3-9 as deficits
    (benford_d - LD_d); positive means the density falls faster than k/x.
    """
    if ld.base != 10 or ld.order != 1:
        raise BadParamsError("over_steepness needs a first-order base-10 distribution")
    total = 0.0
    for d in _DIGITS:
        diff = ld.probs.get(d, 0.0) - benford_first(d)
        total += diff if d <= 2 else -diff
    return total


# ---------------------------------------------------------------------------
# log-density shapes and exact mod-1 folding


@dataclass(frozen=True)
class UniformLog:
    """Uniform log-density on [r, s] (coordinates in log10 units)."""

    r: float
    s: float

    def __post_init__(self):
        _check_log_support("UniformLog", self.r, self.s)

    @property
    def bounds(self):
        return (self.r, self.s)

    def cdf(self, y: float) -> float:
        if y <= self.r:
            return 0.0
        if y >= self.s:
            return 1.0
        return (y - self.r) / (self.s - self.r)

    def pdf(self, y: float) -> float:
        return 1.0 / (self.s - self.r) if self.r <= y <= self.s else 0.0

    def translated(self, offset: float) -> "UniformLog":
        return UniformLog(self.r + offset, self.s + offset)

    def scaled(self, factor: float) -> "UniformLog":
        return UniformLog(self.r * factor, self.s * factor)


@dataclass(frozen=True)
class TriangularLog:
    """Triangular log-density on [a, b] with apex m."""

    a: float
    m: float
    b: float

    def __post_init__(self):
        if not self.a <= self.m <= self.b:
            raise BadParamsError(f"TriangularLog requires a <= m <= b, got {self}")
        _check_log_support("TriangularLog", self.a, self.b)

    @property
    def bounds(self):
        return (self.a, self.b)

    def cdf(self, y: float) -> float:
        a, m, b = self.a, self.m, self.b
        if y <= a:
            return 0.0
        if y >= b:
            return 1.0
        if y <= m:
            return (y - a) ** 2 / ((b - a) * (m - a)) if m > a else 0.0
        return 1.0 - (b - y) ** 2 / ((b - a) * (b - m))

    def pdf(self, y: float) -> float:
        a, m, b = self.a, self.m, self.b
        if y < a or y > b:
            return 0.0
        if y < m:
            return 2.0 * (y - a) / ((b - a) * (m - a))
        if y > m:
            return 2.0 * (b - y) / ((b - a) * (b - m))
        return 2.0 / (b - a)

    def translated(self, offset: float) -> "TriangularLog":
        return TriangularLog(self.a + offset, self.m + offset, self.b + offset)

    def scaled(self, factor: float) -> "TriangularLog":
        return TriangularLog(self.a * factor, self.m * factor, self.b * factor)


@dataclass(frozen=True)
class SemiCircularLog:
    """Semi-circular-like log-density: (2/(pi R^2)) sqrt(R^2 - (y-c)^2)."""

    center: float
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise BadParamsError(f"SemiCircularLog requires radius > 0, got {self.radius}")
        _check_log_support("SemiCircularLog", *self.bounds)

    @property
    def bounds(self):
        return (self.center - self.radius, self.center + self.radius)

    def cdf(self, y: float) -> float:
        r = self.radius
        u = y - self.center
        if u <= -r:
            return 0.0
        if u >= r:
            return 1.0
        return 0.5 + (u * math.sqrt(r * r - u * u) + r * r * math.asin(u / r)) / (
            math.pi * r * r
        )

    def pdf(self, y: float) -> float:
        r = self.radius
        u = y - self.center
        if abs(u) > r:
            return 0.0
        return 2.0 * math.sqrt(r * r - u * u) / (math.pi * r * r)

    def translated(self, offset: float) -> "SemiCircularLog":
        return SemiCircularLog(self.center + offset, self.radius)

    def scaled(self, factor: float) -> "SemiCircularLog":
        return SemiCircularLog(self.center * factor, self.radius * factor)


@dataclass(frozen=True)
class HangingSemiCircularLog:
    """Semi-circle raised on a pedestal: density h + sqrt(R^2 - (y-c)^2), normalized.

    'Hangs above the axis': starts and ends at the same nonzero elevation.
    """

    center: float
    radius: float
    elevation: float

    def __post_init__(self):
        if not (self.radius > 0 and 0 <= self.elevation < math.inf):
            raise BadParamsError(
                f"HangingSemiCircularLog requires radius > 0, finite elevation >= 0, got {self}"
            )
        _check_log_support("HangingSemiCircularLog", *self.bounds)

    @property
    def _norm(self) -> float:
        r, h = self.radius, self.elevation
        return 2.0 * r * h + 0.5 * math.pi * r * r

    @property
    def bounds(self):
        return (self.center - self.radius, self.center + self.radius)

    def cdf(self, y: float) -> float:
        r, h = self.radius, self.elevation
        u = y - self.center
        if u <= -r:
            return 0.0
        if u >= r:
            return 1.0
        circ = 0.5 * (u * math.sqrt(r * r - u * u) + r * r * math.asin(u / r)) + 0.25 * math.pi * r * r
        return (h * (u + r) + circ) / self._norm

    def pdf(self, y: float) -> float:
        r, h = self.radius, self.elevation
        u = y - self.center
        if abs(u) > r:
            return 0.0
        return (h + math.sqrt(r * r - u * u)) / self._norm

    def translated(self, offset: float) -> "HangingSemiCircularLog":
        return HangingSemiCircularLog(self.center + offset, self.radius, self.elevation)

    def scaled(self, factor: float) -> "HangingSemiCircularLog":
        return HangingSemiCircularLog(self.center * factor, self.radius * factor, self.elevation)


LogDensitySpec = UniformLog | TriangularLog | SemiCircularLog | HangingSemiCircularLog


def _folded_mass(spec, lo: float, hi: float) -> float:
    """Mass of the log-density folded modulo 1 on the mantissa interval [lo, hi)."""
    a, b = spec.bounds
    total = 0.0
    for k in range(math.floor(a) - 1, math.ceil(b) + 1):
        total += spec.cdf(k + hi) - spec.cdf(k + lo)
    return total


def ld_ten_to_symmetric(spec: LogDensitySpec) -> DigitDistribution:
    """LD of X = 10**Y where Y has the given log-density (exact folding)."""
    vec = [_folded_mass(spec, math.log10(d), math.log10(d + 1)) for d in _DIGITS]
    return _digit_dist(vec)


def mantissa_density(spec: LogDensitySpec, bins: int = 100) -> np.ndarray:
    """Folded (mod-1) log-density as a bin-averaged histogram on [0, 1).

    Bin values are densities (mean 1), so the histogram integrates to 1.
    """
    if bins < 10:
        raise BadParamsError(f"need bins >= 10, got {bins}")
    edges = np.linspace(0.0, 1.0, bins + 1)
    vals = np.array(
        [_folded_mass(spec, edges[i], edges[i + 1]) * bins for i in range(bins)]
    )
    return vals


def induced_x_density(spec: LogDensitySpec):
    """The x-space pdf of X = 10**Y: f_Y(log10 x) / (x ln 10), plus its support."""

    def pdf(x: float) -> float:
        if x <= 0:
            return 0.0
        return spec.pdf(math.log10(x)) / (x * _LOG10)

    a, b = spec.bounds
    return pdf, (10.0**a, 10.0**b)


# ---------------------------------------------------------------------------
# generic quadrature path


def ld_of_density(pdf, support: tuple[float, float], tol: float = 1e-9) -> DigitDistribution:
    """LD of an arbitrary density by adaptive quadrature over digit intervals.

    Negative support contributes through |x|.  Infinite tails are truncated
    decade by decade once a decade's mass falls below 1e-12 of the running
    total (a few consecutive times, to survive local zeros).
    """
    from scipy import integrate

    lo, hi = support

    def side_masses(side_pdf, s_lo: float, s_hi: float) -> np.ndarray:
        """Digit masses of side_pdf over the positive interval [s_lo, s_hi] of |x|."""
        out = np.zeros(9)
        if s_hi <= 0 or s_hi <= s_lo:
            return out
        s_lo = max(s_lo, 0.0)
        if s_lo == 0.0:
            j_min = None  # open-ended downward
        else:
            j_min = math.floor(math.log10(s_lo))
        j_max = math.floor(math.log10(s_hi)) if math.isfinite(s_hi) else None

        def decade_masses(j: int) -> np.ndarray:
            dm = np.zeros(9)
            for d in _DIGITS:
                a = max(s_lo, d * 10.0**j)
                b = min(s_hi, (d + 1) * 10.0**j)
                if b > a:
                    val, err = integrate.quad(side_pdf, a, b, limit=200)
                    if not math.isfinite(val):
                        raise QuadratureFailureError(f"integral over ({a}, {b}) diverged")
                    dm[d - 1] = val
            return dm

        # expand upward from a representative decade
        j_start = j_min if j_min is not None else (j_max if j_max is not None else 0)
        j = j_start
        misses = 0
        while j_max is None or j <= j_max:
            dm = decade_masses(j)
            out += dm
            if j_max is None:
                if dm.sum() < 1e-12 * max(out.sum(), 1e-300):
                    misses += 1
                    if misses >= 3:
                        break
                else:
                    misses = 0
            j += 1
        # expand downward when the lower edge is 0
        if j_min is None:
            j = j_start - 1
            misses = 0
            while True:
                dm = decade_masses(j)
                out += dm
                if dm.sum() < 1e-12 * max(out.sum(), 1e-300):
                    misses += 1
                    if misses >= 3:
                        break
                else:
                    misses = 0
                j -= 1
        return out

    masses = side_masses(pdf, max(lo, 0.0) if lo > 0 else 0.0, hi if hi > 0 else 0.0)
    if lo < 0:
        neg_lo, neg_hi = -min(hi, 0.0), -lo  # |x| range of the negative side
        masses += side_masses(lambda u: pdf(-u), neg_lo if neg_lo > 0 else 0.0, neg_hi)

    total = masses.sum()
    if total <= 0:
        raise QuadratureFailureError("density integrated to zero mass")
    return _digit_dist(list(masses))


@dataclass(frozen=True)
class DecadeDecomposition:
    """Per-decade conditional LD distributions plus their weight blend."""

    decades: list[tuple[float, float]]
    weights: list[float]
    locals_: list[DigitDistribution]
    overall: DigitDistribution
    truncated_mass: float

    def blend(self) -> DigitDistribution:
        vec = np.zeros(9)
        for w, loc in zip(self.weights, self.locals_):
            vec += w * np.array([loc.probs[d] for d in _DIGITS])
        return _digit_dist(list(vec))


def ld_decades(model: DistributionModel, decades: tuple[int, int]) -> DecadeDecomposition:
    """Decade-by-decade LD decomposition of a distribution model.

    ``decades`` is the inclusive range of exponents j; decade j covers
    [10**j, 10**(j+1)).  Negative support contributes via |x|.  Weights are
    normalized over the included decades; the mass outside is reported as
    truncated_mass.
    """
    from scipy import integrate

    j_lo, j_hi = decades
    if j_lo > j_hi:
        raise BadRangeError(f"need j_lo <= j_hi, got {decades}")
    sup = model.support()

    def mass(a: float, b: float) -> float:
        lo = max(a, sup.lo if sup.lo > 0 else a)
        out = 0.0
        if b > lo and sup.hi > lo:
            val, _ = integrate.quad(model.pdf, max(lo, sup.lo), min(b, sup.hi), limit=200)
            out += val
        # negative side folded in via |x|
        if sup.lo < 0:
            neg_a, neg_b = -b, -a
            lo2, hi2 = max(neg_a, sup.lo), min(neg_b, min(sup.hi, 0.0))
            if hi2 > lo2:
                val, _ = integrate.quad(model.pdf, lo2, hi2, limit=200)
                out += val
        return out

    weights_raw, locals_, spans = [], [], []
    for j in range(j_lo, j_hi + 1):
        lo10, hi10 = 10.0**j, 10.0 ** (j + 1)
        w = mass(lo10, hi10)
        vec = [mass(d * 10.0**j, (d + 1) * 10.0**j) for d in _DIGITS]
        weights_raw.append(w)
        spans.append((lo10, hi10))
        if w > 0:
            locals_.append(_digit_dist(vec))
        else:
            locals_.append(DigitDistribution(base=10, order=1, probs={d: 1 / 9 for d in _DIGITS}))

    total_in = math.fsum(weights_raw)
    if total_in <= 0:
        raise QuadratureFailureError("no mass in the requested decades")
    weights = [w / total_in for w in weights_raw]
    overall_vec = np.zeros(9)
    for w, loc in zip(weights, locals_):
        overall_vec += w * np.array([loc.probs[d] for d in _DIGITS])
    return DecadeDecomposition(
        decades=spans,
        weights=weights,
        locals_=locals_,
        overall=_digit_dist(list(overall_vec)),
        truncated_mass=max(0.0, 1.0 - total_in),
    )


def ld_inflection_point(model: DistributionModel) -> float:
    """x-value where the density's log10-transform peaks (k/x-like locally)."""
    if isinstance(model, Exponential):
        return 1.0 / model.rho
    if isinstance(model, LogNormal):
        return math.exp(model.location)
    raise UnsupportedFamilyError(
        f"ld_inflection_point supports Exponential and LogNormal, got {type(model).__name__}"
    )
