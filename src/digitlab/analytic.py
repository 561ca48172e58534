"""Exact and quadrature-based leading-digit distributions of analytic densities.

Two computational styles coexist on purpose:

- closed-form decade summation where the density allows it (k/x**m, the
  exponential, and 10**Y for piecewise-analytic log-densities Y, which are
  folded modulo 1 exactly; k/x is 10**Y for a uniform Y);
- generic adaptive quadrature over digit intervals (``ld_of_density``),
  which doubles as the independent cross-check path.

Every integral goes through ``quad``: QUADPACK's 21-point Gauss-Kronrod rule
with global adaptive bisection, in pure Python and numpy (no scipy).
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .digits import DigitDistribution, benford_first
from .errors import (
    BadParamsError,
    BadRangeError,
    QuadratureFailureError,
    TooLargeError,
    UnsupportedFamilyError,
)

if TYPE_CHECKING:  # an annotation only; importing distributions would cost every analytic start
    from .distributions import DistributionModel

__all__ = [
    "UniformLog",
    "TriangularLog",
    "SemiCircularLog",
    "DecadeDecomposition",
    "ld_kx",
    "ld_power_law",
    "quad",
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
_MAX_FOLDS = 10**6  # cdf differences one mantissa_density may sum, 1.5 to 3 us each


def _check_log_support(name: str, a: float, b: float) -> None:
    """[a, b] is a log10 support: a < b, and 10**a, 10**b are doubles."""
    if not _LOG10_LO <= a < b <= _LOG10_HI:
        raise BadParamsError(f"{name} needs a log10 support [a, b] with "
                             f"{_LOG10_LO} <= a < b <= {_LOG10_HI}, got [{a}, {b}]")


# ---------------------------------------------------------------------------
# closed-form families


def ld_kx(s: float, g: float) -> DigitDistribution:
    """LD of the density k/x over [10**s, 10**(s+g)], k = 1/(g ln 10).

    In log space k/x is the uniform density on [s, s+g], so this is its
    exact fold modulo 1.  Integer g telescopes to log10(1+1/d).
    """
    if g <= 0:
        raise BadRangeError(f"need g > 0, got {g}")
    return ld_ten_to_symmetric(UniformLog(s, s + g))


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
    return DigitDistribution.from_counts(vec)


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
    return DigitDistribution.from_counts(vec)


def ratio_of_uniforms_ld() -> DigitDistribution:
    """LD of U(0,1)/U(0,1): P[d] = (1/18) (1 + 10/(d (d+1)))."""
    return DigitDistribution.from_counts([(1.0 + 10.0 / (d * (d + 1))) / 18.0 for d in _DIGITS])


def over_steepness(ld: DigitDistribution) -> float:
    """Signed aggregate comparing a first-order LD vector to Benford.

    Digits 1-2 enter as excesses (LD_d - benford_d), digits 3-9 as deficits
    (benford_d - LD_d); positive means the density falls faster than k/x.
    """
    if ld.base != 10:
        raise BadParamsError("over_steepness needs a base-10 distribution")
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


def _half_disc_share(u: float, r: float) -> float:
    """Share of the half disc over [-r, r] that lies left of u.

    The mass beyond the nearer end is a circular segment: with t = 1 - |u|/r
    its half angle is acos(1 - t) = 2 asin(sqrt(t/2)), exact for small t,
    and with x twice that angle its share is (x - sin x) / (2 pi).  For x <
    2, x - sin x is summed from its Taylor series, so it keeps its relative
    precision down to the edge, where the textbook u sqrt(r^2 - u^2) +
    r^2 asin(u/r) cancels.  Each half is clipped at 1/2, so the rounding
    near the center cannot make the cdf step down.
    """
    if u <= -r:
        return 0.0
    if u >= r:
        return 1.0
    x = 4.0 * math.asin(math.sqrt(0.5 * (r - abs(u)) / r))
    if x < 2.0:
        seg, term, k = 0.0, x**3 / 6.0, 3
        while seg + term != seg:
            seg += term
            term *= -x * x / ((k + 1) * (k + 2))
            k += 2
    else:
        seg = x - math.sin(x)
    share = seg / (2.0 * math.pi)
    return min(share, 0.5) if u < 0 else max(1.0 - share, 0.5)


@dataclass(frozen=True)
class SemiCircularLog:
    """Semi-circular log-density sqrt(R^2 - (y-c)^2), raised by an elevation h >= 0.

    The density h + sqrt(R^2 - (y-c)^2), normalized: at h > 0 it 'hangs
    above the axis', starting and ending at the same nonzero height.  It is
    the mixture of the semicircle (2/(pi R^2)) sqrt(R^2 - (y-c)^2) with
    weight 1 and the uniform on [c-R, c+R] with weight lift = 4h/(pi R), so
    h = 0 gives the semicircle itself.
    """

    center: float
    radius: float
    elevation: float = 0.0

    def __post_init__(self):
        if not (self.radius > 0 and 0 <= self.elevation < math.inf):
            raise BadParamsError(f"SemiCircularLog requires radius > 0, finite elevation >= 0, got {self}")
        _check_log_support("SemiCircularLog", *self.bounds)

    @property
    def _lift(self) -> float:
        return 4.0 * self.elevation / (math.pi * self.radius)

    @property
    def bounds(self):
        return (self.center - self.radius, self.center + self.radius)

    def cdf(self, y: float) -> float:
        r, lift = self.radius, self._lift
        u = y - self.center
        flat = min(max((u + r) / (2.0 * r), 0.0), 1.0)  # the uniform's cdf
        return (lift * flat + _half_disc_share(u, r)) / (1.0 + lift)

    def pdf(self, y: float) -> float:
        r, lift = self.radius, self._lift
        u = y - self.center
        if abs(u) > r:
            return 0.0
        semi = 2.0 * math.sqrt(r * r - u * u) / (math.pi * r * r)
        return (lift / (2.0 * r) + semi) / (1.0 + lift)

    def translated(self, offset: float) -> "SemiCircularLog":
        return SemiCircularLog(self.center + offset, self.radius, self.elevation)

    def scaled(self, factor: float) -> "SemiCircularLog":
        return SemiCircularLog(self.center * factor, self.radius * factor, self.elevation)


LogDensitySpec = UniformLog | TriangularLog | SemiCircularLog


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
    return DigitDistribution.from_counts(vec)


def mantissa_density(spec: LogDensitySpec, bins: int = 100) -> np.ndarray:
    """Folded (mod-1) log-density as a bin-averaged histogram on [0, 1).

    Bin values are densities (mean 1), so the histogram integrates to 1.
    Each bin sums one cdf difference per unit of the support (and two more);
    more than _MAX_FOLDS in all raises TooLargeError.
    """
    if bins < 10:
        raise BadParamsError(f"need bins >= 10, got {bins}")
    a, b = spec.bounds
    folds = bins * (math.ceil(b) - math.floor(a) + 2)
    if folds > _MAX_FOLDS:
        raise TooLargeError(f"{bins} bins over [{a}, {b}] sum {folds} cdf differences, over {_MAX_FOLDS}")
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

# QUADPACK's QK21 rule (Piessens et al., QUADPACK, 1983): the 21 Kronrod nodes
# on [-1, 1], the Kronrod weights, and the 10-point Gauss weights, which are
# zero on the Kronrod-only nodes (every second node from the outside in)
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077600525452184, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WK0 = 0.149445554002916905664936468389821
_WG = (0.0, 0.066671344308688137593568809893332, 0.0, 0.149451349150580593145776339657697,
       0.0, 0.219086362515982043995534934228163, 0.0, 0.269266719309996355091226921569469,
       0.0, 0.295524224714752870173892994651338)
_NODES = np.array([*(-x for x in _XK), 0.0, *reversed(_XK)])
_KRONROD = np.array([*_WK, _WK0, *reversed(_WK)])
_GAUSS = np.array([*_WG, 0.0, *reversed(_WG)])
_FLOAT_MAX = sys.float_info.max
_J_LO, _J_HI = -323, 308  # the decades 10**j that are positive doubles
_LIMIT = 200  # the most pieces one quad call splits its interval into


def _qk21(f, a: float, b: float) -> tuple[float, float, float, float]:
    """(-error, a, b, value) of the 21-point Kronrod rule on [a, b]; error = |K21 - G10|."""
    center, half = 0.5 * a + 0.5 * b, 0.5 * b - 0.5 * a  # neither overflows
    fv = np.array([f(x) for x in (center + half * _NODES).tolist()], dtype=float)
    with np.errstate(all="ignore"):  # an inf or NaN value is reported below
        k21, g10 = float(half * (_KRONROD @ fv)), float(half * (_GAUSS @ fv))
    if not math.isfinite(k21):
        raise QuadratureFailureError(f"integral over ({a}, {b}) is not finite")
    return -abs(k21 - g10), a, b, k21


def quad(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """(value, abserr) of the integral of f over the finite interval [a, b].

    Globally adaptive: the piece with the largest error estimate is bisected
    until the summed error is at most tol * max(1, |value|) (tol is both the
    absolute and the relative tolerance), _LIMIT pieces exist, or no piece can
    be split further.  A non-finite value raises QuadratureFailureError.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise BadRangeError(f"quad needs finite limits a < b, got ({a}, {b})")
    pieces = [_qk21(f, a, b)]
    value, err = pieces[0][3], -pieces[0][0]
    while err > tol * max(1.0, abs(value)) and len(pieces) < _LIMIT:
        _, lo, hi, _ = pieces[0]
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            break
        heapq.heapreplace(pieces, _qk21(f, lo, mid))
        heapq.heappush(pieces, _qk21(f, mid, hi))
        value, err = math.fsum(p[3] for p in pieces), -math.fsum(p[0] for p in pieces)
    return value, err


def _digit_masses(pdf, lo: float, hi: float, j: int, tol: float) -> np.ndarray:
    """Integral of pdf over each digit block [d 10**j, (d+1) 10**j] cut to [lo, hi], d = 1..9."""
    dm = np.zeros(9)
    for d in _DIGITS:
        a = max(lo, d * 10.0**j)
        b = min(hi, (d + 1) * 10.0**j, _FLOAT_MAX)
        if b > a:
            dm[d - 1] = quad(pdf, a, b, tol)[0]
    return dm


def ld_of_density(pdf, support: tuple[float, float], tol: float = 1e-9) -> DigitDistribution:
    """LD of an arbitrary density by adaptive quadrature over digit intervals.

    Negative support contributes through |x|.  Each digit interval is one
    ``quad`` call with tolerance tol.  A side with an open end (0 or inf)
    starts at the decade 10**j, -323 <= j <= 308, where 10**j pdf(10**j) is
    largest (or d 10**j pdf(d 10**j), d = 1..9, when every power of ten has
    zero density), and is truncated towards each open end decade by decade
    once a decade's mass falls below 1e-12 of the running total (a few
    consecutive times, to survive local zeros).
    """
    lo, hi = support

    def side_masses(side_pdf, s_lo: float, s_hi: float) -> np.ndarray:
        """Digit masses of side_pdf over the positive interval [s_lo, s_hi] of |x|."""
        out = np.zeros(9)
        if s_hi <= 0 or s_hi <= s_lo:
            return out
        s_lo = max(s_lo, 0.0)
        open_lo, open_hi = s_lo == 0.0, math.isinf(s_hi)
        j_lo = _J_LO if open_lo else math.floor(math.log10(s_lo))
        j_hi = _J_HI if open_hi else math.floor(math.log10(s_hi))

        def walk(js, truncate: bool) -> None:
            nonlocal out
            misses = 0
            for j in js:
                dm = _digit_masses(side_pdf, s_lo, s_hi, j, tol)
                out += dm
                if truncate:
                    misses = misses + 1 if dm.sum() < 1e-12 * max(out.sum(), 1e-300) else 0
                    if misses >= 3:
                        return

        def weight(x: float) -> float:
            if not x <= min(s_hi, _FLOAT_MAX):
                return 0.0
            try:
                w = x * side_pdf(x)
            except ArithmeticError:  # a pdf formula that breaks at an extreme x
                return 0.0
            return w if w >= 0 else 0.0  # NaN counts as no mass

        def start_decade() -> int:
            """The decade j with the largest x pdf(x) at x = 10**j, else at any d 10**j.

            A narrow density can be 0 in double precision at every power of
            ten, or even at every d 10**j; then the walk starts where it
            always did: j_lo, else j_hi, else decade 0.
            """
            if open_lo or open_hi:
                js = range(j_lo, j_hi + 1)
                for ds in ((1,), _DIGITS):
                    w = [max(weight(d * 10.0**j) for d in ds) for j in js]
                    if max(w) > 0:
                        return js[w.index(max(w))]
            return 0 if open_lo and open_hi else (j_hi if open_lo else j_lo)

        j_start = start_decade()
        walk(range(j_start, j_hi + 1), open_hi)
        walk(range(j_start - 1, j_lo - 1, -1), open_lo)
        return out

    masses = side_masses(pdf, lo, hi)
    if lo < 0:
        masses += side_masses(lambda u: pdf(-u), -min(hi, 0.0), -lo)  # |x| on the negative side

    total = masses.sum()
    if total <= 0:
        raise QuadratureFailureError("density integrated to zero mass")
    return DigitDistribution.from_counts(masses)


@dataclass(frozen=True)
class DecadeDecomposition:
    """Per-decade conditional LD distributions plus their weight blend."""

    decades: list[tuple[float, float]]
    weights: list[float]
    locals_: list[DigitDistribution]
    truncated_mass: float

    @property
    def overall(self) -> DigitDistribution:
        """The weight blend of the per-decade laws: the LD over all the decades."""
        vec = np.zeros(9)
        for w, loc in zip(self.weights, self.locals_):
            vec += w * np.array(loc.first_order_vector())
        return DigitDistribution.from_counts(vec)


def ld_decades(model: DistributionModel, decades: tuple[int, int]) -> DecadeDecomposition:
    """Decade-by-decade LD decomposition of a distribution model.

    ``decades`` is the inclusive range of exponents j; decade j covers
    [10**j, 10**(j+1)).  Negative support contributes via |x|.  Weights are
    normalized over the included decades; the mass outside is reported as
    truncated_mass.  The decades must lie in -323..307, whose ends 10**j
    and 10**(j+1) are nonzero doubles.  Each digit block of each side is one
    ``quad`` call with tolerance 1e-10, and a decade's weight is the sum of
    its nine masses.
    """
    j_lo, j_hi = decades
    if not _J_LO <= j_lo <= j_hi < _J_HI:
        raise BadRangeError(f"need {_J_LO} <= j_lo <= j_hi <= {_J_HI - 1}, got {decades}")
    sup = model.support()
    spans = [(10.0**j, 10.0 ** (j + 1)) for j in range(j_lo, j_hi + 1)]
    weights_raw, locals_ = [], []
    for j in range(j_lo, j_hi + 1):
        vec = (_digit_masses(model.pdf, sup.lo, sup.hi, j, 1e-10)
               + _digit_masses(lambda u: model.pdf(-u), -sup.hi, -sup.lo, j, 1e-10))
        weights_raw.append(w := math.fsum(vec))
        locals_.append(DigitDistribution.from_counts(vec if w > 0 else [1.0] * 9))

    total_in = math.fsum(weights_raw)
    if total_in <= 0:
        raise QuadratureFailureError("no mass in the requested decades")
    return DecadeDecomposition(
        decades=spans,
        weights=[w / total_in for w in weights_raw],
        locals_=locals_,
        truncated_mass=max(0.0, 1.0 - total_in),
    )


def ld_inflection_point(model: DistributionModel) -> float:
    """x-value where the density's log10-transform peaks (k/x-like locally)."""
    from .distributions import Exponential, LogNormal

    if isinstance(model, Exponential):
        return 1.0 / model.rho
    if isinstance(model, LogNormal):
        return math.exp(model.location)
    raise UnsupportedFamilyError(
        f"ld_inflection_point supports Exponential and LogNormal, got {type(model).__name__}"
    )
