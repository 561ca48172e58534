"""Parametric distribution families: pdf, sampler, support, and mean.

Each family is a small frozen dataclass whose fields are its parameters,
in order (``dataclasses.fields`` of the class or an instance).  It
declares its parameter rule and its sampler once, as two vectorized
static methods: ``valid(*params)`` and ``draw(rng, n, *params)``.  Both
take scalars or length-n arrays, so the scalar model (``__post_init__``,
``sample_n``) and the chain engine, which samples with per-element
parameters, run the same code.  Samplers draw from a caller-supplied
numpy Generator, so concurrent use just needs per-caller generator
states.  Every sampler is closed form or a native numpy generator
method; Gompertz inverts its CDF through the Wright omega function.

The six Exponential variants share one sampler and differ only in how the
chained parameter maps to the effective scale (rho, 1/rho, sqrt(rho),
rho**7.5, rho**8, ln(rho)); chainability experiments compare exactly these
reparameterizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import BadParamsError, TooLargeError, UnknownFamilyError, UnsupportedFormError

__all__ = [
    "DistributionModel",
    "Support",
    "Uniform",
    "Normal",
    "OriginNormal",
    "Exponential",
    "Exp2",
    "Exp3",
    "Exp4",
    "Exp5",
    "Exp6",
    "GeneralizedExp1",
    "GeneralizedExp2",
    "Gamma",
    "Weibull",
    "Rayleigh",
    "Wald",
    "LogNormal",
    "Gompertz",
    "Nakagami",
    "GuptaKundu",
    "Pareto",
    "FisherTippett",
    "Logistic",
    "CauchyLorentz",
    "ChiSqr",
    "Triangular",
    "PowerLaw",
    "Die",
    "FAMILIES",
    "family_by_name",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_DOUBLE_MAX = 1.7976931348623157e308
_LN_MAX = math.log(_DOUBLE_MAX)  # exp of more is not a double
_MAX_DRAWS = 10**7  # draws one sample_n may return: about 70 bytes each, temporaries included


@dataclass(frozen=True)
class Support:
    """Open support interval; lo/hi may be +-inf."""

    lo: float
    hi: float

    @property
    def kind(self) -> str:
        if self.lo == -math.inf and self.hi == math.inf:
            return "(-inf,+inf)"
        if self.lo == -math.inf:
            return "(-inf,0)" if self.hi == 0 else f"(-inf,{self.hi})"
        if self.hi == math.inf:
            return "(0,+inf)" if self.lo == 0 else f"({self.lo},+inf)"
        return f"bounded({self.lo},{self.hi})"


def _positive(x):
    """Element-wise 0 < x < inf."""
    return (x > 0) & (x < math.inf)


class DistributionModel:
    """Base class; subclasses are the concrete families.

    A family declares ``valid(*params)``, true where its parameters are
    admissible (finite ones only), and ``draw(rng, n, *params)``, n draws
    for parameters that are scalars or length-n arrays of valid values.
    """

    # Parameters scaled_by_power_of_ten multiplies by default (the
    # family's scale and location parameters; shape parameters excluded).
    pot_scale_params: ClassVar[tuple[str, ...]] = ()

    def __post_init__(self):
        name = type(self).__name__
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise BadParamsError(f"{name} {f.name} must be an integer, got {value!r}")
        if not self.valid(*self.params):
            raise BadParamsError(f"invalid {name} parameters {self.params}")

    @staticmethod
    def valid(*params):
        raise NotImplementedError

    @staticmethod
    def draw(rng: np.random.Generator, n: int, *params) -> np.ndarray:
        raise NotImplementedError

    @property
    def params(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def pdf(self, x: float) -> float:
        raise NotImplementedError

    def sample_n(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if n < 1:
            raise BadParamsError(f"n must be >= 1, got {n}")
        if n > _MAX_DRAWS:
            raise TooLargeError(f"n must be at most {_MAX_DRAWS}, got {n}")
        # the parameters go in as length-n arrays, as a chain passes its
        # constants, so numpy takes the same (array ** array, not scalar
        # power) code paths and both draw the same bits
        return self.draw(rng, n, *(np.full(n, float(p)) for p in self.params))

    def support(self) -> Support:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def scaled_by_power_of_ten(self, m: int, subset=None) -> "DistributionModel":
        """Return the model with parameters multiplied by 10**m.

        ``subset`` limits scaling to the named parameters; the default is the
        family's registered power-of-ten form (shape parameters excluded).
        """
        if not -323 <= m <= 308:
            raise BadParamsError(f"10**m must be a double, got m = {m}")
        if subset is None:
            if not self.pot_scale_params:
                raise UnsupportedFormError(f"{type(self).__name__} has no power-of-ten parameter form")
            subset = self.pot_scale_params
        kwargs = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in subset:
                # an integer field (ChiSqr dof, Die faces) stays an integer
                value = value * 10**m if f.type == "int" and m >= 0 else value * 10.0**m
                if value > _DOUBLE_MAX:  # inf, or an integer field past the double range
                    raise BadParamsError(f"{f.name} * 10**{m} is not a double")
            kwargs[f.name] = value
        return type(self)(**kwargs)


@dataclass(frozen=True)
class Uniform(DistributionModel):
    a: float
    b: float
    pot_scale_params = ("a", "b")

    @staticmethod
    def valid(a, b):
        return np.isfinite(b - a) & (a < b)

    def pdf(self, x):
        return 1.0 / (self.b - self.a) if self.a <= x <= self.b else 0.0

    @staticmethod
    def draw(rng, n, a, b):
        # numpy's uniform evaluates this formula, without its range check
        return a + (b - a) * rng.random(n)

    def support(self):
        return Support(self.a, self.b)

    def mean(self):
        return 0.5 * (self.a + self.b)


@dataclass(frozen=True)
class Normal(DistributionModel):
    mu: float
    sigma: float
    pot_scale_params = ("mu", "sigma")

    @staticmethod
    def valid(mu, sigma):
        return np.isfinite(mu) & _positive(sigma)

    def pdf(self, x):
        z = (x - self.mu) / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    @staticmethod
    def draw(rng, n, mu, sigma):
        return rng.normal(mu, sigma, n)

    def support(self):
        return Support(-math.inf, math.inf)

    def mean(self):
        return self.mu


@dataclass(frozen=True)
class OriginNormal(DistributionModel):
    sigma: float
    pot_scale_params = ("sigma",)

    @staticmethod
    def valid(sigma):
        return _positive(sigma)

    def pdf(self, x):
        z = x / self.sigma
        return math.exp(-0.5 * z * z) / (self.sigma * _SQRT2PI)

    @staticmethod
    def draw(rng, n, sigma):
        return rng.normal(0.0, sigma, n)

    def support(self):
        return Support(-math.inf, math.inf)

    def mean(self):
        return 0.0


class _ExponentialBase(DistributionModel):
    """Common machinery for the six Exponential reparameterizations."""

    @staticmethod
    def _scale(rho):
        raise NotImplementedError

    @classmethod
    def valid(cls, rho):
        # the effective scale must be a finite positive double as well
        with np.errstate(all="ignore"):
            return _positive(rho) & _positive(cls._scale(np.asarray(rho, dtype=np.float64)))

    @classmethod
    def draw(cls, rng, n, rho):
        return rng.exponential(cls._scale(rho), n)

    def pdf(self, x):
        if x < 0:
            return 0.0
        s = self._scale(self.rho)
        return math.exp(-x / s) / s

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return self._scale(self.rho)


@dataclass(frozen=True)
class Exponential(_ExponentialBase):
    """Variant 1: rate parameterization, pdf rho * exp(-rho x)."""

    rho: float
    pot_scale_params = ("rho",)

    @staticmethod
    def _scale(rho):
        return 1.0 / rho


@dataclass(frozen=True)
class Exp2(_ExponentialBase):
    """Variant 2: scale parameterization, pdf (1/rho) exp(-x/rho)."""

    rho: float
    pot_scale_params = ("rho",)

    @staticmethod
    def _scale(rho):
        return rho


@dataclass(frozen=True)
class Exp3(_ExponentialBase):
    """Variant 3: effective scale sqrt(rho)."""

    rho: float

    @staticmethod
    def _scale(rho):
        return np.sqrt(rho)


@dataclass(frozen=True)
class Exp4(_ExponentialBase):
    """Variant 4: effective scale rho**7.5."""

    rho: float

    @staticmethod
    def _scale(rho):
        return rho**7.5


@dataclass(frozen=True)
class Exp5(_ExponentialBase):
    """Variant 5: effective scale rho**8."""

    rho: float

    @staticmethod
    def _scale(rho):
        return rho**8


@dataclass(frozen=True)
class Exp6(_ExponentialBase):
    """Variant 6: effective scale ln(rho); requires rho > 1."""

    rho: float

    @staticmethod
    def _scale(rho):
        return np.log(rho)

    @staticmethod
    def valid(rho):
        return (rho > 1) & (rho < math.inf)


@dataclass(frozen=True)
class GeneralizedExp1(DistributionModel):
    """pdf rho * exp(-rho (x - mu)) on [mu, +inf): the b*f(b(x-a)) form."""

    rho: float
    mu: float
    pot_scale_params = ("rho", "mu")

    @staticmethod
    def valid(rho, mu):
        return _positive(rho) & np.isfinite(mu)

    def pdf(self, x):
        if x < self.mu:
            return 0.0
        return self.rho * math.exp(-self.rho * (x - self.mu))

    @staticmethod
    def draw(rng, n, rho, mu):
        return mu + rng.exponential(1.0 / rho, n)

    def support(self):
        return Support(self.mu, math.inf)

    def mean(self):
        return self.mu + 1.0 / self.rho


@dataclass(frozen=True)
class GeneralizedExp2(DistributionModel):
    """pdf (1/rho) * exp(-(x - mu)/rho) on [mu, +inf): loc-scale form."""

    rho: float
    mu: float
    pot_scale_params = ("rho", "mu")

    @staticmethod
    def valid(rho, mu):
        return _positive(rho) & np.isfinite(mu)

    def pdf(self, x):
        if x < self.mu:
            return 0.0
        return math.exp(-(x - self.mu) / self.rho) / self.rho

    @staticmethod
    def draw(rng, n, rho, mu):
        return mu + rng.exponential(rho, n)

    def support(self):
        return Support(self.mu, math.inf)

    def mean(self):
        return self.mu + self.rho


@dataclass(frozen=True)
class Gamma(DistributionModel):
    k: float
    theta: float
    pot_scale_params = ("theta",)

    @staticmethod
    def valid(k, theta):
        return _positive(k) & _positive(theta)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        k, th = self.k, self.theta
        try:
            lgamma_k = math.lgamma(k)
        except OverflowError:
            raise BadParamsError(f"Gamma pdf needs ln Gamma(k) to be a double, got k = {k}") from None
        # in log space: x**(k - 1) and theta**k need not be doubles
        log_th = math.log(th)
        log_pdf = (k - 1) * (math.log(x) - log_th) - x / th - lgamma_k - log_th
        return math.exp(log_pdf) if log_pdf < _LN_MAX else math.inf

    @staticmethod
    def draw(rng, n, k, theta):
        return rng.gamma(k, theta, n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return self.k * self.theta


@dataclass(frozen=True)
class Weibull(DistributionModel):
    """Shape k first, scale lam second (chains pass shape as argument 1)."""

    k: float
    lam: float
    pot_scale_params = ("lam",)

    @staticmethod
    def valid(k, lam):
        return _positive(k) & _positive(lam)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        k, lam = self.k, self.lam
        z = x / lam
        # in log space: z**(k - 1) and z**k need not be doubles, nor z itself
        log_z = math.log(z) if 0.0 < z < math.inf else math.log(x) - math.log(lam)
        if k * log_z >= _LN_MAX:
            return 0.0  # exp(-z**k) with z**k past the doubles
        log_pdf = math.log(k) - math.log(lam) + (k - 1) * log_z - math.exp(k * log_z)
        return math.exp(log_pdf) if log_pdf < _LN_MAX else math.inf

    @staticmethod
    def draw(rng, n, k, lam):
        return lam * rng.weibull(k, n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return self.lam * math.gamma(1.0 + 1.0 / self.k)


@dataclass(frozen=True)
class Rayleigh(DistributionModel):
    sigma: float
    pot_scale_params = ("sigma",)

    @staticmethod
    def valid(sigma):
        return _positive(sigma)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        # in log space: sigma**2 need not be a double
        u = x / self.sigma
        log_pdf = math.log(x) - 2.0 * math.log(self.sigma) - 0.5 * u * u
        return math.exp(log_pdf) if log_pdf < _LN_MAX else math.inf

    @staticmethod
    def draw(rng, n, sigma):
        return rng.rayleigh(sigma, n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return self.sigma * math.sqrt(math.pi / 2.0)


@dataclass(frozen=True)
class Wald(DistributionModel):
    """Inverse Gaussian with mean mu and shape lam."""

    mu: float
    lam: float
    pot_scale_params = ("mu", "lam")

    @staticmethod
    def valid(mu, lam):
        return _positive(mu) & _positive(lam)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        mu, lam = self.mu, self.lam
        return math.sqrt(lam / (2.0 * math.pi * x**3)) * math.exp(
            -lam * (x - mu) ** 2 / (2.0 * mu**2 * x)
        )

    @staticmethod
    def draw(rng, n, mu, lam):
        return rng.wald(mu, lam, n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return self.mu


@dataclass(frozen=True)
class LogNormal(DistributionModel):
    """location = mean of the generating normal, shape = its s.d."""

    location: float
    shape: float

    @staticmethod
    def valid(location, shape):
        return np.isfinite(location) & _positive(shape)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        z = (math.log(x) - self.location) / self.shape
        return math.exp(-0.5 * z * z) / (x * self.shape * _SQRT2PI)

    @staticmethod
    def draw(rng, n, location, shape):
        return rng.lognormal(location, shape, n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return math.exp(self.location + 0.5 * self.shape**2)


# ---------------------------------------------------------------------------
# the two special functions the families need: Wright omega (Gompertz
# quantile) and the harmonic number H_a = psi(a + 1) - psi(1) (GuptaKundu mean)

# elements per pass: every temporary of a pass stays in cache.  With a chain's
# 2^15-row buffers, one pass per buffer measured no faster (1e6-draw Gompertz chain,
# 9 alternating wait4 runs on 2 vCPUs: 0.468 against 0.491 s, within their spread) and its
# dozen buffer-sized temporaries raised the peak from 41.6 to 44.1 MB
_OMEGA_BLOCK = 8192


def _two_diff(a, b):
    """(s, e) with s = fl(a - b) and s + e = a - b exactly (Knuth's TwoSum)."""
    s = a - b
    t = s - a
    return s, (a - (s - t)) - (b + t)


def _fsc_step(w, r):
    """One Fritsch-Shafer-Crowley step for w + ln w = z, given r = z - w - ln w."""
    wp1 = w + 1.0
    q = 2.0 * wp1 * (wp1 + (2.0 / 3.0) * r)
    return w + w * (r / wp1) * (q - r) / (q - 2.0 * r)


def _fixed_point_step(z, w):
    """w <- e^(z - w), with z - w carried exactly as s + e: e^s (1 + e)."""
    s, e = _two_diff(z, w)
    x = np.exp(s)
    return x + x * e


def _omega_block(z):
    with np.errstate(all="ignore"):  # lanes outside their guess's region may overflow or be NaN
        # first guesses, Algorithm 917's regions on the real line
        p = np.exp(z)
        below = p * (1.0 + p * (-1.0 + p * (1.5 + p * (-8.0 / 3.0 + p * (125.0 / 24.0)))))
        d = z - 1.0
        near_one = 0.5 + 0.5 * z + d * d * (
            1.0 / 16.0 + d * (-1.0 / 192.0 + d * (-1.0 / 3072.0 + d * (13.0 / 61440.0))))
        za = np.maximum(z, 1.0 + math.pi)
        lz = np.log(za)
        above = za - lz + lz / za * (1.0 + (0.5 * lz - 1.0 + ((lz / 3.0 - 1.5) * lz + 1.0) / za) / za)
        w = np.where(z <= -2.0, below, np.where(z <= 1.0 + math.pi, near_one, above))
        w = _fsc_step(w, z - w - np.log(w))
        s, e = _two_diff(z, w)
        w = _fsc_step(w, (s - np.log(w)) + e)
        w = np.where(z <= -1.0, _fixed_point_step(z, _fixed_point_step(z, w)), w)
        return np.where(z < -37.0, p, np.where(z > 1e20, z, w))


def _wright_omega(z):
    """Wright omega of real z, element-wise: the w > 0 with w + ln w = z.

    Lawrence, Corless & Jeffrey, Algorithm 917 (ACM TOMS 38(3), 2012), on
    the real line.  First guess by region: for z <= -2 the series in e^z
    about -inf, up to 1 + pi the Taylor series about z = 1, above it the
    asymptotic series z - ln z + ...  Then two Fritsch-Shafer-Crowley steps
    (Algorithm 443, CACM 16(2), 1973), the second with z - w taken
    exactly.  For z <= -1 the residual is ill-conditioned: ln w has the
    rounding of a number of size |z|, up to 30 ulps of w.  So two steps of
    w <- e^(z - w) follow, each of which multiplies the error by w <= 0.28.
    Below z = -37, omega = e^z: the next term, e^(2z), is under half an ulp.
    Above 1e20, omega = z: ln z is under half an ulp of z.  -inf gives 0,
    +inf gives inf and NaN gives NaN.  Against a 160-bit reference, on
    random z from -745 to 1e20, the error is at most 1.1 ulp (numpy's exp
    and log on an AVX-512 x86-64 CPU).
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    flat_z, flat_out = z.reshape(-1), out.reshape(-1)
    for i in range(0, flat_z.size, _OMEGA_BLOCK):
        flat_out[i:i + _OMEGA_BLOCK] = _omega_block(flat_z[i:i + _OMEGA_BLOCK])
    return out


# B_2k / 2k for k = 1..10: the terms B_2k / (2k a^2k) of the asymptotic series
# of the digamma function (Abramowitz & Stegun 6.3.18)
_PSI_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0,
               -691.0 / 32760.0, 1.0 / 12.0, -3617.0 / 8160.0, 43867.0 / 14364.0,
               -174611.0 / 6600.0)
_EULER_GAMMA = 0.57721566490153286061
_PSI_FROM = 8  # the series is used from here up; its first dropped term is 4e-18 at 8


def _harmonic(a: float) -> float:
    """H_a = psi(a + 1) - psi(1) for real a > 0.

    From a >= 8: H_a = ln a + gamma + 1/(2a) - sum B_2k / (2k a^2k) (A&S
    6.3.18 with 6.3.5).  Below, the upward recurrence (A&S 6.3.5) gives H_a
    = sum_{k=1}^{8} a / (k (k + a)) + (H_{a+8} - H_8).  The difference of
    the two series at a + 8 and 8 is then taken term by term, with log1p
    and expm1, so that no term cancels.  Small a keeps its full relative
    precision: H_a ~ (pi^2 / 6) a.
    """
    if a >= _PSI_FROM:
        t = 1.0 / (a * a)
        series = 0.0
        for c in reversed(_PSI_SERIES):
            series = (series + c) * t
        return math.log(a) + _EULER_GAMMA + 0.5 / a - series
    n = _PSI_FROM
    head = math.fsum(a / (k * (k + a)) for k in range(1, n + 1))
    log_ratio = math.log1p(a / n)  # ln((a + n) / n)
    tail = log_ratio - a / (2.0 * n * (a + n)) - math.fsum(
        c * n ** (-2 * k) * math.expm1(-2 * k * log_ratio)
        for k, c in enumerate(_PSI_SERIES, start=1))
    return head + tail


@dataclass(frozen=True)
class Gompertz(DistributionModel):
    """pdf b e^{-bx} e^{-eta e^{-bx}} [1 + eta (1 - e^{-bx})] on (0, +inf).

    The CDF works out to F(x) = (1 - e^{-bx}) exp(-eta e^{-bx}); sampling
    inverts it in closed form (see quantile).  The mean has no closed form
    and is integrated numerically.
    """

    b: float
    eta: float
    pot_scale_params = ("b",)

    @staticmethod
    def valid(b, eta):
        return _positive(b) & _positive(eta)

    def pdf(self, x):
        if x < 0:
            return 0.0
        u = math.exp(-self.b * x)
        return self.b * u * math.exp(-self.eta * u) * (1.0 + self.eta * (1.0 - u))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        u = np.exp(-self.b * np.clip(x, 0.0, None))
        out = (1.0 - u) * np.exp(-self.eta * u)
        return np.where(x <= 0, 0.0, out)

    @staticmethod
    def quantile(p, b, eta):
        """x with F(x) = p, for p in [0, 1).

        With u = e^{-bx}, F = p solves to eta (1 - u) = omega(z), z =
        ln eta + ln p + eta, omega the Wright omega function (Lambert W of
        eta p e^eta; Corless et al. 1996).  v = 1 - u is taken as
        p e^(eta - omega) for eta <= 1 (exact down to subnormal eta) and as
        omega / eta above.  Where eta > 1 and v > 1/2, 1 - v cancels, so u
        comes from ln omega + omega = z instead: t = eta u = ln v - ln p.
        For u < 1/2, t lies in [eta/(eta + 2), eta/(eta + 1)] * (-ln p);
        clipping to that bracket absorbs the rounding of ln v when p is
        within a few ulps of 1.
        """
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            log_p, log_eta = np.log(p), np.log(eta)
            w = _wright_omega(log_eta + log_p + eta)
            small = eta <= 1.0
            v = np.where(small, p * np.exp(eta - w), np.fmin(w / eta, 1.0))
            t = np.clip(np.log(v) - log_p,
                        -log_p * (eta / (eta + 2.0)), -log_p * (eta / (eta + 1.0)))
            x = np.where(~small & (v > 0.5),
                         log_eta - np.log(t),
                         -np.log1p(-np.minimum(v, 1.0 - 2.0**-53))) / b
            return np.where(p == 0, 0.0, x)

    @staticmethod
    def draw(rng, n, b, eta):
        return Gompertz.quantile(rng.random(n), b, eta)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        """Mean of Gompertz(1, eta), integrated over [0, 40], divided by b (X = Y / b)."""
        from .analytic import quad

        unit = Gompertz(1.0, self.eta)
        return quad(lambda y: y * unit.pdf(y), 0.0, 40.0, 1e-12)[0] / self.b


@dataclass(frozen=True)
class Nakagami(DistributionModel):
    """Shape mu >= 0.5-ish, spread omega; X = sqrt(Gamma(mu, omega/mu))."""

    mu: float
    omega: float

    @staticmethod
    def valid(mu, omega):
        return _positive(mu) & _positive(omega)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        m, w = self.mu, self.omega
        return (
            2.0
            * math.exp(
                m * math.log(m) - math.lgamma(m) - m * math.log(w)
                + (2 * m - 1) * math.log(x)
                - m * x * x / w
            )
        )

    @staticmethod
    def draw(rng, n, mu, omega):
        return np.sqrt(rng.gamma(mu, omega / mu, n))

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        m, w = self.mu, self.omega
        return math.exp(math.lgamma(m + 0.5) - math.lgamma(m)) * math.sqrt(w / m)


@dataclass(frozen=True)
class GuptaKundu(DistributionModel):
    """Generalized exponential of Gupta-Kundu: CDF (1 - e^{-lam x})**alpha."""

    alpha: float
    lam: float
    pot_scale_params = ("lam",)

    @staticmethod
    def valid(alpha, lam):
        return _positive(alpha) & _positive(lam)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        a, lam = self.alpha, self.lam
        u = lam * x
        # in log space: (1 - e^-u)**(alpha - 1) need not be a double, nor
        # 1 - e^-u (nor u itself) nonzero
        log_1me = math.log(-math.expm1(-u)) if u > 0 else math.log(lam) + math.log(x)
        log_pdf = math.log(a) + math.log(lam) - u + (a - 1.0) * log_1me
        return math.exp(log_pdf) if log_pdf < _LN_MAX else math.inf

    @staticmethod
    def draw(rng, n, alpha, lam):
        return -np.log1p(-rng.random(n) ** (1.0 / alpha)) / lam

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return _harmonic(self.alpha) / self.lam


@dataclass(frozen=True)
class Pareto(DistributionModel):
    """pdf (theta/a)(x/a)^{-(theta+1)} on [a, +inf)."""

    a: float
    theta: float
    pot_scale_params = ("a",)

    @staticmethod
    def valid(a, theta):
        return _positive(a) & _positive(theta)

    def pdf(self, x):
        if x < self.a:
            return 0.0
        return (self.theta / self.a) * (x / self.a) ** (-(self.theta + 1.0))

    @staticmethod
    def draw(rng, n, a, theta):
        return a * rng.random(n) ** (-1.0 / theta)

    def support(self):
        return Support(self.a, math.inf)

    def mean(self):
        if self.theta <= 1.0:
            return math.inf
        return self.a * self.theta / (self.theta - 1.0)


@dataclass(frozen=True)
class FisherTippett(DistributionModel):
    """Gumbel with location mu and scale lam."""

    mu: float
    lam: float
    pot_scale_params = ("mu", "lam")

    @staticmethod
    def valid(mu, lam):
        return np.isfinite(mu) & _positive(lam)

    def pdf(self, x):
        z = (x - self.mu) / self.lam
        if z < -709.0:  # exp(-z) overflows; the density underflowed to 0 long before
            return 0.0
        return math.exp(-z - math.exp(-z)) / self.lam

    @staticmethod
    def draw(rng, n, mu, lam):
        return rng.gumbel(mu, lam, n)

    def support(self):
        return Support(-math.inf, math.inf)

    def mean(self):
        return self.mu + 0.5772156649015329 * self.lam


@dataclass(frozen=True)
class Logistic(DistributionModel):
    mu: float
    s: float
    pot_scale_params = ("mu", "s")

    @staticmethod
    def valid(mu, s):
        return np.isfinite(mu) & _positive(s)

    def pdf(self, x):
        e = math.exp(-abs(x - self.mu) / self.s)  # the density is symmetric about mu
        return e / (self.s * (1.0 + e) ** 2)

    @staticmethod
    def draw(rng, n, mu, s):
        return rng.logistic(mu, s, n)

    def support(self):
        return Support(-math.inf, math.inf)

    def mean(self):
        return self.mu


@dataclass(frozen=True)
class CauchyLorentz(DistributionModel):
    x0: float
    gamma: float
    pot_scale_params = ("x0", "gamma")

    @staticmethod
    def valid(x0, gamma):
        return np.isfinite(x0) & _positive(gamma)

    def pdf(self, x):
        z = (x - self.x0) / self.gamma
        return 1.0 / (math.pi * self.gamma * (1.0 + z * z))

    @staticmethod
    def draw(rng, n, x0, gamma):
        return x0 + gamma * rng.standard_cauchy(n)

    def support(self):
        return Support(-math.inf, math.inf)

    def mean(self):
        # Undefined in the strict sense; reported as the infinite marker.
        return math.inf


@dataclass(frozen=True)
class ChiSqr(DistributionModel):
    """Chi-square with integer degrees of freedom (a chained dof is floored)."""

    dof: int

    @staticmethod
    def valid(dof):
        return (np.floor(dof) >= 1) & (dof < math.inf)

    def pdf(self, x):
        if x <= 0:
            return 0.0
        k = self.dof
        return math.exp(
            (0.5 * k - 1.0) * math.log(x) - 0.5 * x
            - 0.5 * k * math.log(2.0) - math.lgamma(0.5 * k)
        )

    @staticmethod
    def draw(rng, n, dof):
        return rng.chisquare(np.floor(dof), n)

    def support(self):
        return Support(0.0, math.inf)

    def mean(self):
        return float(self.dof)


@dataclass(frozen=True)
class Triangular(DistributionModel):
    """Triangular on [a, b] with mode m; sampled by the two-branch inverse CDF

        rd < (m-a)/(b-a):  a + sqrt(rd (m-a)(b-a))
        otherwise:         b - sqrt((1-rd)(b-m)(b-a))
    """

    a: float
    m: float
    b: float
    pot_scale_params = ("a", "m", "b")

    @staticmethod
    def valid(a, m, b):
        return (a <= m) & (m <= b) & (a < b) & np.isfinite(b - a)

    def pdf(self, x):
        a, m, b = self.a, self.m, self.b
        if x < a or x > b:
            return 0.0
        if x < m:
            return 2.0 * (x - a) / ((b - a) * (m - a))
        if x > m:
            return 2.0 * (b - x) / ((b - a) * (b - m))
        return 2.0 / (b - a)

    @staticmethod
    def quantile(rd, a, m, b):
        split = (m - a) / (b - a)
        left = a + np.sqrt(rd * (m - a) * (b - a))
        right = b - np.sqrt((1.0 - rd) * (b - m) * (b - a))
        return np.where(rd < split, left, right)

    @staticmethod
    def draw(rng, n, a, m, b):
        return Triangular.quantile(rng.random(n), a, m, b)

    def support(self):
        return Support(self.a, self.b)

    def mean(self):
        return (self.a + self.m + self.b) / 3.0


@dataclass(frozen=True)
class PowerLaw(DistributionModel):
    """pdf k / x**m on (lo, hi), k the normalizing constant.

    m = 1 over a decade-integral range is the exactly-Benford density.
    """

    m: float
    lo: float
    hi: float
    pot_scale_params = ("lo", "hi")

    @staticmethod
    def valid(m, lo, hi):
        return _positive(m) & (lo > 0) & (lo < hi) & (hi < math.inf)

    @property
    def k(self) -> float:
        if self.m == 1.0:
            return 1.0 / math.log(self.hi / self.lo)
        p = 1.0 - self.m
        return p / (self.hi**p - self.lo**p)

    def pdf(self, x):
        if x < self.lo or x > self.hi:
            return 0.0
        # in log space, relative to the end ref where x**(1 - m) is largest, as
        # analytic.ld_power_law integrates: (ref/x)**m / (ref norm), norm the
        # integral of (x/ref)**-m dx/ref over (lo, hi); k, x**-m need not be doubles
        m, lo, hi = self.m, self.lo, self.hi
        rise = (hi - lo) / lo
        span = math.log1p(rise) if rise < math.inf else math.log(hi) - math.log(lo)  # ln(hi/lo) > 0
        q = abs(1.0 - m)
        norm = -math.expm1(-q * span) / q if q else span
        log_ref = math.log(lo if m > 1.0 else hi)
        log_pdf = -m * (math.log(x) - log_ref) - log_ref - math.log(norm)
        return math.exp(log_pdf) if log_pdf < _LN_MAX else math.inf

    @staticmethod
    def draw(rng, n, m, lo, hi):
        u = rng.random(n)
        # within 1e-12 of m = 1 the power form loses its precision: use the log form
        p = 1.0 - m
        near_one = np.abs(p) < 1e-12
        p = np.where(near_one, 1.0, p)
        power = (lo**p + u * (hi**p - lo**p)) ** (1.0 / p)
        return np.where(near_one, lo * (hi / lo) ** u, power)

    def support(self):
        return Support(self.lo, self.hi)

    def mean(self):
        k = self.k
        if self.m == 2.0:
            return k * math.log(self.hi / self.lo)
        q = 2.0 - self.m
        return k * (self.hi**q - self.lo**q) / q


@dataclass(frozen=True)
class Die(DistributionModel):
    """Discrete uniform on 1..faces (chained faces are floored); pdf() reports the pmf."""

    faces: int

    @staticmethod
    def valid(faces):
        return (np.floor(faces) >= 1) & (faces < math.inf)

    def pdf(self, x):
        if isinstance(x, float) and not x.is_integer():
            return 0.0
        return 1.0 / self.faces if 1 <= int(x) <= self.faces else 0.0

    @staticmethod
    def draw(rng, n, faces):
        return np.floor(rng.random(n) * np.floor(faces)) + 1.0

    def support(self):
        return Support(1.0, float(self.faces))

    def mean(self):
        return (self.faces + 1) / 2.0


FAMILIES: dict[str, type] = {
    "uniform": Uniform,
    "normal": Normal,
    "originnormal": OriginNormal,
    "exponential": Exponential,
    "exp1": Exponential,
    "exp2": Exp2,
    "exp3": Exp3,
    "exp4": Exp4,
    "exp5": Exp5,
    "exp6": Exp6,
    "generalizedexp1": GeneralizedExp1,
    "generalizedexp2": GeneralizedExp2,
    "genexp1": GeneralizedExp1,
    "genexp2": GeneralizedExp2,
    "gamma": Gamma,
    "weibull": Weibull,
    "rayleigh": Rayleigh,
    "wald": Wald,
    "lognormal": LogNormal,
    "gompertz": Gompertz,
    "nakagami": Nakagami,
    "guptakundu": GuptaKundu,
    "pareto": Pareto,
    "fishertippett": FisherTippett,
    "gumbel": FisherTippett,
    "logistic": Logistic,
    "cauchylorentz": CauchyLorentz,
    "cauchy": CauchyLorentz,
    "chisqr": ChiSqr,
    "chisquare": ChiSqr,
    "triangular": Triangular,
    "powerlaw": PowerLaw,
    "die": Die,
}


def family_by_name(name: str) -> type:
    """Look up a family class by a case/punctuation-insensitive name."""
    key = "".join(c for c in name.lower() if c.isalnum())
    try:
        return FAMILIES[key]
    except KeyError:
        raise UnknownFamilyError(f"unknown distribution family {name!r}") from None
