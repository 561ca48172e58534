"""Tests for the parametric distribution families.

Oracles: adaptive quadrature of each pdf over its support must give 1;
empirical means of large samples must sit within 5 standard errors of the
family's mean, taken from scipy.stats, a closed form, the digamma function
or quadrature in the test; samples must stay inside the support.
"""

import decimal
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from scipy import integrate, special, stats

from digitlab import chains
from digitlab import distributions as dm
from digitlab.errors import BadParamsError, TooLargeError

# One representative parameterization per family.  Infinite supports are
# truncated at 40 scale-lengths for the normalization quadrature.
MODELS = [
    dm.Uniform(0.0, 7.0),
    dm.Normal(3.0, 2.0),
    dm.OriginNormal(1.5),
    dm.Exponential(2.0),
    dm.Exp2(10.0),
    dm.Exp3(4.0),
    dm.Exp4(1.3),
    dm.Exp5(1.2),
    dm.Exp6(5.0),
    dm.GeneralizedExp1(2.0, 1.0),
    dm.GeneralizedExp2(2.0, 1.0),
    dm.Gamma(3.0, 2.0),
    dm.Weibull(1.5, 2.0),
    dm.Rayleigh(2.0),
    dm.Wald(5.0, 2.0),
    dm.LogNormal(1.0, 0.8),
    dm.Gompertz(1.0, 2.0),
    dm.Nakagami(2.0, 3.0),
    dm.GuptaKundu(2.5, 1.5),
    dm.Pareto(2.0, 3.0),
    dm.FisherTippett(1.0, 2.0),
    dm.Logistic(1.0, 2.0),
    dm.CauchyLorentz(0.0, 1.0),
    dm.ChiSqr(4),
    dm.Triangular(0.0, 1.0, 2.0),
    dm.PowerLaw(1.0, 1.0, 1000.0),
    dm.Die(6),
]

_SCALE_LENGTH = {
    # rough per-model scale used to truncate infinite supports
    dm.Normal: lambda m: m.sigma,
    dm.OriginNormal: lambda m: m.sigma,
    dm.Exponential: lambda m: 1.0 / m.rho,
    dm.Exp2: lambda m: m.rho,
    dm.Exp3: lambda m: math.sqrt(m.rho),
    dm.Exp4: lambda m: m.rho**7.5,
    dm.Exp5: lambda m: m.rho**8,
    dm.Exp6: lambda m: math.log(m.rho),
    dm.GeneralizedExp1: lambda m: 1.0 / m.rho,
    dm.GeneralizedExp2: lambda m: m.rho,
    dm.Gamma: lambda m: m.k * m.theta,
    dm.Weibull: lambda m: m.lam,
    dm.Rayleigh: lambda m: m.sigma,
    dm.Wald: lambda m: max(m.mu, 2.0 * m.mu**2 / m.lam),
    dm.LogNormal: lambda m: math.exp(m.location + 2 * m.shape),
    dm.Gompertz: lambda m: 1.0 / m.b,
    dm.Nakagami: lambda m: math.sqrt(m.omega),
    dm.GuptaKundu: lambda m: 1.0 / m.lam,
    dm.Pareto: lambda m: m.a * 10.0 ** (7.0 / m.theta) / 40.0,
    dm.FisherTippett: lambda m: m.lam,
    dm.Logistic: lambda m: m.s,
    dm.ChiSqr: lambda m: float(m.dof),
}


def _quad_bounds(model):
    sup = model.support()
    scale = _SCALE_LENGTH.get(type(model), lambda m: 1.0)(model)
    lo = sup.lo if math.isfinite(sup.lo) else -40.0 * scale
    hi = sup.hi if math.isfinite(sup.hi) else max(40.0 * scale, lo + 40.0 * scale)
    return lo, hi


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_pdf_normalizes(model):
    if type(model) is dm.Die:
        total = sum(model.pdf(float(k)) for k in range(1, model.faces + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
        return
    if type(model) is dm.CauchyLorentz:
        # slowly decaying tails: check the captured mass against the
        # analytic arctan value instead of full normalization
        total, _ = integrate.quad(model.pdf, -40.0, 40.0, limit=400, epsabs=1e-10)
        expected = 2.0 * math.atan(40.0 / model.gamma) / math.pi
        assert total == pytest.approx(expected, abs=1e-6)
        return
    lo, hi = _quad_bounds(model)
    total, _ = integrate.quad(model.pdf, lo, hi, limit=400, epsabs=1e-10)
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_samples_in_support(model):
    rng = np.random.default_rng(7)
    x = model.sample_n(10_000, rng)
    sup = model.support()
    assert np.all(x >= sup.lo) and np.all(x <= sup.hi)


def _power_law_mean(m):
    """Mean of k / x**m on (lo, hi): the ratio of the integrals of x**(1-m) and x**-m."""
    def integral(p):  # of x**(p - 1) over (lo, hi)
        return math.log(m.hi / m.lo) if p == 0 else (m.hi**p - m.lo**p) / p
    return integral(2.0 - m.m) / integral(1.0 - m.m)


# The expected mean of each family, computed without the package.
_MEAN = {
    dm.Uniform: lambda m: stats.uniform(m.a, m.b - m.a).mean(),
    dm.Normal: lambda m: stats.norm(m.mu, m.sigma).mean(),
    dm.OriginNormal: lambda m: stats.norm(0.0, m.sigma).mean(),
    dm.Exponential: lambda m: stats.expon(scale=1.0 / m.rho).mean(),
    dm.Exp2: lambda m: stats.expon(scale=m.rho).mean(),
    dm.Exp3: lambda m: stats.expon(scale=math.sqrt(m.rho)).mean(),
    dm.Exp4: lambda m: stats.expon(scale=m.rho**7.5).mean(),
    dm.Exp5: lambda m: stats.expon(scale=m.rho**8).mean(),
    dm.Exp6: lambda m: stats.expon(scale=math.log(m.rho)).mean(),
    dm.GeneralizedExp1: lambda m: stats.expon(m.mu, 1.0 / m.rho).mean(),
    dm.GeneralizedExp2: lambda m: stats.expon(m.mu, m.rho).mean(),
    dm.Gamma: lambda m: stats.gamma(m.k, scale=m.theta).mean(),
    dm.Weibull: lambda m: stats.weibull_min(m.k, scale=m.lam).mean(),
    dm.Rayleigh: lambda m: stats.rayleigh(scale=m.sigma).mean(),
    dm.Wald: lambda m: stats.invgauss(m.mu / m.lam, scale=m.lam).mean(),
    dm.LogNormal: lambda m: stats.lognorm(m.shape, scale=math.exp(m.location)).mean(),
    dm.Gompertz: lambda m: integrate.quad(lambda x: x * m.pdf(x), 0.0, 60.0 / m.b, limit=300)[0],
    dm.Nakagami: lambda m: stats.nakagami(m.mu, scale=math.sqrt(m.omega)).mean(),
    # E X = (psi(alpha + 1) - psi(1)) / lam for the CDF (1 - e^{-lam x})**alpha
    dm.GuptaKundu: lambda m: (special.digamma(m.alpha + 1.0) - special.digamma(1.0)) / m.lam,
    dm.Pareto: lambda m: stats.pareto(m.theta, scale=m.a).mean(),
    dm.FisherTippett: lambda m: stats.gumbel_r(m.mu, m.lam).mean(),
    dm.Logistic: lambda m: stats.logistic(m.mu, m.s).mean(),
    dm.CauchyLorentz: lambda m: stats.cauchy(m.x0, m.gamma).mean(),  # nan: it has none
    dm.ChiSqr: lambda m: stats.chi2(m.dof).mean(),
    dm.Triangular: lambda m: stats.triang((m.m - m.a) / (m.b - m.a), m.a, m.b - m.a).mean(),
    dm.PowerLaw: _power_law_mean,
    dm.Die: lambda m: stats.randint(1, m.faces + 1).mean(),
}


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
def test_empirical_mean_within_5_se(model):
    expected = _MEAN[type(model)](model)
    if type(model) is dm.CauchyLorentz:
        assert math.isnan(expected)
        pytest.skip("no mean; no LLN check")
    rng = np.random.default_rng(11)
    x = model.sample_n(1_000_000, rng)
    se = x.std() / math.sqrt(x.size)
    assert abs(x.mean() - expected) < 5.0 * max(se, 1e-12)


class TestSpotValues:
    def test_exponential_pdf_at_zero(self):
        assert dm.Exponential(2.0).pdf(0.0) == pytest.approx(2.0)

    def test_power_law_normalization_constant(self):
        k = dm.PowerLaw(1.0, 1.0, 1000.0).k
        assert k == pytest.approx(1.0 / (3.0 * math.log(10)), abs=1e-10)
        assert k == pytest.approx(0.14476, abs=1e-5)

    def test_uniform_pdf(self):
        assert dm.Uniform(0.0, 5.0).pdf(2.0) == pytest.approx(0.2)
        assert dm.Uniform(0.0, 5.0).pdf(9.0) == 0.0

    def test_supports(self):
        # a Support is equal where its (lo, hi) are
        assert dm.Normal(0, 1).support() == dm.Support(-math.inf, math.inf)
        assert dm.Pareto(2.0, 3.0).support() == dm.Support(2.0, math.inf)
        assert dm.PowerLaw(1.0, 1.0, 1000.0).support() == dm.Support(1.0, 1000.0)


class TestExponentialVariants:
    @pytest.mark.parametrize("cls,rho", [(dm.Exp4, 1e50), (dm.Exp5, 1e50), (dm.Exp5, 1e39),
                                         (dm.Exponential, 5e-324)])
    def test_scale_beyond_double_range_invalid(self, cls, rho):
        with pytest.raises(BadParamsError):
            cls(rho)
        assert cls.valid(np.array([2.0, rho])).tolist() == [True, False]

    def test_largest_valid_scale_finite(self):
        model = dm.Exp4(1e40)  # valid: its scale, 1e300, is a double
        assert model._scale(model.rho) == pytest.approx(1e300)
        assert math.isfinite(dm.Exp5(1e38).pdf(1.0))

    def test_variant2_lln(self):
        rng = np.random.default_rng(3)
        x = dm.Exp2(10.0).sample_n(100_000, rng)
        assert x.mean() == pytest.approx(10.0, abs=0.3)


class TestTriangular:
    def test_apex_from_both_branches(self):
        t = dm.Triangular(0.0, 1.0, 2.0)
        assert t.quantile(0.5, *t.params) == pytest.approx(1.0)
        assert t.quantile(0.5 - 1e-12, *t.params) == pytest.approx(1.0, abs=1e-5)

    def test_cdf_at_apex(self):
        t = dm.Triangular(1.0, 4.0, 5.0)
        rng = np.random.default_rng(23)
        x = t.sample_n(100_000, rng)
        frac = np.mean(x <= 4.0)
        assert abs(frac - (4.0 - 1.0) / (5.0 - 1.0)) < 3.0 / math.sqrt(x.size)

    def test_asymmetric_branch_formula(self):
        t = dm.Triangular(2.0, 3.0, 7.0)
        # rd below the split lands on the rising branch
        assert t.quantile(0.1, *t.params) == pytest.approx(
            2.0 + math.sqrt(0.1 * (3.0 - 2.0) * (7.0 - 2.0))
        )
        assert t.quantile(0.9, *t.params) == pytest.approx(
            7.0 - math.sqrt((1.0 - 0.9) * (7.0 - 3.0) * (7.0 - 2.0))
        )


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            dm.Uniform(3.0, 3.0)
        with pytest.raises(BadParamsError):
            dm.Normal(0.0, -1.0)
        with pytest.raises(BadParamsError):
            dm.Triangular(0.0, 5.0, 2.0)
        with pytest.raises(BadParamsError):
            dm.PowerLaw(1.0, -1.0, 10.0)
        with pytest.raises(BadParamsError):
            dm.ChiSqr(2.5)  # type: ignore[arg-type]
        with pytest.raises(BadParamsError):
            dm.Exp6(0.5)

    def test_family_lookup(self):
        assert dm.family_by_name("WEIBULL") is dm.Weibull
        assert dm.family_by_name("chi-sqr") is dm.ChiSqr
        assert dm.family_by_name("Cauchy") is dm.CauchyLorentz
        with pytest.raises(BadParamsError, match="unknown distribution family 'frobnitz'"):
            dm.family_by_name("frobnitz")


class TestGompertzSampler:
    def test_matches_cdf(self):
        g = dm.Gompertz(1.5, 2.0)
        rng = np.random.default_rng(31)
        x = g.sample_n(50_000, rng)
        for q in (0.5, 2.0):
            u = math.exp(-g.b * q)
            cdf = (1.0 - u) * math.exp(-g.eta * u)
            assert abs(np.mean(x <= q) - cdf) < 4.0 / math.sqrt(x.size)

    def test_quantile_inverts_cdf_over_the_double_range(self):
        # every (b, eta, p) combination, from subnormal eta to eta near the
        # largest double, p from 0 to the largest double below 1
        b, eta, p = np.meshgrid(
            [1e-300, 1e-3, 1.0, 1e300],
            [5e-324, 1e-310, 2.2e-308, 1e-300, 1e-10, 0.5, 0.9999, 1.0, 1.0 + 1e-9, 1.0001,
             2.0, 10.0, 1e6, 1e12, 1e100, 1e300, 1.7e308, 1.79e308],
            [0.0, 5e-324, 1e-300, 1e-10, 0.1, 0.5, 0.9, 1.0 - 1e-10,
             1.0 - 4 * 2.0**-53, 1.0 - 2 * 2.0**-53, 1.0 - 2.0**-53],
            indexing="ij")
        x = dm.Gompertz.quantile(p, b, eta)
        assert np.all(np.isfinite(x)) and np.all(x >= 0)
        with np.errstate(divide="ignore"):
            u = np.exp(-b * x)
            cdf = np.exp(np.log1p(-u) - eta * u)
        assert np.max(np.abs(cdf - p)) <= 1e-10


# One parameterization per family, plus the power law away from m = 1,
# where the power form (not the log form) draws.
AGREEMENT_MODELS = MODELS + [dm.PowerLaw(2.0, 1.0, 1000.0)]


def test_agreement_models_cover_every_family():
    assert {type(m) for m in AGREEMENT_MODELS} == set(dm.FAMILIES.values())


@pytest.mark.parametrize("fam", sorted(set(dm.FAMILIES.values()), key=lambda fam: fam.__name__),
                         ids=lambda fam: fam.__name__)
def test_record_behaviour(fam):
    # a model is an immutable record of its parameters, named once in fam.names
    model = next(m for m in MODELS if type(m) is fam)
    keyword = fam(**dict(zip(fam.names, model.params)))
    assert keyword == model and keyword is not model and model != model.params
    assert hash(keyword) == hash(model) == hash(model.params)
    fields = ", ".join(f"{k}={v!r}" for k, v in zip(fam.names, model.params))
    assert repr(model) == f"{fam.__name__}({fields})"
    with pytest.raises(FrozenInstanceError):
        setattr(model, fam.names[0], model.params[0])
    with pytest.raises(FrozenInstanceError):
        delattr(model, fam.names[0])
    n = len(fam.names)
    with pytest.raises(BadParamsError, match=f"{fam.__name__} takes {n} parameter\\(s\\), got {n + 1}"):
        fam(*model.params, 1.0)
    with pytest.raises(BadParamsError, match=f"takes {n} parameter\\(s\\), got {n - 1}"):
        fam(*model.params[1:])
    with pytest.raises(BadParamsError, match="takes parameters"):
        fam(*model.params[1:], nosuchparameter=1.0)
    assert not hasattr(fam, "__dataclass_fields__")


def test_record_repr_and_integer_parameters():
    assert repr(dm.Uniform(0, 1)) == "Uniform(a=0, b=1)" and dm.Uniform(0, 1) == dm.Uniform(a=0, b=1)
    assert repr(dm.Exp6(5.0)) == "Exp6(rho=5.0)" and repr(dm.ChiSqr(4)) == "ChiSqr(dof=4)"
    for bad in (lambda: dm.ChiSqr(2.0), lambda: dm.Die(True), lambda: dm.Die(np.bool_(True))):
        with pytest.raises(BadParamsError, match="must be an integer"):
            bad()
    # a numpy integer is kept as the int it equals
    from_numpy = dm.ChiSqr(np.int64(4))
    assert from_numpy == dm.ChiSqr(4) and hash(from_numpy) == hash(dm.ChiSqr(4))
    assert repr(from_numpy) == "ChiSqr(dof=4)" and type(from_numpy.dof) is int


@pytest.mark.parametrize("model", AGREEMENT_MODELS, ids=repr)
def test_sample_n_draws_what_a_chain_draws(model):
    # the scalar model and a chain with the same constants share one sampler
    x = model.sample_n(4000, np.random.default_rng(5))
    node = chains.FamilyNode(type(model), tuple(float(v) for v in model.params))
    res = chains.simulate_chain(node, 4000, seed=5, keep_samples=True)
    assert res.n_resampled == 0
    assert np.array_equal(res.samples, x[x != 0])


def test_sample_n_count_capped():
    rng = np.random.default_rng(1)
    with pytest.raises(BadParamsError):
        dm.Normal(0.0, 1.0).sample_n(0, rng)
    with pytest.raises(TooLargeError):
        dm.Normal(0.0, 1.0).sample_n(dm._MAX_DRAWS + 1, rng)


class TestPowerOfTenScaling:
    def test_scale_forms(self):
        assert dm.Exponential(0.3).scaled_by_power_of_ten(1) == dm.Exponential(3.0)
        assert dm.Normal(5.0, 2.0).scaled_by_power_of_ten(1) == dm.Normal(50.0, 20.0)
        # shapes are never scaled by default
        assert dm.Weibull(2.0, 5.0).scaled_by_power_of_ten(1) == dm.Weibull(2.0, 50.0)

    def test_subset(self):
        m = dm.GeneralizedExp2(1.0, 3.0).scaled_by_power_of_ten(1, subset=["rho"])
        assert m == dm.GeneralizedExp2(10.0, 3.0)

    def test_subset_naming_no_parameter_refused(self):
        with pytest.raises(BadParamsError, match="sigmaa"):
            chains.power_of_ten_invariance_check(dm.Normal(1.0, 2.0), 3, subset=["sigmaa"])

    def test_integer_fields_stay_integers(self):
        assert dm.ChiSqr(4).scaled_by_power_of_ten(1, subset=["dof"]) == dm.ChiSqr(40)
        assert dm.Die(6).scaled_by_power_of_ten(2, subset=["faces"]) == dm.Die(600)
        with pytest.raises(BadParamsError):  # 0.4 faces
            dm.Die(4).scaled_by_power_of_ten(-1, subset=["faces"])

    @pytest.mark.parametrize("m", [309, 400, -324])
    def test_exponent_outside_the_doubles_refused(self, m):
        with pytest.raises(BadParamsError, match="10\\*\\*m"):
            dm.Normal(0.0, 1.0).scaled_by_power_of_ten(m)

    def test_largest_exponent(self):
        assert dm.Normal(0.0, 1.0).scaled_by_power_of_ten(308) == dm.Normal(0.0, 1e308)
        with pytest.raises(BadParamsError, match="not a double"):
            dm.Die(6).scaled_by_power_of_ten(308, subset=["faces"])

    def test_no_form(self):
        with pytest.raises(BadParamsError, match="Die has no power-of-ten parameter form"):
            dm.Die(6).scaled_by_power_of_ten(1)


class TestGammaPdf:
    @pytest.mark.parametrize("k,theta,xs", [
        (200.0, 1.0, (150.0, 200.0, 260.0)),  # x**(k - 1) alone overflows
        (2.0, 1e-300, (1e-300, 3e-300)),  # theta**k underflows
        (2.0, 1e300, (1e300, 5e300)),  # theta**k overflows
        (0.5, 1.0, (1e-200, 1.0, 30.0)),
    ])
    def test_matches_scipy_where_the_powers_leave_the_doubles(self, k, theta, xs):
        for x in xs:
            assert dm.Gamma(k, theta).pdf(x) == pytest.approx(
                stats.gamma.pdf(x, k, scale=theta), rel=1e-12)

    def test_density_past_the_doubles_is_inf(self):
        assert dm.Gamma(0.01, 1.0).pdf(5e-324) == math.inf

    def test_shape_past_lgamma_refused(self):
        with pytest.raises(BadParamsError, match="Gamma"):
            dm.Gamma(1.7e308, 1.0).pdf(1.0)


class TestWeibullRayleighPdf:
    @pytest.mark.parametrize("k,lam,xs", [
        (200.0, 1.0, (0.98, 1.0, 1.01, 10.0)),
        (2.0, 1e300, (1e300, 3e300)),
        (2.0, 1e-300, (1e-300, 2e-300)),
        (0.5, 1.0, (1e-200, 1.0, 30.0)),
    ])
    def test_weibull_matches_scipy(self, k, lam, xs):
        for x in xs:
            assert dm.Weibull(k, lam).pdf(x) == pytest.approx(
                stats.weibull_min.pdf(x, k, scale=lam), rel=1e-12)

    @pytest.mark.parametrize("sigma,xs", [
        (1e300, (1e300, 3e300)),  # sigma**2 overflowed
        (1e-300, (1e-300, 3e-300)),  # sigma**2 underflowed to 0
        (1.0, (1e-200, 1.0, 40.0)),
    ])
    def test_rayleigh_matches_scipy(self, sigma, xs):
        for x in xs:
            assert dm.Rayleigh(sigma).pdf(x) == pytest.approx(
                stats.rayleigh.pdf(x, scale=sigma), rel=1e-12)

    def test_weibull_tail_past_the_doubles_is_zero(self):
        assert dm.Weibull(200.0, 1.0).pdf(1e10) == 0.0


class TestGuptaKunduPowerLawPdf:
    # both in log space: (1 - e^-lam x)**(alpha - 1) raised ZeroDivisionError
    # once lam x fell below 1e-16, and k's lo**(1 - m) overflowed near 0
    @pytest.mark.parametrize("alpha,lam,xs", [
        (2.5, 1.5, (1e-3, 0.5, 3.0, 30.0)),
        (0.5, 1.0, (1e-20, 1e-3, 1.0)),
        (1e-300, 100.0, (1e-300, 1e-20, 1.0)),
    ])
    def test_gupta_kundu_matches_scipy(self, alpha, lam, xs):
        for x in xs:
            assert dm.GuptaKundu(alpha, lam).pdf(x) == pytest.approx(
                stats.exponweib.pdf(x, alpha, 1.0, scale=1.0 / lam), rel=1e-12)

    @pytest.mark.parametrize("m,lo,hi,xs", [
        (2.0, 1.0, 1000.0, (1.0, 37.0, 1000.0)),
        (0.5, 1e-300, 1e300, (1e-300, 1.0, 1e300)),
        (1.0, 5e-324, 1e308, (5e-324, 1.0, 1e308)),
        (2.0, 5e-324, 100.0, (1.0, 100.0)),
        (1.0 + 1e-13, 1.0, 1000.0, (1.0, 999.0)),  # k lost 6 digits here
    ])
    def test_power_law_matches_the_normalized_density(self, m, lo, hi, xs):
        # the exact k / x**m of the doubles, in 40-digit decimals
        with decimal.localcontext(decimal.Context(prec=40, Emin=-10**6, Emax=10**6)):
            m_, lo_, hi_ = decimal.Decimal(m), decimal.Decimal(lo), decimal.Decimal(hi)
            k = 1 / (hi_ / lo_).ln() if m == 1.0 else (1 - m_) / (hi_ ** (1 - m_) - lo_ ** (1 - m_))
            for x in xs:
                want = float(k * decimal.Decimal(x) ** -m_)
                assert dm.PowerLaw(m, lo, hi).pdf(x) == pytest.approx(want, rel=1e-12)

    def test_density_past_the_doubles_is_inf(self):
        assert dm.PowerLaw(2.0, 5e-324, 100.0).pdf(5e-324) == math.inf
        assert dm.GuptaKundu(1e-300, 1.0).pdf(5e-324) > 0


class TestLogisticGumbelPdf:
    @pytest.mark.parametrize("x", [-1e308, -800.0, -30.0, 0.0, 1.0, 30.0, 800.0, 1e308])
    def test_match_scipy_over_the_doubles(self, x):
        # exp(-z) overflowed left of z = -709 in both forms
        assert dm.Logistic(1.0, 2.0).pdf(x) == pytest.approx(
            stats.logistic.pdf(x, 1.0, 2.0), rel=1e-12, abs=1e-300)
        assert dm.FisherTippett(1.0, 2.0).pdf(x) == pytest.approx(
            stats.gumbel_r.pdf(x, 1.0, 2.0), rel=1e-12, abs=1e-300)
