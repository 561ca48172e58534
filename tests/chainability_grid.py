"""The chainability regression grid: one row per parameter-subset verdict.

Each row fixes the experiment setup for one (family, chained-subset) cell:
the chainer placement and the constants for unchained parameters.  The
placements follow the structural logic of the experiments:

- scale-type parameters are chained over a full-decade reciprocal-log
  range starting at 1 (an exactly-Benford source);
- shape-type parameters are chained over ranges where the family is not
  trivially self-Benford and the shape cannot morph into a scale
  (high-shape regimes for Weibull/Nakagami/Pareto/GuptaKundu);
- scale-under-location cells (Normal sigma, Logistic s, Cauchy gamma,
  Fisher-Tippett lambda, generalized-exponential rho, Wald lambda) keep
  the chained values below the fixed location, the regime the verdicts
  describe ('unless done in a way that results in much higher values for
  scale than location');
- the LogNormal rows chain inside sub-unit parameter bands, where the
  family is not already self-Benford; wider bands show partial response,
  which is recorded in the row comments;
- two-parameter BEN rows place each chained parameter on its own range
  (location spanning decades, scale kept below it), mirroring the source
  experiments' use of separate reciprocal-log ranges per parameter.

Verdicts use the thresholds of chains._CHAINABILITY_N, _BEN_THRESHOLD,
_NOT_FACTOR and _BASELINE_N_FACTOR; the expected labels are the published
qualitative calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

RL = "reciprocal_log"


@dataclass(frozen=True)
class GridRow:
    family: str
    chained: tuple[str, ...]
    expected: str  # "BEN" | "not" | "NOT" | "BEN|not" (hedged published label)
    fixed: dict = field(default_factory=dict)
    chainer: tuple = (RL, 0.0, 3)
    baseline: dict = field(default_factory=dict)
    note: str = ""


GRID: list[GridRow] = [
    # ----- families on (0, +inf) -----
    GridRow("weibull", ("lam",), "BEN", fixed={"k": 2.0}),
    GridRow("weibull", ("k",), "NOT", fixed={"lam": 1.0}, chainer=(RL, 1.0, 3),
            note="high-shape regime: Weibull(k,1) pins near 1 for every k"),
    GridRow("weibull", ("k", "lam"), "BEN"),
    GridRow("rayleigh", ("sigma",), "BEN"),
    GridRow("exponential", ("rho",), "BEN"),
    GridRow("exp2", ("rho",), "BEN"),
    GridRow("exp3", ("rho",), "not", chainer=(RL, 0.0, 1), baseline={"rho": 1.0965},
            note="sqrt halves the exponent span: a half-decade scale sweep; "
                 "baseline pinned at the family's worst-conformity phase"),
    GridRow("exp4", ("rho",), "BEN"),
    GridRow("exp5", ("rho",), "BEN"),
    GridRow("exp6", ("rho",), "not", chainer=(RL, 0.4, 1), baseline={"rho": 2.8495},
            note="log-of-parameter scale: dimensionally mismatched sweep; "
                 "baseline pinned at the family's worst-conformity phase"),
    GridRow("gamma", ("theta",), "BEN", fixed={"k": 2.0}),
    GridRow("gamma", ("k",), "not", fixed={"theta": 1.0},
            note="mean theta*k: the center travels with the chained shape"),
    GridRow("gamma", ("k", "theta"), "BEN"),
    GridRow("wald", ("mu",), "BEN", fixed={"lam": 1e5},
            note="mean-tracking regime (lam >> mu): X follows mu, whose mantissa "
                 "the chainer makes uniform; in the opposite Levy regime "
                 "(lam << mu) X collapses to a lam-scaled stable shape that "
                 "ignores mu and no mu-chaining can help"),
    GridRow("wald", ("lam",), "NOT", fixed={"mu": 3.0}, chainer=(RL, 0.0, 1),
            note="lam shapes the spread only; the center never moves"),
    GridRow("wald", ("mu", "lam"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "lam": (RL, -2.0, 1)}),
    GridRow("lognormal", ("shape",), "NOT", fixed={"location": 1.0}, chainer=(RL, -2.0, 1),
            note="sub-self-Benford band; shapes >= 0.7 are Benford without chaining"),
    GridRow("lognormal", ("location",), "NOT", fixed={"shape": 0.05}, chainer=(RL, -2.0, 1),
            note="e^mu moves within one digit across the band"),
    GridRow("lognormal", ("location", "shape"), "NOT", chainer=(RL, -2.0, 1)),
    GridRow("uniform", ("b",), "BEN", fixed={"a": 0.0}),
    GridRow("gompertz", ("b",), "BEN", fixed={"eta": 1.0}),
    GridRow("gompertz", ("eta",), "not", fixed={"b": 1.0},
            note="center ~ ln(eta): slow but real center travel"),
    GridRow("gompertz", ("b", "eta"), "BEN"),
    GridRow("nakagami", ("omega",), "not", fixed={"mu": 1.0},
            note="sqrt(omega) scale: half the exponent span survives"),
    GridRow("nakagami", ("mu",), "NOT", fixed={"omega": 1.0}, chainer=(RL, 1.0, 3),
            note="high-shape regime pins X near sqrt(omega)"),
    GridRow("nakagami", ("mu", "omega"), "not",
            note="omega sweep dominates; mu stays a pinned shape"),
    GridRow("guptakundu", ("lam",), "BEN", fixed={"alpha": 2.0}),
    GridRow("guptakundu", ("alpha",), "NOT", fixed={"lam": 1.0}, chainer=(RL, 3.0, 1),
            note="center ~ ln(alpha) compresses the whole band into a sliver"),
    GridRow("guptakundu", ("alpha", "lam"), "BEN"),
    # ----- families on (-inf, +inf) and (mu, +inf) -----
    GridRow("normal", ("sigma",), "NOT", fixed={"mu": 500.0}, chainer=(RL, 0.0, 1),
            note="scale under location: sigma stays well below mu"),
    GridRow("normal", ("mu",), "not", fixed={"sigma": 2.0}),
    GridRow("normal", ("mu", "sigma"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "sigma": (RL, -2.0, 1)}),
    GridRow("originnormal", ("sigma",), "BEN"),
    GridRow("fishertippett", ("lam",), "NOT", fixed={"mu": 500.0}, chainer=(RL, 0.0, 1)),
    GridRow("fishertippett", ("mu",), "not", fixed={"lam": 2.0}),
    GridRow("fishertippett", ("mu", "lam"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "lam": (RL, -2.0, 1)}),
    GridRow("logistic", ("s",), "NOT", fixed={"mu": 500.0}, chainer=(RL, 0.0, 1)),
    GridRow("logistic", ("mu",), "not", fixed={"s": 2.0}),
    GridRow("logistic", ("mu", "s"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "s": (RL, -2.0, 1)}),
    GridRow("cauchylorentz", ("gamma",), "NOT", fixed={"x0": 500.0}, chainer=(RL, 0.0, 1)),
    GridRow("cauchylorentz", ("x0",), "BEN|not", fixed={"gamma": 1.0},
            note="published label is hedged ('BEN - almost')"),
    GridRow("cauchylorentz", ("x0", "gamma"), "BEN",
            chainer={"x0": (RL, 1.0, 3), "gamma": (RL, -2.0, 1)}),
    GridRow("pareto", ("a",), "BEN", fixed={"theta": 3.0}),
    GridRow("pareto", ("theta",), "NOT", fixed={"a": 1.0}, chainer=(RL, 1.0, 3),
            note="high tail indexes pin X to its lower bound"),
    GridRow("pareto", ("a", "theta"), "BEN"),
    GridRow("generalizedexp1", ("rho",), "NOT", fixed={"mu": 500.0}, chainer=(RL, 0.0, 1),
            note="rate under location: the tail never reaches past the digit of mu"),
    GridRow("generalizedexp1", ("mu",), "not", fixed={"rho": 1.0}),
    GridRow("generalizedexp1", ("rho", "mu"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "rho": (RL, 1.0, 1)}),
    GridRow("generalizedexp2", ("rho",), "NOT", fixed={"mu": 500.0}, chainer=(RL, 0.0, 1)),
    GridRow("generalizedexp2", ("mu",), "not", fixed={"rho": 1.0}),
    GridRow("generalizedexp2", ("rho", "mu"), "BEN",
            chainer={"mu": (RL, 0.0, 3), "rho": (RL, -2.0, 1)}),
]
