"""Chains of distributions: parsing, vectorized simulation, sequential
chi-square traces, chainability experiments, the power-of-ten invariance
checker, and the named presets.

A chain is a tree whose internal nodes are distribution families and whose
leaves are constants; drawing one number resolves parameters leaf-to-root
by sampling child nodes, then samples the root family once.  Evaluation is
vectorized: every node produces an n-vector, and a family node calls its
family's own ``valid`` and ``draw`` (distributions.py) with per-element
parameters.  Invalid parameter combinations surface as NaN and are retried
per the resample policy.

Mixture nodes (equal-weight choice per draw) and formula nodes (opaque
vectorized samplers) exist for presets only; the text grammar stays
minimal:

    expr := NAME '(' arg {',' arg} ')' ;  arg := NUMBER | expr
"""

from __future__ import annotations

import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .conformity import chi_sqr, first_digit_counts
from .digits import DigitDistribution
from .distributions import (
    ChiSqr,
    Die,
    DistributionModel,
    Exponential,
    LogNormal,
    Normal,
    PowerLaw,
    Rayleigh,
    Uniform,
    family_by_name,
)
from .errors import (
    ArityMismatchError,
    BadParamsError,
    ChainSyntaxError,
    EmptyInputError,
    PolicyExhaustedError,
    TooLargeError,
    UnknownPresetError,
)

__all__ = [
    "FamilyNode",
    "MixtureNode",
    "FormulaNode",
    "ResamplePolicy",
    "ChainRunResult",
    "parse_chain",
    "render_chain",
    "chain_depth",
    "simulate_chain",
    "sequential_chisqr",
    "ChainabilityConfig",
    "ChainabilityResult",
    "chainability_experiment",
    "power_of_ten_invariance_check",
    "preset",
]

# ---------------------------------------------------------------------------
# chain spec trees


@dataclass(frozen=True)
class FamilyNode:
    """A distribution family applied to an ordered argument tuple."""

    family: type
    args: tuple

    def __post_init__(self):
        arity = len(fields(self.family))
        if len(self.args) != arity:
            raise ArityMismatchError(
                f"{self.family.__name__} takes {arity} argument(s), got {len(self.args)}"
            )


@dataclass(frozen=True)
class MixtureNode:
    """Equal-weight choice among components, decided per draw (presets only)."""

    components: tuple


@dataclass(frozen=True)
class FormulaNode:
    """Opaque vectorized sampler fn(rng, n) -> array (presets only)."""

    name: str
    fn: Callable = field(compare=False)


# nesting levels a chain may have: the paper's chains reach the law in 5 or 6
# links, and every tree walk here recurses once per level
_MAX_DEPTH = 100


def chain_depth(node) -> int:
    """Family nodes on the longest root-to-leaf path (a '4-sequence chain')."""
    if isinstance(node, FamilyNode):
        return 1 + max((chain_depth(a) for a in node.args), default=0)
    if isinstance(node, MixtureNode):
        return max(chain_depth(c) for c in node.components)
    return 0


def render_chain(node) -> str:
    if isinstance(node, FamilyNode):
        inner = ", ".join(render_chain(a) for a in node.args)
        return f"{node.family.__name__}({inner})"
    if isinstance(node, MixtureNode):
        inner = " | ".join(render_chain(c) for c in node.components)
        return f"Mixture[{inner}]"
    if isinstance(node, FormulaNode):
        return f"<{node.name}>"
    text = f"{node:g}"  # short where it reads back as the same number, else repr's exact digits
    return text if float(text) == node else repr(node)


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<punct>[(),]))"
)


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ChainSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


def parse_chain(text: str) -> FamilyNode:
    """Parse chain-spec text into a FamilyNode tree (arity-checked, at most _MAX_DEPTH levels)."""
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else (None, None, len(text))

    def advance():
        nonlocal idx
        tok = peek()
        idx += 1
        return tok

    def expect(kind, value=None):
        k, v, p = advance()
        if k != kind or (value is not None and v != value):
            what = value or kind or "end of input"
            raise ChainSyntaxError(f"expected {what!r}, found {v!r}", p)
        return v

    def parse_expr(level: int) -> FamilyNode:
        k, v, p = advance()
        if k != "name":
            raise ChainSyntaxError(f"expected a family name, found {v!r}", p)
        if level > _MAX_DEPTH:
            raise ChainSyntaxError(f"nested deeper than {_MAX_DEPTH} levels", p)
        family = family_by_name(v)
        expect("punct", "(")
        args = [parse_arg(level)]
        while True:
            k2, v2, p2 = peek()
            if k2 == "punct" and v2 == ",":
                advance()
                args.append(parse_arg(level))
            else:
                break
        expect("punct", ")")
        try:
            return FamilyNode(family=family, args=tuple(args))
        except ArityMismatchError as exc:
            raise ArityMismatchError(f"{exc} (at position {p})") from None

    def parse_arg(level: int):
        k, v, p = peek()
        if k == "number":
            advance()
            return float(v)
        if k == "name":
            return parse_expr(level + 1)
        raise ChainSyntaxError(f"expected a number or expression, found {v!r}", p)

    node = parse_expr(1)
    k, v, p = peek()
    if k is not None:
        raise ChainSyntaxError(f"trailing input {v!r}", p)
    return node


# ---------------------------------------------------------------------------
# simulation

# rows in one buffer of a worker's stream.  With invalid rows carried into the next
# buffer, the 2e6-draw Normal chain on 2 threads peaked at 40.0 / 42.3 / 46.1 / 54.0 MB
# at 2^14 / 2^15 / 2^16 / 2^17 rows (wait4, 9 alternating runs), and its in-process
# time was 248 / 196 / 170 ms at 2^14 / 2^15 / 2^16 (21 interleaved runs), against
# 199 ms when each 2^16-row chunk resampled in rounds.  2^15 is the smallest size at
# which a seeded run of 2 x 10^4 draws on one worker still draws in one buffer
_CHUNK = 2**15
_MAX_WORKERS = 64
_MAX_ATTEMPTS = 10**4  # resamples of one row
# row evaluations a run may make, n x max_attempts: the default policy at n = 10^7,
# about half a minute of resampling when every draw is invalid
_MAX_ROW_EVALS = 10**9


@dataclass(frozen=True)
class ResamplePolicy:
    """What to do with draws whose chained parameters come out invalid."""

    max_attempts: int = 100
    on_exhaustion: str = "skip"  # "skip" or "error"

    def __post_init__(self):
        if not 1 <= self.max_attempts <= _MAX_ATTEMPTS:
            raise BadParamsError(f"max_attempts must be in 1..{_MAX_ATTEMPTS}, got {self.max_attempts}")
        if self.on_exhaustion not in ("skip", "error"):
            raise BadParamsError("on_exhaustion must be 'skip' or 'error'")


@dataclass(frozen=True)
class ChainRunResult:
    spec_text: str
    seed: object
    n_requested: int
    n_accepted: int
    n_resampled: int
    skipped_zeros: int
    policy_dropped: int
    ld_counts: tuple
    ld: DigitDistribution
    chi_sqr: float
    valid: bool
    samples: np.ndarray | None = None

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "spec_text": self.spec_text,
            "seed": self.seed,
            "n": self.n_requested,
            "n_accepted": self.n_accepted,
            "n_resampled": self.n_resampled,
            "skips": self.skipped_zeros + self.policy_dropped,
            "skipped_zeros": self.skipped_zeros,
            "policy_dropped": self.policy_dropped,
            "ld_counts": {str(d): int(self.ld_counts[d - 1]) for d in range(1, 10)},
            "ld_probs": {str(d): self.ld.probs.get(d, 0.0) for d in range(1, 10)},
            "chi_sqr": None if math.isnan(self.chi_sqr) else self.chi_sqr,
            "valid": self.valid,
        }


def _eval_node(node, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(node, (int, float)):
        return np.broadcast_to(np.float64(node), (n,))  # read-only, no copy per row
    if isinstance(node, FormulaNode):
        return np.asarray(node.fn(rng, n), dtype=np.float64)
    if isinstance(node, MixtureNode):
        comps = node.components
        idx = rng.integers(0, len(comps), size=n)
        out = np.empty(n)
        for i, comp in enumerate(comps):
            mask = idx == i
            m = int(mask.sum())
            if m:
                out[mask] = _eval_node(comp, m, rng)
        return out
    if isinstance(node, FamilyNode):
        fam = node.family
        args = [_eval_node(a, n, rng) for a in node.args]
        # NaN marks an invalid draw (NaN child draws fail every rule); the
        # sampler still runs on every row, with 1.0 in place of each invalid
        # parameter, so the generator stream does not depend on validity
        with np.errstate(all="ignore"):
            ok = fam.valid(*args)
            if ok.all():
                return fam.draw(rng, n, *args)
            bad = ~ok
            # a child's draw is its own fresh array, masked in place; a
            # constant is a read-only view and gets a masked copy
            for i, a in enumerate(args):
                if a.flags.writeable:
                    np.copyto(a, 1.0, where=bad)
                else:
                    args[i] = np.where(ok, a, 1.0)
            out = fam.draw(rng, n, *args)
            out[bad] = np.nan
            return out
    raise TypeError(f"not a chain node: {node!r}")


def _draw_batch(spec, n, rng, policy, samples=None) -> tuple[np.ndarray, int, int, int]:
    """Draw, resample and tally n values in buffers of at most _CHUNK rows.

    Each buffer holds the rows still invalid in the one before it, then
    fresh rows, and is drawn by one _eval_node call: its valid rows are
    tallied and its invalid rows carried into the next buffer, each with
    its own count of resamples.  The last buffer has no fresh rows after
    it, so its invalid rows are drawn again in place, a round at a time.
    A row still invalid after policy.max_attempts resamples is dropped, or
    raises PolicyExhaustedError.  The generator carries on from one buffer
    to the next, and no more than one buffer of draws is alive at once.
    Returns (ld_counts, zeros, resampled, dropped); a list passed as
    ``samples`` gets each buffer's accepted nonzero draws.
    """
    counts = np.zeros(9, dtype=np.int64)
    zeros = resampled = dropped = 0
    tries = np.zeros(0, dtype=np.int16)  # resamples so far of each row of the buffer
    redo = np.zeros(0, dtype=bool)  # rows of the buffer to draw again
    left = n  # fresh rows not yet drawn
    while left or redo.any():
        m = int(np.count_nonzero(redo))
        resampled += m
        if left:  # a new buffer: the rows carried over, then fresh rows
            fresh = min(_CHUNK - m, left)
            left -= fresh
            tries = np.concatenate((tries[redo] + 1, np.zeros(fresh, dtype=np.int16)))
            vals = np.require(_eval_node(spec, tries.size, rng), requirements="W")
        else:  # the last buffer: draw its invalid rows again in place
            tries[redo] += 1
            vals[redo] = _eval_node(spec, m, rng)
        bad = ~np.isfinite(vals)
        redo = bad & (tries < policy.max_attempts)
        if left or not redo.any():  # the buffer is done: drop its spent rows, tally the rest
            lost = int(np.count_nonzero(bad)) - int(np.count_nonzero(redo))
            if lost and policy.on_exhaustion == "error":
                raise PolicyExhaustedError(
                    f"{lost} draw(s) still invalid after {policy.max_attempts} attempts"
                )
            dropped += lost
            good = vals[~bad]
            buffer_counts = first_digit_counts(good)
            counts += buffer_counts
            zeros += good.size - int(buffer_counts.sum())
            if samples is not None:
                samples.append(good[good != 0.0])
    return counts, zeros, resampled, dropped


def simulate_chain(
    spec,
    n: int,
    seed=None,
    policy: ResamplePolicy = ResamplePolicy(),
    keep_samples: bool = False,
    workers: int = 1,
) -> ChainRunResult:
    """Simulate n draws from a chain and tally their first digits.

    Zeros are skipped (and counted); draws whose chained parameters are
    invalid are retried per the policy; n x max_attempts above
    _MAX_ROW_EVALS raises TooLargeError before any draw.  ``workers`` (1 to
    64) partitions the draws across threads with generator states spawned
    from the master seed.  Each worker draws, resamples and tallies its
    share in buffers of at most _CHUNK = 32,768 rows, its generator carrying
    on from one buffer to the next, and the tallies are summed.  A row still
    invalid in one buffer is drawn again in the next, and keeps its count of
    resamples; only the last buffer redraws its invalid rows in rounds.
    Memory is flat in n (2 to 3.5 MB traced per worker on the benchmark
    chains) unless ``keep_samples`` asks for the accepted nonzero draws, in
    worker and stream order.  Results are deterministic for a fixed (spec,
    n, seed, workers), and bit-identical to drawing each worker's share in
    one piece, with the resample loop over it, only when n / workers <=
    _CHUNK.
    """
    if isinstance(spec, str):
        spec = parse_chain(spec)
    if n < 1:
        raise BadParamsError(f"n must be >= 1, got {n}")
    if not 1 <= workers <= _MAX_WORKERS:
        raise BadParamsError(f"workers must be in 1..{_MAX_WORKERS}, got {workers}")
    if n * policy.max_attempts > _MAX_ROW_EVALS:
        raise TooLargeError(f"n x max_attempts = {n} x {policy.max_attempts} row evaluations "
                            f"is over the budget of {_MAX_ROW_EVALS}")

    seq = np.random.SeedSequence(seed)
    kept = [[] if keep_samples else None for _ in range(workers)]
    if workers == 1:
        rng = np.random.Generator(np.random.PCG64(seq))
        parts = [_draw_batch(spec, n, rng, policy, kept[0])]
    else:
        children = seq.spawn(workers)
        sizes = [n // workers + (1 if i < n % workers else 0) for i in range(workers)]

        def run(args):
            size, child, samples = args
            rng = np.random.Generator(np.random.PCG64(child))
            return _draw_batch(spec, size, rng, policy, samples)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run, zip(sizes, children, kept)))

    counts = sum(p[0] for p in parts)
    skipped_zeros = sum(p[1] for p in parts)
    resampled = sum(p[2] for p in parts)
    dropped = sum(p[3] for p in parts)
    accepted = int(counts.sum())
    dist = DigitDistribution.from_counts(counts)
    skip_rate = (skipped_zeros + dropped) / n
    return ChainRunResult(
        spec_text=render_chain(spec),
        seed=seed,
        n_requested=n,
        n_accepted=accepted,
        n_resampled=resampled,
        skipped_zeros=skipped_zeros,
        policy_dropped=dropped,
        ld_counts=tuple(int(c) for c in counts),
        ld=dist,
        chi_sqr=chi_sqr(counts) if accepted else math.nan,
        valid=skip_rate <= 0.01,
        samples=np.concatenate([a for part in kept for a in part]) if keep_samples else None,
    )


def _family_nodes_bottom_up(node, path=()):
    """Yield (path, FamilyNode) deepest-first (post-order)."""
    if isinstance(node, FamilyNode):
        for i, a in enumerate(node.args):
            yield from _family_nodes_bottom_up(a, path + (i,))
        yield path, node
    elif isinstance(node, MixtureNode):
        for i, c in enumerate(node.components):
            yield from _family_nodes_bottom_up(c, path + (i,))


def sequential_chisqr(spec, n: int, seed=None, policy: ResamplePolicy = ResamplePolicy()):
    """Chi-square of every subtree simulated as its own chain, bottom-up.

    Returns a list of (path, rendered subtree, chi_sqr) where path indexes
    argument positions from the root; the root itself comes last.
    """
    if isinstance(spec, str):
        spec = parse_chain(spec)
    out = []
    seq = np.random.SeedSequence(seed)
    nodes = list(_family_nodes_bottom_up(spec))
    for child_seq, (path, node) in zip(seq.spawn(len(nodes)), nodes):
        rng_seed = child_seq.generate_state(1)[0]
        res = simulate_chain(node, n, seed=int(rng_seed), policy=policy)
        out.append((path, render_chain(node), res.chi_sqr))
    return out


# ---------------------------------------------------------------------------
# chainability experiments (Tables 10-11)


@dataclass(frozen=True)
class ChainabilityConfig:
    """Operational thresholds for the qualitative BEN / not / NOT labels.

    BEN: chained chi-square (8 dof) below ben_threshold (the 5% critical
    value at n = 10^4).  NOT: chained chi-square within not_factor of the
    all-constants baseline (or worse): total indifference.  not: everything
    between (vigorous response without full convergence).

    not_factor 1.4 is calibrated: across the regression grid the
    indifferent cells keep at least 0.78 of their baseline chi-square
    while the vigorous-response cells stay below 0.48 of theirs, so the
    cutoff sits between the clusters.

    The baseline run uses baseline_n_factor * n draws and its chi-square
    is rescaled to the n-equivalent (noncentrality scales linearly with
    sample size), shrinking the comparison denominator's noise.
    """

    n: int = 10_000
    ben_threshold: float = 15.5
    not_factor: float = 1.4
    baseline_n_factor: int = 10

    def baseline_equivalent(self, chi_raw: float) -> float:
        dof = 8.0
        return dof + (chi_raw - dof) / self.baseline_n_factor


@dataclass(frozen=True)
class ChainabilityResult:
    verdict: str  # "BEN" | "not" | "NOT"
    chi_chained: float
    chi_baseline: float
    spec_text: str
    baseline_text: str


def _chainer(chainer) -> tuple[FamilyNode, float]:
    """(node, median) of ('reciprocal_log', F, span) or ('lognormal', loc, shape)."""
    kind = chainer[0]
    if kind == "reciprocal_log":
        _, f_exp, span = chainer
        if span != int(span) or span < 1:
            raise UnknownPresetError("reciprocal_log span must be a positive integer")
        return (FamilyNode(PowerLaw, (1.0, 10.0**f_exp, 10.0 ** (f_exp + span))),
                10.0 ** (f_exp + span / 2.0))
    if kind == "lognormal":
        _, loc, shape = chainer
        return FamilyNode(LogNormal, (float(loc), float(shape))), math.exp(loc)
    raise UnknownPresetError(f"unknown chainer {chainer!r}")


def chainability_experiment(
    family,
    chained_params,
    fixed_params: dict,
    chainer=("reciprocal_log", 0.0, 3),
    seed=None,
    config: ChainabilityConfig = ChainabilityConfig(),
    baseline_values: dict | None = None,
) -> ChainabilityResult:
    """Run the 2-sequence chainability test for one (family, param subset).

    ``chained_params`` get the chainer distribution plugged in;
    ``fixed_params`` supplies constants for the rest.  ``chainer`` is a
    (kind, ...) tuple, or a dict mapping parameter names to such tuples so
    each chained parameter can live on its own range (the experiments in
    the source tables place each parameter on a range natural to it).  The
    baseline run fixes every parameter (chained ones at the chainer median
    unless ``baseline_values`` overrides), measuring what the family does
    with no chaining at all.
    """
    if isinstance(family, str):
        family = family_by_name(family)
    chained = set(chained_params)
    names = [f.name for f in fields(family)]
    unknown = chained - set(names)
    if unknown:
        raise UnknownPresetError(f"{family.__name__} has no parameter(s) {sorted(unknown)}")

    def chainer_for(name):
        return chainer[name] if isinstance(chainer, dict) else chainer

    def build(use_chainer: bool) -> FamilyNode:
        args = []
        for name in names:
            if name in chained:
                node, median = _chainer(chainer_for(name))
                args.append(node if use_chainer else float((baseline_values or {}).get(name, median)))
            else:
                args.append(float(fixed_params[name]))
        return FamilyNode(family, tuple(args))

    seq = np.random.SeedSequence(seed)
    s_chained, s_base = (int(c.generate_state(1)[0]) for c in seq.spawn(2))
    chained_spec = build(True)
    baseline_spec = build(False)
    res_chained = simulate_chain(chained_spec, config.n, seed=s_chained)
    res_base = simulate_chain(baseline_spec, config.n * config.baseline_n_factor, seed=s_base)
    chi_base = config.baseline_equivalent(res_base.chi_sqr)

    if res_chained.chi_sqr < config.ben_threshold:
        verdict = "BEN"
    elif res_chained.chi_sqr < chi_base / config.not_factor:
        verdict = "not"
    else:
        verdict = "NOT"
    return ChainabilityResult(
        verdict=verdict,
        chi_chained=res_chained.chi_sqr,
        chi_baseline=chi_base,
        spec_text=res_chained.spec_text,
        baseline_text=res_base.spec_text,
    )


def chainability_majority(
    family,
    chained_params,
    fixed_params,
    chainer=("reciprocal_log", 0.0, 3),
    seeds=(1, 2, 3),
    config: ChainabilityConfig = ChainabilityConfig(),
    baseline_values=None,
):
    """Majority-vote verdict over several seeded repetitions."""
    results = [
        chainability_experiment(
            family, chained_params, fixed_params, chainer, seed, config, baseline_values
        )
        for seed in seeds
    ]
    votes: dict[str, int] = {}
    for r in results:
        votes[r.verdict] = votes.get(r.verdict, 0) + 1
    winner = max(votes.items(), key=lambda kv: kv[1])[0]
    return winner, results


# ---------------------------------------------------------------------------
# power-of-ten invariance


def power_of_ten_invariance_check(
    model: DistributionModel,
    m: int,
    mode: str = "analytic",
    subset=None,
    n: int = 10**6,
    seed=None,
) -> float:
    """L-inf distance between the LD of a model and its 10**m-scaled version.

    analytic mode integrates the pdf per decade (tight tolerances);
    montecarlo mode compares empirical first-digit shares of n draws each.
    Scale/loc-scale forms should report ~0; b*f(b(x-a)) forms and
    single-parameter scalings of two-parameter forms report a real gap.
    """
    scaled = model.scaled_by_power_of_ten(m, subset=subset)
    if mode == "analytic":
        from . import analytic

        sup = model.support()
        ld_a = analytic.ld_of_density(model.pdf, (sup.lo, sup.hi), tol=1e-10)
        sup2 = scaled.support()
        ld_b = analytic.ld_of_density(scaled.pdf, (sup2.lo, sup2.hi), tol=1e-10)
        return ld_a.l_inf(ld_b)
    if mode == "montecarlo":
        seq = np.random.SeedSequence(seed)
        c1, c2 = seq.spawn(2)

        def empirical(mod, child):
            counts = first_digit_counts(mod.sample_n(n, np.random.Generator(np.random.PCG64(child))))
            if not counts.any():
                raise EmptyInputError(f"all {n} draws of {mod} are 0")
            return DigitDistribution.from_counts(counts)

        return empirical(model, c1).l_inf(empirical(scaled, c2))
    raise UnknownPresetError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# presets


def _mini_hill_components():
    """The six ad-hoc generators of the mini Hill super-distribution.

    Transcribed from the spreadsheet formulas: sums of scaled uniforms,
    |shifted exponentials|, |normals|, and a difference of uniforms.
    """

    def c1(rng, n):
        return 5.4 * rng.random(n) + 6.034 * rng.random(n) + 0.054 * rng.random(n)

    def c2(rng, n):
        return np.abs(-0.0042312 * np.log(1.0 - rng.random(n)) - 5.0) + 0.0042312 * rng.random(n)

    def c3(rng, n):
        return np.abs(rng.normal(5.0, 3.0, size=n))

    def c4(rng, n):
        return np.abs(-0.345 * np.log(7.0 + rng.random(n) - 3.0) - 0.345 * rng.random(n) - 1.37 * rng.random(n))

    def c5(rng, n):
        return np.abs(rng.normal(0.002442281, 0.256533505, size=n))

    def c6(rng, n):
        return np.abs(7.0 * rng.random(n) - 3.0 * rng.random(n))

    return tuple(
        FormulaNode(name=f"mini_hill_{i+1}", fn=fn)
        for i, fn in enumerate((c1, c2, c3, c4, c5, c6))
    )


def preset(name: str, **kwargs):
    """Named chain specs from the experiments catalogue.

    flehinger(depth, m) - nested Uniform(0, .) chains ending at constant m.
    benford_twist       - Uniform(0, PowerLaw(1, 10, 100)).
    mini_hill           - equal-weight six-component mixture.
    rayleigh_cycles     - Rayleigh(Uniform(0, Exponential(...))) cycles.
    table8_chain        - Normal(Uniform(0, ChiSqr(Die(6))), Uniform(0, 2)).
    A depth or cycle count that nests more than _MAX_DEPTH levels is refused.
    """
    key = name.lower().replace("-", "_")
    if key == "flehinger":
        depth = int(kwargs.get("depth", 4))
        m = float(kwargs.get("m", 1e5))
        if not 1 <= depth <= _MAX_DEPTH:
            raise BadParamsError(f"flehinger depth must be in 1..{_MAX_DEPTH}, got {depth}")
        node: object = m
        for _ in range(depth):
            node = FamilyNode(Uniform, (0.0, node))
        return node
    if key == "benford_twist":
        return FamilyNode(Uniform, (0.0, FamilyNode(PowerLaw, (1.0, 10.0, 100.0))))
    if key == "mini_hill":
        return MixtureNode(components=_mini_hill_components())
    if key == "rayleigh_cycles":
        cycles = int(kwargs.get("cycles", 9))
        if not 1 <= cycles <= _MAX_DEPTH // 3:  # 3 levels each
            raise BadParamsError(f"rayleigh_cycles cycles must be in 1..{_MAX_DEPTH // 3}, got {cycles}")
        node = 1.0
        for _ in range(cycles):
            node = FamilyNode(
                Rayleigh,
                (FamilyNode(Uniform, (0.0, FamilyNode(Exponential, (node,)))),),
            )
        return node
    if key == "table8_chain":
        return FamilyNode(
            Normal,
            (
                FamilyNode(Uniform, (0.0, FamilyNode(ChiSqr, (FamilyNode(Die, (6.0,)),)))),
                FamilyNode(Uniform, (0.0, 2.0)),
            ),
        )
    raise UnknownPresetError(f"unknown preset {name!r}")
