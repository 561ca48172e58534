"""Tests for the chain engine: grammar, simulation, experiments, presets."""

import math
import threading
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from digitlab import chains
from digitlab.digits import benford_first, leading_digits
from digitlab.distributions import (
    FAMILIES,
    Exponential,
    GeneralizedExp1,
    GeneralizedExp2,
    Normal,
    PowerLaw,
    Rayleigh,
    Uniform,
    Weibull,
)
from digitlab.errors import (
    ArityMismatchError,
    BadParamsError,
    ChainSyntaxError,
    PolicyExhaustedError,
    TooLargeError,
    UnknownFamilyError,
    UnknownPresetError,
)

DIGITS = range(1, 10)


_FAMILIES = sorted(set(FAMILIES.values()), key=lambda fam: fam.__name__)


def _family_over(args):
    """FamilyNode trees whose arguments are drawn from ``args``."""
    return st.sampled_from(_FAMILIES).flatmap(
        lambda fam: st.tuples(*[args] * len(fields(fam))).map(lambda a: chains.FamilyNode(fam, a)))


def _spec_trees():
    """Random chain specs: families over finite constants, a few levels deep."""
    args = st.recursive(st.floats(allow_nan=False, allow_infinity=False), _family_over,
                        max_leaves=8)
    return _family_over(args)


class TestParser:
    def test_nested_uniforms(self):
        spec = chains.parse_chain("Uniform(0, Uniform(0, 17))")
        assert spec.family is Uniform
        assert spec.args[0] == 0.0
        inner = spec.args[1]
        assert inner.family is Uniform and inner.args == (0.0, 17.0)
        assert chains.chain_depth(spec) == 2

    def test_normal_chain(self):
        spec = chains.parse_chain("Normal(0, Uniform(0,3))")
        assert spec.family is Normal
        assert chains.chain_depth(spec) == 2

    def test_case_and_whitespace_insensitive(self):
        a = chains.parse_chain("uniform( 0 ,  uniform(0, 1e5) )")
        b = chains.parse_chain("UNIFORM(0,Uniform(0,100000))")
        assert a == b

    def test_scientific_and_negative_numbers(self):
        spec = chains.parse_chain("Normal(-3.5e1, 2)")
        assert spec.args == (-35.0, 2.0)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            chains.parse_chain("Weibull(1.5)")

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            chains.parse_chain("Zeta(1, 2)")

    def test_syntax_error_reports_position(self):
        with pytest.raises(ChainSyntaxError) as err:
            chains.parse_chain("Uniform(0, )")
        assert err.value.position == 11

    def test_trailing_garbage(self):
        with pytest.raises(ChainSyntaxError):
            chains.parse_chain("Uniform(0, 1) extra")

    def test_render_round_trip(self):
        text = "Normal(Uniform(0, ChiSqr(Die(6))), Uniform(0, 2))"
        spec = chains.parse_chain(text)
        assert chains.parse_chain(chains.render_chain(spec)) == spec

    @pytest.mark.parametrize("text,rendered", [
        # the benchmark chains keep their short text
        ("Gompertz(Uniform(0,10), 1)", "Gompertz(Uniform(0, 10), 1)"),
        ("Normal(Uniform(-1,1), Uniform(-0.5,2))", "Normal(Uniform(-1, 1), Uniform(-0.5, 2))"),
        ("Uniform(0,Uniform(0,Uniform(0,Uniform(0,100000))))",
         "Uniform(0, Uniform(0, Uniform(0, Uniform(0, 100000))))"),
        # where six significant digits lose the number, its repr is written
        ("Uniform(0, 1234567)", "Uniform(0, 1234567.0)"),
        ("Uniform(0.1234567, Normal(1234567.5, 2.5e-7))",
         "Uniform(0.1234567, Normal(1234567.5, 2.5e-07))"),
    ])
    def test_render_is_short_and_exact(self, text, rendered):
        spec = chains.parse_chain(text)
        assert chains.render_chain(spec) == rendered
        assert chains.parse_chain(rendered) == spec

    @settings(max_examples=200, deadline=None)
    @given(spec=_spec_trees())
    def test_render_round_trips_any_spec(self, spec):
        assert chains.parse_chain(chains.render_chain(spec)) == spec

    def test_nesting_capped_while_descending(self):
        def nested(levels):
            return "Uniform(0," * levels + "1" + ")" * levels

        assert chains.chain_depth(chains.parse_chain(nested(chains._MAX_DEPTH))) == chains._MAX_DEPTH
        with pytest.raises(ChainSyntaxError) as err:
            chains.parse_chain(nested(10_000))  # refused before the recursion gets deep
        assert err.value.position == len("Uniform(0,") * chains._MAX_DEPTH


class TestSimulate:
    def test_depth4_uniform_digit_one(self):
        spec = chains.parse_chain("Uniform(0,Uniform(0,Uniform(0,Uniform(0,100000))))")
        res = chains.simulate_chain(spec, 100_000, seed=7)
        assert res.ld.probs[1] == pytest.approx(0.301, abs=0.01)

    def test_short_normal_chain(self):
        res = chains.simulate_chain("Normal(0, Uniform(0,3))", 10_000, seed=11)
        assert res.ld.probs[1] == pytest.approx(0.320, abs=0.015)

    def test_bit_reproducible(self):
        spec = chains.parse_chain("Rayleigh(Uniform(0, 100))")
        a = chains.simulate_chain(spec, 20_000, seed=42)
        b = chains.simulate_chain(spec, 20_000, seed=42)
        assert a.ld_counts == b.ld_counts
        assert a.chi_sqr == b.chi_sqr

    def test_workers_deterministic_and_merged(self):
        spec = chains.parse_chain("Uniform(0, Uniform(0, 1e5))")
        a = chains.simulate_chain(spec, 10_000, seed=5, workers=4)
        b = chains.simulate_chain(spec, 10_000, seed=5, workers=4)
        assert a.ld_counts == b.ld_counts
        assert a.n_requested == sum(a.ld_counts) + a.skipped_zeros + a.policy_dropped

    def test_accounting_identity(self):
        spec = chains.parse_chain("Normal(Uniform(0, 2), Uniform(0, 2))")
        res = chains.simulate_chain(spec, 50_000, seed=13)
        assert res.n_requested == res.n_accepted + res.skipped_zeros + res.policy_dropped

    def test_resampling_recovers_invalid_params(self):
        # Normal(5, Normal(0.5, 1)): about a third of sigma draws are negative
        spec = chains.parse_chain("Normal(5, Normal(0.5, 1))")
        res = chains.simulate_chain(spec, 10_000, seed=17)
        assert res.n_resampled > 1000
        assert res.n_accepted + res.skipped_zeros + res.policy_dropped == 10_000

    def test_policy_error_mode(self):
        # sigma is always negative: every draw fails all attempts
        spec = chains.parse_chain("Normal(0, Uniform(-2, -1))")
        policy = chains.ResamplePolicy(max_attempts=3, on_exhaustion="error")
        with pytest.raises(PolicyExhaustedError):
            chains.simulate_chain(spec, 100, seed=19, policy=policy)

    def test_policy_bounds(self):
        # a bad policy is a bad argument (exit 2), not an exhausted one (exit 4)
        for kwargs in ({"max_attempts": 0}, {"max_attempts": chains._MAX_ATTEMPTS + 1},
                       {"on_exhaustion": "retry"}):
            with pytest.raises(BadParamsError):
                chains.ResamplePolicy(**kwargs)
        chains.ResamplePolicy(max_attempts=chains._MAX_ATTEMPTS)

    def test_policy_skip_mode_flags_validity(self):
        spec = chains.parse_chain("Normal(0, Uniform(-2, -1))")
        policy = chains.ResamplePolicy(max_attempts=3, on_exhaustion="skip")
        res = chains.simulate_chain(spec, 100, seed=19, policy=policy)
        assert res.policy_dropped == 100
        assert not res.valid

    def test_chisqr_dof_floored(self):
        res = chains.simulate_chain("ChiSqr(Uniform(1, 4))", 5_000, seed=23)
        assert res.n_accepted == 5_000

    def test_chisqr_dof_below_one_resampled(self):
        res = chains.simulate_chain("ChiSqr(Uniform(0.2, 2))", 5_000, seed=23)
        assert res.n_resampled > 0
        assert res.n_accepted + res.policy_dropped + res.skipped_zeros == 5_000

    def test_root_constant_is_n_draws(self):
        # a constant is a read-only zero-stride view; as the root it is still
        # n draws, and an invalid one is resampled and dropped like any other
        assert chains.simulate_chain(2.5, 1000, seed=1).ld_counts == (0, 1000, 0, 0, 0, 0, 0, 0, 0)
        res = chains.simulate_chain(math.inf, 100, seed=1, policy=chains.ResamplePolicy(max_attempts=2))
        assert (res.policy_dropped, res.n_resampled) == (100, 200)

    def test_invalid_constant_beside_a_drawn_parameter(self):
        # numpy's normal sampler raises on sigma = -1: an invalid row's constants, not
        # only its drawn parameters, go to the sampler as 1.0
        res = chains.simulate_chain("Normal(Uniform(0, 1), -1)", 1000, seed=1,
                                    policy=chains.ResamplePolicy(max_attempts=2))
        assert (res.policy_dropped, res.n_resampled) == (1000, 2000)

    def test_work_budget_checked_before_any_draw(self, monkeypatch):
        # the default policy at n = 10^7 is inside the budget, one draw more is not
        def no_draws(*args):
            return np.zeros(9, dtype=np.int64), 0, 0, 0

        monkeypatch.setattr(chains, "_draw_batch", no_draws)
        default = chains.ResamplePolicy()
        assert 10**7 * default.max_attempts == chains._MAX_ROW_EVALS
        chains.simulate_chain(chains.preset("flehinger"), 10**7, seed=1)
        with pytest.raises(TooLargeError, match=str(chains._MAX_ROW_EVALS)):
            chains.simulate_chain(chains.preset("flehinger"), 10**7 + 1, seed=1)
        with pytest.raises(TooLargeError):
            chains.simulate_chain("Uniform(0, 1e999)", 10**6, seed=1,
                                  policy=chains.ResamplePolicy(max_attempts=10**4))

    def test_infinite_parameters_are_invalid(self):
        # Uniform(0, 1e999) used to abort with numpy's bare OverflowError
        with pytest.raises(BadParamsError):
            Uniform(0.0, math.inf)
        res = chains.simulate_chain("Uniform(0, 1e999)", 1000, seed=1)
        assert res.policy_dropped == 1000
        assert not res.valid

    def test_json_document(self):
        res = chains.simulate_chain("Uniform(0, 100)", 1000, seed=3)
        doc = res.to_json_dict()
        assert doc["ld_probs"]["1"] == res.ld.probs[1]
        assert doc["schema_version"] == 1
        assert doc["n"] == 1000
        assert set(doc["ld_counts"]) == {str(d) for d in DIGITS}
        assert sum(doc["ld_counts"].values()) + doc["skips"] == 1000

    def test_convergence_with_depth(self):
        # L-inf distance to Benford shrinks (within MC noise) as depth grows
        n = 100_000
        se = 2.0 * math.sqrt(0.3 * 0.7 / n)
        dists = []
        for depth in range(1, 7):
            res = chains.simulate_chain(chains.preset("flehinger", depth=depth, m=1e5),
                                        n, seed=100 + depth)
            dists.append(max(abs(res.ld.probs[d] - benford_first(d)) for d in DIGITS))
        for k in range(len(dists) - 1):
            assert dists[k + 1] <= dists[k] + 2 * se

    def test_terminal_constant_insensitivity_at_depth4(self):
        # the constant matters much less at depth 4 than at depth 2 (its
        # published depth-4 row still shows a ~±0.8% systematic digit-1
        # residue, larger than MC noise, so the bound is 3.5 SE or 0.01)
        n = 50_000

        def digit1_spread(depth):
            vals = []
            for m in (1e5, 3e5, 7e5, 9e5):
                res = chains.simulate_chain(chains.preset("flehinger", depth=depth, m=m),
                                            n, seed=int(m) % 997)
                vals.append([res.ld.probs[d] for d in DIGITS])
            return vals

        deep = digit1_spread(4)
        for a in deep:
            for b in deep:
                for d in DIGITS:
                    p = benford_first(d)
                    pair_se = math.sqrt(2.0 * p * (1 - p) / n)
                    assert abs(a[d - 1] - b[d - 1]) < max(3.5 * pair_se, 0.02)
        shallow = digit1_spread(2)
        spread4 = max(a[0] for a in deep) - min(a[0] for a in deep)
        spread2 = max(a[0] for a in shallow) - min(a[0] for a in shallow)
        assert spread4 < spread2 / 2


# Exact first-digit tallies and resample counts of seeded 2e4-draw chains,
# recorded from the two-sampler code this engine replaced: the three
# benchmark chains, two presets, and one spec with invalid parameter draws
# per rejection sampler (Gamma, ChiSqr through chisquare, Nakagami).
GOLDEN_TALLIES = [
    ("flehinger", 1, 1, (6098, 3424, 2594, 1952, 1525, 1281, 1178, 1018, 930), 0),
    ("Gompertz(Uniform(0,10), 1)", 2, 1, (6022, 3837, 2634, 1866, 1502, 1270, 1054, 950, 865), 0),
    ("Normal(Uniform(-1,1), Uniform(-0.5,2))", 3, 2,
     (6521, 3162, 2012, 1580, 1514, 1465, 1355, 1241, 1150), 4995),
    ("table8_chain", 4, 1, (5919, 3815, 2686, 2012, 1522, 1218, 1075, 904, 849), 0),
    ("mini_hill", 5, 1, (4881, 2195, 1876, 3865, 2874, 1309, 1161, 1035, 804), 0),
    ("Gamma(Normal(2, 1), Normal(1, 1))", 6, 1,
     (5659, 3628, 2755, 2091, 1622, 1333, 1154, 924, 834), 4311),
    ("ChiSqr(Uniform(-1, 3))", 7, 1, (5957, 3684, 2706, 1899, 1507, 1272, 1094, 1006, 875), 19754),
    ("Nakagami(Normal(1, 1), Uniform(-1, 2))", 8, 1,
     (7183, 2069, 1665, 1554, 1615, 1561, 1556, 1469, 1322), 15771),
]


@pytest.mark.parametrize("text,seed,workers,counts,resampled", GOLDEN_TALLIES,
                         ids=[g[0] for g in GOLDEN_TALLIES])
def test_golden_tallies(text, seed, workers, counts, resampled):
    spec = chains.preset(text) if "(" not in text else text
    res = chains.simulate_chain(spec, 20_000, seed=seed, workers=workers)
    assert res.ld_counts == counts
    assert res.n_resampled == resampled


def _chunked_reference(spec, n, seed, workers, policy=chains.ResamplePolicy()):
    """An independent model of the carried stream, built on _eval_node alone.

    Each worker draws buffers of at most _CHUNK rows: the rows still invalid
    in the buffer before (each carrying its count of resamples), then fresh
    rows, in one _eval_node call.  A row is dropped once it is invalid after
    max_attempts resamples.  The last buffer, with no fresh rows after it,
    redraws its invalid rows in place, one round at a time.  Returns
    (ld_counts, zeros, resampled, dropped, accepted nonzero draws in worker
    and stream order).
    """
    seq = np.random.SeedSequence(seed)
    seqs = [seq] if workers == 1 else seq.spawn(workers)
    sizes = [n // workers + (i < n % workers) for i in range(workers)]
    kept, resampled, dropped = [], 0, 0
    for size, child in zip(sizes, seqs):
        rng = np.random.Generator(np.random.PCG64(child))
        carried = []  # resamples made so far of each row carried over
        drawn = 0
        while drawn < size or carried:
            fresh = min(chains._CHUNK - len(carried), size - drawn)
            drawn += fresh
            resampled += len(carried)
            tries = np.array([t + 1 for t in carried] + [0] * fresh)
            vals = chains._eval_node(spec, tries.size, rng).copy()
            if drawn == size:
                while True:
                    redo = ~np.isfinite(vals) & (tries < policy.max_attempts)
                    if not redo.any():
                        break
                    resampled += int(redo.sum())
                    tries[redo] += 1
                    vals[redo] = chains._eval_node(spec, int(redo.sum()), rng)
            good = np.isfinite(vals)
            spent = ~good & (tries == policy.max_attempts)
            dropped += int(spent.sum())
            carried = tries[~good & ~spent].tolist()
            kept.append(vals[good])
    vals = np.concatenate(kept)
    nonzero = vals[vals != 0.0]
    counts = np.bincount(leading_digits(nonzero).prefix, minlength=10)[1:]
    return tuple(int(c) for c in counts), vals.size - nonzero.size, resampled, dropped, nonzero


def _root_rows(spec):
    """A wrapper of _eval_node, and the list of row counts its root calls get, per thread."""
    rows = []
    evaluate = chains._eval_node

    def counted(node, n, rng):
        if node is spec:
            rows.append((threading.get_ident(), n))
        return evaluate(node, n, rng)

    return counted, rows


class TestChunkedStream:
    N = 3 * chains._CHUNK + 17  # three full chunks and a ragged one per worker at 1

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("text,max_attempts", [
        ("flehinger", 100),
        ("Normal(Uniform(-1,1), Uniform(-0.5,2))", 100),  # resamples across the seams
        ("Uniform(0, Normal(1e-322, 1e-322))", 1),  # zeros, resamples and drops
    ])
    def test_matches_chunk_by_chunk_reference(self, text, max_attempts, workers):
        spec = chains.preset(text) if "(" not in text else chains.parse_chain(text)
        policy = chains.ResamplePolicy(max_attempts=max_attempts)
        res = chains.simulate_chain(spec, self.N, seed=11, policy=policy, workers=workers,
                                    keep_samples=True)
        counts, zeros, resampled, dropped, samples = _chunked_reference(
            spec, self.N, 11, workers, policy)
        assert res.ld_counts == counts
        assert (res.skipped_zeros, res.n_resampled, res.policy_dropped) == (zeros, resampled, dropped)
        assert res.n_accepted + res.skipped_zeros + res.policy_dropped == self.N
        # keep_samples: the accepted nonzero draws in stream order, tallied as ld_counts
        assert np.array_equal(res.samples, samples)
        tally = np.bincount(leading_digits(res.samples).prefix, minlength=10)[1:]
        assert tuple(int(c) for c in tally) == res.ld_counts

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 3), d=st.integers(-3, 3), workers=st.integers(1, 3),
           max_attempts=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           text=st.sampled_from([
               "flehinger",  # every draw valid
               "Normal(Uniform(-1,1), Uniform(-0.5,2))",  # a fifth resampled, few dropped
               "Uniform(0, Normal(1e-322, 1e-322))",  # zeros, resamples and drops
               "Normal(0, Uniform(-2, -1))",  # every draw dropped: buffers of carried rows only
           ]))
    def test_carried_stream(self, k, d, workers, max_attempts, seed, text):
        n = k * chains._CHUNK + d
        spec = chains.preset(text) if "(" not in text else chains.parse_chain(text)
        skip = chains.ResamplePolicy(max_attempts=max_attempts)
        counted, rows = _root_rows(spec)
        with mock.patch.object(chains, "_eval_node", counted):
            res = chains.simulate_chain(spec, n, seed=seed, policy=skip, workers=workers,
                                        keep_samples=True)
        assert res.n_accepted + res.skipped_zeros + res.policy_dropped == n
        assert res.n_resampled == sum(r for _, r in rows) - n
        counts, zeros, resampled, dropped, samples = _chunked_reference(spec, n, seed, workers, skip)
        assert (res.ld_counts, res.skipped_zeros, res.n_resampled, res.policy_dropped) == (
            counts, zeros, resampled, dropped)
        assert np.array_equal(res.samples, samples)
        # the error policy raises exactly when the skip policy drops a draw
        error = chains.ResamplePolicy(max_attempts=max_attempts, on_exhaustion="error")
        if res.policy_dropped:
            with pytest.raises(PolicyExhaustedError):
                chains.simulate_chain(spec, n, seed=seed, policy=error, workers=workers)
        else:
            again = chains.simulate_chain(spec, n, seed=seed, policy=error, workers=workers)
            assert (again.ld_counts, again.n_resampled) == (res.ld_counts, res.n_resampled)

    @pytest.mark.parametrize("on_exhaustion", ["skip", "error"])
    def test_drop_before_the_last_buffer(self, on_exhaustion):
        # the first two root calls come out invalid, every later one valid: with one
        # attempt the first buffer's rows are carried, then dropped in the second
        # buffer, which has no room for fresh rows; the last buffers drop nothing
        calls = []

        def late(rng, n):
            calls.append(n)
            return np.full(n, np.nan if len(calls) <= 2 else 1.0)

        policy = chains.ResamplePolicy(max_attempts=1, on_exhaustion=on_exhaustion)
        n = 2 * chains._CHUNK + 1
        if on_exhaustion == "error":
            with pytest.raises(PolicyExhaustedError):
                chains.simulate_chain(chains.FormulaNode("late", late), n, seed=1, policy=policy)
            assert len(calls) == 2
        else:
            res = chains.simulate_chain(chains.FormulaNode("late", late), n, seed=1, policy=policy)
            assert calls == [chains._CHUNK, chains._CHUNK, chains._CHUNK, 1]
            assert (res.policy_dropped, res.n_resampled, res.n_accepted) == (chains._CHUNK, chains._CHUNK,
                                                                              chains._CHUNK + 1)

    # the benchmark's resampling chain: 2e6 draws on 2 threads, a fifth of them invalid
    _BENCH_NORMAL = ("Normal(Uniform(-1,1), Uniform(-0.5,2))", 2_000_000, 2)

    def test_resampling_costs_no_rounds_per_buffer(self):
        # each worker makes one root call per full buffer, one for its last buffer,
        # then that buffer's rounds of redraws in place: about log(_CHUNK) / log(5)
        # = 6.5 at a fifth invalid, so 12 leaves room.  Rounds in every chunk made
        # 245 calls at 2^16 rows; the bound here is 104
        text, n, workers = self._BENCH_NORMAL
        spec = chains.parse_chain(text)
        counted, rows = _root_rows(spec)
        with mock.patch.object(chains, "_eval_node", counted):
            res = chains.simulate_chain(spec, n, seed=31, workers=workers)
        evaluated = sum(r for _, r in rows)
        assert evaluated == n + res.n_resampled
        assert len({thread for thread, _ in rows}) == workers
        assert len(rows) <= evaluated / chains._CHUNK + workers * (2 + 12), len(rows)

    def test_traced_peak_of_the_benchmark_resampling_chain(self):
        text, n, workers = self._BENCH_NORMAL
        tracemalloc.start()
        try:
            chains.simulate_chain(text, n, seed=31, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20, peak / 2**20  # 3.4 MB; 7.3 MB with rounds per 2^16-row chunk

    def test_zeros_resamples_and_drops_all_occur(self):
        policy = chains.ResamplePolicy(max_attempts=1)
        res = chains.simulate_chain("Uniform(0, Normal(1e-322, 1e-322))", self.N,
                                    seed=3, policy=policy)
        assert min(res.skipped_zeros, res.n_resampled, res.policy_dropped) > 1000
        assert res.n_accepted + res.skipped_zeros + res.policy_dropped == self.N

    def test_one_chunk_is_the_unchunked_stream(self):
        # at n <= _CHUNK per worker the chunk loop draws exactly what one
        # _eval_node call and the resample loop draw
        spec = chains.parse_chain("Normal(Uniform(-1,1), Uniform(-0.5,2))")
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(9)))
        vals = chains._eval_node(spec, chains._CHUNK, rng)
        bad = ~np.isfinite(vals)
        while bad.any():
            vals[bad] = chains._eval_node(spec, int(bad.sum()), rng)
            bad = ~np.isfinite(vals)
        res = chains.simulate_chain(spec, chains._CHUNK, seed=9, keep_samples=True)
        assert np.array_equal(res.samples, vals[vals != 0.0])

    def test_memory_flat_in_n(self):
        tracemalloc.start()
        try:
            chains.simulate_chain(chains.preset("flehinger"), 3_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * 2**20, peak / 2**20

    @pytest.mark.parametrize("workers", [0, -1, 10**6])
    def test_workers_out_of_range_refused_before_any_thread(self, workers, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        monkeypatch.setattr(chains, "ThreadPoolExecutor", no_pool)
        with pytest.raises(BadParamsError, match="workers"):
            chains.simulate_chain("Uniform(0, 1)", 100, seed=1, workers=workers)


class TestSequentialChiSqr:
    def test_single_node(self):
        out = chains.sequential_chisqr("Uniform(0, 100)", 2000, seed=1)
        assert len(out) == 1
        assert out[0][0] == ()

    def test_bottom_up_order_and_improvement(self):
        text = "Uniform(0, Rayleigh(Rayleigh(Weibull(Uniform(0, 65), Normal(87, 5)))))"
        out = chains.sequential_chisqr(text, 20_000, seed=2)
        by_path = {path: chi for path, _, chi in out}
        root_chi = by_path[()]
        # outermost beats the inner Rayleigh/Weibull stages
        assert root_chi < by_path[(1,)]
        assert root_chi < by_path[(1, 0)]
        assert root_chi < by_path[(1, 0, 0)]
        # root is last in bottom-up order
        assert out[-1][0] == ()

    def test_uniform_chain_monotone_within_noise(self):
        spec = chains.preset("flehinger", depth=5, m=1e5)
        out = chains.sequential_chisqr(spec, 100_000, seed=3)
        chis = [chi for _, _, chi in out]
        # leafward to rootward: non-increasing within a noise factor of 2
        for a, b in zip(chis, chis[1:]):
            assert b <= 2.0 * a + 10.0


class TestChainability:
    def test_weibull_scale_ben(self):
        res = chains.chainability_experiment("weibull", ("lam",), {"k": 2.0}, seed=1)
        assert res.verdict == "BEN"

    def test_weibull_shape_not_chainable(self):
        res = chains.chainability_experiment(
            "weibull", ("k",), {"lam": 1.0},
            chainer=("reciprocal_log", 1.0, 3), seed=1)
        assert res.verdict == "NOT"

    def test_normal_both_ben(self):
        res = chains.chainability_experiment(
            "normal", ("mu", "sigma"), {},
            chainer={"mu": ("reciprocal_log", 0.0, 3), "sigma": ("reciprocal_log", -2.0, 1)},
            seed=1)
        assert res.verdict == "BEN"

    def test_lognormal_chainer(self):
        res = chains.chainability_experiment(
            "rayleigh", ("sigma",), {}, chainer=("lognormal", 0.0, 1.3), seed=2)
        assert res.verdict == "BEN"

    def test_unknown_param_rejected(self):
        with pytest.raises(UnknownPresetError):
            chains.chainability_experiment("weibull", ("nope",), {}, seed=1)

    @pytest.mark.parametrize("chainer", [
        ("uniform", 0.0, 3),  # no such chainer kind
        ("reciprocal_log", 0.0, 0),  # an empty span
        ("reciprocal_log", 0.0, 1.5),  # a span that is not a whole number of decades
        {"lam": ("reciprocal_log", 0.0, -2)},
    ])
    def test_bad_chainer_rejected(self, chainer):
        with pytest.raises(UnknownPresetError):
            chains.chainability_experiment("weibull", ("lam",), {"k": 2.0}, chainer=chainer, seed=1)

    def test_full_grid(self):
        from chainability_grid import GRID

        for row in GRID:
            verdict, _ = chains.chainability_majority(
                row.family, row.chained, row.fixed, chainer=row.chainer,
                seeds=(101, 202, 303), baseline_values=row.baseline or None)
            assert verdict in row.expected.split("|"), (
                f"{row.family} {row.chained}: want {row.expected}, got {verdict}"
            )


class TestInvariance:
    def test_exponential_analytic(self):
        d = chains.power_of_ten_invariance_check(Exponential(0.3), 1, mode="analytic")
        assert d < 1e-9

    def test_normal_both_scaled_analytic(self):
        d = chains.power_of_ten_invariance_check(Normal(5.0, 2.0), 1, mode="analytic")
        assert d < 1e-9

    def test_rayleigh_analytic(self):
        d = chains.power_of_ten_invariance_check(Rayleigh(2.0), 2, mode="analytic")
        assert d < 1e-9

    def test_genexp2_scale_only_breaks(self):
        d = chains.power_of_ten_invariance_check(
            GeneralizedExp2(1.0, 3.0), 1, mode="montecarlo", subset=["rho"], n=10**6, seed=1)
        assert d > 0.01

    def test_rate_loc_form_not_invariant(self):
        d = chains.power_of_ten_invariance_check(
            GeneralizedExp1(1.0, 3.0), 1, mode="montecarlo", n=10**6, seed=2)
        assert d > 0.01

    def test_genexp2_both_scaled_mc_invariant(self):
        # (mu, +inf) support: montecarlo-only confirmation
        d = chains.power_of_ten_invariance_check(
            GeneralizedExp2(1.0, 3.0), 1, mode="montecarlo", n=10**6, seed=3)
        assert d < 0.003


class TestPresets:
    def test_flehinger_equals_parsed(self):
        assert chains.preset("flehinger", depth=4, m=1e5) == chains.parse_chain(
            "Uniform(0,Uniform(0,Uniform(0,Uniform(0,100000))))"
        )

    def test_benford_twist_near_logarithmic(self):
        res = chains.simulate_chain(chains.preset("benford_twist"), 12_000, seed=5)
        assert res.chi_sqr < 15.5

    def test_table8_chain_average(self):
        shares = []
        for seed in range(6):
            res = chains.simulate_chain(chains.preset("table8_chain"), 2000, seed=seed)
            shares.append(res.ld.probs[1])
        assert np.mean(shares) == pytest.approx(0.299, abs=0.02)

    def test_rayleigh_cycles(self):
        res = chains.simulate_chain(chains.preset("rayleigh_cycles", cycles=9), 10_000, seed=6)
        assert res.ld.probs[1] == pytest.approx(0.301, abs=0.02)

    def test_mini_hill_mixture(self):
        spec = chains.preset("mini_hill")
        assert isinstance(spec, chains.MixtureNode)
        assert len(spec.components) == 6
        res = chains.simulate_chain(spec, 50_951, seed=8)
        assert res.n_accepted > 50_000
        # fairly close to the logarithmic, not exactly so
        assert res.ld.probs[1] == pytest.approx(0.30, abs=0.08)

    def test_mixture_never_tallies_zeros(self):
        res = chains.simulate_chain(chains.preset("mini_hill"), 20_000, seed=9)
        assert res.n_requested == res.n_accepted + res.skipped_zeros + res.policy_dropped

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            chains.preset("nope")

    @pytest.mark.parametrize("name,key,most", [("flehinger", "depth", chains._MAX_DEPTH),
                                               ("rayleigh_cycles", "cycles", chains._MAX_DEPTH // 3)])
    def test_nesting_capped(self, name, key, most):
        assert chains.chain_depth(chains.preset(name, **{key: most})) <= chains._MAX_DEPTH
        for count in (0, most + 1, 10**12):
            with pytest.raises(BadParamsError):
                chains.preset(name, **{key: count})


class TestDepthAccounting:
    def test_depth_counts_family_nodes(self):
        assert chains.chain_depth(chains.preset("flehinger", depth=4, m=1e5)) == 4
        assert chains.chain_depth(chains.parse_chain("Normal(0, Uniform(0,3))")) == 2
        spec = chains.parse_chain("Normal(Uniform(0, ChiSqr(Die(6))), Uniform(0, 2))")
        assert chains.chain_depth(spec) == 4
