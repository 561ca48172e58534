"""The traced run: an in-process replay of a workload's inputs, one span per call.

The replay calls each module's public functions from here, never from
inside the program, and records a span (name, start, end, parent id)
around every call or standalone loop, plus counts.  Spans stay in memory
and are returned at the end; a name's self time is its span time minus
the time its child spans cover.

The replay runs once to warm up, then alternately with spans off and on
(OVERHEAD_ROUNDS times each, in ABBA order; the relative difference of
the two totals is ``trace.overhead_frac``) and, for the workloads whose
layers allocate large arrays, once more under tracemalloc for the
``*.alloc_peak_mb`` metrics.  Layers a workload does not reach report 0.
"""

from __future__ import annotations

import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import refs
import workloads as W

# time metric -> the span whose self time it reports
SPAN_OF = {
    "cli.ingest_s": "cli.ingest",
    "conformity.report_s": "conformity.report",
    "conformity.mantissa_ks_s": "conformity.mantissa_uniformity_test",
    "conformity.allotment_s": "conformity.compartmental_allotment_test",
    "conformity.chi_sqr_s": "conformity.chi_sqr_vs_benford",
    "digits.digit_pattern_s": "digits.digit_pattern",
    "digits.first_digit_s": "digits.first_digit",
    "distributions.sample_n_s.Uniform": "distributions.sample_n.Uniform",
    "distributions.sample_n_s.Normal": "distributions.sample_n.Normal",
    "distributions.sample_n_s.Gompertz": "distributions.sample_n.Gompertz",
    "chains.parse_s": "chains.parse_chain",
    "chains.simulate_s.flehinger": "chains.simulate_chain.flehinger",
    "chains.simulate_s.Gompertz": "chains.simulate_chain.Gompertz",
    "chains.simulate_s.Normal": "chains.simulate_chain.Normal",
    "chains.invariance_s": "chains.power_of_ten_invariance_check",
    "growth.rate_scan_s": "growth.rate_scan",
    "growth.series_ld_s": "growth.series_ld",
    "growth.detect_anomalous_s": "growth.detect_anomalous",
    "schemes.simple_s": "schemes.simple_scheme",
    "schemes.iterated_s": "schemes.iterated_scheme",
    "schemes.twist_s": "schemes.benford_twist_scheme",
    "analytic.ld_of_density_s": "analytic.ld_of_density",
    "analytic.ld_ten_to_symmetric_s": "analytic.ld_ten_to_symmetric",
    "analytic.mantissa_density_s": "analytic.mantissa_density",
}

COUNT_METRICS = ("cli.rows", "cli.malformed", "digits.calls", "conformity.chi_sqr_calls",
                 "chains.draws_attempted", "chains.resampled", "growth.rates", "growth.elements")

# import metric -> top-level package whose self import time it sums ('' = all)
IMPORT_METRICS = {"import.total_s": "", "import.scipy_s": "scipy",
                  "import.numpy_s": "numpy", "import.digitlab_s": "digitlab"}

# alloc metric -> span-name prefix whose tracemalloc peaks it takes the max of
ALLOC_OF = {"chains.alloc_peak_mb": "chains.simulate_chain.", "schemes.alloc_peak_mb": "schemes."}
ALLOC_WORKLOADS = ("chain", "exact")
OVERHEAD_ROUNDS = 2


class Tracer:
    """In-memory spans and counts; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peaks: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        if tracemalloc.is_tracing():
            tracemalloc.reset_peak()
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if tracemalloc.is_tracing():
                self.alloc_peaks[name] = max(self.alloc_peaks[name], tracemalloc.get_traced_memory()[1])

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return dict(out)


# ---------------------------------------------------------------------------
# import profile


def parse_importtime(text: str) -> dict[str, float]:
    """Self seconds per top-level package from `python -X importtime` stderr.

    Also returns the sum over every imported module under the key ''.
    """
    out: dict[str, float] = defaultdict(float)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue  # the header line
        seconds = int(parts[0]) / 1e6
        out[parts[2].strip().split(".")[0]] += seconds
        out[""] += seconds
    return dict(out)


def import_profile(env: dict, repeats: int = 3) -> dict[str, float]:
    """Median import.* metrics over a few `import digitlab.cli` processes."""
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import digitlab.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {m: statistics.median(r.get(k, 0.0) for r in runs) for m, k in IMPORT_METRICS.items()}


# ---------------------------------------------------------------------------
# replays: each returns the reference check of its in-process outputs


def replay_analyze(p: dict, tr: Tracer) -> refs.Check:
    from digitlab import cli, conformity, digits

    check = refs.Check()
    for path, fmt, column, ref in p["files"]:
        with tr.span("cli.ingest"):
            values, malformed = cli.ingest(path, fmt, column)
        tr.count("cli.rows", values.size + malformed)
        tr.count("cli.malformed", malformed)
        vals = np.abs(values)
        with tr.span("conformity.report"):
            rep = conformity.report(vals)
        check.add(refs.check_analyze(rep.to_json_dict(), ref))
        with tr.span("conformity.mantissa_uniformity_test"):
            conformity.mantissa_uniformity_test(vals)
        with tr.span("conformity.compartmental_allotment_test"):
            conformity.compartmental_allotment_test(vals)
        nonzero = [float(v) for v in vals if v != 0]
        with tr.span("digits.digit_pattern"):
            for x in nonzero:
                digits.digit_pattern(x, 3)
        with tr.span("digits.first_digit"):
            for x in nonzero:
                digits.first_digit(x)
        tr.count("digits.calls", 2 * len(nonzero))
    return check


def replay_chain(p: dict, tr: Tracer) -> refs.Check:
    from digitlab import chains
    from digitlab.distributions import Gompertz, Normal, Uniform

    check = refs.Check()
    for run in p["runs"]:
        kind, text = run["selector"]
        with tr.span("chains.parse_chain"):
            spec = chains.preset(text) if kind == "--preset" else chains.parse_chain(text)
        with tr.span(f"chains.simulate_chain.{run['label']}"):
            res = chains.simulate_chain(spec, run["n"], seed=run["seed"], workers=run["threads"])
        check.add(refs.check_chain(res.to_json_dict(), run["n"], run["seed"]))
        tr.count("chains.draws_attempted", run["n"] + res.n_resampled)
        tr.count("chains.resampled", res.n_resampled)
        tr.count("chains.accepted", res.n_accepted)
    # one representative member of each family in the specs, at the command's n
    models = {"Uniform": Uniform(0.0, 1e5), "Gompertz": Gompertz(5.0, 1.0), "Normal": Normal(0.0, 1.0)}
    sizes = {"Uniform": W.CHAIN_COMMANDS[0][2], "Gompertz": W.CHAIN_COMMANDS[1][2],
             "Normal": W.CHAIN_COMMANDS[2][2]}
    for family, model in models.items():
        rng = np.random.default_rng(p["runs"][0]["seed"])
        with tr.span(f"distributions.sample_n.{family}"):
            model.sample_n(sizes[family], rng)
    return check


def replay_growth_scan(p: dict, tr: Tracer) -> refs.Check:
    from digitlab import conformity, growth

    with tr.span("growth.rate_scan"):
        cells = growth.rate_scan(p["lo"], p["hi"], W.SCAN_STEP, W.SCAN_N, p["base"], W.SCAN_T_MAX)
    doc = {"rates": len(cells), "spikes": sum(c.chi_sqr > 50 for c in cells),
           "flagged": sum(c.anomaly is not None for c in cells)}
    check = refs.check_growth_scan(growth.scan_to_csv(cells), doc, p["rates"], p["flags"])
    dists = []
    with tr.span("growth.series_ld"):
        for pct in p["rates"]:
            dists.append(growth.series_ld(growth.GrowthSeries(base=p["base"], percent=pct,
                                                              length=W.SCAN_N))[0])
    with tr.span("growth.detect_anomalous"):
        for pct in p["rates"]:
            growth.detect_anomalous(pct, W.SCAN_T_MAX, tol=0.5 / W.SCAN_N)
    counts = [np.rint(np.array(d.first_order_vector()) * W.SCAN_N) for d in dists]
    with tr.span("conformity.chi_sqr_vs_benford"):
        for c in counts:
            conformity.chi_sqr_vs_benford(c)
    tr.count("growth.rates", len(p["rates"]))
    tr.count("growth.elements", len(p["rates"]) * W.SCAN_N)
    tr.count("conformity.chi_sqr_calls", len(counts))
    return check


def _shifted_kx_pdf(x: float) -> float:
    return (1.0 / math.log(10.0)) / (x - 4.0) if 5.0 <= x <= 14.0 else 0.0


def replay_exact(p: dict, tr: Tracer) -> refs.Check:
    from digitlab import analytic, chains, schemes
    from digitlab.distributions import Normal

    def ld(dist):
        return {str(d): dist.probs[d] for d in range(1, 10)}

    check = refs.Check()
    with tr.span("schemes.simple_scheme"):
        res = schemes.simple_scheme(1, 1, W.SIMPLE_UB_MAX)
    check.add(refs.check_ld(ld(res.ld), p["simple_ref"], refs.EXACT_TOL))
    with tr.span("schemes.iterated_scheme"):
        res = schemes.iterated_scheme(1, 1, W.ITERATED_TOP, 3)
    check.add(refs.check_ld(ld(res.ld), p["iterated_ref"], refs.EXACT_TOL))
    with tr.span("schemes.benford_twist_scheme"):
        res = schemes.benford_twist_scheme(W.TWIST_RATE[0] / W.TWIST_RATE[1], W.TWIST_START, W.TWIST_END)
    check.add(refs.check_twist(ld(res.ld), res.meta["n_bounds"], p["twist_ref"]))
    with tr.span("analytic.ld_of_density"):
        dist = analytic.ld_of_density(_shifted_kx_pdf, (5.0, 14.0))
    check.add(refs.check_ld(ld(dist), p["kx_ref"], refs.QUADRATURE_TOL))
    spec = analytic.SemiCircularLog(p["center"], p["radius"])
    with tr.span("analytic.ld_ten_to_symmetric"):
        dist = analytic.ld_ten_to_symmetric(spec)
    check.add(refs.check_ld(ld(dist), p["semi_ref"], refs.EXACT_TOL))
    with tr.span("analytic.mantissa_density"):
        hist = analytic.mantissa_density(spec, W.SEMICIRCLE_BINS)
    check.add(refs.check_density(list(hist), p["density_ref"]))
    with tr.span("chains.power_of_ten_invariance_check"):
        diff = chains.power_of_ten_invariance_check(Normal(p["mu"], p["sigma"]), W.INVARIANCE_M)
    check.add(refs.check_invariance(diff))
    return check


REPLAYS = {"analyze": replay_analyze, "chain": replay_chain,
           "growth-scan": replay_growth_scan, "exact": replay_exact}


# ---------------------------------------------------------------------------


def layer_metrics(tracers: list[Tracer], alloc_peaks: dict, imports: dict, overhead: float,
                  mismatches: int, failed_frac: float) -> dict[str, float]:
    """Every per-layer metric; a layer the replay did not reach reads 0.

    Times are mean self times over the traced passes; counts come from the last.
    """
    tr = tracers[-1]
    self_t = {name: statistics.fmean(t.self_times().get(name, 0.0) for t in tracers)
              for name in tr.self_times()}
    out = dict(imports)
    for metric, span in SPAN_OF.items():
        out[metric] = self_t.get(span, 0.0)
    for metric in COUNT_METRICS:
        out[metric] = tr.counts.get(metric, 0)
    attempted = out["chains.draws_attempted"]
    out["chains.accept_ratio"] = tr.counts["chains.accepted"] / attempted if attempted else 0.0
    for metric, prefix in ALLOC_OF.items():
        out[metric] = max((v for k, v in alloc_peaks.items() if k.startswith(prefix)), default=0) / 2**20
    out["trace.overhead_frac"] = overhead
    out["ref_mismatches"] = mismatches
    out["failed_frac"] = failed_frac
    return out


def run(workload: W.Workload, root: str, env: dict) -> dict:
    """Replay the workload in process; returns the result fields of a traced run."""
    sys.path.insert(0, os.path.join(root, "src"))
    replay = REPLAYS[workload.name]
    imports = import_profile(env)

    replay(workload.params, Tracer(enabled=False))  # warm-up: lazy imports, allocator, caches
    elapsed, tracers = {False: 0.0, True: 0.0}, []
    for traced_first in (False, True) * (OVERHEAD_ROUNDS // 2):  # ABBA: order and drift cancel
        for on in (traced_first, not traced_first):
            tr = Tracer(enabled=on)
            t0 = time.perf_counter()
            with tr.span(f"workload.{workload.name}"):
                check = replay(workload.params, tr)
            elapsed[on] += time.perf_counter() - t0
            if on:
                tracers.append(tr)

    alloc_peaks: dict = {}
    if workload.name in ALLOC_WORKLOADS:
        alloc_tr = Tracer()
        tracemalloc.start()
        try:
            replay(workload.params, alloc_tr)
        finally:
            tracemalloc.stop()
        alloc_peaks = dict(alloc_tr.alloc_peaks)

    tr = tracers[-1]
    calls = len(tr.spans) - 1  # the workload's root span is not a call
    failed = min(calls, len(check.broken))
    overhead = (elapsed[True] - elapsed[False]) / elapsed[False]
    metrics = layer_metrics(tracers, alloc_peaks, imports, overhead, check.mismatches, failed / calls)
    return {
        "attempted": calls,
        "failed": failed,
        "metrics": metrics,
        "broken": check.broken,
        "untraced_replay_s": elapsed[False],
        "traced_replay_s": elapsed[True],
        "spans": tr.spans,
        "self_times": tr.self_times(),
    }
