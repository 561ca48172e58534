"""Independent references and output checkers for the benchmark.

Nothing here imports digitlab or reads an earlier output of it: every
reference is rebuilt from the generated inputs, from closed forms, or from
exact integer arithmetic.  Each checker returns a ``Check``:

- ``mismatches``: output items that disagree with the reference.  For digit
  tallies this is the summed absolute count difference, so a partial fix
  to the digit path lowers it.  A mismatch is recorded, never a failure.
- ``broken``: output invariants that do not hold (counts that do not add
  up, probabilities that do not sum to 1, a chi-square that the printed
  counts do not reproduce).  Any broken invariant fails the command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

BENFORD = [math.log10(1.0 + 1.0 / d) for d in range(1, 10)]

# Absolute tolerance for probabilities computed by exact folding or exact
# integer counts, where only float summation order differs.
EXACT_TOL = 1e-9
# ld_of_density integrates with a 1e-9 quadrature tolerance per interval.
QUADRATURE_TOL = 1e-7
# Largest LD difference still read as "zero" for a scale family.
INVARIANCE_TOL = 1e-12


@dataclass
class Check:
    mismatches: int = 0
    broken: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> "Check":
        self.mismatches += other.mismatches
        self.broken.extend(other.broken)
        return self


def _close(a: float, b: float, rel: float = 1e-9, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def chi_sqr(counts) -> float:
    """Pearson chi-square of digit-1..9 counts against Benford."""
    n = sum(counts)
    return math.fsum((c - n * p) ** 2 / (n * p) for c, p in zip(counts, BENFORD))


# ---------------------------------------------------------------------------
# analyze: digit tallies from each value's shortest repr


def significant_digits(text: str) -> str:
    """Significant digits of the shortest repr of |float(text)|, trailing zeros cut.

    Returns '' for zero.  '12.30' -> '123', '3e-4' -> '3', '500' -> '5'.
    """
    s = repr(abs(float(text)))
    s = s.split("e")[0].replace(".", "")
    return s.lstrip("0").rstrip("0")


def analyze_reference(texts) -> dict:
    """The tallies an analyze report of the numeric texts must print."""
    first = [0] * 10
    second = [0] * 10
    third = [0] * 10
    zeros = excluded2 = excluded3 = 0
    for text in texts:
        digits = significant_digits(text)
        if not digits:
            zeros += 1
            continue
        first[int(digits[0])] += 1
        if len(digits) >= 2:
            second[int(digits[1])] += 1
        else:
            excluded2 += 1
        if len(digits) >= 3:
            third[int(digits[2])] += 1
        else:
            excluded3 += 1
    return {
        "n": sum(first),
        "skipped_zeros": zeros,
        "observed_first": {str(d): first[d] for d in range(1, 10)},
        "observed_second": {str(d): second[d] for d in range(10)},
        "observed_third": {str(d): third[d] for d in range(10)},
        "excluded_second": excluded2,
        "excluded_third": excluded3,
    }


def check_analyze(doc: dict, ref: dict) -> Check:
    """Compare an analyze --json document with analyze_reference()."""
    out = Check()
    for key in ("n", "skipped_zeros", "excluded_second", "excluded_third"):
        out.mismatches += abs(int(doc[key]) - ref[key])
    for key in ("observed_first", "observed_second", "observed_third"):
        got = doc[key]
        out.mismatches += sum(abs(int(got.get(d, 0)) - c) for d, c in ref[key].items())

    n = int(doc["n"])
    first = [int(doc["observed_first"].get(str(d), 0)) for d in range(1, 10)]
    if sum(first) != n:
        out.broken.append(f"first-order tallies sum to {sum(first)}, n = {n}")
    for order, excl in (("observed_second", "excluded_second"), ("observed_third", "excluded_third")):
        total = sum(int(v) for v in doc[order].values()) + int(doc[excl])
        if total != n:
            out.broken.append(f"{order} + {excl} = {total}, n = {n}")
    values = ref["n"] + ref["skipped_zeros"]
    if n + int(doc["skipped_zeros"]) != values:
        out.broken.append(f"n + skipped zeros = {n + int(doc['skipped_zeros'])}, parsed values = {values}")
    if n:
        if not _close(chi_sqr(first), float(doc["chi_sqr_first"])):
            out.broken.append(f"chi-square {doc['chi_sqr_first']} != {chi_sqr(first)} from the counts")
        dev = [abs(c / n - p) for c, p in zip(first, BENFORD)]
        if not _close(max(dev), float(doc["l_inf"])) or not _close(math.fsum(dev), float(doc["l1"])):
            out.broken.append("L-inf / L1 do not follow from the counts")
        masses = doc.get("compartment_masses") or {}
        if abs(math.fsum(masses.values()) - 1.0) > EXACT_TOL:
            out.broken.append("compartment masses do not sum to 1")
        if not 0.0 <= float(doc["mantissa_ks"]) <= 1.0:
            out.broken.append(f"mantissa KS {doc['mantissa_ks']} outside [0, 1]")
    return out


# ---------------------------------------------------------------------------
# chain: invariants only


def check_chain(doc: dict, n: int, seed: int) -> Check:
    out = Check()
    counts = [int(doc["ld_counts"][str(d)]) for d in range(1, 10)]
    accepted = int(doc["n_accepted"])
    skips = int(doc["skipped_zeros"]) + int(doc["policy_dropped"])
    if int(doc["n"]) != n or doc["seed"] != seed:
        out.broken.append(f"document echoes n={doc['n']} seed={doc['seed']}, sent n={n} seed={seed}")
    if accepted + skips != n:
        out.broken.append(f"accepted {accepted} + skips {skips} != n {n}")
    if int(doc["skips"]) != skips:
        out.broken.append("skips != skipped_zeros + policy_dropped")
    if sum(counts) != accepted:
        out.broken.append(f"digit counts sum to {sum(counts)}, accepted = {accepted}")
    if int(doc["n_resampled"]) < 0:
        out.broken.append("negative resample count")
    if accepted:
        probs = [float(doc["ld_probs"][str(d)]) for d in range(1, 10)]
        if abs(math.fsum(probs) - 1.0) > EXACT_TOL:
            out.broken.append("probabilities do not sum to 1")
        if any(abs(p - c / accepted) > 1e-12 for p, c in zip(probs, counts)):
            out.broken.append("probabilities do not follow from the counts")
        if not _close(chi_sqr(counts), float(doc["chi_sqr"])):
            out.broken.append(f"chi-square {doc['chi_sqr']} != {chi_sqr(counts)} from the counts")
    if bool(doc["valid"]) != (skips / n <= 0.01):
        out.broken.append("validity flag disagrees with the skip rate")
    return out


# ---------------------------------------------------------------------------
# growth scan: brute-force best L/T


def scan_rates(lo: float, hi: float, step: float) -> list[float]:
    """The documented scan grid lo + i*step, i = 0..round((hi-lo)/step)."""
    return [lo + i * step for i in range(int(round((hi - lo) / step)) + 1)]


def anomaly_reference(rates, n_elements: int, t_max: int):
    """Per rate, the (L, T) flag detect_anomalous documents, or None.

    Brute force over every T <= t_max: the closest L/T to
    x = log10(1 + P/100), flagged when it sits within tol = 1/(2 n) of x
    and the power identity T x = L holds within 10 tol max(1, L).
    """
    tol = 0.5 / n_elements
    x = np.array([math.log10(1.0 + p / 100.0) for p in rates])
    t = np.arange(1, t_max + 1, dtype=np.float64)
    num = np.rint(x[:, None] * t[None, :])
    err = np.abs(x[:, None] - num / t[None, :])
    best = np.argmin(err, axis=1)  # first minimum: the smallest T, hence reduced
    rows = np.arange(len(rates))
    L, T, e = num[rows, best].astype(np.int64), best + 1, err[rows, best]
    out = []
    for xi, li, ti, ei in zip(x, L, T, e):
        ok = (xi > 0 and li >= 1 and ei <= tol
              and abs(ti * xi - li) <= 10.0 * tol * max(1.0, float(li)))
        out.append((int(li), int(ti)) if ok else None)
    return out


def check_growth_scan(csv_text: str, doc: dict, rates, flags) -> Check:
    out = Check()
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "rate_percent,chi_sqr,anomaly_L,anomaly_T":
        out.broken.append("scan CSV header missing")
        return out
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(rates):
        out.broken.append(f"scan CSV has {len(rows)} rows, grid has {len(rates)}")
        return out
    flagged = spikes = near_50 = 0
    for (pct, chi, L, T), rate, ref in zip(rows, rates, flags):
        if pct != f"{rate:.6g}":
            out.broken.append(f"scan row {pct} is not grid rate {rate:.6g}")
            break
        c = float(chi)
        if not (math.isfinite(c) and c >= 0):
            out.broken.append(f"chi-square {chi} at rate {pct}")
        spikes += c > 50
        near_50 += abs(c - 50) <= 1e-4 * 50
        got = (int(L), int(T)) if L else None
        flagged += got is not None
        out.mismatches += int(got != ref)
    if int(doc["rates"]) != len(rows) or int(doc["flagged"]) != flagged:
        out.broken.append("summary counts do not match the CSV rows")
    if abs(int(doc["spikes"]) - spikes) > near_50:
        out.broken.append("spike count does not match the CSV rows")
    return out


# ---------------------------------------------------------------------------
# exact: closed forms and integer interval counts


def check_ld(probs: dict, ref, tol: float) -> Check:
    """A 1..9 digit law against a reference vector."""
    out = Check()
    got = [float(probs[str(d)]) for d in range(1, 10)]
    if abs(math.fsum(got) - 1.0) > EXACT_TOL:
        out.broken.append(f"probabilities sum to {math.fsum(got)}")
    if any(not -1e-12 <= p <= 1 + 1e-12 for p in got):
        out.broken.append("probability outside [0, 1]")
    out.mismatches += sum(abs(g - r) > tol for g, r in zip(got, ref))
    return out


def shifted_kx_reference() -> list[float]:
    """LD of (1/ln 10)/(x - 4) on [5, 14]: the mass of [a, b] is log10((b-4)/(a-4))."""
    probs = [0.0] * 9
    for j in (0, 1):
        for d in range(1, 10):
            a, b = max(5.0, d * 10.0**j), min(14.0, (d + 1) * 10.0**j)
            if b > a:
                probs[d - 1] += math.log10((b - 4.0) / (a - 4.0))
    return probs


def _semicircle_cdf(y: Fraction, center: Fraction, radius: Fraction) -> float:
    """CDF of the semicircle law on [c-r, c+r], conditioned at both ends.

    1 - v^2 is formed from the exact distances to the two ends, so the
    square root keeps full precision next to an end, where the textbook
    form r^2 - u^2 cancels.
    """
    below, above = y - (center - radius), (center + radius) - y
    if below <= 0:
        return 0.0
    if above <= 0:
        return 1.0
    v = float((y - center) / radius)
    s = math.sqrt(float(below * above / (radius * radius)))
    return 0.5 + (v * s + math.atan2(v, s)) / math.pi


def _semicircle_mod1_mass(lo: Fraction, hi: Fraction, center: Fraction, radius: Fraction) -> float:
    ks = range(math.floor(center - radius) - 1, math.ceil(center + radius) + 2)
    return math.fsum(_semicircle_cdf(k + hi, center, radius) - _semicircle_cdf(k + lo, center, radius)
                     for k in ks)


def semicircle_reference(center: float, radius: float, bins: int):
    """(LD, mantissa density per bin) of 10**Y, Y semicircular on [c-r, c+r].

    The end points and bin edges are exact rationals (center and radius as
    the decimals the command line passes).
    """
    c, r = Fraction(repr(center)), Fraction(repr(radius))
    edges = [Fraction(math.log10(d)) for d in range(1, 10)] + [Fraction(1)]
    probs = [_semicircle_mod1_mass(edges[i], edges[i + 1], c, r) for i in range(9)]
    density = [bins * _semicircle_mod1_mass(Fraction(i, bins), Fraction(i + 1, bins), c, r)
               for i in range(bins)]
    return probs, density


def check_density(density, ref) -> Check:
    out = Check()
    if len(density) != len(ref):
        out.broken.append(f"{len(density)} density bins, asked for {len(ref)}")
        return out
    if abs(math.fsum(density) / len(density) - 1.0) > EXACT_TOL:
        out.broken.append("mantissa density does not integrate to 1")
    out.mismatches += sum(abs(float(g) - r) > EXACT_TOL for g, r in zip(density, ref))
    return out


def leading_counts(ub) -> list[np.ndarray]:
    """counts[d-1][i] = how many integers in [1, ub[i]] lead with digit d.

    Integer arithmetic only.  With 10^E the largest power of ten <= ub
    (found by exact comparison), every digit owns (10^E - 1)/9 integers of
    the lower decades, plus the part of [d 10^E, (d+1) 10^E - 1] up to ub.
    """
    ub = np.asarray(ub, dtype=np.int64)
    p = np.ones_like(ub)
    q = 10
    while q <= int(ub.max()):
        p[ub >= q] = q
        q *= 10
    lower = (p - 1) // 9
    return [lower + np.clip(ub - d * p + 1, 0, p) for d in range(1, 10)]


def simple_scheme_reference(ub_min: int, ub_max: int) -> list[float]:
    """Mean over N in [ub_min, ub_max] of the digit shares of [1, N]."""
    n = np.arange(ub_min, ub_max + 1, dtype=np.int64)
    return [float((c / n).mean()) for c in leading_counts(n)]


def iterated_scheme_reference(top_lo: int, top_hi: int) -> list[float]:
    """Depth-3 average with lb = inner = mid = 1 over W in [top_lo, top_hi]."""
    n = np.arange(1, top_hi + 1, dtype=np.int64)
    out = []
    for c in leading_counts(n):
        level2 = np.cumsum(c / n) / n
        level3 = np.cumsum(level2) / n
        out.append(float(level3[top_lo - 1 : top_hi].mean()))
    return out


def twist_bounds(rate_num: int, rate_den: int, start: int, end: int) -> list[int]:
    """floor(start (1 + rate/100)^j) up to end, duplicates collapsed, rate = num/den exactly."""
    f_num, f_den = 100 * rate_den + rate_num, 100 * rate_den
    bounds: list[int] = []
    num, den = start, 1
    while num // den <= end:
        b = num // den
        if not bounds or b != bounds[-1]:
            bounds.append(b)
        num, den = num * f_num, den * f_den
    return bounds


def twist_scheme_reference(rate_num: int, rate_den: int, start: int, end: int):
    """(mean digit shares of [1, b] over the twist bounds b, number of bounds)."""
    bounds = np.array(twist_bounds(rate_num, rate_den, start, end), dtype=np.int64)
    return [float((c / bounds).mean()) for c in leading_counts(bounds)], len(bounds)


def check_twist(probs: dict, n_bounds: int, ref) -> Check:
    """ref is twist_scheme_reference(); a wrong bound count is one more mismatch."""
    out = check_ld(probs, ref[0], EXACT_TOL)
    out.mismatches += int(n_bounds != ref[1])
    return out


def check_invariance(diff: float) -> Check:
    """A scale family's LD does not move under 10**m: the reference is 0."""
    out = Check()
    if not (math.isfinite(diff) and diff >= 0):
        out.broken.append(f"LD difference {diff}")
    out.mismatches += int(diff > INVARIANCE_TOL)
    return out
