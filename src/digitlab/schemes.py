"""Deterministic integer averaging schemes: simple, iterated, Benford's twist.

All results are exact (no sampling).  One block kernel, _leader_counts,
counts the leaders of [1, N] for a whole array of N at once in int64
arithmetic, so every bound may be as large as 10^18.  The simple scheme is
a closed form in harmonic numbers over the O(log N) segments on which the
leading digit of N is fixed.  The iterated scheme streams N through the
kernel in blocks of _BLOCK rows, carrying the running sums of the deeper
averages from block to block, so memory stays flat in the range.  The
twist's geometric bounds are exact floors of ub_start*f^j.  An iterated
scheme of more than 10^8 rows, or more than 10^8 windows or geometric
steps, is refused before any work starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .digits import DigitDistribution
from .errors import BadParamsError, TooLargeError

__all__ = [
    "SchemeResult",
    "interval_ld",
    "interval_ld_counts",
    "simple_scheme",
    "iterated_scheme",
    "benford_twist_scheme",
    "scheme_dataset",
    "fixed_width_scheme",
]

_DIGITS = range(1, 10)
_D = np.arange(1, 10, dtype=np.int64)
_BLOCK = 65_536  # rows per kernel call: about 5 MB per (rows, 9) int64 array
_MAX_BOUND = 10**18  # 9 * 10^18 still fits in int64
_MAX_ROWS = 10**8
_MAX_DATASET = 10**7  # values of one scheme_dataset
_GUARD_BITS = 128  # fraction bits of the exact geometric walk
_H_EXACT = 64  # harmonic terms up to 1/64 are summed one by one


@dataclass(frozen=True)
class SchemeResult:
    """Exact first-digit distribution of an averaging scheme."""

    ld: DigitDistribution
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "exact": True,
            "ld_probs": {str(d): p for d, p in sorted(self.ld.probs.items())},
            **self.meta,
        }


def _result(avg: np.ndarray, **meta) -> SchemeResult:
    probs = {d: float(avg[d - 1]) for d in _DIGITS}
    return SchemeResult(ld=DigitDistribution(base=10, probs=probs), meta=meta)


def _check_bounds(**bounds) -> None:
    """The bounds, in the order given, must be integers with 1 <= b1 <= b2 <= ... <= 10^18."""
    vals = tuple(bounds.values())
    if not all(isinstance(v, int) for v in vals):
        raise BadParamsError(f"bounds must be integers, got {vals}")
    if not all(a <= b for a, b in zip((1, *vals), vals)):
        raise BadParamsError(f"need 1 <= {' <= '.join(bounds)}, got {vals}")
    if vals[-1] > _MAX_BOUND:
        raise TooLargeError(f"bound {vals[-1]} exceeds 10^18, the int64 range of the leader count")


def _leader_counts(ns) -> np.ndarray:
    """C[i, d-1] = how many integers in [1, ns[i]] lead with digit d, for 0 <= ns[i] <= 10^18.

    The block formula C_d(N) = sum_k clip(N - d*10^k + 1, 0, 10^k): with 10^E
    the largest power of ten <= N, the decades below E are full and add
    (10^E - 1)/9 between them, the decades above add nothing, so only the
    block of 10^E is clipped.
    """
    ns = np.asarray(ns, dtype=np.int64)
    p = np.ones_like(ns)
    top, q = int(ns.max(initial=0)), 10
    while q <= top:
        p[ns >= q] = q
        q *= 10
    counts = ns[:, None] + 1 - _D * p[:, None]
    np.clip(counts, 0, p[:, None], out=counts)
    counts += ((p - 1) // 9)[:, None]
    return counts


def _shares(lb: int, ns: np.ndarray) -> np.ndarray:
    """Row i = digit shares of the integers [lb, ns[i]], for ns >= lb."""
    return (_leader_counts(ns) - _leader_counts([lb - 1])) / (ns - lb + 1)[:, None]


def _blocks(lo: int, hi: int):
    """lo..hi as consecutive int64 arrays of at most _BLOCK values."""
    for first in range(lo, hi + 1, _BLOCK):
        yield np.arange(first, min(first + _BLOCK, hi + 1), dtype=np.int64)


def interval_ld_counts(lb: int, ub: int) -> dict[int, int]:
    """Exact per-digit leader counts over the integers [lb, ub], 1 <= lb <= ub <= 10^18."""
    _check_bounds(lb=lb, ub=ub)
    below, upto = _leader_counts([lb - 1, ub])
    return {d: int(upto[d - 1] - below[d - 1]) for d in _DIGITS}


def interval_ld(lb: int, ub: int) -> DigitDistribution:
    """First-digit distribution of the discrete uniform on [lb, ub]."""
    counts = interval_ld_counts(lb, ub)
    size = ub - lb + 1
    return DigitDistribution(base=10, probs={d: counts[d] / size for d in _DIGITS})


def _nested_mean(lb: int, starts: tuple[int, ...], lo: int, hi: int) -> np.ndarray:
    """Mean over N in [lo, hi] of v(N), streamed through _leader_counts in blocks of N.

    v(N) starts as the digit shares of [lb, N]; each s of starts in turn
    replaces it by its running mean over [s, N], whose running sum is
    carried from block to block.  Needs lb <= starts[0] <= ... <= lo <= hi.
    """
    if hi - starts[0] + 1 > _MAX_ROWS:
        raise TooLargeError(f"the scheme would evaluate {hi - starts[0] + 1} rows, the cap is 10^8")
    carry = [np.zeros(9) for _ in starts]
    total = np.zeros(9)
    for n in _blocks(starts[0], hi):
        v = _shares(lb, n)
        for i, s in enumerate(starts):
            v[: max(s - n[0], 0)] = 0.0
            v = np.cumsum(v, axis=0)
            v += carry[i]
            carry[i] = v[-1].copy()
            v /= np.maximum(n - s + 1, 1)[:, None]
        total += v[max(lo - n[0], 0) :].sum(axis=0)
    return total / (hi - lo + 1)


def _em_tail(n: int) -> float:
    """H(n) - ln n - gamma to within 1/(240 n^8), by Euler-Maclaurin (TAOCP 1.2.7)."""
    x = 1.0 / n
    x2 = x * x
    return x / 2 - x2 / 12 + x2 * x2 / 120 - x2 * x2 * x2 / 252


def _harmonic_diff(a: int, b: int) -> float:
    """H(b) - H(a) = 1/(a+1) + ... + 1/b for integers 0 <= a <= b.

    Terms below _H_EXACT are summed one by one; above it the difference is
    ln(b/a) plus the difference of the Euler-Maclaurin tails, whose error is
    below 1/(240 * 64^8), about 1.5e-17.
    """
    head = math.fsum(1.0 / k for k in range(a + 1, min(b, _H_EXACT) + 1))
    a = max(a, _H_EXACT)
    if b <= a:
        return head
    return head + math.log1p((b - a) / a) + (_em_tail(b) - _em_tail(a))


def simple_scheme(lb: int, ub_min: int, ub_max: int) -> SchemeResult:
    """Unweighted average of interval_ld(lb, N) for N = ub_min..ub_max, in closed form.

    Between consecutive cut points m*10^k every N leads with the same digit m,
    so C_d(N) - C_d(lb-1) = s_d (N - lb + 1) + r_d there, with s_d = [d == m]
    and an integer r_d.  A segment [u, v] then adds s_d (v - u + 1) +
    r_d (H(v - lb + 1) - H(u - lb)) to the sum of the shares: at most 9 * 19
    segments, so the cost is O(log ub_max) and no row cap applies.
    """
    _check_bounds(lb=lb, ub_min=ub_min, ub_max=ub_max)
    cuts = [m * 10**k for k in range(19) for m in range(1, 10) if ub_min < m * 10**k <= ub_max]
    u = np.array([ub_min, *sorted(cuts)], dtype=np.int64)
    v = np.append(u[1:] - 1, ub_max)
    counts = _leader_counts(u)
    s = counts - _leader_counts(u - 1)  # one-hot: the leading digit of the segment
    r = counts - _leader_counts([lb - 1]) - s * (u - lb + 1)[:, None]
    dh = np.array([_harmonic_diff(a - lb, b - lb + 1) for a, b in zip(u.tolist(), v.tolist())])
    total = (s * (v - u + 1)[:, None]).sum(axis=0) + dh @ r
    avg = total / (ub_max - ub_min + 1)
    return _result(avg, scheme="simple", lb=lb, ub_min=ub_min, ub_max=ub_max)


def iterated_scheme(
    lb: int,
    inner_ub_min: int,
    top_range: tuple[int, int],
    depth: int,
    mid_min: int | None = None,
) -> SchemeResult:
    """Average-of-averages schemes.

    depth 2: average over T in top_range of simple_scheme(lb, inner_ub_min, T).
    depth 3: average over W in top_range of
             [average over T in [mid_min, W] of simple_scheme(lb, inner_ub_min, T)];
             mid_min defaults to inner_ub_min.
    """
    top_lo, top_hi = top_range
    if depth not in (2, 3):
        raise BadParamsError(f"iterated_scheme supports depths 2 and 3, got {depth}")
    if mid_min is None:
        mid_min = inner_ub_min
    mids = {"mid_min": mid_min} if depth == 3 else {}
    _check_bounds(lb=lb, inner_ub_min=inner_ub_min, **mids, top_lo=top_lo, top_hi=top_hi)
    avg = _nested_mean(lb, (inner_ub_min, *mids.values()), top_lo, top_hi)
    return _result(
        avg,
        scheme="iterated",
        lb=lb,
        inner_ub_min=inner_ub_min,
        mid_min=mid_min,
        top_range=list(top_range),
        depth=depth,
    )


def geometric_upper_bounds(growth_percent: float, ub_start: int, ub_end: int) -> list[int]:
    """floor(ub_start * f**j) up to ub_end, consecutive duplicates collapsed.

    f = 1 + r/100 exactly, with r the shortest repr of growth_percent read as
    a Fraction, so each bound is the exact floor.  The rate must be finite
    and > 0, 1 <= ub_start <= ub_end <= 10^18, and reaching ub_end may take
    at most 10^8 steps.
    """
    return list(_geometric_bounds(growth_percent, ub_start, ub_end))


def _geometric_bounds(growth_percent: float, ub_start: int, ub_end: int):
    """Generator behind geometric_upper_bounds; checks its arguments on the first next()."""
    _check_bounds(ub_start=ub_start, ub_end=ub_end)
    if not (math.isfinite(growth_percent) and growth_percent > 0):
        raise BadParamsError(f"growth_percent must be finite and > 0, got {growth_percent}")
    growth = math.log1p(growth_percent / 100.0)
    if growth == 0.0 or math.log((ub_end + 1) / ub_start) > _MAX_ROWS * growth:
        raise TooLargeError(f"growth_percent {growth_percent} needs more than 10^8 steps to reach {ub_end}")
    f = 1 + Fraction(repr(float(growth_percent))) / 100
    fn, fd = f.numerator, f.denominator
    # x is ub_start*f^j*2^_GUARD_BITS rounded down at every step, so it lags
    # by less than sum_{i<j} f^i <= j*f^(j-1) < j*(ub_end + 1): the walk only
    # reaches step j while ub_start*f^(j-1) < ub_end + 1
    x, lag, last = ub_start << _GUARD_BITS, ub_end + 1, None
    for j in itertools.count():
        b = x >> _GUARD_BITS
        if (x + j * lag) >> _GUARD_BITS != b:  # an integer may lie within the lag
            b = ub_start * fn**j // fd**j
        if b > ub_end:
            return
        if b != last:
            yield b
            last = b
        x = x * fn // fd


def benford_twist_scheme(
    growth_percent: float, ub_start: int, ub_end: int, lb: int = 1
) -> SchemeResult:
    """Average of interval_ld(lb, b) over the geometric upper bounds b."""
    _check_bounds(lb=lb, ub_start=ub_start, ub_end=ub_end)
    bounds = _geometric_bounds(growth_percent, ub_start, ub_end)
    total, n_bounds = np.zeros(9), 0
    while (b := np.fromiter(itertools.islice(bounds, _BLOCK), dtype=np.int64)).size:
        total += _shares(lb, b).sum(axis=0)
        n_bounds += b.size
    return _result(
        total / n_bounds,
        scheme="benford_twist",
        growth_percent=growth_percent,
        lb=lb,
        ub_start=ub_start,
        ub_end=ub_end,
        n_bounds=n_bounds,
    )


def fixed_width_scheme(width: int, a_min: int, a_max: int) -> SchemeResult:
    """Average of interval_ld over fixed-width windows [a, a+width-1].

    The counterexample scheme: upper and lower bounds move in unison, so
    nothing close to the logarithmic emerges.
    """
    _check_bounds(a_min=a_min, a_max=a_max, **{"a_max + width - 1": a_max + width - 1})
    if a_max - a_min + 1 > _MAX_ROWS:
        raise TooLargeError(f"{a_max - a_min + 1} windows, the cap is 10^8")
    total = np.zeros(9)
    for a in _blocks(a_min, a_max):
        total += ((_leader_counts(a + width - 1) - _leader_counts(a - 1)) / width).sum(axis=0)
    avg = total / (a_max - a_min + 1)
    return _result(avg, scheme="fixed_width", width=width, a_min=a_min, a_max=a_max)


def scheme_dataset(lb: int, ub_min: int, ub_max: int, seed: int | None = 0):
    """Expand a simple scheme into one grand dataset with duplication.

    Every interval [lb, N] is replicated so each contributes the same number
    of elements as the longest interval: floor(max_len/len) whole copies,
    the remainder filled by seeded random picks from the interval.

    Returns (values, histogram) where histogram[v] is the frequency of the
    integer v (the unadjusted per-unit-length density table).
    """
    _check_bounds(lb=lb, ub_min=ub_min, ub_max=ub_max)
    max_len = ub_max - lb + 1
    est_total = max_len * (ub_max - ub_min + 1)
    if est_total > _MAX_DATASET:
        raise TooLargeError(f"dataset would hold ~{est_total} values, cap is 10^7")
    rng = np.random.default_rng(seed)
    chunks = []
    for n in range(ub_min, ub_max + 1):
        interval = np.arange(lb, n + 1, dtype=np.int64)
        size = n - lb + 1
        copies = max_len // size
        rem = max_len - copies * size
        chunks.append(np.tile(interval, copies))
        if rem:
            chunks.append(rng.choice(interval, size=rem, replace=True))
    values = np.concatenate(chunks)
    hist = np.bincount(values, minlength=ub_max + 1)
    return values, hist
