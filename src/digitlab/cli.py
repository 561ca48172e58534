"""Command-line interface: dataset ingestion and subcommand dispatch.

One binary, one subcommand per module family:

    digitlab analyze   <file> [--format csv --column amount ...]
    digitlab chain     --spec 'Uniform(0, Uniform(0, 1e5))' --n 100000
    digitlab scheme    simple --lb 1 --ub-min 1 --ub-max 9999
    digitlab analytic  kx --s 0 --g 3
    digitlab growth    anomalies --l 1 --t-max 50
    digitlab invariance --family exponential --params 0.3 --m 1

Exit codes follow one rule for every command: 0 on success, else the
exit_code of the error raised (errors.py): 2 for a bad argument or an
unreadable or unwritable file, 3 for empty or unparseable data, 4 for a
numerical failure.  --json writes the same numbers the table shows; every
JSON document embeds a reproducibility manifest.  Each command imports the
one module it runs, so a start loads no other.
"""

from __future__ import annotations

import argparse
import array
import csv
import itertools
import json
import math
import os
import sys
import time
from dataclasses import fields

# No command does threaded BLAS work (its matrix products have a few dozen
# terms), yet OpenBLAS starts a worker per CPU when numpy loads, and each spins
# for about 0.1 s of CPU before it sleeps: on a busy machine that slows the main
# thread by a varying amount.  A value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__
from .digits import benford_first
from .errors import BadParamsError, DigitLabError, EmptyInputError

EXIT_OK = 0
EXIT_USAGE = 2

# glibc serves each allocation of 128 KiB or more from its own mmap, unmapped on
# free, and gives back the heap top once 128 KiB of it is free: the blocks a growth
# scan or a chain allocates and frees over and over then fault in page by page each
# time.  The thresholds below keep freed memory in the process.  Measured by wait4 on
# 2 vCPUs, the benchmark's 14,901-rate scan went from 93.7k minor faults and 0.70 s
# to 7.1k and 0.52 s, and a 3e6-draw flehinger chain from 60.0k faults and 0.67 s to
# 6.4k and 0.55 s, its peak RSS within 0.5 MB.  Any pair above the largest block
# churned (a chain's 256 KiB buffer arrays) does as well: 1 MiB / 32 MiB and
# 4 MiB / 8 MiB measured the same faults and times within noise.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8  # mallopt parameters, as in malloc.h
_MMAP_THRESHOLD = 64 << 20
_TRIM_THRESHOLD = 256 << 20
# glibc gives each thread that allocates an arena of its own, and the memory one
# arena keeps free no other thread can use.  With one arena for all threads, a
# 2e6-draw chain on 2 threads peaked at 42.3 MB against 43.6 MB, and on 4 threads
# at 45.9 MB against 47.9 MB, its wall time within noise (wait4, 9 alternating runs)
_ARENA_MAX = 1


def _keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds and share one arena; a no-op off glibc."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # no C library handle, or a libc without mallopt
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_ARENA_MAX, _ARENA_MAX)


def _manifest(args: argparse.Namespace) -> dict:
    import hashlib  # loads OpenSSL: only a run that writes --json pays for it

    argv = getattr(args, "_argv", [])
    digest = hashlib.sha256(" ".join(argv).encode()).hexdigest()[:16]
    return {
        "command_line": argv,
        "seed": getattr(args, "seed", None),
        "config_digest": digest,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _emit(args, payload: dict, table: str) -> None:
    if not getattr(args, "quiet", False):
        print(table)
    if getattr(args, "json", None):
        payload = dict(payload)
        payload["manifest"] = _manifest(args)
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _ld_table(probs: dict, extra: dict | None = None) -> str:
    lines = ["digit  probability  benford", "-----  -----------  -------"]
    for d in range(1, 10):
        lines.append(f"{d:>5}  {probs.get(d, 0.0):>11.5f}  {benford_first(d):>7.5f}")
    for key, val in (extra or {}).items():
        lines.append(f"{key}: {val}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# ingestion


_BLOCK = 1 << 12  # lines or CSV rows converted at a time: memory stays flat in file size
_OUTSIDE = np.ones(256, dtype=bool)  # the bytes a stripped float text may not hold
_OUTSIDE[np.frombuffer(b"0123456789+-.eE", np.uint8)] = False


def _convert(items: list[str]) -> tuple[np.ndarray, int]:
    """Stripped lines or fields as floats, NaN where Python's float raises or where a
    character outside 0-9 + - . e E is left (one table pass); and the number of blanks."""
    items = list(map(str.strip, items))
    out: list[float] = []
    numbers = map(float, items)
    while True:
        try:
            out.extend(numbers)
            break
        except ValueError:  # the map resumes after the line that raised
            out.append(math.nan)
    values = np.array(out, dtype=np.float64)
    text = "".join(items).encode("ascii", "replace")  # one byte a character, non-ASCII as '?'
    odd = np.flatnonzero(_OUTSIDE[np.frombuffer(text, np.uint8)])
    if odd.size:
        ends = np.cumsum(np.fromiter(map(len, items), np.intp, len(items)))
        values[np.searchsorted(ends, odd, side="right")] = math.nan
    return values, items.count("")


def ingest(path: str, fmt: str, selector: str | None):
    """Read values per the ingest spec; returns (values, n_malformed).

    Plain lines and CSV fields go through _convert a block at a time: a blank
    plain line is skipped, a blank CSV field or short row is malformed.
    """
    kept, malformed = array.array("d"), 0  # one growing buffer: no pile of block arrays
    limit = csv.field_size_limit(sys.maxsize)  # a long field is read, then found malformed
    try:
        with open(path, encoding="utf-8", errors="replace", newline="") as fh:
            if fmt == "plain":
                items = fh
            elif fmt == "csv":
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    return np.array([]), 0
                if selector is None:
                    raise DigitLabError("CSV ingestion needs --column")
                if not (selector.isdigit() or selector in header):
                    raise DigitLabError(f"column {selector!r} not in header {header}")
                idx = int(selector) if selector.isdigit() else header.index(selector)
                items = (row[idx] if idx < len(row) else "" for row in reader)
            elif fmt == "jsonl":
                if selector is None:
                    raise DigitLabError("JSONL ingestion needs --field")
                parts, found = selector.split("."), []
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        obj = json.loads(line)
                        for p in parts:
                            obj = obj[p]
                        v = float(obj)
                    except (ValueError, TypeError, KeyError, json.JSONDecodeError):
                        malformed += 1
                        continue
                    if math.isfinite(v):
                        found.append(v)
                    else:
                        malformed += 1
                return np.array(found, dtype=np.float64), malformed
            else:
                raise DigitLabError(f"unknown format {fmt!r}")
            for block in iter(lambda: list(itertools.islice(items, _BLOCK)), []):
                values, blank = _convert(block)
                finite = np.isfinite(values)
                kept.frombytes(values[finite].tobytes())
                malformed += values.size - int(finite.sum()) - (blank if fmt == "plain" else 0)
    finally:
        csv.field_size_limit(limit)
    return np.frombuffer(kept, dtype=np.float64), malformed


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> None:
    from . import conformity

    values, malformed = ingest(args.path, args.format, args.column or args.field)
    if args.min_magnitude is not None:
        values = values[np.abs(values) >= args.min_magnitude]
    if values.size == 0 or not np.any(values != 0):
        raise EmptyInputError("no parseable nonzero values")
    rep = conformity.report(values)
    lines = [
        f"n = {rep.n}   zeros skipped = {rep.skipped_zeros}   malformed = {malformed}",
        "",
        "digit  1st-order  share    2nd-order  3rd-order  benford-1st",
    ]
    n2 = max(1, sum(rep.observed_second.values()))
    n3 = max(1, sum(rep.observed_third.values()))
    for d in range(10):
        c1 = rep.observed_first.get(d, 0)
        share = rep.compartment_masses.get(d, 0.0)
        b = f"{benford_first(d):.4f}" if d > 0 else "     -"
        lines.append(
            f"{d:>5}  {c1:>9}  {share:.4f}   {rep.observed_second.get(d, 0) / n2:>9.4f}"
            f"  {rep.observed_third.get(d, 0) / n3:>9.4f}  {b}"
        )
    lines += [
        "",
        f"chi-square (1st order, 8 dof): {rep.chi_sqr_first:.2f}"
        f"   (0.01 critical value: {rep.chi_sqr_critical_001:.2f})",
        f"L-inf: {rep.l_inf:.5f}   L1: {rep.l1:.5f}",
        f"mantissa KS: {rep.mantissa_ks:.5f}   (0.01 critical: {rep.mantissa_ks_critical:.5f})",
    ]
    for a in rep.annotations:
        lines.append(f"note: {a}")
    _emit(args, {**rep.to_json_dict(), "malformed": malformed}, "\n".join(lines))


def cmd_chain(args) -> None:
    from . import chains

    if args.preset:
        kw = {}
        if args.depth is not None:
            kw["depth"] = args.depth
        if args.m is not None:
            kw["m"] = args.m
        if args.cycles is not None:
            kw["cycles"] = args.cycles
        spec = chains.preset(args.preset, **kw)
    else:
        spec = chains.parse_chain(args.spec)
    policy = chains.ResamplePolicy(max_attempts=args.max_attempts, on_exhaustion=args.on_exhaustion)
    res = chains.simulate_chain(
        spec, args.n, seed=args.seed, policy=policy,
        keep_samples=args.samples is not None, workers=args.threads,
    )
    if args.samples is not None:
        np.savetxt(args.samples, res.samples)
    extra = {
        "spec": res.spec_text,
        "n accepted": res.n_accepted,
        "resampled": res.n_resampled,
        "skipped zeros": res.skipped_zeros,
        "policy dropped": res.policy_dropped,
        "chi-square": f"{res.chi_sqr:.2f}",
        "valid": res.valid,
    }
    _emit(args, res.to_json_dict(), _ld_table(res.ld.probs, extra))


def cmd_scheme(args) -> None:
    from . import schemes

    if args.kind == "simple":
        res = schemes.simple_scheme(args.lb, args.ub_min, args.ub_max)
    elif args.kind == "iterated":
        res = schemes.iterated_scheme(args.lb, args.inner_min, args.top, args.depth, mid_min=args.mid_min)
    else:  # twist
        res = schemes.benford_twist_scheme(args.rate, args.start, args.end, lb=args.lb)
    _emit(args, res.to_json_dict(), _ld_table(res.ld.probs, {"scheme": res.meta.get("scheme")}))


def cmd_analytic(args) -> None:
    from . import analytic

    if args.case == "kx":
        dist = analytic.ld_kx(args.s, args.g)
    elif args.case == "power-law":
        dist = analytic.ld_power_law(args.m, args.lo, args.hi)
    elif args.case == "exponential":
        dist = analytic.ld_exponential(args.p)
    elif args.case == "ten-to-uniform":
        spec = analytic.UniformLog(args.r, args.s)
    elif args.case == "ten-to-triangular":
        spec = analytic.TriangularLog(args.a, args.mode, args.b)
    elif args.case == "ten-to-semicircle":
        spec = analytic.SemiCircularLog(args.center, args.radius)
    elif args.case == "shifted-kx":
        dist = analytic.ld_of_density(
            lambda x: (1.0 / np.log(10.0)) / (x - 4.0) if 5.0 <= x <= 14.0 else 0.0,
            (5.0, 14.0),
        )
    elif args.case == "mixed-sign-kx":
        dist = analytic.ld_of_density(
            lambda x: (1.0 / np.log(10.0)) / (x + 4.0) if -3.0 <= x <= 6.0 else 0.0,
            (-3.0, 6.0),
        )
    else:  # ratio-uniforms
        dist = analytic.ratio_of_uniforms_ld()
    if args.case.startswith("ten-to-"):
        dist = analytic.ld_ten_to_symmetric(spec)
        hist = analytic.mantissa_density(spec, args.bins)
        if args.csv:
            _write_csv(args.csv, ["bin_lo", "bin_hi", "density"],
                       [(i / len(hist), (i + 1) / len(hist), h) for i, h in enumerate(hist)])
    payload = {
        "schema_version": 1,
        "case": args.case,
        "ld_probs": {str(d): dist.probs[d] for d in range(1, 10)},
    }
    _emit(args, payload, _ld_table(dist.probs, {"case": args.case}))


def cmd_growth(args) -> None:
    from . import growth

    if args.sub == "series":
        series = growth.GrowthSeries(base=args.base, percent=args.rate, length=args.n)
        dist, chi = growth.series_ld(series)
        rec = growth.detect_anomalous(args.rate, args.t_max)
        extra = {"rate %": args.rate, "chi-square": f"{chi:.2f}",
                 "anomaly": f"L={rec.L} T={rec.T}" if rec else "none"}
        payload = {"schema_version": 1, "rate_percent": args.rate, "chi_sqr": chi,
                   "anomaly": {"L": rec.L, "T": rec.T} if rec else None,
                   "ld_probs": {str(d): dist.probs[d] for d in range(1, 10)}}
        _emit(args, payload, _ld_table(dist.probs, extra))
    elif args.sub == "anomalies":
        recs = growth.enumerate_anomalous([args.l], (1, args.t_max))
        rows = [(r.L, r.T, float(r.fraction), round(r.percent, 4)) for r in recs]
        table = "L  T  fraction  percent\n" + "\n".join(
            f"{L}  {T}  {f:.4f}  {p}" for L, T, f, p in rows)
        if args.csv:
            _write_csv(args.csv, ["L", "T", "fraction", "percent"], rows)
        _emit(args, {"schema_version": 1, "anomalies": rows}, table)
    elif args.sub == "scan":
        cells = growth.rate_scan(args.lo, args.hi, args.step, args.n, args.base, args.t_max)
        csv_text = growth.scan_to_csv(cells)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(csv_text)
        spikes = sum(1 for c in cells if c.chi_sqr > 50)
        flagged = sum(1 for c in cells if c.anomaly is not None)
        table = f"scanned {len(cells)} rates; chi>50 spikes: {spikes}; flagged rational: {flagged}"
        _emit(args, {"schema_version": 1, "rates": len(cells),
                     "spikes": spikes, "flagged": flagged}, table)
    else:  # factors
        facs = growth.cumulative_factors(args.rate, args.count)
        rows = [(j + 1, f"{v:.2f}") for j, v in enumerate(facs)]
        if args.csv:
            _write_csv(args.csv, ["index", "factor"], rows)
        table = "\n".join(f"{j:>3}  {v}" for j, v in rows)
        _emit(args, {"schema_version": 1, "factors": [float(v) for v in facs]}, table)


def cmd_invariance(args) -> None:
    from . import chains
    from .distributions import family_by_name

    cls = family_by_name(args.family)
    params = fields(cls)
    if len(args.params) != len(params):
        raise BadParamsError(f"{cls.__name__} takes {len(params)} parameter(s), got {len(args.params)}")
    # integral values go to the integer fields (ChiSqr dof, Die faces) as ints
    model = cls(*(int(p) if f.type == "int" and p.is_integer() else p
                  for f, p in zip(params, args.params)))
    subset = None
    if args.scale_only:
        subset = [model.pot_scale_params[0] if model.pot_scale_params else params[0].name]
    diff = chains.power_of_ten_invariance_check(model, args.m, mode=args.mode, subset=subset,
                                                n=args.n, seed=args.seed)
    table = (f"family {args.family} params {args.params} scaled by 10^{args.m} "
             f"({args.mode}): max per-digit LD difference = {diff:.3e}")
    _emit(args, {"schema_version": 1, "family": args.family, "params": list(args.params),
                 "m": args.m, "mode": args.mode, "max_ld_difference": diff}, table)


# ---------------------------------------------------------------------------


def _top_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None


def _seed(text: str) -> int:
    """A --seed value: numpy takes non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="digitlab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--version", action="version", version=f"digitlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    # --seed, --threads and --csv are registered only on the commands that read them
    def common(sp):
        sp.add_argument("--json", metavar="PATH", default=None)
        sp.add_argument("--quiet", action="store_true")

    sp = sub.add_parser("analyze", help="conformity report for a dataset file")
    sp.add_argument("path")
    sp.add_argument("--format", choices=("plain", "csv", "jsonl"), default="plain")
    sp.add_argument("--column", default=None, help="CSV column name or index")
    sp.add_argument("--field", default=None, help="JSONL field path (dotted)")
    sp.add_argument("--min-magnitude", type=float, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("chain", help="simulate a chain of distributions")
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--spec", default=None)
    g.add_argument("--preset", default=None,
                   choices=("flehinger", "benford_twist", "mini_hill", "rayleigh_cycles", "table8_chain"))
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--depth", type=int, default=None, help="flehinger depth")
    sp.add_argument("--m", type=float, default=None, help="flehinger terminal constant")
    sp.add_argument("--cycles", type=int, default=None, help="rayleigh_cycles count")
    sp.add_argument("--max-attempts", type=int, default=100)
    sp.add_argument("--on-exhaustion", choices=("skip", "error"), default="skip")
    sp.add_argument("--samples", metavar="PATH", default=None,
                    help="write accepted samples to a file")
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--seed", type=_seed, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_chain)

    sp = sub.add_parser("scheme", help="deterministic averaging schemes")
    sp.add_argument("kind", choices=("simple", "iterated", "twist"))
    sp.add_argument("--lb", type=int, default=1)
    sp.add_argument("--ub-min", type=int, default=1)
    sp.add_argument("--ub-max", type=int, default=9999)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--inner-min", type=int, default=1)
    sp.add_argument("--mid-min", type=int, default=None)
    sp.add_argument("--top", type=_top_range, default="1:9999", help="top range as lo:hi")
    sp.add_argument("--rate", type=float, default=2.0, help="twist growth percent")
    sp.add_argument("--start", type=int, default=99)
    sp.add_argument("--end", type=int, default=999)
    common(sp)
    sp.set_defaults(fn=cmd_scheme)

    sp = sub.add_parser("analytic", help="exact LD of analytic densities")
    sp.add_argument("case", choices=("kx", "power-law", "exponential", "ten-to-uniform",
                                     "ten-to-triangular", "ten-to-semicircle", "shifted-kx",
                                     "mixed-sign-kx", "ratio-uniforms"))
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--g", type=float, default=3.0)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--lo", type=float, default=1.0)
    sp.add_argument("--hi", type=float, default=1000.0)
    sp.add_argument("--p", type=float, default=1.0)
    sp.add_argument("--r", type=float, default=0.0)
    sp.add_argument("--a", type=float, default=0.0)
    sp.add_argument("--b", type=float, default=3.0)
    sp.add_argument("--mode", dest="mode", type=float, default=1.5,
                    help="triangular apex position")
    sp.add_argument("--center", type=float, default=11.0)
    sp.add_argument("--radius", type=float, default=1.0)
    sp.add_argument("--bins", type=int, default=100)
    sp.add_argument("--csv", metavar="PATH", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_analytic)

    sp = sub.add_parser("growth", help="exponential growth series tools")
    sp.add_argument("sub", choices=("series", "anomalies", "scan", "factors"))
    sp.add_argument("--rate", type=float, default=10.0)
    sp.add_argument("--base", type=float, default=3.0)
    sp.add_argument("--n", type=int, default=1000)
    sp.add_argument("--l", type=int, default=1)
    sp.add_argument("--t-max", type=int, default=100)
    sp.add_argument("--lo", type=float, default=1.0)
    sp.add_argument("--hi", type=float, default=600.0)
    sp.add_argument("--step", type=float, default=0.01)
    sp.add_argument("--count", type=int, default=31)
    sp.add_argument("--csv", metavar="PATH", default=None)
    common(sp)
    sp.set_defaults(fn=cmd_growth)

    sp = sub.add_parser("invariance", help="power-of-ten LD invariance check")
    sp.add_argument("--family", required=True)
    sp.add_argument("--params", type=float, nargs="+", required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--mode", choices=("analytic", "montecarlo"), default="analytic")
    sp.add_argument("--scale-only", action="store_true",
                    help="scale only the first form parameter")
    sp.add_argument("--n", type=int, default=10**6)
    sp.add_argument("--seed", type=_seed, default=None)
    common(sp)
    sp.set_defaults(fn=cmd_invariance)

    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else EXIT_OK
    args._argv = ["digitlab", *argv]
    _keep_freed_memory()
    try:
        args.fn(args)
    except DigitLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # an unreadable input or unwritable output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
