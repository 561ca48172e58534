"""Seeded inputs, CLI command lines and references for the four workloads.

``build(name, seed, workdir)`` writes every input file and computes every
reference before any timing starts.  The same seed gives the same files,
the same command lines and the same references; the amount of work (rows,
draws, rates, commands) does not depend on the seed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import refs

NAMES = ("analyze", "chain", "growth-scan", "exact")

ANALYZE_ROWS = 100_000  # per file, malformed rows included
ANALYZE_ZEROS = 25
ANALYZE_MALFORMED = 40
MALFORMED_TEXTS = ("n/a", "1,234.50", "$12.00", "--", "1.2.3", "nan", "inf",
                   "1e999", "12%", "abc", "+-3", "e5")
ZERO_TEXTS = ("0", "0.00", "0e0", "-0.0", "0.0")

CHAIN_COMMANDS = (  # (label, chain selector, n, threads)
    ("flehinger", ["--preset", "flehinger"], 3_000_000, 1),
    ("Gompertz", ["--spec", "Gompertz(Uniform(0,10), 1)"], 1_000_000, 1),
    ("Normal", ["--spec", "Normal(Uniform(-1,1), Uniform(-0.5,2))"], 2_000_000, 2),
)

SCAN_LO, SCAN_SPAN, SCAN_STEP, SCAN_N, SCAN_T_MAX = 1.0, 149.0, 0.01, 1000, 100

SIMPLE_UB_MAX = 2_000_000
ITERATED_TOP = (1000, 99_999)
TWIST_RATE, TWIST_START, TWIST_END = (1, 2), 10, 100_000_000  # rate 1/2 percent
SEMICIRCLE_BINS = 1000
INVARIANCE_M = 2


@dataclass
class Command:
    args: list[str]
    check: Callable[[], refs.Check]  # reads the command's output files


@dataclass
class Workload:
    name: str
    commands: list[Command]
    items: int  # work units of one iteration, the numerator of items_per_s
    params: dict = field(default_factory=dict)  # inputs and references for the traced replay


def _entropy(seed: int, tag: int) -> list[int]:
    return [seed % 2**64, tag]  # SeedSequence takes non-negative integers only


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(_entropy(seed, tag))


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analyze


def value_texts(rng: np.random.Generator, n: int) -> list[str]:
    """n numeric texts: currency, integers, full reprs, scientific, round d*10^k."""
    counts = [int(n * share) for share in (0.30, 0.20, 0.20, 0.15)]
    kinds = rng.permutation(np.repeat(np.arange(5), counts + [n - sum(counts)]))
    out = []
    for kind in kinds:
        if kind == 0:
            amount = max(0.01, float(np.exp(rng.normal(3.5, 2.0))))
            out.append(("-" if rng.random() < 0.08 else "") + f"{amount:.2f}")
        elif kind == 1:
            out.append(str(int(rng.integers(1, 10 ** int(rng.integers(1, 10))))))
        elif kind == 2:
            out.append(repr(float(10.0 ** rng.uniform(-8.0, 10.0))))
        elif kind == 3:
            value = rng.uniform(1.0, 10.0) * 10.0 ** int(rng.integers(-15, 16))
            text = f"{value:.{int(rng.integers(1, 7))}e}"
            out.append(text.upper() if rng.random() < 0.5 else text)
        else:
            d, k = int(rng.integers(1, 10)), int(rng.integers(-6, 10))
            out.append(f"{d}e{k}" if rng.random() < 0.5 else repr(float(f"{d}e{k}")))
    return out


def _analyze_rows(rng: np.random.Generator) -> tuple[list[str], list[str], list[int]]:
    """(numeric texts, all row texts, malformed row positions) for one file."""
    numeric = value_texts(rng, ANALYZE_ROWS - ANALYZE_MALFORMED - ANALYZE_ZEROS)
    numeric += [ZERO_TEXTS[i % len(ZERO_TEXTS)] for i in range(ANALYZE_ZEROS)]
    numeric = [numeric[i] for i in rng.permutation(len(numeric))]
    bad_at = sorted(rng.choice(ANALYZE_ROWS, ANALYZE_MALFORMED, replace=False).tolist())
    rows, it, bad = [], iter(numeric), set(bad_at)
    for i in range(ANALYZE_ROWS):
        rows.append(MALFORMED_TEXTS[i % len(MALFORMED_TEXTS)] if i in bad else next(it))
    return numeric, rows, bad_at


def build_analyze(seed: int, workdir: Path) -> Workload:
    plain, table = workdir / "values.txt", workdir / "ledger.csv"
    out_plain, out_csv = workdir / "analyze_plain.json", workdir / "analyze_csv.json"

    numeric_p, rows_p, _ = _analyze_rows(_rng(seed, 1))
    plain.write_text("\n".join(rows_p) + "\n")

    numeric_c, rows_c, bad_c = _analyze_rows(_rng(seed, 2))
    cats = ("travel", "supplies", "payroll", "rent", "misc")
    with open(table, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "category", "amount", "note"])
        short = set(bad_c[::2])  # half of the malformed rows lack the column
        for i, text in enumerate(rows_c):
            row = [i, cats[i % len(cats)]]
            writer.writerow(row if i in short else row + [text, "ok"])

    ref_p, ref_c = refs.analyze_reference(numeric_p), refs.analyze_reference(numeric_c)
    return Workload(
        name="analyze",
        commands=[
            Command(["analyze", str(plain), "--json", str(out_plain)],
                    lambda: refs.check_analyze(_read_json(out_plain), ref_p)),
            Command(["analyze", str(table), "--format", "csv", "--column", "amount",
                     "--json", str(out_csv)],
                    lambda: refs.check_analyze(_read_json(out_csv), ref_c)),
        ],
        items=len(numeric_p) + len(numeric_c),
        params={"files": [(str(plain), "plain", None, ref_p), (str(table), "csv", "amount", ref_c)]},
    )


# ---------------------------------------------------------------------------
# chain


def build_chain(seed: int, workdir: Path) -> Workload:
    seeds = [int(s) for s in np.random.SeedSequence(_entropy(seed, 3)).generate_state(len(CHAIN_COMMANDS))]
    commands, runs = [], []
    for (label, selector, n, threads), s in zip(CHAIN_COMMANDS, seeds):
        out = workdir / f"chain_{label}.json"
        args = ["chain", *selector, "--n", str(n), "--seed", str(s), "--json", str(out)]
        if threads > 1:
            args += ["--threads", str(threads)]
        commands.append(Command(args, lambda out=out, n=n, s=s: refs.check_chain(_read_json(out), n, s)))
        runs.append({"label": label, "selector": selector, "n": n, "seed": s, "threads": threads})
    return Workload(name="chain", commands=commands,
                    items=sum(n for _, _, n, _ in CHAIN_COMMANDS), params={"runs": runs})


# ---------------------------------------------------------------------------
# growth-scan


def build_growth_scan(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, 4)
    base = round(float(rng.uniform(1.5, 9.5)), 3)
    lo = round(SCAN_LO + float(rng.uniform(0.0, SCAN_STEP)), 6)
    hi = lo + SCAN_SPAN
    rates = refs.scan_rates(lo, hi, SCAN_STEP)
    flags = refs.anomaly_reference(rates, SCAN_N, SCAN_T_MAX)
    out_csv, out_json = workdir / "scan.csv", workdir / "scan.json"
    args = ["growth", "scan", "--lo", repr(lo), "--hi", repr(hi), "--step", repr(SCAN_STEP),
            "--n", str(SCAN_N), "--t-max", str(SCAN_T_MAX), "--base", repr(base),
            "--csv", str(out_csv), "--json", str(out_json)]
    return Workload(
        name="growth-scan",
        commands=[Command(args, lambda: refs.check_growth_scan(
            out_csv.read_text(), _read_json(out_json), rates, flags))],
        items=len(rates),
        params={"lo": lo, "hi": hi, "base": base, "rates": rates, "flags": flags},
    )


# ---------------------------------------------------------------------------
# exact


def _read_density(path: Path) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[2]) for row in list(csv.reader(fh))[1:]]


def build_exact(seed: int, workdir: Path) -> Workload:
    rng = _rng(seed, 5)
    mu, sigma = round(float(rng.uniform(-5.0, 5.0)), 3), round(float(rng.uniform(0.2, 5.0)), 3)
    center, radius = round(float(rng.uniform(9.0, 13.0)), 3), round(float(rng.uniform(0.3, 1.5)), 3)

    simple_ref = refs.simple_scheme_reference(1, SIMPLE_UB_MAX)
    iterated_ref = refs.iterated_scheme_reference(*ITERATED_TOP)
    twist_ref = refs.twist_scheme_reference(*TWIST_RATE, TWIST_START, TWIST_END)
    kx_ref = refs.shifted_kx_reference()
    semi_ref, density_ref = refs.semicircle_reference(center, radius, SEMICIRCLE_BINS)

    o = {k: workdir / f"exact_{k}.json" for k in ("simple", "iterated", "twist", "kx", "semi", "inv")}
    semi_csv = workdir / "exact_semi.csv"

    def check_twist() -> refs.Check:
        doc = _read_json(o["twist"])
        return refs.check_twist(doc["ld_probs"], int(doc["n_bounds"]), twist_ref)

    def check_semi() -> refs.Check:
        out = refs.check_ld(_read_json(o["semi"])["ld_probs"], semi_ref, refs.EXACT_TOL)
        return out.add(refs.check_density(_read_density(semi_csv), density_ref))

    rate = f"{TWIST_RATE[0] / TWIST_RATE[1]!r}"
    commands = [
        Command(["scheme", "simple", "--ub-max", str(SIMPLE_UB_MAX), "--json", str(o["simple"])],
                lambda: refs.check_ld(_read_json(o["simple"])["ld_probs"], simple_ref, refs.EXACT_TOL)),
        Command(["scheme", "iterated", "--depth", "3", "--top", "%d:%d" % ITERATED_TOP,
                 "--json", str(o["iterated"])],
                lambda: refs.check_ld(_read_json(o["iterated"])["ld_probs"], iterated_ref, refs.EXACT_TOL)),
        Command(["scheme", "twist", "--rate", rate, "--start", str(TWIST_START),
                 "--end", str(TWIST_END), "--json", str(o["twist"])], check_twist),
        Command(["analytic", "shifted-kx", "--json", str(o["kx"])],
                lambda: refs.check_ld(_read_json(o["kx"])["ld_probs"], kx_ref, refs.QUADRATURE_TOL)),
        Command(["analytic", "ten-to-semicircle", "--center", repr(center), "--radius", repr(radius),
                 "--bins", str(SEMICIRCLE_BINS), "--csv", str(semi_csv), "--json", str(o["semi"])],
                check_semi),
        Command(["invariance", "--family", "normal", "--params", repr(mu), repr(sigma),
                 "--m", str(INVARIANCE_M), "--json", str(o["inv"])],
                lambda: refs.check_invariance(float(_read_json(o["inv"])["max_ld_difference"]))),
    ]
    return Workload(
        name="exact", commands=commands, items=len(commands),
        params={"mu": mu, "sigma": sigma, "center": center, "radius": radius,
                "simple_ref": simple_ref, "iterated_ref": iterated_ref, "twist_ref": twist_ref,
                "kx_ref": kx_ref, "semi_ref": semi_ref, "density_ref": density_ref},
    )


BUILDERS = {"analyze": build_analyze, "chain": build_chain,
            "growth-scan": build_growth_scan, "exact": build_exact}


def build(name: str, seed: int, workdir: Path) -> Workload:
    return BUILDERS[name](seed, workdir)
