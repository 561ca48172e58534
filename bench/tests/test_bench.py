"""Tests of the benchmark itself: references, generator, metric names.

Run from the repository root:  python3 -m pytest bench/tests -q
None of these tests runs digitlab; the corrupted documents are made here.
"""

import copy
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import refs
import run
import traced
import workloads as W

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# references on hand-checked cases


def test_significant_digits_follow_shortest_repr():
    assert refs.significant_digits("12.30") == "123"
    assert refs.significant_digits("3e-4") == "3"
    assert refs.significant_digits("500") == "5"
    assert refs.significant_digits("-0.47") == "47"
    assert refs.significant_digits("1.05E+20") == "105"
    assert refs.significant_digits("0.00") == ""


def test_leading_counts_match_string_first_digits():
    n = np.arange(1, 30_001)
    first = np.array([int(str(k)[0]) for k in n])
    counts = refs.leading_counts(n)
    for d in range(1, 10):
        assert (counts[d - 1] == np.cumsum(first == d)).all()


def test_closed_forms_are_distributions():
    assert math.fsum(refs.shifted_kx_reference()) == pytest.approx(1.0, abs=1e-12)
    probs, density = refs.semicircle_reference(11.5, 0.8, 200)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)
    assert math.fsum(density) / 200 == pytest.approx(1.0, abs=1e-12)


def test_twist_bounds_are_exact_floors():
    assert refs.twist_bounds(50, 1, 10, 60) == [10, 15, 22, 33, 50]  # rate 50 %
    assert refs.twist_bounds(1, 2, 10, 11)[:2] == [10, 11]


def test_anomaly_reference_flags_rational_log_rates():
    # log10(1 + P/100) = 1/10 at P = 100 (10**0.1 - 1); tolerance 1/(2n) = 5e-7
    exact = 100.0 * (10.0**0.1 - 1.0)
    flags = refs.anomaly_reference([exact, exact + 0.3, 100.0 * (10.0**(3 / 7) - 1.0)], 10**6, 100)
    assert flags == [(1, 10), None, (3, 7)]


# ---------------------------------------------------------------------------
# each checker flags a hand-corrupted output document


def _analyze_doc(ref: dict) -> dict:
    """A document consistent with the reference, as a correct program would print it."""
    doc = copy.deepcopy(ref)
    _refresh_statistics(doc)
    doc["compartment_masses"] = {str(d): c / doc["n"] for d, c in doc["observed_first"].items()}
    doc["mantissa_ks"] = 0.01
    return doc


def _refresh_statistics(doc: dict) -> None:
    first = [doc["observed_first"][str(d)] for d in range(1, 10)]
    n = sum(first)
    dev = [abs(c / n - p) for c, p in zip(first, refs.BENFORD)]
    doc["chi_sqr_first"], doc["l_inf"], doc["l1"] = refs.chi_sqr(first), max(dev), math.fsum(dev)


ANALYZE_TEXTS = ["12.3", "0.47", "500", "0", "3e-4", "1.25", "-7.5", "1e-11", "0.00", "6.02E23"]


def test_analyze_checker_accepts_the_reference():
    ref = refs.analyze_reference(ANALYZE_TEXTS)
    assert ref["n"] == 8 and ref["skipped_zeros"] == 2
    assert refs.check_analyze(_analyze_doc(ref), ref) == refs.Check(0, [])


def test_analyze_checker_counts_a_misfiled_value():
    ref = refs.analyze_reference(ANALYZE_TEXTS)
    doc = _analyze_doc(ref)
    doc["observed_third"]["3"] -= 1  # 12.3 tallied as (1, 2, 2)
    doc["observed_third"]["2"] += 1
    assert refs.check_analyze(doc, ref) == refs.Check(2, [])
    doc["observed_second"]["2"] -= 1
    out = refs.check_analyze(doc, ref)
    assert out.mismatches == 3 and out.broken[0].startswith("observed_second")


def test_analyze_checker_breaks_on_stale_statistics():
    ref = refs.analyze_reference(ANALYZE_TEXTS)
    doc = _analyze_doc(ref)
    doc["observed_first"]["1"] -= 1
    doc["observed_first"]["9"] += 1
    out = refs.check_analyze(doc, ref)
    assert out.mismatches == 2
    assert any("chi-square" in b for b in out.broken)
    _refresh_statistics(doc)
    assert refs.check_analyze(doc, ref).broken == []


def test_analyze_checker_breaks_when_values_go_missing():
    ref = refs.analyze_reference(ANALYZE_TEXTS)
    doc = _analyze_doc(ref)
    doc["skipped_zeros"] -= 1
    assert any("parsed values" in b for b in refs.check_analyze(doc, ref).broken)


def _chain_doc(n=1000, seed=5, zeros=2, dropped=1) -> dict:
    counts = [300, 176, 125, 97, 79, 67, 58, 51, 44]
    counts[0] += n - zeros - dropped - sum(counts)
    accepted = sum(counts)
    return {"n": n, "seed": seed, "n_accepted": accepted, "n_resampled": 40,
            "skipped_zeros": zeros, "policy_dropped": dropped, "skips": zeros + dropped,
            "ld_counts": {str(d): c for d, c in zip(range(1, 10), counts)},
            "ld_probs": {str(d): c / accepted for d, c in zip(range(1, 10), counts)},
            "chi_sqr": refs.chi_sqr(counts), "valid": (zeros + dropped) / n <= 0.01}


def test_chain_checker_accepts_a_consistent_document():
    assert refs.check_chain(_chain_doc(), 1000, 5) == refs.Check(0, [])


@pytest.mark.parametrize("field,value", [("n_accepted", 996), ("chi_sqr", 1.0), ("skips", 0),
                                         ("valid", False), ("seed", 6)])
def test_chain_checker_breaks_on_a_corrupted_field(field, value):
    doc = _chain_doc()
    doc[field] = value
    assert refs.check_chain(doc, 1000, 5).broken


def _scan_csv(rates, flags, chi=10.0) -> str:
    lines = ["rate_percent,chi_sqr,anomaly_L,anomaly_T"]
    for r, f in zip(rates, flags):
        lines.append(f"{r:.6g},{chi:.6g},{f[0] if f else ''},{f[1] if f else ''}")
    return "\n".join(lines) + "\n"


def test_growth_checker_flags_a_wrong_anomaly():
    rates = refs.scan_rates(25.80, 25.99, 0.01)
    flags = refs.anomaly_reference(rates, 1000, 100)
    assert (1, 10) in flags
    doc = {"rates": len(rates), "spikes": 0, "flagged": sum(f is not None for f in flags)}
    assert refs.check_growth_scan(_scan_csv(rates, flags), doc, rates, flags) == refs.Check(0, [])

    wrong = [None if f else (1, 10) for f in flags[:2]] + flags[2:]
    doc["flagged"] = sum(f is not None for f in wrong)
    out = refs.check_growth_scan(_scan_csv(rates, wrong), doc, rates, flags)
    assert out.mismatches == 2 and out.broken == []


def test_growth_checker_breaks_on_a_missing_row_or_bad_summary():
    rates = refs.scan_rates(1.0, 1.5, 0.01)
    flags = refs.anomaly_reference(rates, 1000, 100)
    doc = {"rates": len(rates), "spikes": 0, "flagged": 0}
    text = _scan_csv(rates, flags)
    assert refs.check_growth_scan(text.replace(text.splitlines()[3] + "\n", ""), doc, rates, flags).broken
    assert refs.check_growth_scan(text, dict(doc, spikes=3), rates, flags).broken
    assert refs.check_growth_scan(_scan_csv(rates, flags, chi=math.nan), doc, rates, flags).broken


def test_ld_checker_flags_moved_mass_and_bad_sums():
    ref = refs.shifted_kx_reference()
    probs = {str(d): p for d, p in zip(range(1, 10), ref)}
    assert refs.check_ld(probs, ref, refs.EXACT_TOL) == refs.Check(0, [])
    moved = dict(probs, **{"1": probs["1"] - 1e-8, "5": probs["5"] + 1e-8})
    assert refs.check_ld(moved, ref, refs.EXACT_TOL) == refs.Check(2, [])
    assert refs.check_ld(moved, ref, refs.QUADRATURE_TOL) == refs.Check(0, [])
    assert refs.check_ld(dict(probs, **{"9": probs["9"] + 0.01}), ref, refs.EXACT_TOL).broken


def test_density_and_invariance_checkers():
    _, density = refs.semicircle_reference(10.3, 0.5, 100)
    assert refs.check_density(density, density) == refs.Check(0, [])
    bumped = list(density)
    bumped[10] += 1e-6
    bumped[11] -= 1e-6
    assert refs.check_density(bumped, density) == refs.Check(2, [])
    assert refs.check_density(density[:-1], density).broken
    assert refs.check_invariance(0.0) == refs.Check(0, [])
    assert refs.check_invariance(1e-4) == refs.Check(1, [])
    assert refs.check_invariance(math.nan).broken


# ---------------------------------------------------------------------------
# generator


def _snapshot(workload: W.Workload, workdir: Path):
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    args = [[a.replace(str(workdir), "<dir>") for a in c.args] for c in workload.commands]
    params = json.dumps(workload.params, default=str).replace(str(workdir), "<dir>")
    return files, args, params, workload.items


@pytest.mark.parametrize("name", W.NAMES)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    snaps = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        (tmp_path / sub).mkdir()
        snaps.append(_snapshot(W.build(name, seed, tmp_path / sub), tmp_path / sub))
    assert snaps[0] == snaps[1]
    assert snaps[0][3] == snaps[2][3]  # the amount of work does not depend on the seed
    assert snaps[0] != snaps[2]


def test_analyze_files_hold_zeros_malformed_rows_and_round_values(tmp_path):
    wl = W.build("analyze", 9, tmp_path)
    lines = (tmp_path / "values.txt").read_text().splitlines()
    assert len(lines) == W.ANALYZE_ROWS
    assert sum(line in W.MALFORMED_TEXTS for line in lines) == W.ANALYZE_MALFORMED
    assert sum(line in W.ZERO_TEXTS for line in lines) == W.ANALYZE_ZEROS
    assert any(re.fullmatch(r"[1-9]e-?\d", line) for line in lines)
    assert wl.items == 2 * (W.ANALYZE_ROWS - W.ANALYZE_MALFORMED)


# ---------------------------------------------------------------------------
# metric names


def test_end_to_end_metrics_match_benchmark_json():
    class FakeCli:
        started = 0.0

        def __call__(self, args):
            return {"args": args, "wall_s": 0.5, "rss_mb": 100.0, "rc": 0, "timed_out": False}

    wl = W.Workload("exact", [W.Command(["scheme", "simple"], lambda: refs.Check(3, []))], items=1)
    result = run.measure(wl, FakeCli(), seconds=0.0)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert result["failed"] == 0 and result["ref_mismatches"] == 3


def test_per_layer_metrics_match_benchmark_json():
    imports = {m: 0.0 for m in traced.IMPORT_METRICS}
    metrics = traced.layer_metrics([traced.Tracer()], {}, imports, 0.0, 0, 0.0)
    assert sorted(metrics) == sorted(m["name"] for m in SPEC["per_layer"])


def test_benchmark_json_follows_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert [w["name"] for w in SPEC["workloads"]] == list(W.NAMES)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(name.fullmatch(m["name"]) and unit.fullmatch(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


# ---------------------------------------------------------------------------
# tracing


def test_self_time_subtracts_child_spans():
    tr = traced.Tracer()
    tr.spans = [{"id": 0, "name": "root", "parent": None, "start": 0.0, "end": 10.0},
                {"id": 1, "name": "a", "parent": 0, "start": 1.0, "end": 4.0},
                {"id": 2, "name": "b", "parent": 1, "start": 2.0, "end": 3.0}]
    assert tr.self_times() == {"root": 7.0, "a": 2.0, "b": 1.0}


def test_disabled_tracer_records_nothing():
    tr = traced.Tracer(enabled=False)
    with tr.span("x"):
        tr.count("y")
    assert tr.spans == [] and not tr.counts


def test_importtime_parser_sums_self_time_per_package():
    text = """import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:      2000 |       2500 |     numpy.core
import time:       500 |       3000 |   numpy
import time:      7000 |       7000 |       scipy.special
import time:         1 |       7001 |   scipy
import time:        50 |      10151 | digitlab.cli
"""
    got = traced.parse_importtime(text)
    assert got[""] == pytest.approx(0.009651)
    assert got["numpy"] == pytest.approx(0.0025)
    assert got["scipy"] == pytest.approx(0.007001)
    assert got["digitlab"] == pytest.approx(0.00005)
