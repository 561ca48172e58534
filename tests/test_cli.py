"""End-to-end tests for the command-line interface."""

import argparse
import ast
import contextlib
import csv
import ctypes
import hashlib
import io
import json
import os
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import digitlab
from digitlab import chains, cli, growth
from digitlab.cli import EXIT_OK, EXIT_USAGE, main

EXIT_EMPTY, EXIT_NUMERIC = 3, 4  # empty input, numerical failure

# the directory holding the digitlab package, for the subprocesses below
_PACKAGE_ROOT = str(Path(digitlab.__file__).resolve().parents[1])
_ENV = {**os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
_TIMEOUT_S = 60  # each command needs well under a second; a hang fails the test


def _run(python_args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *python_args], capture_output=True, text=True,
                          timeout=_TIMEOUT_S, env=_ENV)


def _run_in_2gib(argv: list[str]) -> subprocess.CompletedProcess:
    """digitlab with argv under a 2 GiB address-space limit, so that an
    allocation a cap should have refused fails with MemoryError, not the machine."""
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    return subprocess.run([sys.executable, "-m", "digitlab.cli", *argv, "--quiet"],
                          capture_output=True, text=True, timeout=_TIMEOUT_S, env=_ENV,
                          preexec_fn=limit_memory)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def benford_file(tmp_path):
    rng = np.random.default_rng(1)
    vals = 10.0 ** rng.uniform(0.0, 3.0, 5000)
    path = tmp_path / "vals.txt"
    path.write_text("".join(f"{v}\n" for v in vals))
    return path


class TestAnalyze:
    def test_plain_file(self, benford_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", str(benford_file), "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == 5000
        assert doc["chi_sqr_first"] < 20.09
        assert doc["manifest"]["tool_version"]
        # table shows the same chi-square the JSON carries
        table = capsys.readouterr().out
        assert f"{doc['chi_sqr_first']:.2f}" in table

    def test_csv_column_by_name(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("id,amount\n1,123.4\n2,oops\n3,5.6\n4,7e2\n")
        out = tmp_path / "r.json"
        rc = main(["analyze", str(path), "--format", "csv", "--column", "amount",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["n"] == 3  # 'oops' is malformed, counted not fatal

    def test_csv_column_by_index(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n9,1\n8,2\n7,3\n")
        rc = main(["analyze", str(path), "--format", "csv", "--column", "1", "--quiet"])
        assert rc == EXIT_OK

    def test_jsonl_field_path(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"row": {"v": 12.5}}\n{"row": {"v": 660}}\nnot json\n')
        out = tmp_path / "r.json"
        rc = main(["analyze", str(path), "--format", "jsonl", "--field", "row.v",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["n"] == 2

    def test_thousands_separators_rejected(self, tmp_path):
        path = tmp_path / "sep.txt"
        path.write_text("1,234\n5678\n")
        out = tmp_path / "r.json"
        rc = main(["analyze", str(path), "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["n"] == 1

    def test_subnormals_analysed(self, tmp_path, capsys):
        path, out = tmp_path / "tiny.txt", tmp_path / "tiny.json"
        path.write_text("1e-320\n5e-324\n2.5\n30\n")
        rc = main(["analyze", str(path), "--json", str(out)])
        assert rc == EXIT_OK
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        assert doc["observed_first"] == {"1": 1, "2": 1, "3": 1, "4": 0, "5": 1, "6": 0,
                                         "7": 0, "8": 0, "9": 0}
        assert doc["ambiguous"] == 1  # 5e-324: 3e-324 .. 7e-324 parse to it

    def test_unreadable_exits_2(self, capsys):
        assert main(["analyze", "/no/such/file", "--quiet"]) == EXIT_USAGE

    def test_empty_exits_3(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert main(["analyze", str(path), "--quiet"]) == EXIT_EMPTY

    def test_serial_numbers_flagged_uniform(self, tmp_path):
        rng = np.random.default_rng(3)
        path = tmp_path / "serials.txt"
        path.write_text("".join(f"{v}\n" for v in rng.integers(100000, 1000000, 3000)))
        out = tmp_path / "r.json"
        rc = main(["analyze", str(path), "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["chi_sqr_first"] > doc["chi_sqr_critical_001"]

    def test_chain_output_round_trip(self, tmp_path):
        # chain samples written to disk analyze as conforming
        samples = tmp_path / "samples.txt"
        rc = main(["chain", "--spec", "Uniform(0,Uniform(0,Uniform(0,Uniform(0,1e5))))",
                   "--n", "20000", "--seed", "7", "--quiet", "--samples", str(samples)])
        assert rc == EXIT_OK
        out = tmp_path / "r.json"
        rc = main(["analyze", str(samples), "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["chi_sqr_first"] < 30


def _set_parse_number(text: str):
    """The set-based field parser that the translate table replaced: the reference."""
    text = text.strip()
    if not text or not set(text) <= set("0123456789+-.eE"):
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    return value if np.isfinite(value) else None


FIELD_PIECES = st.sampled_from(["", " ", "\t", "\n", "+", "-", ".", "e", "E", "0", "7", "12",
                                "e5", "1E5", "2.5e-3", "inf", "nan", "1e999", "1e-400", "1_000",
                                "0x1p3", "\uff11\uff12", "1.2.3", ",", "x"])


class TestParseNumber:
    @given(st.lists(FIELD_PIECES, max_size=6).map("".join) | st.text(max_size=8))
    @example(" -1.5e3 ")
    @example("+1E5")
    @example("1.2.3")
    @example("\uff11\uff12")  # fullwidth digits: float() reads them, the parser does not
    def test_matches_set_reference(self, text):
        (value,), _ = cli._convert([text])
        assert (float(value) if np.isfinite(value) else None) == _set_parse_number(text)

    def test_plain_and_csv_count_the_same_rows_malformed(self, tmp_path):
        fields = ["12", " 3.5 ", "-7e2", "6E-1", "1_000", "0x1p3", "inf", "nan", "1e999", "\uff11",
                  "1.2.3", "e5", "+", "4.", ".5"]
        plain, table = tmp_path / "v.txt", tmp_path / "v.csv"
        plain.write_text("\n".join(fields) + "\n")
        table.write_text("v\n" + "".join(f'"{f}"\n' for f in fields))
        want = [v for v in map(_set_parse_number, fields) if v is not None]
        for values, malformed in (cli.ingest(str(plain), "plain", None),
                                  cli.ingest(str(table), "csv", "v")):
            assert values.tolist() == want
            assert malformed == len(fields) - len(want)


def _reference_ingest(data: bytes, fmt: str) -> tuple[list[float], int]:
    """The per-line loop that block ingestion replaced, over the same decoded text:
    lines end at \\n, \\r\\n or a lone \\r; a blank plain line is skipped; in a CSV
    (column 'v', the second) a blank field or a short row is malformed."""
    text = data.decode("utf-8", "replace")
    if fmt == "plain":
        fields = [line for line in re.split("\r\n|\r|\n", text) if line.strip()]
    else:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        fields = [row[1] if len(row) > 1 else "" for row in rows[1:]]
    values = [v for v in map(_set_parse_number, fields) if v is not None]
    return values, len(fields) - len(values)


_TEXTS = ["0", "-0", "-0.0", "7", "12.5", "-3e-2", "1E5", "+4.", ".5", "4.9e-324", "1_000",
          "\uff11\uff12", "1\uff12", "0x1p3", "inf", "nan", "1e999", "1e-400", "+-1", "1e", ".",
          "1.2.3", "--", "e5", "", "x"]
_PADS = ["", "", " ", "  ", "\t", "\x0b", "\x1c", "\u00a0", "\u2028", "\x00"]
_UNDECODABLE = [b"", b"", b"", b"\xff", b"\xe2\x82", b"\xc3", b"\x80\x80"]
_LINE_ENDS = [b"\n", b"\r\n", b"\r"]


@st.composite
def _field(draw) -> bytes:
    """A number, or something close to one, between whitespace, maybe with undecodable bytes."""
    text = draw(st.sampled_from(_PADS)) + draw(st.sampled_from(_TEXTS)) + draw(st.sampled_from(_PADS))
    bad = draw(st.sampled_from(_UNDECODABLE))
    return bad + text.encode() if draw(st.booleans()) else text.encode() + bad


@st.composite
def _plain_file(draw) -> bytes:
    lines = draw(st.lists(_field(), min_size=1, max_size=30))
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines[1:]]
    ends.append(draw(st.sampled_from([b"", *_LINE_ENDS])))  # the last line may have no end
    return b"".join(map(bytes.__add__, lines, ends))


@st.composite
def _csv_file(draw) -> bytes:
    rows = [b"id,v"]
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(["field", "field", "quoted", "short"]))
        if kind == "short":
            rows.append(b"9")
        elif kind == "quoted":  # an embedded line end inside the quotes
            inside = draw(_field()) + draw(st.sampled_from(_LINE_ENDS)) + draw(_field())
            rows.append(b'9,"' + inside + b'"')
        else:
            rows.append(b"9," + draw(_field()))
    ends = draw(st.lists(st.sampled_from(_LINE_ENDS), min_size=len(rows), max_size=len(rows)))
    return b"".join(row + end for row, end in zip(rows, ends))


class TestIngestMatchesLineLoop:
    # small blocks put block boundaries between every few lines
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.tuples(st.just("plain"), _plain_file()), st.tuples(st.just("csv"), _csv_file())),
           st.sampled_from([1, 2, 3, 7, 1 << 12]))
    @example(("plain", b" 1e3\r\n\r\n\xff\n" + "\u00a0-0\u00a0\n\x1c\r".encode()), 2)
    @example(("csv", b'id,v\r\n9,"1\n2"\n9\n9," 5\n"\r9,\n'), 1)
    def test_same_values_and_malformed_count(self, tmp_path, monkeypatch, case, block):
        fmt, data = case
        path = tmp_path / "data"
        path.write_bytes(data)
        monkeypatch.setattr(cli, "_BLOCK", block)
        values, malformed = cli.ingest(str(path), fmt, "v" if fmt == "csv" else None)
        want, want_malformed = _reference_ingest(data, fmt)
        # bit for bit, so -0.0 and 0.0 differ
        bits = np.array(want, dtype=np.float64).view(np.uint64)
        assert values.view(np.uint64).tolist() == bits.tolist()
        assert malformed == want_malformed


class TestIngestRobustness:
    _EXECUTABLE = b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) * 4  # undecodable bytes and NULs

    @pytest.mark.parametrize("fmt, text", [
        ("plain", b"12.5\n\xff\xfe 3\n300\n"),
        ("csv", b"v\n12.5\n\xff\xfe 3\n300\n"),
        ("jsonl", b'{"v": 12.5}\n{"v": "\xff3"}\n{"v": 300}\n'),
    ])
    def test_undecodable_line_is_malformed(self, tmp_path, fmt, text, capsys):
        path = tmp_path / "data"
        path.write_bytes(text)
        argv = ["analyze", str(path), "--format", fmt]
        argv += {"plain": [], "csv": ["--column", "v"], "jsonl": ["--field", "v"]}[fmt]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("n = 2   zeros skipped = 0   malformed = 1\n")

    @pytest.mark.parametrize("fmt, text", [
        ("plain", b"12.5\n1;5\n\n300\nn/a\n"),
        ("csv", b"v\n12.5\n1;5\n\n300\nn/a\n"),
        ("jsonl", b'{"v": 12.5}\n{"v": "1;5"}\n{"v": 300}\n{"w": 1}\n'),
    ], ids=["plain", "csv", "jsonl"])
    def test_json_carries_the_tables_malformed_count(self, tmp_path, fmt, text, capsys):
        path, out = tmp_path / "data", tmp_path / "r.json"
        path.write_bytes(text)
        argv = ["analyze", str(path), "--format", fmt, "--json", str(out)]
        argv += {"plain": [], "csv": ["--column", "v"], "jsonl": ["--field", "v"]}[fmt]
        assert main(argv) == EXIT_OK
        doc = json.loads(out.read_text())
        want = {"plain": 2, "csv": 3, "jsonl": 2}[fmt]  # a blank CSV field is malformed too
        assert doc["malformed"] == want
        assert f"malformed = {want}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["plain", "csv", "jsonl"])
    def test_binary_file_exits_3(self, tmp_path, fmt, capsys):
        path = tmp_path / "data"
        path.write_bytes(self._EXECUTABLE)
        argv = ["analyze", str(path), "--format", fmt, "--quiet"]
        argv += {"plain": [], "csv": ["--column", "0"], "jsonl": ["--field", "v"]}[fmt]
        assert main(argv) == EXIT_EMPTY
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_jsonl_integer_is_malformed(self, tmp_path, capsys):
        # float() of the 401-digit int raised OverflowError (exit 1); its text reads as
        # inf and is malformed, as 1e400 is in a plain file
        path = tmp_path / "big.jsonl"
        path.write_text('{"a": 1' + "0" * 400 + '}\n{"a": 12.5}\n{"a": 300}\n')
        assert main(["analyze", str(path), "--format", "jsonl", "--field", "a"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("n = 2   zeros skipped = 0   malformed = 1\n")

    def test_jsonl_field_that_is_no_number_is_malformed(self, tmp_path, monkeypatch):
        # true and false read as 1.0 and 0 before; a number string reads as a CSV field does
        path = tmp_path / "odd.jsonl"
        path.write_text("".join(f'{{"a": {v}}}\n' for v in (
            "true", "false", "null", "[1]", '{"b": 1}', "1e400", '"1_000"', '""', '" 12.5 "', "-3", "7e-2"))
            + '{"b": 1}\n\n')
        monkeypatch.setattr(cli, "_BLOCK", 3)
        values, malformed = cli.ingest(str(path), "jsonl", "a")
        assert values.tolist() == [12.5, -3.0, 0.07]
        assert malformed == 9

    def test_long_csv_field_is_read_and_malformed(self, tmp_path):
        # 1e199999 is past the doubles; the field is four times csv's default size limit
        path = tmp_path / "big.csv"
        path.write_text("v\n1" + "0" * 199_999 + "\n")
        limit = csv.field_size_limit()
        assert cli.ingest(str(path), "csv", "v")[1] == 1
        assert csv.field_size_limit() == limit
        assert main(["analyze", str(path), "--format", "csv", "--column", "v", "--quiet"]) == EXIT_EMPTY


class TestChain:
    def test_spec_run(self, tmp_path):
        out = tmp_path / "chain.json"
        rc = main(["chain", "--spec", "Uniform(0,Uniform(0,Uniform(0,Uniform(0,1e5))))",
                   "--n", "100000", "--seed", "7", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["ld_probs"]["1"] - 0.30) < 0.01
        assert doc["manifest"]["seed"] == 7

    def test_preset_run(self):
        assert main(["chain", "--preset", "benford_twist", "--n", "12000",
                     "--seed", "3", "--quiet"]) == EXIT_OK

    def test_parse_error_exit_2(self, capsys):
        rc = main(["chain", "--spec", "Weibull(1)", "--n", "10", "--quiet"])
        assert rc == EXIT_USAGE
        assert "position" in capsys.readouterr().err or True

    def test_reproducible_json(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["chain", "--spec", "Rayleigh(Uniform(0, 50))", "--n", "5000",
                  "--seed", "11", "--quiet", "--json", str(path)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        assert da["ld_counts"] == db["ld_counts"]
        assert da["chi_sqr"] == db["chi_sqr"]

    def test_infinite_parameter_resampled_not_crashed(self, tmp_path):
        out = tmp_path / "inf.json"
        rc = main(["chain", "--spec", "Uniform(0,1e999)", "--n", "1000", "--seed", "1",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert doc["valid"] is False
        assert doc["policy_dropped"] == 1000
        assert doc["chi_sqr"] is None

    def test_threads_flag(self, tmp_path):
        a = tmp_path / "a.json"
        rc = main(["chain", "--spec", "Uniform(0, Uniform(0, 1e5))", "--n", "10000",
                   "--seed", "5", "--threads", "4", "--quiet", "--json", str(a)])
        assert rc == EXIT_OK
        assert sum(json.loads(a.read_text())["ld_counts"].values()) > 9000


# the flags each case of scheme, analytic and growth reads, besides --json and --quiet
_CASE_FLAGS = {
    "scheme": {"simple": "--lb --ub-min --ub-max",
               "iterated": "--lb --depth --inner-min --mid-min --top",
               "twist": "--lb --rate --start --end"},
    "analytic": {"kx": "--s --g", "power-law": "--m --lo --hi", "exponential": "--p",
                 "ten-to-uniform": "--r --s --bins --csv",
                 "ten-to-triangular": "--a --mode --b --bins --csv",
                 "ten-to-semicircle": "--center --radius --bins --csv",
                 "shifted-kx": "", "mixed-sign-kx": "", "ratio-uniforms": ""},
    "growth": {"series": "--rate --base --n --t-max", "anomalies": "--l --t-max --csv",
               "scan": "--lo --hi --step --n --base --t-max --csv", "factors": "--rate --count --csv"},
}


def _foreign(command: str, case: str) -> list[str]:
    """The flags a sibling case of the command reads and this one does not."""
    cases = {c: set(flags.split()) for c, flags in _CASE_FLAGS[command].items()}
    return sorted(set().union(*cases.values()) - cases[case])


_FOREIGN = [(command, case, flag) for command, cases in _CASE_FLAGS.items()
            for case in cases for flag in _foreign(command, case)]


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    """name -> parser of each subcommand or case of a parser; {} if it has none."""
    return next((a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)), {})


def _leaves(parser: argparse.ArgumentParser) -> dict:
    """(command, case) -> the parser that takes a command's flags; case None where it has no cases."""
    return {(command, case): leaf for command, sp in _subparsers(parser).items()
            for case, leaf in (_subparsers(sp).items() or [(None, sp)])}


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {opt for a in parser._actions for opt in a.option_strings if opt.startswith("--")}


# a flag given out of the mode that reads it, and the error it exits 2 with
_MODE_FLAGS = [
    (["chain", "--spec", "Uniform(0,1)", "--n", "10", "--depth", "3", "--cycles", "2"],
     "--depth, --cycles: only with --preset"),
    (["chain", "--preset", "mini_hill", "--n", "10", "--m", "7"], "preset 'mini_hill' takes no m"),
    (["chain", "--preset", "flehinger", "--n", "10", "--cycles", "2"],
     "preset 'flehinger' takes no cycles"),
    (["chain", "--preset", "rayleigh_cycles", "--n", "10", "--depth", "2"],
     "preset 'rayleigh_cycles' takes no depth"),
    (["analyze", "j.jsonl", "--format", "jsonl", "--column", "v"], "--column: only with --format csv"),
    (["analyze", "v.csv", "--format", "csv", "--column", "v", "--field", "v"],
     "--field: only with --format jsonl"),
    (["analyze", "v.txt", "--column", "v"], "--column: only with --format csv"),
    (["invariance", "--family", "normal", "--params", "0", "1", "--n", "5", "--seed", "3"],
     "--n, --seed: only with --mode montecarlo"),
    (["invariance", "--family", "normal", "--params", "0", "1", "--mode", "analytic", "--seed", "3"],
     "--seed: only with --mode montecarlo"),
]


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["scheme", "simple", "--threads", "2"],
        ["scheme", "simple", "--seed", "1"],
        ["scheme", "simple", "--csv", "out.csv"],
        ["analyze", "data.txt", "--seed", "1"],
        ["chain", "--spec", "Uniform(0, 1)", "--n", "10", "--csv", "out.csv"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--threads", "2"],
    ], ids=" ".join)
    def test_flags_only_where_read(self, argv):
        # --seed, --threads and --csv are rejected by commands that ignore them
        assert main([*argv, "--quiet"]) == EXIT_USAGE

    def test_each_case_takes_the_flags_it_reads(self):
        leaves = _leaves(cli.build_parser())
        assert {key: _flags(leaf) - {"--help", "--json", "--quiet"}
                for key, leaf in leaves.items() if key[1] is not None} == {
            (command, case): set(flags.split())
            for command, cases in _CASE_FLAGS.items() for case, flags in cases.items()}
        assert len(_FOREIGN) == 148

    @pytest.mark.parametrize("command,case,flag", _FOREIGN, ids=[" ".join(row) for row in _FOREIGN])
    def test_case_rejects_a_siblings_flag(self, command, case, flag, capsys):
        # each was accepted and ignored: kx --csv wrote no file and exited 0.
        # Flags match exactly, so --r, --b, --m and --l abbreviate no flag of
        # ten-to-semicircle, ten-to-uniform, ten-to-triangular or scan
        assert main([command, case, flag, "1", "--quiet"]) == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", _MODE_FLAGS, ids=[" ".join(argv) for argv, _ in _MODE_FLAGS])
    def test_flag_only_with_its_mode(self, argv, message, tmp_path, monkeypatch, capsys):
        # each exited 0 with the flag ignored
        monkeypatch.chdir(tmp_path)
        Path("j.jsonl").write_text('{"v": 12.5}\n{"v": 660}\n')
        Path("v.csv").write_text("v\n12.5\n660\n")
        Path("v.txt").write_text("12.5\n660\n")
        assert main([*argv, "--quiet"]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"


class _ReadRecorder(argparse.Namespace):
    """A namespace that records the name of each public attribute read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _unread_dests(parser: argparse.ArgumentParser, argv: list[str]) -> set[str]:
    """The dests of the leaf parser that argv reaches which its command does not read."""
    args = parser.parse_args(argv, namespace=_ReadRecorder())
    leaf = _leaves(parser)[(args.command, getattr(args, "case", None))]
    fn = args.fn
    args._read.clear()  # argparse reads the namespace as it fills it
    fn(args)
    return {a.dest for a in leaf._actions if a.dest != "help"} - args._read


# one small, quick argv per leaf
_READ_ARGV = [
    ["analyze", "v.csv", "--format", "csv", "--column", "v", "--min-magnitude", "1"],
    ["chain", "--spec", "Uniform(0,1e5)", "--n", "1000", "--seed", "1", "--samples", "s.txt"],
    ["scheme", "simple", "--ub-max", "99"],
    ["scheme", "iterated", "--top", "1:99"],
    ["scheme", "twist"],
    *(["analytic", case] for case in _CASE_FLAGS["analytic"] if case != "ten-to-uniform"),
    ["analytic", "ten-to-uniform", "--s", "1"],  # its default support [0, 0] is empty
    ["growth", "series"],
    ["growth", "anomalies", "--t-max", "12"],
    ["growth", "scan", "--lo", "21.1", "--hi", "21.2"],
    ["growth", "factors"],
    ["invariance", "--family", "exponential", "--params", "0.3", "--mode", "montecarlo",
     "--n", "1000", "--seed", "1", "--scale-only"],
]


class TestEveryFlagIsRead:
    @pytest.fixture
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("v.csv").write_text("v\n12.5\n660\n")

    def test_argv_reaches_every_leaf(self):
        parser = cli.build_parser()
        reached = {(a.command, getattr(a, "case", None)) for a in map(parser.parse_args, _READ_ARGV)}
        assert reached == set(_leaves(parser))

    @pytest.mark.parametrize("argv", _READ_ARGV, ids=" ".join)
    def test_command_reads_every_flag_of_its_leaf(self, argv, in_tmp):
        assert _unread_dests(cli.build_parser(), [*argv, "--json", "out.json"]) == set()

    def test_check_sees_a_flag_no_branch_reads(self, in_tmp):
        # positive control: a flag planted on one leaf of a parser built here
        parser = cli.build_parser()
        _leaves(parser)[("growth", "factors")].add_argument("--planted", type=int, default=0)
        assert _unread_dests(parser, ["growth", "factors", "--planted", "3"]) == {"planted"}
        assert _unread_dests(parser, ["growth", "series"]) == set()


class TestScheme:
    def test_simple(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["scheme", "simple", "--lb", "1", "--ub-min", "1", "--ub-max", "9999",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        doc = json.loads(out.read_text())
        assert abs(doc["ld_probs"]["1"] - 0.242) < 0.003

    def test_iterated(self, tmp_path):
        out = tmp_path / "s.json"
        rc = main(["scheme", "iterated", "--depth", "2", "--top", "1:9999",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert abs(json.loads(out.read_text())["ld_probs"]["1"] - 0.302) < 0.003

    def test_twist(self):
        assert main(["scheme", "twist", "--rate", "2", "--start", "99", "--end", "999",
                     "--quiet"]) == EXIT_OK

    def test_bad_bounds(self):
        assert main(["scheme", "simple", "--lb", "9", "--ub-min", "1", "--ub-max", "5",
                     "--quiet"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["iterated", "--top", "5"],
        ["iterated", "--top", "a:b"],
        ["twist", "--rate", "nan"],
        ["twist", "--rate", "inf"],
        ["twist", "--rate", "1e-300"],
        ["twist", "--rate", "5e-324"],
        ["simple", "--ub-max", "10000000000000000000000"],
    ], ids=" ".join)
    def test_bad_input_exits_2(self, argv, capsys):
        # each of these used to raise a traceback or, for the tiny rates, never return
        assert main(["scheme", *argv, "--quiet"]) == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err


class TestAnalytic:
    def test_kx(self, tmp_path):
        out = tmp_path / "kx.json"
        rc = main(["analytic", "kx", "--s", "0", "--g", "3", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        import math

        assert abs(json.loads(out.read_text())["ld_probs"]["1"] - math.log10(2)) < 1e-12

    def test_power_law(self, tmp_path):
        out = tmp_path / "p.json"
        rc = main(["analytic", "power-law", "--m", "2", "--lo", "1", "--hi", "1000",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert abs(json.loads(out.read_text())["ld_probs"]["1"] - 0.56) < 0.01

    def test_semicircle_with_histogram(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main(["analytic", "ten-to-semicircle", "--center", "11", "--radius", "2.1",
                   "--quiet", "--csv", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "bin_lo,bin_hi,density"
        assert len(lines) == 101

    def test_ratio_uniforms(self):
        assert main(["analytic", "ratio-uniforms", "--quiet"]) == EXIT_OK

    def test_bare_ten_to_uniform_is_benford(self, tmp_path, capsys):
        # the default support was [0, 0], so the bare command always exited 2;
        # --r -1 --s 0 is the log-uniform on one decade, exactly Benford
        from digitlab.digits import benford_first

        out = tmp_path / "u.json"
        assert main(["analytic", "ten-to-uniform", "--json", str(out)]) == EXIT_OK
        table = capsys.readouterr().out
        probs = json.loads(out.read_text())["ld_probs"]
        for d in range(1, 10):
            assert f"{d:>5}  {benford_first(d):>11.5f}  {benford_first(d):>7.5f}" in table
            assert probs[str(d)] == pytest.approx(benford_first(d), rel=1e-14)

    def test_rejected_flag_shows_the_cases_usage(self, capsys):
        # the root parser reported it, with the usage of digitlab itself
        assert main(["analytic", "kx", "--bins", "7"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: digitlab analytic kx [-h] [--s S] [--g G]")
        assert err.endswith("digitlab analytic kx: error: unrecognized arguments: --bins 7\n")


class TestGrowth:
    def test_anomalies_table(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = main(["growth", "anomalies", "--l", "1", "--t-max", "12",
                   "--quiet", "--csv", str(out)])
        assert rc == EXIT_OK
        rows = out.read_text().strip().split("\n")[1:]
        assert any(row.startswith("1,12,") and "21.1528" in row for row in rows)

    def test_series(self):
        assert main(["growth", "series", "--rate", "2.3293", "--base", "3",
                     "--n", "1000", "--quiet"]) == EXIT_OK

    def test_scan_csv(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["growth", "scan", "--lo", "21.10", "--hi", "21.20", "--step", "0.01",
                   "--n", "1000", "--base", "3", "--t-max", "100",
                   "--quiet", "--csv", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "rate_percent,chi_sqr,anomaly_L,anomaly_T"
        assert len(lines) == 12

    @pytest.mark.parametrize("flag,value", [("--n", "0"), ("--base", "0"), ("--lo", "-150"),
                                            ("--hi", "inf"), ("--step", "nan"),
                                            ("--base", "nan"), ("--base", "inf")])
    def test_scan_bad_params_exit_2(self, flag, value, capsys):
        assert main(["growth", "scan", "--hi", "2", flag, value, "--quiet"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_factors(self, tmp_path):
        out = tmp_path / "f.json"
        rc = main(["growth", "factors", "--rate", "29.154", "--count", "31",
                   "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        f = json.loads(out.read_text())["factors"]
        assert abs(f[8] - 10.0) < 0.01


class TestInvariance:
    def test_exponential(self, tmp_path):
        out = tmp_path / "i.json"
        rc = main(["invariance", "--family", "exponential", "--params", "0.3",
                   "--m", "1", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["max_ld_difference"] < 1e-9

    def test_normal_both(self, tmp_path):
        out = tmp_path / "i.json"
        rc = main(["invariance", "--family", "normal", "--params", "5", "2",
                   "--m", "2", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["max_ld_difference"] < 1e-9

    def test_infinite_parameter_exit_2(self, capsys):
        rc = main(["invariance", "--family", "uniform", "--params", "0", "inf", "--quiet"])
        assert rc == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("family,param", [("chisqr", "4"), ("die", "6")])
    def test_integer_parameter_families(self, family, param, tmp_path):
        out = tmp_path / "i.json"
        rc = main(["invariance", "--family", family, "--params", param, "--mode", "montecarlo",
                   "--scale-only", "--n", "20000", "--seed", "1", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["max_ld_difference"] >= 0.0

    def test_wrong_parameter_count_exit_2(self, capsys):
        rc = main(["invariance", "--family", "normal", "--params", "1", "--quiet"])
        assert rc == EXIT_USAGE
        assert "takes 2 parameter(s)" in capsys.readouterr().err

    def test_genexp2_scale_only(self, tmp_path):
        out = tmp_path / "i.json"
        rc = main(["invariance", "--family", "generalizedexp2", "--params", "1", "3",
                   "--m", "1", "--mode", "montecarlo", "--scale-only", "--n", "200000",
                   "--seed", "1", "--quiet", "--json", str(out)])
        assert rc == EXIT_OK
        assert json.loads(out.read_text())["max_ld_difference"] > 0.01


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["analytic", "exponential", "--p", "1e308"],
        ["analytic", "kx", "--s", "0", "--g", "1e308"],
        ["analytic", "exponential", "--p", "nan"],
        ["analytic", "exponential", "--p", "1e-320"],
        ["analytic", "kx", "--g", "inf"],
        ["analytic", "ten-to-semicircle", "--center", "1e308", "--radius", "1"],
        ["analytic", "ten-to-semicircle", "--radius", "0"],
        ["chain", "--preset", "flehinger", "--n", "0"],
        ["analytic", "power-law", "--hi", "inf"],
        ["analytic", "power-law", "--m", "inf"],
        ["invariance", "--family", "gamma", "--params", "1.7e308", "1"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--m", "400"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--max-attempts", "0"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--threads", "0"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--threads", "-1"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--threads", "1000000"],
        ["growth", "factors", "--rate", "-150", "--count", "3"],
        ["growth", "factors", "--rate", "nan", "--count", "3"],
        ["growth", "anomalies", "--t-max", "0"],
        ["growth", "anomalies", "--t-max", "100000000"],
        ["analytic", "kx", "--json", "/nonexistent/x.json"],
        ["growth", "factors", "--csv", "/nonexistent/x.csv"],
        ["chain", "--spec", "Uniform(0,1)", "--n", "10", "--samples", "/nonexistent/x"],
        ["analytic", "ten-to-uniform", "--s", "1", "--bins", "10000000"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--mode", "montecarlo",
         "--n", "-5"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--mode", "montecarlo",
         "--n", "0"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--depth", "500"],
        ["chain", "--preset", "rayleigh_cycles", "--n", "1000", "--cycles", "300"],
        ["chain", "--spec", "Uniform(0," * 400 + "1" + ")" * 400, "--n", "1000"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--depth", "1000000000000"],
        ["chain", "--spec", "Uniform(0,1e999)", "--n", "1",
         "--max-attempts", "100000000000000000000000"],
        ["growth", "anomalies", "--l", "400"],
    ], ids=lambda argv: " ".join(argv)[:120])
    def test_bad_argument_exits_2(self, argv):
        # the first two used to hang, the next four to end in a traceback (exit 1),
        # the next two to exit 4 as a numerical failure; of the next eight, the
        # first five ended in a traceback and the thread counts ran one worker, or
        # asked for a million threads (refused before any thread starts); of the
        # growth cases, a rate of -150 % ended in a traceback, NaN printed NaN
        # factors, T <= 0 printed an empty table and 10^8 T values built a record
        # each (refused before any is built); of the rest, the unwritable
        # outputs ended in a traceback, 10^7 bins ran for minutes, --n -5 ended
        # in a traceback and --n 0 printed NaN, the deep chains in a
        # RecursionError, the huge depth and attempt counts hung, and L = 400
        # (10**400 is past the doubles) ended in a traceback
        proc = _run(["-m", "digitlab.cli", *argv, "--quiet"])
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_exit_code_is_carried_by_the_error_class(self):
        from digitlab import errors

        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.DigitLabError)]
        assert {c.__name__: c.exit_code for c in classes if c.exit_code != EXIT_USAGE} == {
            "EmptyInputError": EXIT_EMPTY, "NumericalFailureError": EXIT_NUMERIC}

    def test_removed_keep_sign_exits_2(self, tmp_path, capsys):
        # the flag did nothing: the report reads |x| whatever it said
        data = tmp_path / "data.txt"
        data.write_text("-1.5\n23\n")
        assert main(["analyze", str(data), "--keep-sign", "--quiet"]) == EXIT_USAGE
        assert "unrecognized arguments: --keep-sign" in capsys.readouterr().err

    def test_all_zero_draws_exit_3(self, capsys):
        # Uniform(0, 5e-324) draws 0 about half the time; this one draw is 0,
        # where the check divided 0 by 0 and printed NaN
        rc = main(["invariance", "--family", "uniform", "--params", "0", "5e-324",
                   "--mode", "montecarlo", "--n", "1", "--seed", "5", "--quiet"])
        assert rc == EXIT_EMPTY
        assert capsys.readouterr().err.startswith("error: all 1 draws")

    def test_exhausted_policy_on_threads_exits_4(self):
        # every draw is invalid: both workers raise NumericalFailureError, the
        # second in a thread of its own
        proc = _run(["-m", "digitlab.cli", "chain", "--spec", "Normal(0, Uniform(-2, -1))",
                     "--n", "1000", "--threads", "2", "--max-attempts", "3",
                     "--on-exhaustion", "error", "--seed", "1", "--quiet"])
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert proc.stderr.startswith("error:") and "after 3 attempts" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["chain", "--preset", "flehinger", "--n", "10"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--mode", "montecarlo"],
    ], ids=" ".join)
    def test_negative_seed_is_a_usage_error(self, argv):
        # numpy's SeedSequence raised a ValueError traceback on it
        proc = _run(["-m", "digitlab.cli", *argv, "--seed", "-1", "--quiet"])
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert "argument --seed: expected a non-negative integer" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["invariance", "--family", "normal", "--params", "0", "5e-324"],
    ], ids=" ".join)
    def test_numerical_failure_exits_4(self, argv):
        # the density overflows next to 0, so its integral is not finite;
        # invariance exited 2 on this, as if the argument were bad
        proc = _run(["-m", "digitlab.cli", *argv, "--quiet"])
        assert proc.returncode == EXIT_NUMERIC, proc.stderr
        assert proc.stderr.startswith("error:") and "not finite" in proc.stderr

    @pytest.mark.parametrize("family,params,codes", [
        ("weibull", ["200", "1"], {EXIT_OK}),
        ("rayleigh", ["1e300"], {EXIT_OK}),
        ("gamma", ["2", "1e300"], {EXIT_OK}),
        ("weibull", ["2", "1e300"], {EXIT_OK}),
        # a ZeroDivisionError and an OverflowError traceback; the first density
        # is finite in log space, the second is past the doubles next to 5e-324
        ("guptakundu", ["5e-324", "100"], {EXIT_OK}),
        ("powerlaw", ["2", "5e-324", "100"], {EXIT_NUMERIC}),
    ])
    def test_pdf_powers_past_the_doubles_are_no_traceback(self, family, params, codes):
        # the first two ended in an OverflowError traceback (exit 1); then the
        # last three exited 2, "density integrated to zero mass", because the
        # decade walk started at decade 0, far from their mass
        proc = _run(["-m", "digitlab.cli", "invariance", "--family", family, "--params", *params,
                     "--quiet"])
        assert proc.returncode in codes, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("family,params", [
        ("normal", ["5", "0.1"]),  # 0 at every power of ten
        ("logistic", ["0", "1"]),  # the pdfs overflowed in their far left tails
        ("fishertippett", ["0", "1"]),
        ("wald", ["1", "1"]),  # the pdf divides by zero at 1e-323
    ])
    def test_invariance_of_pdfs_that_break_far_from_their_mass(self, family, params):
        proc = _run(["-m", "digitlab.cli", "invariance", "--family", family, "--params", *params])
        assert proc.returncode == EXIT_OK, proc.stderr
        # each is a scale family: the law does not move
        assert float(proc.stdout.split("=")[-1]) < 1e-12

    def test_huge_scan_grid_refused_before_allocation(self):
        # 1e300 rates: refused before any list is built; the address-space
        # limit makes a regression fail with MemoryError, not take the machine
        proc = _run_in_2gib(["growth", "scan", "--lo", "1", "--hi", "2", "--step", "1e-300"])
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error:") and "rates" in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["growth", "factors", "--count", "1000000000000"],
        ["growth", "series", "--n", "100000000"],
        ["growth", "scan", "--hi", "2", "--n", "1000000000000"],
        ["analytic", "ten-to-uniform", "--s", "1", "--bins", "100000000000"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--mode", "montecarlo",
         "--n", "1000000000000"],
    ], ids=" ".join)
    def test_oversized_count_refused_before_allocation(self, argv):
        # each ended in a MemoryError traceback
        proc = _run_in_2gib(argv)
        assert proc.returncode == EXIT_USAGE, proc.stderr
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr

    def test_power_law_at_extreme_exponent_is_a_point_mass(self):
        # k/x**1e300 on (0.5, 1000) puts all its mass at 0.5: digit 5
        proc = _run(["-m", "digitlab.cli", "analytic", "power-law", "--m", "1e300", "--lo", "0.5"])
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "    5      1.00000" in proc.stdout


class TestWorkBudget:
    @settings(max_examples=60, deadline=None, database=None)
    @given(chain=st.sampled_from([["--spec", "Uniform(0,1e999)"], ["--preset", "flehinger"],
                                  ["--spec", "Normal(Uniform(-1,1), Uniform(-0.5,2))"]]),
           work=st.integers(1, chains._MAX_ATTEMPTS).flatmap(
               lambda a: st.tuples(st.just(a), st.integers(chains._MAX_ROW_EVALS // a + 1, 10**13))),
           threads=st.sampled_from(("1", "2")))
    @example(chain=["--spec", "Uniform(0,1e999)"], work=(10**4, 10**6), threads="1")
    def test_chain_over_budget_exits_2_within_a_second(self, chain, work, threads):
        # n x max_attempts above the budget ran for minutes, or hours, before
        attempts, n = work
        argv = ["chain", *chain, "--n", str(n), "--max-attempts", str(attempts),
                "--threads", threads, "--quiet"]
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE
        assert f"budget of {chains._MAX_ROW_EVALS}" in err.getvalue()


class TestScanBudget:
    @settings(max_examples=60, deadline=None, database=None)
    @given(work=st.integers(growth._MAX_SCAN_ELEMENTS // (growth._MAX_RATES - 1) + 1,
                            growth._MAX_RATES).flatmap(
               lambda n: st.tuples(st.integers(growth._MAX_SCAN_ELEMENTS // n + 1, growth._MAX_RATES),
                                   st.just(n))))
    @example(work=(growth._MAX_RATES, growth._MAX_RATES))
    def test_scan_over_budget_exits_2_within_a_second(self, work):
        # above the budget a scan runs for minutes to hours (up to 10^12 elements)
        rates, n = work
        argv = ["growth", "scan", "--lo", "1", "--hi", str(rates), "--step", "1", "--n", str(n),
                "--quiet"]
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(argv)
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE
        assert f"{rates} rates x {n} elements" in err.getvalue()
        assert f"budget of {growth._MAX_SCAN_ELEMENTS}" in err.getvalue()

    def test_fine_grid_of_long_series_exits_2_within_a_second(self):
        # 999,901 rates of 10^6 elements each
        start = time.perf_counter()
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["growth", "scan", "--lo", "1", "--hi", "10000", "--step", "0.01",
                       "--n", "1000000", "--quiet"])
        assert time.perf_counter() - start < 1.0
        assert rc == EXIT_USAGE
        assert "999901 rates x 1000000 elements" in err.getvalue()

    def test_default_and_benchmark_scans_are_within_budget(self):
        args = cli.build_parser().parse_args(["growth", "scan"])
        rates = round((args.hi - args.lo) / args.step) + 1
        assert (rates, args.n) == (59_901, 1000)
        assert rates * args.n <= growth._MAX_SCAN_ELEMENTS
        assert 14_901 * 1000 <= growth._MAX_SCAN_ELEMENTS  # the benchmark's growth-scan


# runs main() and reports its exit code, the scipy and digitlab modules it left
# loaded, and which of numpy, numpy.ma, concurrent.futures and _hashlib (OpenSSL) it
# did; a None entry in sys.modules marks a module absent, not loaded
_PROBE = """
import json, sys
from digitlab.cli import main
rc = main(sys.argv[1:])
loaded = lambda top: sorted(m for m in sys.modules if m.split(".")[0] == top)
print(json.dumps({"rc": rc, "scipy": loaded("scipy"), "digitlab": loaded("digitlab"),
                  **{name: sys.modules.get(name) is not None
                     for name in ("numpy", "numpy.ma", "concurrent.futures", "_hashlib")}}))
"""
# run before the probe, it makes any import of numpy raise ImportError
_NO_NUMPY = "import sys\nsys.modules['numpy'] = None\n"


def _probe_process(argv: list[str], env: dict = _ENV, prelude: str = ""):
    """The probe in a fresh interpreter, after the statements of ``prelude``."""
    return subprocess.run([sys.executable, "-c", prelude + _PROBE, *argv], capture_output=True,
                          text=True, timeout=_TIMEOUT_S, env=env)


def _probe(argv: list[str], env: dict = _ENV, rc: int = EXIT_OK, prelude: str = "") -> dict:
    proc = _probe_process(argv, env, prelude)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert probe["rc"] == rc
    return probe


def _scipy_imports(package: Path) -> list[str]:
    """'file:line' of every import of scipy in the package's modules, read from the source."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "scipy" for n in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


class TestStartup:
    # the runtime needs numpy only: no command loads scipy
    @pytest.mark.parametrize("argv", [
        ["--version"],
        ["analyze", "{data}", "--quiet"],
        ["scheme", "simple", "--quiet"],
        ["scheme", "iterated", "--quiet"],
        ["scheme", "twist", "--quiet"],
        ["growth", "scan", "--lo", "21.1", "--hi", "21.2", "--quiet"],
        ["chain", "--preset", "flehinger", "--n", "20000", "--seed", "1", "--quiet"],
        ["chain", "--spec", "Normal(Uniform(-1,1), Uniform(-0.5,2))", "--n", "20000",
         "--threads", "2", "--seed", "1", "--quiet"],
        ["analytic", "exponential", "--quiet"],
        ["analytic", "kx", "--quiet"],
        ["analytic", "ten-to-semicircle", "--quiet"],
        ["analytic", "shifted-kx", "--quiet"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--quiet"],
        # the Wright omega quantile, from two worker threads at once
        ["chain", "--spec", "Gompertz(Uniform(0,10), 1)", "--n", "20000",
         "--threads", "2", "--seed", "1", "--quiet"],
    ], ids=lambda argv: " ".join(argv) + "-scipy=False")
    def test_scipy_loaded_only_where_needed(self, argv, benford_file):
        argv = [a.replace("{data}", str(benford_file)) for a in argv]
        assert _probe(argv)["scipy"] == []

    def test_no_module_imports_scipy(self):
        # the same rule read from the source, for paths no command above reaches
        assert _scipy_imports(Path(digitlab.__file__).parent) == []

    def test_checks_see_a_module_level_scipy_import(self, tmp_path):
        # positive control for both checks: a copy of the package with one
        # module-level scipy import added to a module every start loads
        package = tmp_path / "digitlab"
        shutil.copytree(Path(digitlab.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        module = package / "errors.py"
        source = module.read_text()
        module.write_text(source + "\nimport scipy.special\n")
        line = source.count("\n") + 2  # after the blank line written before it
        probe = _probe(["--version"], {**os.environ, "PYTHONPATH": str(tmp_path)})
        assert "scipy.special" in probe["scipy"]
        assert _scipy_imports(package) == [f"errors.py:{line}"]

    # every start loads these, --version no more
    _VERSION = {"digitlab", "digitlab.cli", "digitlab.errors"}
    # every command loads these; each adds the one module it runs
    _BASE = _VERSION | {"digitlab.digits"}

    def test_import_and_version_load_no_subcommand_module(self):
        probe = _probe(["--version"])
        assert set(probe["digitlab"]) == self._VERSION
        assert not probe["numpy"]
        assert not probe["_hashlib"]

    @pytest.mark.parametrize("argv,rc", [
        (["--version"], EXIT_OK),
        (["--help"], EXIT_OK),
        (["chain", "--help"], EXIT_OK),
        (["growth", "scan", "--n", "x"], EXIT_USAGE),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else f"rc={v}")
    def test_arguments_parse_without_numpy(self, argv, rc):
        assert not _probe(argv, rc=rc)["numpy"]
        assert _probe(argv, rc=rc, prelude=_NO_NUMPY)["rc"] == rc

    def test_check_sees_a_command_import_numpy(self):
        # positive control for the test above: a command needs numpy, and fails without it
        proc = _probe_process(["growth", "series", "--quiet"], prelude=_NO_NUMPY)
        assert proc.returncode == 1
        assert "import of numpy halted" in proc.stderr
        assert _probe(["growth", "series", "--quiet"])["numpy"]

    def test_no_chain_loads_concurrent_futures(self):
        # workers are plain threads: no chain loads concurrent.futures, nor the
        # logging it loads; the prelude that imports it is the positive control
        for threads in ("1", "2"):
            argv = ["chain", "--preset", "flehinger", "--n", "1000", "--seed", "1",
                    "--threads", threads, "--quiet"]
            assert not _probe(argv)["concurrent.futures"]
            assert _probe(argv, prelude="import concurrent.futures\n")["concurrent.futures"]

    # each command with --json, whose manifest digest is a sha256
    _OPENSSL_FREE = [
        ["growth", "scan", "--lo", "21.1", "--hi", "21.2", "--quiet"],
        ["analyze", "{data}", "--quiet"],
        ["chain", "--preset", "flehinger", "--n", "1000", "--seed", "1", "--quiet"],
        ["chain", "--spec", "Normal(Uniform(-1,1), Uniform(-0.5,2))", "--n", "20000",
         "--threads", "2", "--seed", "1", "--quiet"],
        ["invariance", "--family", "normal", "--params", "0", "1", "--mode", "montecarlo",
         "--n", "1000", "--seed", "1", "--quiet"],
    ]

    @pytest.mark.parametrize("argv", _OPENSSL_FREE, ids=" ".join)
    def test_no_command_loads_openssl(self, argv, benford_file, tmp_path):
        argv = [a.replace("{data}", str(benford_file)) for a in argv]
        argv += ["--json", str(tmp_path / "out.json")]
        assert not _probe(argv)["_hashlib"]
        # positive control: numpy.random loaded before main() brings OpenSSL with it
        assert _probe(argv, prelude="import numpy.random\n")["_hashlib"]

    _CHAIN = ["chain", "--preset", "flehinger", "--n", "1000", "--seed", "1", "--quiet"]

    def test_manifest_digest_is_the_sha256_of_the_command_line(self, tmp_path):
        out = tmp_path / "out.json"
        argv = [*self._CHAIN, "--json", str(out)]
        assert not _probe(argv)["_hashlib"]
        want = hashlib.sha256(" ".join(["digitlab", *argv]).encode()).hexdigest()[:16]
        assert json.loads(out.read_text())["manifest"]["config_digest"] == want

    # a Python built without _sha3: hashlib without OpenSSL would log an error for it
    _NO_SHA3 = "import sys\nsys.modules['_sha3'] = None\n"

    def test_openssl_loads_as_before_where_a_builtin_hash_is_missing(self, tmp_path):
        argv = [*self._CHAIN, "--json", str(tmp_path / "out.json")]
        proc = _probe_process(argv, prelude=self._NO_SHA3)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.strip().splitlines()[-1])["_hashlib"]
        assert proc.stderr == ""

    def test_check_sees_hashlib_log_a_missing_builtin_hash(self):
        # positive control for the test above: OpenSSL marked absent regardless
        proc = _probe_process(self._CHAIN, prelude=self._NO_SHA3 + "sys.modules['_hashlib'] = None\n")
        assert proc.returncode == 0, proc.stderr
        assert "code for hash sha3_224 was not found" in proc.stderr

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    def test_analyze_loads_only_conformity(self, fmt, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("v\n1.5\n23\n-0.004\n7e300\n")
        argv = ["analyze", str(path), "--quiet"]
        if fmt == "csv":
            argv += ["--format", "csv", "--column", "v"]
        probe = _probe(argv)
        assert set(probe["digitlab"]) == self._BASE | {"digitlab.conformity"}
        assert not probe["numpy.ma"]

    def test_chain_loads_no_analytic(self):
        # the analytic invariance check imports it when it runs
        probe = _probe(["chain", "--preset", "flehinger", "--n", "1000", "--seed", "1", "--quiet"])
        assert set(probe["digitlab"]) == self._BASE | {
            "digitlab.chains", "digitlab.conformity", "digitlab.distributions"}

    def test_growth_scan_loads_growth_and_what_it_tallies_with(self):
        probe = _probe(["growth", "scan", "--lo", "21.1", "--hi", "21.2", "--quiet"])
        assert set(probe["digitlab"]) == self._BASE | {
            "digitlab.growth", "digitlab.conformity"}

    def test_analytic_loads_only_analytic(self):
        # DistributionModel is an annotation only; ld_inflection_point imports its families
        probe = _probe(["analytic", "ten-to-semicircle", "--quiet"])
        assert set(probe["digitlab"]) == self._BASE | {"digitlab.analytic"}

    def test_check_sees_a_module_level_subcommand_import(self, tmp_path):
        # positive control: a copy of the package whose cli.py imports chains at module level
        package = tmp_path / "digitlab"
        shutil.copytree(Path(digitlab.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        module = package / "cli.py"
        module.write_text(module.read_text() + "\nfrom . import chains\n")
        probe = _probe(["--version"], {**os.environ, "PYTHONPATH": str(tmp_path)})
        assert set(probe["digitlab"]) != self._VERSION
        assert "digitlab.chains" in probe["digitlab"]

    _THREADS = ("import os, sys; {run}; print(len(os.listdir('/proc/self/task')),"
                " os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)")
    # a command that loads numpy and starts no thread of its own
    _COMMAND = "from digitlab.cli import main; main(['growth', 'series', '--quiet'])"

    def _threads(self, run: str, setting: str | None) -> list[str]:
        env = {k: v for k, v in _ENV.items() if k != "OPENBLAS_NUM_THREADS"}
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", self._THREADS.format(run=run)],
                              capture_output=True, text=True, timeout=_TIMEOUT_S, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_digitlab_loads_no_numpy(self):
        assert self._threads("import digitlab", None)[2] == "False"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
    def test_cli_starts_numpy_without_a_blas_pool(self):
        # an idle OpenBLAS pool spins its workers for about 0.1 s of CPU per start
        assert self._threads(self._COMMAND, None) == ["1", "1", "True"]

    def test_cli_keeps_the_users_blas_threads(self):
        assert self._threads(self._COMMAND, "2")[1:] == ["2", "True"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2,
                        reason="counts threads in /proc; needs two CPUs")
    def test_thread_count_sees_a_blas_pool(self):
        # positive control: numpy loaded alone, with no setting, starts a pool of workers
        assert int(self._threads("import numpy", None)[0]) > 1


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


class TestAllocator:
    _SCAN = ["growth", "scan", "--lo", "21.0", "--hi", "22.0", "--t-max", "50"]
    _CHAIN = ["chain", "--preset", "flehinger", "--n", "200000", "--threads", "2", "--seed", "3"]

    @pytest.mark.parametrize("argv", [["--version"], ["growth", "scan", "--n", "x"], []])
    def test_not_asked_before_the_arguments_parse(self, argv, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "_keep_freed_memory", lambda: calls.append(argv))
        assert main(argv) in (EXIT_OK, EXIT_USAGE)
        assert calls == []
        assert main(["growth", "series", "--quiet"]) == EXIT_OK
        assert calls == [argv]

    @pytest.mark.parametrize("cdll", ["raises", "no-mallopt"])
    def test_output_unchanged_where_libc_has_no_mallopt(self, cdll, monkeypatch, capsys):
        def outputs():
            out = []
            for argv in (self._SCAN, self._CHAIN):
                assert main(argv) == EXIT_OK
                out.append(capsys.readouterr().out)
            return out

        want = outputs()
        looked_up = []

        def fake_cdll(name, *args, **kwargs):
            looked_up.append(name)
            if cdll == "raises":
                raise OSError("no C library")
            return object()  # a C library handle without mallopt, as off glibc

        monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
        assert outputs() == want
        assert looked_up == [None, None]

    def test_asks_for_thresholds_and_one_arena(self, monkeypatch):
        asked = []

        class Libc:
            def mallopt(self, param, value):
                asked.append((param, value))
                return 1

        monkeypatch.setattr(ctypes, "CDLL", lambda name, *args, **kwargs: Libc())
        cli._keep_freed_memory()
        assert asked == [(-3, 64 << 20), (-1, 256 << 20), (-8, 1)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD, M_ARENA_MAX

    # minor page faults of one chain command (flehinger, 3e6 draws) on modules already
    # loaded, with the allocator call taken out ("off") or made as main() makes it ("on")
    _FAULTS = """
import resource, sys
from digitlab import chains, cli
if sys.argv[1] == "off":
    cli._keep_freed_memory = lambda: None
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cli.main(["chain", "--preset", "flehinger", "--n", "3000000", "--seed", "7", "--quiet"])
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_keeping_freed_memory_cuts_page_faults_fivefold(self):
        faults = {}
        for mode in ("off", "on"):
            proc = _run(["-c", self._FAULTS, mode])
            assert proc.returncode == 0, proc.stderr
            faults[mode] = int(proc.stdout)
        # about 23,700 against 370 on glibc 2.36: each freed 256 KiB buffer array of
        # the draw and tally passes goes back to the kernel and faults in afresh
        assert faults["on"] * 5 <= faults["off"], faults


# ---------------------------------------------------------------------------
# fuzz of main(): every argument list ends in exit 0, 2, 3 or 4, in bounded time

_EDGE = ("inf", "-inf", "nan", "0", "-0", "5e-324", "1e308", "-1e308", "-1", str(10**12),
         str(10**21), "")
_NUM = st.sampled_from(_EDGE)
# for the flags of type int: most values parse, so that most draws reach a command body
_INT = st.sampled_from(("0", "-1", "1", "2", "7", str(10**12), str(10**21), "1.5", ""))
_OUTPUT = st.sampled_from(("{out}", "/nonexistent/x"))
_SPECS = ("Uniform(0,1)", "Uniform(0,1e999)", "Normal(Uniform(-1,1), Uniform(-0.5,2))",
          "Gompertz(Uniform(0,10), 1)", "Rayleigh(Uniform(0, 5e-324))", "Weibull(1)", "Uniform(0,",
          "Nope(1)", "Uniform(0,1))", "", "Uniform(0," * 400 + "1" + ")" * 400)
_FAMILIES = ("normal", "uniform", "exponential", "gamma", "weibull", "rayleigh", "wald", "lognormal",
             "gompertz", "guptakundu", "pareto", "powerlaw", "chisqr", "die", "triangular", "nope")


def _command(leaves: list[tuple]):
    """argv strategy of one command with leaves of (positionals, options, foreign options).
    It draws a leaf, then a draw of each positional strategy in order (a list is spliced
    in), then up to five of the options and the common ones, and, when a draw of 0 to 4
    is 0, one of the foreign options, a flag the leaf does not take.  Each is written
    --flag=value so that a value may start with '-'; a None option is a flag without a value."""
    @st.composite
    def draw_argv(draw):
        positionals, options, foreign = draw(st.sampled_from(leaves))
        options = {**options, "--json": _OUTPUT, "--quiet": None}
        argv = []
        for p in positionals:
            value = draw(p)
            argv += value if isinstance(value, list) else [value]
        flags = draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=5))
        if foreign and draw(st.integers(0, 4)) == 0:
            flags.append(draw(st.sampled_from(sorted(foreign))))
        for flag in flags:
            value = {**options, **foreign}[flag]
            argv.append(flag if value is None else f"{flag}={draw(value)}")
        return argv

    return draw_argv()


def _split(pool: dict, own) -> tuple[dict, dict]:
    """The options of a pool that a leaf takes, and the others."""
    return {f: v for f, v in pool.items() if f in own}, {f: v for f, v in pool.items() if f not in own}


def _cases(command: str, pool: dict) -> list[tuple]:
    """A leaf for each case of the command, its own flags and its siblings' drawn from the pool."""
    return [([st.just(command), st.just(case)], *_split(pool, flags.split()))
            for case, flags in _CASE_FLAGS[command].items()]


_ANALYZE = {"--column": st.sampled_from(("v", "0", "9", "")), "--field": st.sampled_from(("v", "a.b")),
            "--min-magnitude": _NUM}
_CHAIN = {"--depth": _INT, "--m": _NUM, "--cycles": _INT, "--max-attempts": _INT,
          "--on-exhaustion": st.sampled_from(("skip", "error")), "--samples": _OUTPUT,
          "--threads": st.sampled_from(("1", "2")), "--seed": _INT}
_CHAIN_N = st.sampled_from(("--n=-1", "--n=0", "--n=1", "--n=1000", "--n=nan", "--n="))
# a chain's spec or preset, and the preset flags it takes
_SELECTORS = [(st.sampled_from([f"--spec={s}" for s in _SPECS]), ()),
              (st.just("--preset=flehinger"), ("--depth", "--m")),
              (st.just("--preset=rayleigh_cycles"), ("--cycles",)),
              (st.sampled_from([f"--preset={p}" for p in ("benford_twist", "mini_hill", "table8_chain")]), ())]
_PRESET_ONLY = {"--depth", "--m", "--cycles"}
_INVARIANCE = [st.sampled_from([f"--family={f}" for f in _FAMILIES]),
               # one value as --params=v, so that it may start with '-'
               st.lists(_NUM, min_size=1, max_size=3).map(
                   lambda v: [f"--params={v[0]}"] if len(v) == 1 else ["--params", *v])]

_ARGV = st.one_of(
    _command([([st.just("analyze"), st.sampled_from(("{data}", "{out}", "/nonexistent/x")),
                st.just(f"--format={fmt}")], *_split(_ANALYZE, ("--min-magnitude", *own)))
              for fmt, own in (("plain", ()), ("csv", ("--column",)), ("jsonl", ("--field",)))]),
    _command([([st.just("chain"), selector, _CHAIN_N], *_split(_CHAIN, set(_CHAIN) - _PRESET_ONLY | set(own)))
              for selector, own in _SELECTORS]),
    _command(_cases("scheme", {**{f: _INT for f in ("--lb", "--ub-min", "--ub-max", "--depth", "--inner-min",
                                                    "--mid-min", "--start", "--end")},
                               "--rate": _NUM, "--top": st.builds(lambda lo, hi: f"{lo}:{hi}", _INT, _INT)})),
    _command(_cases("analytic", {**{f: _NUM for f in ("--s", "--g", "--m", "--lo", "--hi", "--p", "--r", "--a",
                                                      "--b", "--mode", "--center", "--radius")},
                                 "--bins": _INT, "--csv": _OUTPUT})),
    _command(_cases("growth", {**{f: _NUM for f in ("--rate", "--base", "--lo", "--hi", "--step")},
                               **{f: _INT for f in ("--n", "--l", "--t-max", "--count")}, "--csv": _OUTPUT})),
    _command([([st.just("invariance"), *_INVARIANCE, st.sampled_from(([], ["--mode=analytic"]))],
               {"--m": _INT, "--scale-only": None}, {"--n": st.just("1000"), "--seed": _INT}),
              ([st.just("invariance"), *_INVARIANCE, st.just("--mode=montecarlo"),
                st.sampled_from(("--n=1000", "--n=0", "--n=-1", f"--n={10**12}", f"--n={10**21}"))],
               {"--m": _INT, "--scale-only": None, "--seed": _INT}, {})]),
)


class _Hang(BaseException):
    """Raised by the alarm: an exception no handler in the package catches."""


def _hang(signum, frame):
    raise _Hang


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data.csv"
    data.write_text("v\n" + "".join(f"{v}\n" for v in (1.5, 23, -0.004, 0, 7e300, 5e-324, "x", 123)))
    return {"{data}": str(data), "{out}": str(root / "out")}


class TestFuzzMain:
    _ALARM_S = 10  # one call; a hang fails the test after this many seconds

    @settings(max_examples=600, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(argv=_ARGV)
    def test_every_input_exits_0_2_3_or_4(self, argv, fuzz_files):
        for token, path in fuzz_files.items():
            argv = [a.replace(token, path) for a in argv]
        previous = signal.signal(signal.SIGALRM, _hang)
        signal.alarm(self._ALARM_S)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = main(argv)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert rc in (EXIT_OK, EXIT_USAGE, EXIT_EMPTY, EXIT_NUMERIC), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
