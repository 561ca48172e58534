"""Every top-level def, class and constant of src/digitlab is read somewhere,
and so is every method of its classes.

A name counts as read where src/, tests/ or bench/ load it as a name, an
attribute or an import, outside its own definition (a recursive call or a
store does not count).  Dunder names are hooks Python itself reads.

A method counts as read where src/ or bench/ load its name outside its own
body (a test's call does not count), where it overrides a base method that
is read, or where the README names its class as library API.  The check goes
by name, not by type: any load of the same name counts.  So numpy's
``.mean()`` in bench/refs.py would hide an unread ``mean`` method, the local
variables named ``kind`` in chains.py and bench/traced.py an unread ``kind``,
and an analytic spec's ``spec.cdf`` an unread ``cdf``; the last test below
keeps those three out by hand.

No module in src/, tests/ or bench/ imports a name it never loads.
"""

import ast
import importlib
import inspect
import re
import shutil
from pathlib import Path

from digitlab import chains, conformity, errors, growth, schemes
from digitlab.distributions import Gompertz

_ROOT = Path(__file__).resolve().parents[1]


def _definitions(package: Path):
    """(module file name, name, node) of each top-level def, class and assigned name."""
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield path, node.name, node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            yield path, n.id, node


def _reads(paths):
    """name -> [(path, line)] of every load of it as a name, attribute or import."""
    reads: dict[str, list] = {}
    for path in paths:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                name = n.id
            elif isinstance(n, ast.Attribute):
                name = n.attr
            elif isinstance(n, ast.alias):
                name = n.name.rpartition(".")[2]
            else:
                continue
            reads.setdefault(name, []).append((path, getattr(n, "lineno", 0)))
    return reads


def _unread(package: Path, trees: list[Path]) -> list[str]:
    reads = _reads(sorted({p.resolve() for tree in trees for p in tree.rglob("*.py")}))
    unread = []
    for path, name, node in _definitions(package.resolve()):
        own = range(node.lineno, node.end_lineno + 1)
        dunder = name.startswith("__") and name.endswith("__")
        if not dunder and all(p == path and line in own for p, line in reads.get(name, [])):
            unread.append(f"{path.name}:{name}")
    return unread


def test_every_top_level_name_is_read():
    package = _ROOT / "src" / "digitlab"
    assert _unread(package, [_ROOT / "src", _ROOT / "tests", _ROOT / "bench"]) == []


def test_check_sees_an_unread_name(tmp_path):
    # positive control: a copy of the package with a function that only calls
    # itself and a constant that is only stored
    package = tmp_path / "src" / "digitlab"
    shutil.copytree(_ROOT / "src" / "digitlab", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = package / "digits.py"
    module.write_text(module.read_text()
                      + "\n\ndef _orphan(n):\n    return _orphan(n - 1) if n else 0\n"
                      + "\n\n_ORPHAN = 1\n")
    unread = _unread(package, [tmp_path / "src", _ROOT / "tests", _ROOT / "bench"])
    assert unread == ["digits.py:_orphan", "digits.py:_ORPHAN"]


def _library_classes(readme: str) -> set[str]:
    """Classes of each `Class.method` in the README's "Library API" paragraph."""
    section = readme.split("\n## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    paragraph = next(p for p in section.split("\n\n") if p.startswith("Library API"))
    return set(re.findall(r"`([A-Z]\w*)\.\w+`", paragraph))


def _unread_methods(package: Path, trees: list[Path], library: set[str]) -> list[str]:
    reads = _reads(sorted({p.resolve() for tree in trees for p in tree.rglob("*.py")}))
    classes = {}  # class name -> (path, {method name: node}, base names)
    for path in sorted(package.resolve().glob("*.py")):
        for cls in ast.parse(path.read_text(), str(path)).body:
            if isinstance(cls, ast.ClassDef):
                methods = {n.name: n for n in cls.body
                           if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))}
                bases = [b.id for b in cls.bases if isinstance(b, ast.Name)]
                classes[cls.name] = (path, methods, bases)

    def read(cls: str, name: str) -> bool:
        if cls not in classes:
            return False
        path, methods, bases = classes[cls]
        node = methods.get(name)
        if node is not None:
            own = range(node.lineno, node.end_lineno + 1)
            if cls in library or any(p != path or line not in own for p, line in reads.get(name, [])):
                return True
        return any(read(base, name) for base in bases)  # the base method it overrides

    return [f"{path.name}:{cls}.{name}" for cls, (path, methods, _) in classes.items()
            for name in methods if not name.startswith("__") and not read(cls, name)]


def test_every_method_is_read():
    library = _library_classes((_ROOT / "README.md").read_text())
    assert _unread_methods(_ROOT / "src" / "digitlab", [_ROOT / "src", _ROOT / "bench"], library) == []


def test_method_check_sees_an_unread_method(tmp_path):
    # positive control: a method that only calls itself and one that only a
    # test calls are flagged; an override of a read method is not
    package = tmp_path / "src" / "digitlab"
    shutil.copytree(_ROOT / "src" / "digitlab", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    module = package / "distributions.py"
    module.write_text(module.read_text().replace(
        "    lo: float\n    hi: float\n",
        "    lo: float\n    hi: float\n\n"
        "    def _self_only(self, n):\n        return self._self_only(n - 1) if n else 0\n\n"
        "    def tested_only(self):\n        return self.lo\n", 1))
    (package / "analytic.py").write_text((package / "analytic.py").read_text()
                                         + "\n\nclass _Shifted(UniformLog):\n"
                                           "    def translated(self, offset):\n        return self\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_planted.py").write_text(
        "from digitlab.distributions import Support\n\n\n"
        "def test_planted():\n    assert Support(0.0, 1.0).tested_only() == 0.0\n")
    library = _library_classes((_ROOT / "README.md").read_text())
    unread = _unread_methods(package, [tmp_path / "src", _ROOT / "bench"], library)
    assert unread == ["distributions.py:Support._self_only", "distributions.py:Support.tested_only"]
    # the README's library classes are all that keeps the methods only tests call
    assert sorted(_unread_methods(package, [tmp_path / "src", _ROOT / "bench"], set())) == [
        "analytic.py:DecadeDecomposition.overall", "analytic.py:SemiCircularLog.translated",
        "analytic.py:TriangularLog.translated", "analytic.py:UniformLog.translated",
        "analytic.py:_Shifted.translated", "digits.py:Significand.reconstruct",
        "distributions.py:Support._self_only", "distributions.py:Support.tested_only",
        "growth.py:AnomalyRecord.first_power_of_ten_factor"]


def test_no_mean_api_and_no_second_harmonic_number():
    # the method check cannot see these names, which other objects load
    # (numpy's mean, argparse's kind, the analytic specs' cdf)
    pattern = re.compile(r"def mean|_harmonic\b|_PSI_|_EULER_GAMMA|def kind")
    hits = [f"{path.name}:{i}" for path in sorted((_ROOT / "src").rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert hits == []
    assert not hasattr(Gompertz, "cdf")


def test_no_one_value_knobs():
    # each parameter below was never set by src/ or bench/ to anything but its
    # default, so it is a constant now; the code only another value reached is gone
    removed = {
        chains.chainability_experiment: {"config"}, chains.chainability_majority: {"config"},
        chains.sequential_chisqr: {"policy"}, conformity.chi_sqr: {"expected"},
        conformity.scale_invariance_probe: {"expected"},
        conformity.mantissa_uniformity_test: {"significance"}, conformity.ks_critical: {"significance"},
        conformity._mantissa_ks: {"significance"}, schemes.scheme_dataset: {"duplication", "count_cap"},
        growth.random_multiplication_process: {"max_attempts"},
    }
    assert {f.__name__: names & set(inspect.signature(f).parameters)
            for f, names in removed.items()} == {f.__name__: set() for f in removed}
    assert not hasattr(conformity, "chi_sqr_critical")
    pattern = re.compile(r"ChainabilityConfig|_chi_sqr_upper_tail|_MAX_DOF|factor_weighted")
    hits = [f"{path.name}:{i}" for path in sorted((_ROOT / "src").rglob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1) if pattern.search(line)]
    assert hits == []


def _reads_dataclass_fields(node) -> bool:
    """Whether an AST node imports or loads dataclasses.fields."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "dataclasses" and any(a.name == "fields" for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == "fields"
            and isinstance(node.value, ast.Name) and node.value.id == "dataclasses")


def test_families_are_plain_classes():
    # a family names its parameters once; DistributionModel is its one record code,
    # so the only dataclass left in distributions.py is Support
    package = _ROOT / "src" / "digitlab"
    assert (package / "distributions.py").read_text().count("@dataclass") <= 1
    readers = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if _reads_dataclass_fields(node)]
    assert readers == []
    assert not hasattr(errors, "BadExpectedError")  # the probe's bad factor is a BadParamsError


def _unused_imports(paths: list[Path], root: Path) -> list[str]:
    """'path:name' of each name a module binds by import and never loads; __future__ is exempt."""
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]  # import a.b binds a
                    if name not in loaded:
                        unused.append(f"{path.relative_to(root).as_posix()}:{name}")
    return unused


def test_no_unused_imports():
    paths = sorted(p for tree in ("src", "tests", "bench") for p in (_ROOT / tree).rglob("*.py"))
    assert _unused_imports(paths, _ROOT) == []


def test_import_check_sees_an_unused_import(tmp_path):
    # positive control: imports planted in a copy of a module; os (bound by import
    # os.path) is loaded already and tau is used, sh and half_turn are never loaded
    module = tmp_path / "cli.py"
    module.write_text((_ROOT / "src" / "digitlab" / "cli.py").read_text()
                      + "\nimport os.path\nimport shutil as sh\nfrom math import tau, pi as half_turn\n"
                      + "\n\ndef _turn():\n    return tau\n")
    assert _unused_imports([module], tmp_path) == ["cli.py:sh", "cli.py:half_turn"]


def _cap_table(readme: str) -> dict[str, str]:
    """`module._NAME` -> value text of each row of the README's Caps table."""
    section = readme.split("\n## Caps\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+\.\w+)` \| ([^|]+?) \|", section, re.MULTILINE))


def _cap_value(text: str) -> int:
    """100, 10^4 or 2×10^9 as an int."""
    m = re.fullmatch(r"(?:(\d+)×)?10\^(\d+)|(\d+)", text)
    assert m, f"unreadable cap value {text!r}"
    factor, exponent, plain = m.groups()
    return int(plain) if plain else int(factor or 1) * 10 ** int(exponent)


def test_readme_cap_table_matches_the_code():
    table = _cap_table((_ROOT / "README.md").read_text())
    for name, text in table.items():
        module, _, constant = name.partition(".")
        assert getattr(importlib.import_module(f"digitlab.{module}"), constant) == _cap_value(text), name
    caps = {f"{path.stem}.{name}" for path, name, _ in _definitions(_ROOT / "src" / "digitlab")
            if name.startswith("_MAX_")}
    assert caps <= set(table)


def test_cap_table_check_reads_rows_and_values():
    # positive control: the parser finds every row, and a wrong value would not match
    table = _cap_table("\n## Caps\n\n| constant | value |\n| --- | --- |\n"
                       "| `growth._MAX_RATES` | 10^6 | x |\n| `chains._MAX_WORKERS` | 64 | y |\n"
                       "| `growth._MAX_SCAN_ELEMENTS` | 2×10^9 | z |\n\n## Next\n| `a.b` | 1 |\n")
    assert {k: _cap_value(v) for k, v in table.items()} == {
        "growth._MAX_RATES": 10**6, "chains._MAX_WORKERS": 64, "growth._MAX_SCAN_ELEMENTS": 2 * 10**9}
