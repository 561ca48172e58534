"""Every top-level def, class and constant of src/digitlab is read somewhere.

A name counts as read where src/, tests/ or bench/ load it as a name, an
attribute or an import, outside its own definition (a recursive call or a
store does not count).  Dunder names are hooks Python itself reads.
"""

import ast
import importlib
import re
import shutil
from pathlib import Path

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
