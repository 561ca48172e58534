"""Every top-level def, class and constant of src/digitlab is read somewhere.

A name counts as read where src/, tests/ or bench/ load it as a name, an
attribute or an import, outside its own definition (a recursive call or a
store does not count).  Dunder names are hooks Python itself reads.
"""

import ast
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
