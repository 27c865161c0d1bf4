"""Every name a module imports is used in that module, and every private
module-level name of the package is read by the package.

No linter runs on this repository, so these stdlib-only checks stand in for
one.  The first parses each module of the package, the tests and the
scripts, and fails on an imported name that the module never reads.  A name
listed in the module's `__all__` counts as used (a re-export), and so does a
name that appears only inside a string annotation.  The second fails on a
module-level private function, class or constant of `src/crosswitch` that
no module of `src/crosswitch` reads, so that a helper cannot outlive its
last caller, nor live on for the tests alone.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for d in ("src/crosswitch", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "crosswitch").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import -> line of the import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                out[a.asname or a.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                out[a.asname or a.name] = node.lineno
    return out


def _annotations(node: ast.AST) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    return []


def _used(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts}
        for ann in _annotations(node):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports " + ", ".join(
        f"{name} (line {line})" for line, name in unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os, re\nfrom a import b, c as d\n__all__ = ['b']\n"
                     "def f() -> 'os.PathLike':\n    return 're'\n")
    assert set(_imported(tree)) - _used(tree) == {"d", "re"}


def _private_defs(tree: ast.Module) -> dict[str, int]:
    """Private (one leading underscore) module-level function, class or
    constant -> line of its definition."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        out.update((name, node.lineno) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attribute names and the names it
    imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {a.name for a in node.names}
    return read


def test_every_private_name_is_read():
    trees = {p: ast.parse(p.read_text(), str(p)) for p in PACKAGE}
    read = set().union(*map(_read, trees.values()))
    dead = [f"{p.name}: {name} (line {line})" for p, tree in trees.items()
            for name, line in _private_defs(tree).items() if name not in read]
    assert not dead, "private names no module of the package reads: " + ", ".join(dead)


def test_the_check_sees_a_dead_private_name():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\nclass _C: pass\n"
                     "def _d(): return _A\ndef _e(): pass\n"
                     "from m import _f\nprint(_B, m._e)\n")
    assert set(_private_defs(tree)) == {"_A", "_B", "_C", "_d", "_e"}
    assert set(_private_defs(tree)) - _read(tree) == {"_C", "_d"}
