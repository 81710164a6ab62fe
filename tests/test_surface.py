"""Surface guard: every top-level function and class of `src/mubcurves`,
and every public method, is named somewhere else in the package, in the
acceptance tests or in the benchmark, so no helper survives that only its
unit tests call."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mubcurves"


def _definitions(tree: ast.Module) -> list[ast.AST]:
    """Top-level functions and classes, and the public methods of the classes."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body if isinstance(m, ast.FunctionDef)
                     and not m.name.startswith("_")]
    return defs


def _references(tree: ast.Module) -> set[str]:
    """Names and attributes that the module reads, not the ones it defines,
    and the string constants that spell one (the benchmark's tracer looks
    functions up by name)."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.add(node.value)
    return refs


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def unreferenced_names(package: Path = PACKAGE, root: Path = ROOT) -> list[str]:
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    # the package re-exports in __init__ do not count as a use
    users = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    users += [_parse(root / "tests" / "test_acceptance.py")]
    users += [_parse(path) for path in sorted(root.glob("bench/*.py"))]
    used = set().union(*map(_references, users))
    return [node.name for tree in trees.values() for node in _definitions(tree)
            if node.name not in used]


def test_every_definition_is_used():
    assert unreferenced_names() == []
