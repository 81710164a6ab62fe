"""Surface guard: every top-level function and class of `src/mubcurves`,
and every public method, is named somewhere else in the package, in the
acceptance tests or in the benchmark, so no helper survives that only its
unit tests call.

Names are matched, not bindings: a use `x.eval` cannot tell which class's
`eval` it reads.  A method name is resolved to its class when no other
definition in the package has that name; the names that several
definitions share are listed in COLLISIONS, where a use of one counts for
all, and a new one fails `test_name_collisions_are_listed`."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mubcurves"
# bench files that never reach the package: an independent oracle and the
# clock kernel; a name they happen to share with a definition is no use of it
UNREACHING = ("oracle.py", "clock.py")
# the names that more than one definition binds: a use of one counts for all
COLLISIONS = {
    "eval": ("curves.ExplicitForm.eval", "curves.ParametricCurve.eval",
             "curves.StructuralEquation.eval"),
    "ok": ("verify.BundleReport.ok", "verify.VerificationReport.ok"),
}


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes by name, and the public methods of
    the classes as Class.method."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs.append(node.name)
        if isinstance(node, ast.ClassDef):
            defs += [f"{node.name}.{m.name}" for m in node.body
                     if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
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


def _package_trees(package: Path) -> dict[Path, ast.Module]:
    return {path: _parse(path) for path in sorted(package.glob("*.py"))}


def unreferenced_names(package: Path = PACKAGE, root: Path = ROOT) -> list[str]:
    trees = _package_trees(package)
    # the package re-exports in __init__ do not count as a use
    users = [tree for path, tree in trees.items() if path.name != "__init__.py"]
    users += [_parse(root / "tests" / "test_acceptance.py")]
    users += [_parse(path) for path in sorted(root.glob("bench/*.py"))
              if path.name not in UNREACHING]
    used = set().union(*map(_references, users))
    return [qual for tree in trees.values() for qual in _definitions(tree)
            if qual.split(".")[-1] not in used]


def name_collisions(package: Path = PACKAGE) -> dict[str, tuple[str, ...]]:
    """Names that more than one definition binds, each with its
    definitions as module.name or module.Class.method, sorted."""
    owners: dict[str, list[str]] = {}
    for path, tree in _package_trees(package).items():
        for qual in _definitions(tree):
            owners.setdefault(qual.split(".")[-1], []).append(f"{path.stem}.{qual}")
    return {name: tuple(sorted(quals)) for name, quals in owners.items() if len(quals) > 1}


def test_every_definition_is_used():
    assert unreferenced_names() == []


def test_name_collisions_are_listed():
    assert name_collisions() == COLLISIONS


def test_unreaching_files_do_not_import_the_package():
    for name in UNREACHING:
        tree = _parse(ROOT / "bench" / name)
        modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names}
        modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(m and m.split(".")[0] in ("mubcurves", "spans", "workloads", "run")
                       for m in modules), name
        assert "mubcurves" not in _references(tree), name


def test_name_used_only_in_an_oracle_file_is_unused(tmp_path):
    package = tmp_path / "src" / "mubcurves"
    package.mkdir(parents=True)
    (package / "field.py").write_text("def log(x):\n    return x\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text("")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "oracle.py").write_text("log = {}\nlog[1] = 0\n")
    assert unreferenced_names(package, tmp_path) == ["log"]
    # the same name in a file that reaches the package is a use
    (tmp_path / "bench" / "run.py").write_text("from mubcurves import field\nfield.log(1)\n")
    assert unreferenced_names(package, tmp_path) == []


def test_methods_resolve_per_class_unless_their_names_collide(tmp_path):
    package = tmp_path / "src" / "mubcurves"
    package.mkdir(parents=True)
    (package / "shapes.py").write_text(
        "class Square:\n    def area(self):\n        return 1\n"
        "    def side(self):\n        return 1\n"
        "class Disc:\n    def area(self):\n        return 3\n"
        "    def radius(self):\n        return 1\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_acceptance.py").write_text(
        "from mubcurves.shapes import Disc, Square\nDisc().area()\nSquare().side()\n")
    (tmp_path / "bench").mkdir()
    # Square.area is never called, but its name collides with Disc.area: listed, not resolved
    assert name_collisions(package) == {"area": ("shapes.Disc.area", "shapes.Square.area")}
    assert unreferenced_names(package, tmp_path) == ["Disc.radius"]
