"""Import layering: dense density matrices stay behind the oracles (the
engines share only the qubit label with them, from its own module), and the
closed forms are plain Python."""

import ast
from pathlib import Path

import pytest

import ghzdist

PACKAGE = Path(ghzdist.__file__).parent


def imported_names(module: str) -> set[str]:
    """Absolute dotted names that ``ghzdist.<module>`` imports: each imported
    module and, for a ``from`` import, each name under it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level <= 1, "the package is flat"
            base = ".".join(filter(None, ["ghzdist" if node.level else "", node.module]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def under(names: set[str], package: str) -> set[str]:
    return {n for n in names if n == package or n.startswith(package + ".")}


@pytest.mark.parametrize(
    "module", ["factory", "switch", "analytics", "params", "cli", "svgplot", "labels"]
)
def test_imports_nothing_from_dm(module):
    assert under(imported_names(module), "ghzdist.dm") == set()


def test_analytics_imports_no_numpy():
    assert under(imported_names("analytics"), "numpy") == set()


def test_oracles_seen_importing_dm():
    # the walk itself must recognise both import forms the package uses
    names = imported_names("oracles")
    assert {"ghzdist.dm", "ghzdist.dm.DensityMatrix", "numpy"} <= names


ROOT = PACKAGE.parents[1]
REFERENCE_DIRS = ("src", "tests", "perfbench")


def referenced_names(node: ast.AST) -> set[str]:
    """Names a statement uses: plain and attribute names, imported names, and
    string constants (perfbench names its trace sites as strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the plain
    names an assignment binds.  Dunder names (``__all__``) are exempt."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [
            sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)
        ]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_defined_names_cover_assignments():
    tree = ast.parse("A = 1\nB, (C, D) = 2, (3, 4)\nE: int = 5\n__all__ = []\n"
                     "def f(): pass\nclass G: pass\nimport os\n")
    assert [n for stmt in tree.body for n in defined_names(stmt)] == [
        "A", "B", "C", "D", "E", "f", "G"]


def test_every_module_level_definition_is_referenced():
    # no dead helpers or constants: each top-level def, class or assigned name
    # of the package is used by some other top-level statement in the
    # package, its tests or perfbench
    definitions = []
    uses = []
    for top in REFERENCE_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for stmt in ast.parse(path.read_text()).body:
                uses.append((stmt, referenced_names(stmt)))
                if path.parent == PACKAGE:
                    definitions.extend(
                        (f"{path.stem}.{name}", name, stmt)
                        for name in defined_names(stmt)
                    )
    dead = [
        qualified
        for qualified, name, stmt in definitions
        if not any(other is not stmt and name in names for other, names in uses)
    ]
    assert dead == []


def test_dm_draws_nothing():
    # the dense kernels take the uniforms they need; every draw is the caller's
    tree = ast.parse((PACKAGE / "dm.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.arg == "rng":
            found.append(f"parameter rng (line {node.lineno})")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in ("random", "integers"):
                found.append(f".{node.func.attr}( call (line {node.lineno})")
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                found.append(f"numpy.random reference (line {node.lineno})")
    assert under(imported_names("dm"), "numpy.random") == set()
    assert found == []
