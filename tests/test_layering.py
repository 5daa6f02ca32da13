"""Import layering: dense density matrices stay behind the oracles (no
engine imports ``ghzdist.dm``, not even its qubit label), nothing but the
command line imports the oracles, the closed forms are plain Python, and no
module state but the factory's depolarizing table is rebound."""

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
    "module", ["factory", "switch", "analytics", "params", "cli", "svgplot"]
)
def test_imports_nothing_from_dm(module):
    assert under(imported_names(module), "ghzdist.dm") == set()


@pytest.mark.parametrize(
    "module", ["factory", "switch", "params", "analytics", "svgplot", "dm"]
)
def test_imports_nothing_from_oracles(module):
    # the references check the engines, so no engine may lean on them
    assert under(imported_names(module), "ghzdist.oracles") == set()


def test_cli_seen_importing_oracles():
    # the walk must see an import inside a function: the verify command's
    assert under(imported_names("cli"), "ghzdist.oracles") == {
        "ghzdist.oracles", "ghzdist.oracles.run_verification"}


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


def global_statements(tree: ast.AST, where: str = "<module>") -> list[tuple[str, list[str]]]:
    """(innermost enclosing function, names) of each ``global`` statement."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Global):
            found.append((where, node.names))
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        found += global_statements(node, inner)
    return found


def attributes_assigned(tree: ast.AST, module: str) -> set[str]:
    """Attributes of the name ``module`` that an assignment in ``tree`` binds."""
    return {
        sub.attr
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets for sub in ast.walk(target)
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
        and sub.value.id == module
    }


def test_global_statements_and_assigned_attributes_are_found():
    tree = ast.parse("global a\ndef f():\n    global b, c\n    def g():\n        global d\n"
                     "class C:\n    def h(self):\n        if a:\n            global e\n"
                     "m.x, (m.y, n.z) = m.w = 1, (2, 3)\nm.v += 1\n")
    assert global_statements(tree) == [
        ("<module>", ["a"]), ("f", ["b", "c"]), ("g", ["d"]), ("h", ["e"])]
    assert attributes_assigned(tree, "m") == {"x", "y", "w"}


def test_only_global_state_is_the_depolarizing_table_which_conftest_resets():
    # module state that a function rebinds outlives a test: the one such
    # state, the factory's table, is what the autouse fixture clears
    found = [
        (path.stem, *statement)
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in global_statements(ast.parse(path.read_text()))
    ]
    assert found == [("factory", "depolarizing", ["_key", "_table"])]
    conftest = ast.parse((ROOT / "tests" / "conftest.py").read_text())
    assert attributes_assigned(conftest, "factory") == {"_key", "_table"}


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
