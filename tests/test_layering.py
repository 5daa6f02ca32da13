"""Import layering: dense density matrices stay behind the switch and the
oracles, and the closed forms are plain Python."""

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


@pytest.mark.parametrize("module", ["factory", "analytics", "params", "cli", "svgplot"])
def test_imports_nothing_from_dm(module):
    assert under(imported_names(module), "ghzdist.dm") == set()


def test_analytics_imports_no_numpy():
    assert under(imported_names("analytics"), "numpy") == set()


def test_oracles_seen_importing_dm():
    # the walk itself must recognise both import forms the package uses
    names = imported_names("oracles")
    assert {"ghzdist.dm", "ghzdist.dm.DensityMatrix", "numpy"} <= names
