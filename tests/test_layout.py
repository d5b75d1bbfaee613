"""Module boundaries of the package: no module of ``matchline`` imports a
private name (one starting with ``_``) from another, so what a module keeps
private cannot leak into another's code."""

import ast
from pathlib import Path

import matchline

PACKAGE = Path(matchline.__file__).parent


def private_imports(source: str) -> list:
    """``module.name`` of every private name imported from the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level or module.split(".")[0] == "matchline":
            found += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_the_check_sees_relative_and_absolute_imports():
    source = "from .divide import _tag, run\nfrom matchline.lr import _x\nfrom os import _exit\n"
    assert private_imports(source) == ["divide._tag", "matchline.lr._x"]


def test_no_module_imports_a_private_name_from_another():
    leaks = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := private_imports(path.read_text()))
    }
    assert leaks == {}
