"""Module boundaries of the package: no module of ``matchline`` imports a
private name (one starting with ``_``) from another, so what a module keeps
private cannot leak into another's code; and the package imports nothing but
itself and the standard library."""

import ast
import sys
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


ALLOWED = {"matchline", *sys.stdlib_module_names}


def foreign_imports(source: str) -> list:
    """Every module imported that is neither the package nor in the
    standard library."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [m for m in modules if m.split(".")[0] not in ALLOWED]
    return found


def test_the_check_flags_only_foreign_imports():
    source = (
        "import numpy\nimport math, os.path\nfrom . import x\nfrom .lr import y\n"
        "from matchline.tape import z\nfrom scipy.optimize import f\n"
        "from __future__ import annotations\n"
    )
    assert foreign_imports(source) == ["numpy", "scipy.optimize"]


def test_the_package_imports_only_itself_and_the_standard_library():
    foreign = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := foreign_imports(path.read_text()))
    }
    assert foreign == {}
