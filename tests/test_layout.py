"""Module boundaries of the package: no module of ``matchline`` imports a
private name (one starting with ``_``) from another, so what a module keeps
private cannot leak into another's code; the package imports nothing but
itself and the standard library; no module imports a name it never uses;
every top-level def and class is reached from the package or exported; and
every method and property of its classes is looked up by name somewhere in
the package. So nothing in it is test-only. No module names a float
tolerance, as every cost is exact; only LR and the tape name ``bit_reader``,
as LR has one loop that asks its caller for each bit; and a differential
reference takes nothing from the package but the exception classes,
``Instance`` and ``Matching``, so no cost or serving code it compares
against."""

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


def unused_imports(source: str) -> list:
    """Every name a module imports but never reads, neither as a name nor as
    an entry of its ``__all__``. The reachability check below counts an
    import as a reference, so an unused import would keep its target
    "reached"."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in read]


def test_the_unused_import_check_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import math, os.path\nimport json as j\nfrom .tape import AdviceTape, AuxTape\n"
        "from .lr import lr_serve as serve, LRState\nfrom .model import Instance\n"
        "__all__ = ['Instance']\n"
        "def f(x: LRState):\n    return math.floor(os.path.sep + serve(AdviceTape()))\n"
    )
    assert unused_imports(source) == ["j", "AuxTape"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := unused_imports(path.read_text()))
    }
    assert unused == {}


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def referenced_names(node) -> set:
    """Every name ``node`` reads, imports or looks up as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def unreachable(sources: dict, exported) -> list:
    """``module.name`` of every top-level def and class of ``sources``
    (module name -> source) that no top-level statement but its own
    definition references and that ``exported`` does not list."""
    statements = [
        (module, stmt) for module, source in sources.items() for stmt in ast.parse(source).body
    ]
    references = [(stmt, referenced_names(stmt)) for _module, stmt in statements]
    return [
        f"{module}.{stmt.name}"
        for module, stmt in statements
        if isinstance(stmt, DEFINITIONS)
        and stmt.name not in exported
        and not any(stmt.name in names for other, names in references if other is not stmt)
    ]


def test_the_reachability_check_flags_only_unreferenced_definitions():
    sources = {
        "a": (
            "def called(): pass\n"
            "def looked_up(): pass\n"
            "def helper(): pass\n"
            "def user(): return helper()\n"
            "def recursive(): return recursive()\n"
            "class Unused: pass\n"
            "def exported(): pass\n"
        ),
        "b": "from .a import called\nfrom . import a\nTABLE = {'x': a.looked_up}\n",
    }
    assert unreachable(sources, {"exported"}) == ["a.user", "a.recursive", "a.Unused"]


def test_every_top_level_name_is_reached_from_the_package_or_exported():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreachable(sources, set(matchline.__all__)) == []


def unreferenced_members(sources: dict) -> list:
    """``module.Class.name`` of every method and property (dunders aside) of
    a class in ``sources`` whose name no attribute lookup outside its own
    definition reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}

    def lookups(node, name):
        return sum(
            isinstance(sub, ast.Attribute) and sub.attr == name for sub in ast.walk(node)
        )

    found = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                name = getattr(member, "name", "")
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (name.startswith("__") and name.endswith("__"))
                    and sum(lookups(t, name) for t in trees.values()) == lookups(member, name)
                ):
                    found.append(f"{module}.{cls.name}.{name}")
    return found


def test_the_member_check_flags_only_unreferenced_methods_and_properties():
    sources = {
        "a": (
            "class Pool:\n"
            "    def __len__(self): return 0\n"
            "    def take(self): return self.size\n"
            "    @property\n"
            "    def size(self): return 0\n"
            "    @property\n"
            "    def spare(self): return 0\n"
            "    def unused(self): pass\n"
            "    def recursive(self): return self.recursive()\n"
            "    @classmethod\n"
            "    def built(cls): return cls()\n"
        ),
        "b": "from .a import Pool\nPool.built().take()\nNAMES = ['unused']\n",
    }
    assert unreferenced_members(sources) == ["a.Pool.spare", "a.Pool.unused", "a.Pool.recursive"]


def test_every_method_and_property_is_looked_up_in_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_members(sources) == []


#: names of the float tolerance that left the package: every cost in it is
#: exact, so costs compare with == and <=
TOLERANCE_NAMES = {"costs_equal", "float_info", "epsilon"}


def identifiers(source: str, names) -> list:
    """Every identifier in ``source`` (names, attributes, imports and
    definitions; not strings or comments) that is one of ``names``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            idents = [node.id]
        elif isinstance(node, ast.Attribute):
            idents = [node.attr]
        elif isinstance(node, ast.alias):
            idents = [node.name.rpartition(".")[2], node.asname]
        elif isinstance(node, (*DEFINITIONS, ast.arg)):
            idents = [getattr(node, "name", None) or node.arg]
        else:
            continue
        found += [name for name in idents if name in names]
    return found


def test_the_tolerance_check_flags_identifiers_only():
    source = (
        '"""costs_equal once compared within epsilon."""\n'
        "import sys\nfrom .model import costs_equal\n"
        "def f(a, epsilon):\n    # float_info\n    return a <= sys.float_info.max\n"
    )
    assert identifiers(source, TOLERANCE_NAMES) == ["costs_equal", "epsilon", "float_info"]


def test_no_module_names_a_float_tolerance():
    named = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := identifiers(path.read_text(), TOLERANCE_NAMES))
    }
    assert named == {}


#: the modules that may name ``bit_reader``: the tape defines it, and LR's
#: run reads its advice with it. Every other LR bit comes in through
#: ``lr_serve``'s ``bit``, so no second reader of LR's bits can come back.
BIT_READERS = {"lr.py", "tape.py"}


def test_the_bit_reader_check_flags_identifiers_only():
    source = (
        '"""bit_reader reads bits."""\n'
        "from .tape import bit_reader as next_bits\n"
        "class Sides:\n    def bit_reader(self):\n        # bit_reader\n        return 1\n"
        "def f(tape):\n    return tape.bit_reader() + next_bits()\n"
    )
    assert identifiers(source, {"bit_reader"}) == ["bit_reader", "bit_reader", "bit_reader"]


def test_only_lr_and_the_tape_name_bit_reader():
    named = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if identifiers(path.read_text(), {"bit_reader"})
    }
    assert named == BIT_READERS


TESTS = Path(__file__).parent
#: the package names a differential reference may import: exception
#: classes and the data it is handed. The cost and serving code the
#: references compare against they keep their own copies of (in
#: ``reference_common``, ``reference_pool`` and ``reference_divide``), so
#: that a change to the package's cannot reach both sides of a
#: differential test; their tape is ``writable_tape``'s
REFERENCE_ALLOWED = {
    "GeneratorError",
    "Instance",
    "InstanceError",
    "LRError",
    "Matching",
    "OracleError",
    "SubroutineError",
    "TapeError",
}


def package_imports(source: str) -> list:
    """``module.name`` of every name outside ``REFERENCE_ALLOWED`` that
    ``source`` binds from the package: imported by name (a module of the
    package counts), or a whole module imported."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matchline":
            found += [
                f"{node.module}.{a.name}" for a in node.names if a.name not in REFERENCE_ALLOWED
            ]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "matchline"]
    return found


def test_the_reference_import_check_flags_package_cost_code():
    source = (
        "import matchline.model as m\nimport matchline\n"
        "from matchline.offline import monotone_cost, OracleError\n"
        "from matchline import offline\nfrom reference_common import costs_equal\n"
        "from matchline.model import Instance, make_matching as mm\n"
        "from matchline.subroutines import make_subroutine\n"
        "from matchline.tape import AdviceTape, TapeError\n"
    )
    assert package_imports(source) == [
        "matchline.model",
        "matchline",
        "matchline.offline.monotone_cost",
        "matchline.offline",
        "matchline.model.make_matching",
        "matchline.subroutines.make_subroutine",
        "matchline.tape.AdviceTape",
    ]


def test_no_reference_takes_the_cost_code_from_the_package():
    taken = {
        path.name: found
        for path in sorted(TESTS.glob("reference_*.py"))
        if (found := package_imports(path.read_text()))
    }
    assert taken == {}
