"""Package layout: module names and what the library imports."""

import ast
import importlib
from pathlib import Path

import sharpcells

SRC = Path(sharpcells.__file__).parent


def test_cad_submodule_is_importable_by_name():
    # every submodule name, cad among them, binds its module: a re-exported
    # function must not shadow the submodule it comes from
    for path in sorted(SRC.glob("*.py")):
        name = path.stem
        if hasattr(sharpcells, name):
            module = importlib.import_module(f"sharpcells.{name}")
            assert module is getattr(sharpcells, name), name


def test_library_imports_no_random_or_float_arrays():
    # answers are exact and deterministic: random sampling and the float
    # grid oracle belong to the tests
    banned = {"random", "numpy", "scipy"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.split(".")[0] in banned]
    assert found == []


def test_no_unused_module_level_imports():
    # a module-level import that no name in the module reads; the package's
    # __init__.py re-exports on purpose and __future__ imports bind nothing
    tests = Path(__file__).parent
    demos = tests.parent / "demos"
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(tests.glob("*.py")) + sorted(demos.glob("*.py"))
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text())
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [a.asname or a.name.split(".")[0] for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [a.asname or a.name for a in node.names]
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, name) for name in bound if name not in read]
    assert unused == []
