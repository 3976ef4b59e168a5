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


def _calls(paths):
    """Per callee name, the largest positional argument count and the
    keywords of its calls; a starred argument stands for every position
    and a ** argument for every keyword."""
    positions, keywords = {}, {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            n = len(node.args)
            if any(isinstance(a, ast.Starred) for a in node.args):
                n = float("inf")
            positions[name] = max(positions.get(name, 0), n)
            names = {k.arg for k in node.keywords}
            if None in names:
                names = {"**"}
            keywords.setdefault(name, set()).update(names)
    return positions, keywords


def test_every_optional_parameter_is_set_somewhere():
    # a defaulted parameter that no call passes, by keyword or by position,
    # is a knob nobody turns; an __init__ is called by its class name
    root = Path(__file__).parents[1]
    paths = [p for d in (SRC, root / "tests", root / "demos",
                         root / "perfbench") for p in sorted(d.glob("*.py"))]
    positions, keywords = _calls(paths)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                owner.update({id(f): cls.name for f in cls.body})
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            name = fn.name
            params = fn.args.posonlyargs + fn.args.args
            if id(fn) in owner:
                params = params[1:]
                if name == "__init__":
                    name = owner[id(fn)]
            defaulted = [(i, a.arg) for i, a in enumerate(params)
                         if i >= len(params) - len(fn.args.defaults)]
            defaulted += [(None, a.arg) for a, d in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d]
            kws = keywords.get(name, set())
            unset += [(path.name, name, arg) for i, arg in defaulted
                      if arg not in kws and "**" not in kws
                      and (i is None or positions.get(name, 0) <= i)]
    assert unset == []
