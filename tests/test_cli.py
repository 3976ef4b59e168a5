"""Command line front end: subcommands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from sharpcells import cli
from sharpcells.cli import main
from sharpcells.realalg import RealAlgebraError

ROOT = Path(__file__).parents[1]


@pytest.fixture
def circle(tmp_path):
    p = tmp_path / "circle.fml"
    p.write_text("x^2 + y^2 - 1 = 0")
    return str(p)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def schema(name):
    return json.loads((ROOT / "schemas" / f"{name}.v1.schema.json").read_text())


def test_parse_and_fdinfo(circle, capsys):
    code, out, _ = run(["parse", circle], capsys)
    assert code == 0
    assert "free variables: x y" in out
    code, out, _ = run(["fdinfo", circle], capsys)
    assert code == 0
    assert "format 2  degree 2  P-format 2" in out


def test_cad_stats(circle, capsys, tmp_path):
    dest = str(tmp_path / "out.json")
    code, out, _ = run(["cad", circle, "--stats", "--json", dest], capsys)
    assert code == 0
    assert "13 cells" in out
    doc = json.load(open(dest))
    assert len(doc["cells"]) == 13
    assert doc["stats"]["cells"] == 13
    # exact rationals come out as p/q strings (or isolating intervals)
    import re
    rat = re.compile(r"^-?\d+(/\d+)?$")
    for cell in doc["cells"]:
        for value in cell["sample"]:
            if isinstance(value, str):
                assert rat.match(value)
            else:
                assert all(rat.match(s) for s in value["isolating"])


# the circle, and a set with the non-dyadic rational root x = 1/3 and the
# cube roots x = (y + 2)^(1/3), one in every fiber over y
DETERMINISM_SETS = {
    "circle": "x^2 + y^2 - 1 = 0",
    "third": "(3*x - 1)*(x^3 - y - 2) = 0",
}
DETERMINISM_CASES = [
    pytest.param("cad", "circle", id="cad-circle"),
    pytest.param("cad --stats", "circle", id="cad-stats-circle"),
    pytest.param("cad --stats", "third", id="cad-stats-third"),
    pytest.param("components", "circle", id="components-circle"),
    pytest.param("components", "third", id="components-third"),
    pytest.param("stratify", "circle", id="stratify-circle"),
    pytest.param("stratify", "third", id="stratify-third"),
    pytest.param("star", "circle", id="star-circle"),
    pytest.param("star", "third", id="star-third"),
    pytest.param("choice --fiber x --at=2", "third", id="choice-at-third"),
]


@pytest.mark.parametrize("command,name", DETERMINISM_CASES)
def test_json_is_deterministic(command, name, capsys, tmp_path):
    # the second run meets warm kernel and block memos in this process
    f = tmp_path / f"{name}.fml"
    f.write_text(DETERMINISM_SETS[name])
    cmd, *opts = command.split()
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    for dest in (a, b):
        assert run([cmd, str(f), *opts, "--json", dest], capsys)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_flags_only_where_they_are_read(circle, capsys):
    # cad and choice read --approx; fdinfo does not
    with pytest.raises(SystemExit) as exc:
        main(["fdinfo", circle, "--approx", "3"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --approx" in capsys.readouterr().err
    # choice certifies nonempty fibers on every run, so it has no --strict
    with pytest.raises(SystemExit) as exc:
        main(["choice", circle, "--strict"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --strict" in capsys.readouterr().err
    # the three-variable limit is fixed, so no subcommand takes --ceiling
    with pytest.raises(SystemExit) as exc:
        main(["cad", circle, "--ceiling", "3"])
    assert exc.value.code == 3
    assert "unrecognized arguments: --ceiling" in capsys.readouterr().err


def test_components_and_betti(circle, capsys):
    code, out, _ = run(["components", circle], capsys)
    assert code == 0 and "1 connected component" in out
    code, out, _ = run(["betti", circle], capsys)
    assert code == 0 and "b0 1  b1 1  b2 0" in out


def test_components_of_a_sphere(tmp_path, capsys):
    f = tmp_path / "sphere.fml"
    f.write_text("x^2 + y^2 + z^2 - 1 = 0")
    code, out, _ = run(["components", str(f)], capsys)
    assert code == 0 and "1 connected component(s)" in out
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert run(["components", str(f), "--json", a], capsys)[0] == 0
    assert run(["components", str(f), "--json", b], capsys)[0] == 0
    assert open(a, "rb").read() == open(b, "rb").read()
    jsonschema.validate(json.load(open(a)), schema("components"))


def test_nullified_fibre_is_exit_code_2(tmp_path, capsys):
    f = tmp_path / "pair.fml"
    f.write_text("(x*z - y)*(y*z - x) = 0")
    code, _, err = run(["components", str(f)], capsys)
    assert code == 2 and "vanishes identically" in err and "base cell" in err


def test_missing_file_is_input_error(capsys):
    code, _, err = run(["components", "no_such_file.fml"], capsys)
    assert code == 1
    assert "no_such_file.fml" in err


def test_parse_error_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.fml"
    bad.write_text("x >= 0")
    code, _, err = run(["fdinfo", str(bad)], capsys)
    assert code == 1 and "error" in err


def test_ceiling_exceeded_is_resource_error(tmp_path, capsys):
    f = tmp_path / "ball4.fml"
    f.write_text("w^2 + x^2 + y^2 + z^2 - 1 < 0")
    code, _, err = run(["cad", str(f)], capsys)
    assert code == 2 and "ceiling" in err
    # choice certifies its fibers by a decide in every variable
    f = tmp_path / "three.fml"
    f.write_text("x^2 + y^2 + z^2 - l^2 - 1 < 0")
    code, out, err = run(["choice", str(f), "--ell", "3", "--fiber", "x,y,z"],
                         capsys)
    assert code == 2 and "ceiling exceeded" in err and out == ""


def test_nonconverging_arithmetic_is_resource_error(circle, capsys,
                                                    monkeypatch):
    # a refinement loop that gives up raises RealAlgebraError, an
    # ArithmeticError: exit 2 with one line, not a traceback
    def give_up(*args, **kwargs):
        raise RealAlgebraError("root comparison failed to converge")

    monkeypatch.setattr(cli, "connected_components", give_up)
    code, out, err = run(["components", circle], capsys)
    assert code == 2 and out == ""
    assert err == "undecided: root comparison failed to converge\n"


def test_choice_evaluation(tmp_path, capsys):
    f = tmp_path / "ray.fml"
    f.write_text("x - l > 0")
    code, out, _ = run(["choice", str(f), "--fiber", "x", "--at", "2"],
                       capsys)
    assert code == 0
    assert "cases C" in out and "(3)" in out
    # one value per parameter: a second value is an input error
    code, out, err = run(["choice", str(f), "--fiber", "x", "--at", "1,2"],
                         capsys)
    assert code == 1 and "2 values for 1 parameters" in err and out == ""


def test_choice_with_an_empty_fiber_is_input_error(tmp_path, capsys):
    # the fiber over x = 0 is empty, though over every other x it is not
    f = tmp_path / "hyperbola.fml"
    f.write_text("x*l - 1 > 0")
    code, out, err = run(["choice", str(f), "--fiber", "l"], capsys)
    assert code == 1 and "empty fiber" in err and out == ""


def test_bound_check(tmp_path, capsys):
    files = []
    for d in (1, 2, 3):
        poly = " * ".join(f"(x - {i})" for i in range(1, d + 1))
        p = tmp_path / f"f{d}.fml"
        p.write_text(f"{poly} = 0")
        files.append(str(p))
    dest = str(tmp_path / "out.json")
    code, out, _ = run(["bound-check", *files, "--cap", "3/2",
                        "--json", dest], capsys)
    assert code == 0 and "pass" in out
    # the report holds what the check decides, and nothing else
    assert set(json.load(open(dest))) == {"version", "counts", "exponent",
                                          "cap", "passed"}


def test_tree_subcommand(tmp_path, capsys):
    doc = {
        "tree": {"version": 1, "slanted": False,
                 "root": {"kind": "node", "op": "union",
                          "children": [{"kind": "leaf", "name": "a"},
                                       {"kind": "leaf", "name": "b"}]}},
        "leaves": {"a": {"formula": "x^2 + y^2 - 1 = 0", "fd": [2, 2]},
                   "b": {"formula": "x - y > 0", "fd": [2, 1]}},
    }
    f = tmp_path / "tree.json"
    f.write_text(json.dumps(doc))
    code, out, _ = run(["tree", str(f)], capsys)
    assert code == 0 and "tree FD (2, 3)" in out


def test_star_and_report(circle, capsys):
    code, out, _ = run(["star", circle], capsys)
    assert code == 0 and "star FD (2, 2)" in out
    code, out, _ = run(["report", circle], capsys)
    assert code == 0
    assert "star-FD" in out


def test_malformed_arguments_are_usage_errors(circle, capsys):
    # plain star reads one file; more than one needs --ccd
    with pytest.raises(SystemExit) as exc:
        main(["star", circle, circle])
    assert exc.value.code == 3
    assert "--ccd" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["cad", circle, "--approx", "-2"])
    assert exc.value.code == 3
    assert "non-negative integer" in capsys.readouterr().err
    # an approximation is a float, which carries 15 significant digits
    for argv in (["cad", circle, "--approx", "16"],
                 ["choice", circle, "--fiber", "x", "--approx", "30"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "at most 15 digits" in capsys.readouterr().err
    # rationals: a zero denominator, a non-number, an empty value
    for argv in (["bound-check", circle, "--cap", "1/0"],
                 ["bound-check", circle, "--cap", "abc"],
                 ["choice", circle, "--fiber", "x", "--at", "1/0"],
                 ["choice", circle, "--fiber", "x", "--at=1,"],
                 ["choice", circle, "--fiber", "x", "--at="]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 3
        assert "expected a rational" in capsys.readouterr().err


def test_star_ccd(circle, capsys):
    # the circle's shadow on the x-axis: two points and three intervals
    code, out, _ = run(["star", circle, "--ccd", "1"], capsys)
    assert code == 0 and out.startswith("5 cells, max star FD")


def test_triangulate_writes_off(tmp_path, capsys):
    f = tmp_path / "disk.fml"
    f.write_text("not (x^2 + y^2 - 1 > 0)")
    off = str(tmp_path / "disk.off")
    code, out, _ = run(["triangulate", str(f), "--off", off], capsys)
    assert code == 0
    assert open(off).read().startswith("OFF")


def test_choice_on_two_algebraic_landmarks(tmp_path, capsys):
    # the landmarks -sqrt(2) and sqrt(2) are roots in two distinct fields
    f = tmp_path / "band.fml"
    f.write_text("x^2 - 2 < 0")
    dest = str(tmp_path / "out.json")
    code, out, _ = run(["choice", str(f), "--json", dest], capsys)
    assert code == 0 and "fiber: x" in out
    jsonschema.validate(json.load(open(dest)), schema("choice"))


TREE_INPUT = {
    "tree": {"version": 1, "slanted": False,
             "root": {"kind": "node", "op": "project_last",
                      "children": [{"kind": "leaf", "name": "sq"}]}},
    "leaves": {"sq": {"formula": "exists t. t^2 - x - y = 0", "fd": [3, 2]}},
}

REDUCTION_INPUT = {
    "system": "Sharp",
    "witness": {"version": 1, "a": {"1": 1, "2": 2},
                "polys": {"1": ["0", "2"], "2": ["0", "2"]}},
    "corpus": [{"source": [1, 2],
                "derivation": {"kind": "node", "op": "union", "children": [
                    {"kind": "leaf", "name": "a", "fd": [1, 1]},
                    {"kind": "leaf", "name": "b", "fd": [1, 1]}]}}],
}

# subcommand, its arguments (input file names are written below), schema,
# and the key of the schema's document inside the output (None: all of it)
SCHEMA_CASES = [
    ("cad", ["circle.fml", "--stats"], "decomposition", None),
    ("components", ["circle.fml"], "components", None),
    ("star", ["circle.fml"], "star", None),
    ("triangulate", ["disk.fml", "circle.fml"], "complex", "complex"),
    ("choice", ["two.fml", "--ell", "2", "--fiber", "x,y", "--at", "1"],
     "choice", None),
    ("tree", ["tree.json"], "tree", None),
    ("reduce-check", ["reduction.json"], "reduction", None),
]


@pytest.mark.parametrize("command,args,name,key", SCHEMA_CASES,
                         ids=[c[0] for c in SCHEMA_CASES])
def test_json_matches_its_schema(command, args, name, key, tmp_path,
                                 capsys):
    inputs = {
        "circle.fml": "x^2 + y^2 - 1 = 0",
        "disk.fml": "not (x^2 + y^2 - 1 > 0)",
        "two.fml": "x^2 + y^2 - l^2 - 1 < 0",
        "tree.json": json.dumps(TREE_INPUT),
        "reduction.json": json.dumps(REDUCTION_INPUT),
    }
    for fname, text in inputs.items():
        (tmp_path / fname).write_text(text)
    argv = [str(tmp_path / a) if a in inputs else a for a in args]
    dest = str(tmp_path / "out.json")
    code, _, _ = run([command, *argv, "--json", dest], capsys)
    assert code == 0
    doc = json.load(open(dest))
    jsonschema.validate(doc if key is None else doc[key], schema(name))


@pytest.mark.parametrize("demo", sorted(p.name for p in
                                        (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# cold processes: sympy is loaded only by subcommands that need algebra
# ---------------------------------------------------------------------------
# pytest's own process already holds sympy, so these run a fresh interpreter.

COLD_MAIN = """\
import sys
from sharpcells.cli import main
code = main(sys.argv[1:])
print("sympy" in sys.modules)
sys.exit(code)
"""


def cold(script, *argv):
    """Run python -c script argv in a fresh interpreter on src/; its exit
    code and standard output lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout.splitlines()


@pytest.mark.parametrize("module", ["sharpcells", "sharpcells.cli"])
def test_import_does_not_load_sympy(module):
    code, lines = cold(f"import sys, {module}\n"
                       "print('sympy' in sys.modules)")
    assert (code, lines) == (0, ["False"])


NO_ALGEBRA = [
    ("parse", "x^2 + y^2 - 1 = 0"),
    ("fdinfo", "x^2 + y^2 - 1 = 0"),
    ("tree", json.dumps(TREE_INPUT)),
    ("reduce-check", json.dumps(REDUCTION_INPUT)),
]


@pytest.mark.parametrize("command,text", NO_ALGEBRA,
                         ids=[c for c, _ in NO_ALGEBRA])
def test_syntax_subcommands_do_not_load_sympy(command, text, tmp_path):
    f = tmp_path / "input"
    f.write_text(text)
    code, lines = cold(COLD_MAIN, command, str(f))
    assert code == 0 and lines[-1] == "False"


def test_cad_loads_sympy_and_answers_as_in_process(circle, capsys):
    code, lines = cold(COLD_MAIN, "cad", circle)
    assert code == 0 and lines[-1] == "True"
    assert run(["cad", circle], capsys)[1].splitlines()[0] == lines[0]
