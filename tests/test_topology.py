"""Adjacency, components, the growth check, stratification, triangulation,
Betti numbers."""

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, given, settings

import sharpcells
from sharpcells.cad import compatible_decomposition, decide
from sharpcells.formula import And, Atom
from sharpcells.parser import parse_formula
from sharpcells.poly import Polynomial
from sharpcells.topology import (
    NullifiedFibreError,
    SimplicialComplex,
    TopologyError,
    adjacency,
    betti,
    check_component_bound,
    complex_to_json,
    connected_components,
    stratify,
    triangulate,
)
from grid_oracle import grid_components
from test_cad import sign_conditions

XYZ = ("x", "y", "z")


def decomp_of(text):
    return compatible_decomposition([parse_formula(text)])


def test_adjacency_line():
    decomp = decomp_of("x^2 - 1 = 0")
    g = adjacency(decomp)
    # points and intervals alternate along the line
    for i in range(4):
        assert frozenset({(i,), (i + 1,)}) in g.edges
    assert len(g.edges) == 4
    assert not g.heuristic


def test_adjacency_circle_cycle():
    decomp = decomp_of("x^2 + y^2 - 1 = 0")
    g = adjacency(decomp)
    on = [c.index_path for c in decomp.cells if c.memberships[0]]
    comps = g.components(restrict=on)
    assert len(comps) == 1
    # the four cells on the circle form a cycle: every cell has two
    # neighbors within the set
    for p in on:
        nbrs = [q for q in g.neighbors(p) if q in set(on)]
        assert len(nbrs) == 2


def test_adjacency_separates_disjoint_disks():
    decomp = compatible_decomposition([
        parse_formula("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) < 0")])
    g = adjacency(decomp)
    on = [c.index_path for c in decomp.cells if c.memberships[0]]
    assert len(g.components(restrict=on)) == 2


def test_connected_components_counts():
    for text, n in [
        ("x^2 + y^2 - 1 = 0", 1),
        ("(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) = 0", 2),
        ("x*y - 1 = 0", 2),
        # shifted along y: no coefficient of y is a nonzero constant
        ("(x - 3/4)*(y + 3/4) - 1/2 = 0", 2),
        ("x^2 + y^2 + 1 = 0", 0),
        ("(x^2 - 1 = 0) and (y = 0)", 2),
    ]:
        comps = connected_components(parse_formula(text))
        assert len(comps) == n, text


def space_components(X, variables=XYZ):
    decomp = compatible_decomposition([X], variables=variables)
    return len(connected_components(X, decomp=decomp))


# space sets with closed-form component counts
SPACE_TRUTHS = [
    ("x^2 + y^2 + z^2 - 1 = 0", 1),  # sphere
    ("(x^2 + y^2 + z^2 - 1)*((x - 4)^2 + y^2 + z^2 - 1) = 0", 2),
    ("(not (x^2 + y^2 + z^2 - 1 < 0)) and "
     "(not (x^2 + y^2 + z^2 - 4 > 0))", 1),  # shell 1 <= r <= 2
    ("(x^2 + y^2 + z^2 + 3)^2 - 16*(x^2 + y^2) = 0", 1),  # torus R=2, r=1
    ("x^2 + y^2 - z^2 = 0", 1),  # cone
    ("x^2 + y^2 - z^2 - 1 = 0", 1),  # hyperboloid of one sheet
    ("z^2 - x^2 - y^2 - 1 = 0", 2),  # hyperboloid of two sheets
    ("x^2 + y^2 + z^2 - 1 < 0", 1),  # open ball
    ("not (x^2 + y^2 + z^2 - 1 > 0)", 1),  # closed ball
    # an open ball and one point of its boundary meet only through a
    # 3-cell over a 2-cell and a 0-cell over a 0-cell of the plane
    ("(x^2 + y^2 + z^2 - 1 < 0) or ((x - 1)^2 + y^2 + z^2 = 0)", 1),
]


def test_space_components_match_closed_forms():
    t0 = time.monotonic()
    for text, n in SPACE_TRUTHS:
        X = parse_formula(text)
        decomp = compatible_decomposition([X], variables=XYZ)
        assert not adjacency(decomp).heuristic
        assert len(connected_components(X, decomp=decomp)) == n, text
    assert time.monotonic() - t0 < 20.0


def test_nullified_fibre_raises_instead_of_guessing():
    # x*z + y vanishes on the whole z-line over (x, y) = (0, 0), and the
    # sections near it converge to every point of that line
    X = parse_formula("x*z + y = 0")
    with pytest.raises(TopologyError, match=r"base cell \(1, 1\)"):
        space_components(X)
    # eliminating y first leaves no nullified fibre: the graph y = -x*z
    assert space_components(X, ("x", "z", "y")) == 1


def test_curve_walk_skips_resultant_roots_at_the_curve_end():
    # the surface is three graphs z = 3x / (3xy + 2x - 2), each reaching into
    # the half-space.  Walking along a curve of the plane toward its end at
    # x = alpha, some Res_y(P(x, y, s), g) vanish at alpha itself, through
    # another root of g(alpha, y); the walk must not wait for those roots
    X = parse_formula("(x - y + z < 0) or (3*x*y*z + 2*x*z - 3*x - 2*z = 0)")
    assert space_components(X) == 1
    assert space_components(X, ("z", "y", "x")) == 1


@settings(max_examples=6, deadline=None)
@given(sign_conditions(XYZ, 1))
def test_space_components_agree_across_variable_orders(X):
    # each order gives a different decomposition; orders with a nullified
    # fibre raise and are left out of the comparison
    counts = []
    for order in itertools.permutations(XYZ):
        try:
            counts.append(space_components(X, order))
        except NullifiedFibreError:
            pass
    assume(len(counts) >= 2)
    assert len(set(counts)) == 1, counts


@settings(max_examples=10, deadline=None)
@given(sign_conditions(("x", "y"), 2))
def test_lifted_plane_sets_keep_their_components(X):
    plane = compatible_decomposition([X], variables=("x", "y"))
    n = len(connected_components(X, decomp=plane))
    assert space_components(X) == n  # X x R
    flat = And([X, Atom(Polynomial.var("z", ("z",)), "=")])
    assert space_components(flat) == n  # X and z = 0


def test_component_formulas_define_the_pieces():
    X = parse_formula("x*y - 1 = 0")
    comps = connected_components(X)
    right = [c for c in comps
             if decide(c.formula, {"x": Fraction(1), "y": Fraction(1)},
                       ceiling=3)]
    assert len(right) == 1
    assert not decide(right[0].formula,
                      {"x": Fraction(-1), "y": Fraction(-1)}, ceiling=3)


def test_grid_oracle_agreement():
    for text in ["x^2 + y^2 - 1 < 0",
                 "(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1) < 0",
                 "y - x^2 > 0"]:
        X = parse_formula(text)
        assert len(connected_components(X)) == grid_components(X)


def test_check_component_bound():
    roots = {}
    for d in range(1, 6):
        text = " * ".join(f"(x - {i})" for i in range(1, d + 1))
        roots[d] = parse_formula(f"{text} = 0")
    # |x| <= 2, then |x| <= 2 with |x| >= 1: closed sets written with `not`
    segments = {1: parse_formula("not (x^2 - 4 > 0)"),
                2: parse_formula("not (x^2 - 4 > 0) and not (x^2 - 1 < 0)")}
    for family, counts in [(roots, {d: d for d in range(1, 6)}),
                           (segments, {1: 1, 2: 2})]:
        rep = check_component_bound(family, Fraction(3, 2))
        assert rep["passed"]
        assert rep["counts"] == counts
        assert rep["exponent"] == pytest.approx(1.0, abs=0.05)
        # an impossible cap must fail
        assert not check_component_bound(family, Fraction(1, 10))["passed"]


def test_stratify_circle():
    strata = stratify(parse_formula("x^2 + y^2 - 1 = 0"))
    assert [s.dim for s in strata] == [0, 1]
    assert sum(len(s.cells) for s in strata) == 4


def test_stratify_closed_disk():
    strata = stratify(parse_formula("not (x^2 + y^2 - 1 > 0)"))
    dims = {s.dim: len(s.cells) for s in strata}
    assert dims[2] == 1 and dims[1] == 2 and dims[0] == 2


def test_triangulate_segment():
    K, _ = triangulate(parse_formula("(not (x < 0)) and (not (x - 1 > 0))"))
    assert K.counts() == (3, 2, 0)
    assert betti(K) == (1, 0, 0)
    assert K.euler_characteristic() == 1


def test_triangulate_circle_and_disk():
    K, _ = triangulate(parse_formula("x^2 + y^2 - 1 = 0"))
    assert betti(K) == (1, 1, 0)
    assert K.euler_characteristic() == 0
    K, _ = triangulate(parse_formula("not (x^2 + y^2 - 1 > 0)"))
    assert betti(K) == (1, 0, 0)
    assert K.euler_characteristic() == 1


def test_triangulate_rejects_open_or_unbounded():
    with pytest.raises(TopologyError):
        triangulate(parse_formula("x^2 + y^2 - 1 < 0"))
    with pytest.raises(TopologyError):
        triangulate(parse_formula("not (x < 0)"))


def test_triangulate_labels_subsets():
    X = parse_formula("not (x^2 + y^2 - 1 > 0)")
    boundary = parse_formula("x^2 + y^2 - 1 = 0")
    K, _ = triangulate(X, [boundary])
    labeled = [s for s, labels in K.labels.items() if 0 in labels]
    assert labeled
    # labeled vertices really lie near the unit circle
    for simplex in labeled:
        if len(simplex) == 1:
            (v,) = simplex
            x, y = K.vertices[v]
            assert abs(x * x + y * y - 1) < Fraction(1, 4)


@pytest.mark.parametrize("text, approximate", [
    # the annulus 1 <= x^2 + y^2 <= 4 has algebraic samples, the unit
    # square only rational ones
    ("(not (x^2 + y^2 - 1 < 0)) and (not (x^2 + y^2 - 4 > 0))", True),
    ("(not (x*(x - 1) > 0)) and (not (y*(y - 1) > 0))", False),
])
def test_triangulation_labels_approximate_vertices(text, approximate):
    X = parse_formula(text)
    K, description = triangulate(X)
    schema = json.loads((Path(__file__).parents[1] / "schemas"
                         / "complex.v1.schema.json").read_text())
    jsonschema.validate(complex_to_json(K), schema)
    kinds = description["vertices"]
    assert sorted(kinds, key=int) == [str(i) for i in range(len(K.vertices))]
    assert set(kinds.values()) <= {"exact", "approximate"}
    assert ("approximate" in kinds.values()) == approximate
    for i, v in enumerate(K.vertices):
        if kinds[str(i)] == "exact":  # an exact sample lies in the set
            assert decide(X, dict(zip(("x", "y"), v)))


def test_boundary_rank_on_handmade_complex():
    # a hollow triangle: b1 = 1 (faces close automatically)
    corners = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
               (Fraction(0), Fraction(1))]
    K = SimplicialComplex(corners, [(0, 1), (0, 2), (1, 2)])
    assert betti(K) == (1, 1, 0)
    # fill it in: contractible
    K2 = SimplicialComplex(corners, [(0, 1, 2)])
    assert K2.counts() == (3, 3, 1)
    assert betti(K2) == (1, 0, 0)


def test_import_does_not_load_numpy():
    # numpy serves only the tests' grid oracle, so importing the library
    # (and its CLI) must not pay for it
    pkg = os.path.abspath(sharpcells.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pkg)))
    code = ("import sys, sharpcells, sharpcells.cli; "
            "assert 'numpy' not in sys.modules, 'numpy imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_growth_fit_runs_without_numpy():
    # the least-squares slope is closed form, so the bound check needs no
    # numpy; blocking the import makes any use of it fail
    pkg = os.path.abspath(sharpcells.__file__)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pkg)))
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from fractions import Fraction\n"
        "from sharpcells.parser import parse_formula\n"
        "from sharpcells.topology import check_component_bound\n"
        "family = {d: parse_formula(' * '.join(f'(x - {i})' for i in "
        "range(1, d + 1)) + ' = 0') for d in (1, 2, 3)}\n"
        "rep = check_component_bound(family, Fraction(3, 2))\n"
        "assert rep['passed'] and abs(rep['exponent'] - 1) < 1e-9, rep\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
