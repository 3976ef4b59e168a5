"""Cylindrical decompositions: cell counts, sign invariance, membership,
point location, quantifier decisions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sharpcells.cad import (
    CADError,
    CeilingError,
    cad,
    cell_formula,
    compatible_decomposition,
    cylinder_cells,
    decide,
    decomposition_report,
    locate,
    poly_sign_at,
    sample_in_cell,
)
from sharpcells.formula import And, Atom, Or, to_text
from sharpcells.parser import parse_formula, parse_poly
from sharpcells.poly import Polynomial
from sharpcells.topology import connected_components


def test_circle_has_thirteen_cells():
    decomp = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    assert len(decomp.cells) == 13
    dims = sorted(c.dim for c in decomp.cells)
    assert dims.count(0) == 2 and dims.count(1) == 6 and dims.count(2) == 5
    on = [c for c in decomp.cells if c.memberships[0]]
    assert len(on) == 4


def test_line_decomposition():
    decomp = compatible_decomposition([parse_formula("x^2 - 2 = 0")])
    # two algebraic points and three intervals
    assert len(decomp.cells) == 5
    in_cells = [c for c in decomp.cells if c.memberships[0]]
    assert [c.dim for c in in_cells] == [0, 0]
    for c in in_cells:
        v = c.coords[0]
        assert (v * v).as_fraction() == 2


def test_sign_invariance_at_random_samples():
    polys_text = ["x^2 + y^2 - 1", "x - y", "x*y - 1"]
    polys = [parse_poly(t, ("x", "y")) for t in polys_text]
    decomp = cad(polys)
    rng = random.Random(2024)
    for cell in decomp.cells:
        base = [poly_sign_at(p, cell.coords) for p in polys]
        for point in sample_in_cell(decomp, cell, rng, count=5):
            assert [poly_sign_at(p, point) for p in polys] == base


def test_memberships_match_eval_at_samples():
    sets = [parse_formula("x^2 + y^2 - 1 < 0"),
            parse_formula("x > 0")]
    decomp = compatible_decomposition(sets)
    rng = random.Random(7)
    for cell in decomp.cells:
        (pt,) = sample_in_cell(decomp, cell, rng, count=1)
        point = dict(zip(decomp.variables, pt))
        for s, member in zip(sets, cell.memberships):
            assert decide(s, point) == member


def test_locate_agrees_with_membership():
    X = parse_formula("x^2 + y^2 - 1 < 0")
    decomp = compatible_decomposition([X])
    rng = random.Random(5)
    for _ in range(25):
        p = [Fraction(rng.randrange(-200, 201), 100) for _ in range(2)]
        path = locate(decomp, p)
        cell = decomp.cell_at(path)
        want = decide(X, dict(zip(decomp.variables, p)))
        assert cell.memberships[0] == want


@pytest.mark.parametrize("text", [
    "x^2 + y^2 - 1 = 0",
    "x*y^2 - 1 = 0",
    "y^2 - x = 0",
    "x^2 + y^2 + z^2 - 1 < 0",
])
def test_samples_locate_back_to_their_cell(text):
    # sample_in_cell reuses or rebuilds stacks; locate always rebuilds them
    decomp = compatible_decomposition([parse_formula(text)])
    rng = random.Random(11)
    for cell in decomp.cells:
        for pt in sample_in_cell(decomp, cell, rng, count=2):
            assert locate(decomp, pt) == cell.index_path


def test_locate_on_a_section():
    decomp = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    path = locate(decomp, [Fraction(3, 5), Fraction(4, 5)])
    assert decomp.cell_at(path).memberships[0]
    path = locate(decomp, [Fraction(0), Fraction(2)])
    assert not decomp.cell_at(path).memberships[0]


def test_cell_formula_defines_the_cell():
    decomp = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    rng = random.Random(13)
    for cell in decomp.cells:
        psi, fd = cell_formula(decomp, cell)
        assert fd.format >= 1
        (pt,) = sample_in_cell(decomp, cell, rng, count=1)
        assert decide(psi, dict(zip(decomp.variables, pt)), ceiling=3)
    # a sample of another cell must falsify the formula
    target = decomp.cells[0]
    psi, _ = cell_formula(decomp, target)
    other = decomp.cells[-1]
    (pt,) = sample_in_cell(decomp, other, rng, count=1)
    assert not decide(psi, dict(zip(decomp.variables, pt)), ceiling=3)


def test_cylinder_cells_projection():
    decomp = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    base = cylinder_cells(decomp, 1)
    assert base.level == 1
    assert len(base.cells) == 5
    paths = {c.index_path for c in base.cells}
    assert paths == {(i,) for i in range(5)}


def test_decide_quantified_statements():
    # every real has a cube root
    assert decide(parse_formula("forall y. exists x. x^3 - y = 0"),
                  ceiling=2)
    # no real square is negative
    assert not decide(parse_formula("exists x. x^2 < 0"), ceiling=1)
    # the circle meets the line y = x
    assert decide(parse_formula(
        "exists x. exists y. ((x^2 + y^2 - 1 = 0) and (x - y = 0))"),
        ceiling=2)
    # parametrized: the fiber over y=2 of the circle is empty
    assert not decide(parse_formula("exists x. x^2 + y^2 - 1 = 0"),
                      {"y": Fraction(2)}, ceiling=2)


def test_three_variable_decomposition():
    X = parse_formula("x^2 + y^2 + z^2 - 1 < 0")
    decomp = compatible_decomposition([X], ceiling=3)
    inside = [c for c in decomp.cells if c.memberships[0]]
    assert len(inside) == 1 and inside[0].dim == 3
    rep = decomposition_report(decomp)
    assert rep["cells"] == len(decomp.cells)


def test_ceiling_enforced():
    with pytest.raises(CeilingError):
        compatible_decomposition(
            [parse_formula("w^2 + x^2 + y^2 + z^2 - 1 < 0")], ceiling=3)
    with pytest.raises(CADError):
        decide(parse_formula("x > 0"), {}, ceiling=3)


def test_projection_rejects_unproven_chain_in_four_variables():
    # over (x, y, z) the coefficients x and y of x*w + y vanish together on
    # the whole z-axis, where the projection is not known to be complete
    psi = parse_formula(
        "exists z. exists w. (x*w + y = 0 and z^2 - 1 < 0)")
    with pytest.raises(CADError, match="at most three variables"):
        decide(psi, {"x": Fraction(0), "y": Fraction(0)}, ceiling=4)
    # a chain ending at a constant is fine in any dimension
    psi = parse_formula(
        "exists z. exists w. (w^2 + x*w + y = 0 and z^2 - 1 < 0)")
    assert decide(psi, {"x": Fraction(0), "y": Fraction(-1)}, ceiling=4)
    assert not decide(psi, {"x": Fraction(0), "y": Fraction(1)}, ceiling=4)


def test_shifted_hyperbola_needs_no_extra_section():
    # the coefficients x - 3/4 and 3/4*x - 17/16 of y never vanish together;
    # only x = 3/4, where the leading coefficient vanishes, splits the line
    X = parse_formula("(x - 3/4)*(y + 3/4) - 1/2 = 0")
    decomp = compatible_decomposition([X])
    assert len(decomp.cells) == 7
    assert len(connected_components(X, decomp=decomp)) == 2


def assert_sign_invariant(X, variables, seed, count=2):
    """Every input polynomial keeps the sign of the cell sample at random
    points of the cell, and the membership agrees with decide there."""
    decomp = compatible_decomposition([X], variables)
    polys = [a.poly.extend(decomp.variables) for a in X.atoms()]
    rng = random.Random(seed)
    for cell in decomp.cells:
        signs = [poly_sign_at(p, cell.coords) for p in polys]
        for pt in [cell.coords] + sample_in_cell(decomp, cell, rng, count):
            assert [poly_sign_at(p, pt) for p in polys] == signs
            point = dict(zip(decomp.variables, pt))
            assert cell.memberships[0] == decide(X, point)


@st.composite
def sign_conditions(draw, variables, top):
    """One to two sign conditions on sparse polynomials with small integer
    coefficients, each of degree at most top in every variable, joined by
    'and' or 'or'."""
    term = st.tuples(*[st.integers(0, top)] * len(variables))
    coeff = st.integers(-3, 3).filter(bool)
    poly = st.dictionaries(term, coeff, min_size=2, max_size=4).map(
        lambda terms: Polynomial(variables, terms)).filter(
        lambda p: not p.is_constant())
    atoms = draw(st.lists(st.builds(Atom, poly, st.sampled_from("=<>")),
                          min_size=1, max_size=2))
    if len(atoms) == 1:
        return atoms[0]
    return draw(st.sampled_from([And, Or]))(atoms)


@settings(max_examples=25, deadline=None)
@given(sign_conditions(("x", "y"), 2), st.integers(0, 2**16))
def test_plane_cells_are_sign_invariant(X, seed):
    assert_sign_invariant(X, ("x", "y"), seed)


@settings(max_examples=6, deadline=None)
@given(sign_conditions(("x", "y", "z"), 1), st.integers(0, 2**16))
def test_space_cells_are_sign_invariant(X, seed):
    assert_sign_invariant(X, ("x", "y", "z"), seed)


@pytest.mark.parametrize("text", [
    "x*y^2 - 1 = 0",
    "x*z + y = 0",
    "(x*z - y)*(y*z - x) = 0",
    "x*z^2 + (y - 1)*z + x*y < 0",
])
def test_nullified_chains_stay_sign_invariant(text):
    # each but the first vanishes identically over a point of the plane
    X = parse_formula(text)
    variables = ("x", "y", "z")[:len(X.free_vars())]
    assert_sign_invariant(X, variables, seed=3, count=3)
