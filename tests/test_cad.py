"""Cylindrical decompositions: cell counts, sign invariance, membership,
point location, quantifier decisions."""

import random
from fractions import Fraction

import pytest

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
from sharpcells.formula import eval_qf, to_text
from sharpcells.parser import parse_formula, parse_poly


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
            assert eval_qf(s, point) == member


def test_locate_agrees_with_membership():
    X = parse_formula("x^2 + y^2 - 1 < 0")
    decomp = compatible_decomposition([X])
    rng = random.Random(5)
    for _ in range(25):
        p = [Fraction(rng.randrange(-200, 201), 100) for _ in range(2)]
        path = locate(decomp, p)
        cell = decomp.cell_at(path)
        want = eval_qf(X, dict(zip(decomp.variables, p)))
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


def test_degenerate_projection_falls_back():
    # a polynomial whose leading coefficient in y vanishes on a line
    X = parse_formula("x*y^2 - 1 = 0")
    decomp = compatible_decomposition([X])
    rng = random.Random(3)
    for cell in decomp.cells:
        (pt,) = sample_in_cell(decomp, cell, rng, count=1)
        point = dict(zip(decomp.variables, pt))
        assert eval_qf(X, point) == cell.memberships[0]
