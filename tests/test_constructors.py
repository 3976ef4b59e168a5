"""Named formula constructors: differentiability locus, local maxima,
diagonal products, unit-box rescaling."""

import random
from fractions import Fraction

import pytest

from sharpcells.cad import decide
from sharpcells.constructors import (
    ConstructorError,
    diagonal_formulas,
    diff_locus_formula,
    local_maxima_formula,
    rescale_to_unit,
    unrescale_point,
)
from sharpcells.formula import is_quantifier_free
from sharpcells.parser import parse_formula


def test_diff_locus_shape():
    graph = parse_formula("x^2 - y = 0")  # inputs first: y = x^2
    psi = diff_locus_formula(graph, 1, 1)
    assert psi.free_vars() == ("x",)
    assert not is_quantifier_free(psi)


def test_diff_locus_decides_smooth_point():
    graph = parse_formula("x^2 - y = 0")
    psi = diff_locus_formula(graph, 1, 1)
    # the parabola is differentiable everywhere; check one rational point
    # (six quantifier blocks, so the decision needs a deep ceiling)
    assert decide(psi, {"x": Fraction(1)}, ceiling=6)


def test_diff_locus_input_output_split():
    # appearance order decides the split: here y is the input variable
    graph = parse_formula("(y^2 - x^2 = 0) and (not (y < 0))")
    psi = diff_locus_formula(graph, 1, 1)
    assert psi.free_vars() == ("y",)


def test_diff_locus_arity_check():
    with pytest.raises(ConstructorError):
        diff_locus_formula(parse_formula("x - y = 0"), 2, 1)


def test_local_maxima_of_interval():
    seg = parse_formula("(x > 0) and (1 - x > 0)")
    top = local_maxima_formula(seg, [1])
    # sup is not attained on the open interval
    assert not decide(top, {"x": Fraction(1, 2)}, ceiling=4)
    closed = parse_formula("(not (x < 0)) and (not (x - 1 > 0))")
    top = local_maxima_formula(closed, [1])
    assert decide(top, {"x": Fraction(1)}, ceiling=4)
    assert not decide(top, {"x": Fraction(1, 2)}, ceiling=4)


def test_local_maxima_zero_functional():
    X = parse_formula("x^2 + y^2 - 1 < 0")
    every = local_maxima_formula(X, [0, 0])
    # the zero functional is maximal everywhere on X
    assert decide(every, {"x": Fraction(0), "y": Fraction(0)}, ceiling=4)


def test_diagonal_formulas():
    a = parse_formula("x - y > 0")
    b = parse_formula("x + y > 0")
    near, full = diagonal_formulas(a, b, 2)
    assert len(near.free_vars()) == 4
    pt = {v: x for v, x in zip(near.free_vars(),
                               map(Fraction, [3, 1, 3, 2]))}
    assert decide(near, pt)       # first coords agree
    assert not decide(full, pt)   # second coords differ
    pt2 = {v: x for v, x in zip(near.free_vars(),
                                map(Fraction, [3, 1, 3, 1]))}
    assert decide(full, pt2)


def test_rescale_round_trip_membership():
    X = parse_formula("(x - 1 > 0) and (5 - x > 0)")
    boxed = rescale_to_unit(X)
    rng = random.Random(41)
    hits = 0
    for _ in range(40):
        u = Fraction(rng.randrange(1, 100), 100)
        (x,) = unrescale_point([u])
        inside = decide(X, {"x": x})
        assert decide(boxed, {"x": u}) == inside
        hits += inside
    assert hits > 0


def test_rescale_even_denominator_powers():
    # strict inequalities stay strict after clearing denominators
    X = parse_formula("x^3 - 2 > 0")
    boxed = rescale_to_unit(X)
    (x,) = unrescale_point([Fraction(9, 10)])
    assert x > 2  # 0.9 maps far to the right
    assert decide(boxed, {"x": Fraction(9, 10)})
    assert not decide(boxed, {"x": Fraction(1, 10)})


def test_unrescale_domain_check():
    with pytest.raises(ConstructorError):
        unrescale_point([Fraction(3, 2)])
