"""Definable choice: case analysis, exact evaluation, region formulas."""

import json
import random
from fractions import Fraction

import pytest

from sharpcells.cad import decide
from sharpcells.choice import (
    ChoiceError,
    choice,
    choice_1d,
    choice_to_json,
    region_formulas,
)
from sharpcells.formula import bound_vars
from sharpcells.parser import parse_formula


def test_whole_line_case_a():
    fn = choice_1d(parse_formula("x^2 + 1 > 0"), fiber_vars=["x"])
    coords, cases = fn.evaluate([])
    assert cases == ["A"]
    assert coords[0].as_fraction() == 0


def test_unbounded_below_case_b():
    fn = choice_1d(parse_formula("l - x > 0"), fiber_vars=["x"])
    coords, cases = fn.evaluate([Fraction(5)])
    assert cases == ["B"]
    assert coords[0].as_fraction() == 4  # right end 5, minus one


def test_attained_inf_case_c():
    fn = choice_1d(parse_formula("x - l > 0"), fiber_vars=["x"])
    coords, cases = fn.evaluate([Fraction(-7, 2)])
    assert cases == ["C"]
    assert coords[0].as_fraction() == Fraction(-5, 2)


def test_evaluate_takes_one_value_per_parameter():
    fn = choice_1d(parse_formula("x - l > 0"), fiber_vars=["x"])
    with pytest.raises(ChoiceError):
        fn.evaluate([Fraction(1), Fraction(2)])
    with pytest.raises(ChoiceError):
        fn.evaluate([])


def test_bounded_interval_case_d():
    total = parse_formula("(x - l > 0) and (l + 1 - x > 0)")
    fn = choice_1d(total, fiber_vars=["x"])
    coords, cases = fn.evaluate([Fraction(0)])
    assert cases == ["D"]
    assert coords[0].as_fraction() == Fraction(1, 2)


def test_point_fiber():
    fn = choice_1d(parse_formula("x - l = 0"), fiber_vars=["x"])
    coords, cases = fn.evaluate([Fraction(3)])
    assert coords[0].as_fraction() == 3


def test_algebraic_landmark_stays_exact():
    fn = choice_1d(parse_formula("(x^2 - 2 > 0) and (x > 0)"),
                   fiber_vars=["x"])
    coords, cases = fn.evaluate([])
    assert cases == ["C"]
    g = coords[0]
    shifted = g - 1
    assert (shifted * shifted).as_fraction() == 2  # g = sqrt(2) + 1


def test_two_algebraic_landmarks():
    # -sqrt(2) and sqrt(2) are roots in two fields; their midpoint is exact
    fn = choice_1d(parse_formula("x^2 - 2 < 0"), fiber_vars=["x"])
    coords, cases = fn.evaluate([])
    assert cases == ["D"] and coords[0].as_fraction() == 0
    fn = choice_1d(parse_formula("(x - 1)^2 - l^2 - 1 < 0"),
                   fiber_vars=["x"])
    coords, cases = fn.evaluate([Fraction(1)])
    assert cases == ["D"] and coords[0].as_fraction() == 1
    fn = choice(parse_formula("x^2 + y^2 - l^2 - 1 < 0"), 2,
                fiber_vars=["x", "y"])
    coords, cases = fn.evaluate([Fraction(1)])
    assert cases == ["D", "D"]
    assert [c.as_fraction() for c in coords] == [0, 0]
    total = parse_formula("x^2 + y^2 - l^2 - 1 < 0")
    for lam in map(Fraction, (-2, 1, 5)):
        coords, _ = fn.evaluate([lam])
        assert decide(total, {"l": lam, "x": coords[0], "y": coords[1]})


def test_empty_fiber_detected():
    with pytest.raises(ChoiceError):
        fn = choice_1d(parse_formula("(x - l > 0) and (l - x > 0)"),
                       fiber_vars=["x"])
        fn.evaluate([Fraction(0)])
    # only the fiber over x = 0 is empty
    with pytest.raises(ChoiceError):
        choice_1d(parse_formula("x*l - 1 > 0"), fiber_vars=["l"])


def test_choice_certifies_nonemptiness():
    fn = choice_1d(parse_formula("x - l > 0"), fiber_vars=["x"])
    assert fn.evaluate([Fraction(0)])[1] == ["C"]
    with pytest.raises(ChoiceError):
        choice_1d(parse_formula("x^2 + l^2 < 0"), fiber_vars=["x"])


def test_two_dimensional_fiber_recursion():
    total = parse_formula(
        "(x - l > 0) and (y - x > 0)")
    fn = choice(total, 2, fiber_vars=["x", "y"])
    coords, cases = fn.evaluate([Fraction(1)])
    # both coordinates chosen by the attained-infimum rule
    assert cases == ["C", "C"]
    assert coords[0].as_fraction() == 2
    assert coords[1].as_fraction() == 3


def test_membership_on_random_parameters():
    total = parse_formula("(x - l > 0) and (l^2 + 1 - x > 0)")
    fn = choice_1d(total, fiber_vars=["x"])
    rng = random.Random(99)
    for _ in range(50):
        lam = Fraction(rng.randrange(-300, 301), 100)
        (g,), _ = fn.evaluate([lam])
        assert decide(total, {"l": lam, "x": g})


def test_region_formulas_partition():
    total = parse_formula("(x - l > 0) and (l + 1 - x > 0)")
    regions = region_formulas(total, "x")
    assert set(regions) == {"A", "B", "C", "D"}
    for lam in map(Fraction, [-2, 0, 3]):
        truth = {k: decide(r, {"l": lam}, ceiling=6)
                 for k, r in regions.items()}
        assert sum(truth.values()) == 1
        assert truth["D"]


def test_region_formula_matches_case_letter():
    total = parse_formula("x - l > 0")
    regions = region_formulas(total, "x")
    fn = choice_1d(total, fiber_vars=["x"])
    lam = Fraction(1)
    (letter,) = fn.evaluate([lam])[1]
    assert decide(regions[letter], {"l": lam}, ceiling=6)


def test_fiber_vars_validation_and_json():
    total = parse_formula("x - l > 0")
    with pytest.raises(ChoiceError):
        choice(total, 1, fiber_vars=["nope"])
    with pytest.raises(ChoiceError):
        choice(total, 3)
    fn = choice_1d(total, fiber_vars=["x"])
    doc = choice_to_json(fn)
    assert doc["version"] == 1
    assert doc["fiber"] == ["x"] and doc["parameters"] == ["l"]
    assert set(doc["stages"][0]["regions"]) == {"A", "B", "C", "D"}


def test_region_formulas_are_the_same_on_every_call():
    total = parse_formula("(x - l > 0) and (l + 1 - x > 0)")
    first, second = (json.dumps(choice_to_json(choice_1d(
        total, fiber_vars=["x"]))) for _ in range(2))
    assert first == second
    # fresh bound names stay distinct within each region, copies of a
    # quantified family included
    family = parse_formula("exists y. ((x - l > 0) and (y^2 - x < 0))")
    for region in region_formulas(family, "x").values():
        names = bound_vars(region)
        assert len(names) == len(set(names))
