from fractions import Fraction

import pytest

from sharpcells.cad import poly_sign_at
from sharpcells.formula import And, Atom, Exists, FormulaError, Not, Or, to_text
from sharpcells.parser import ParseError, parse_formula, parse_poly
from sharpcells.realalg import Num


def test_atom_roundtrip():
    psi = parse_formula("x^2 + y^2 - 1 = 0")
    assert isinstance(psi, Atom)
    assert psi.sign == "="
    assert parse_formula(to_text(psi)) == psi


def test_connectives_and_quantifiers():
    text = "exists y. ((x - y^2 = 0) and (y > 0))"
    psi = parse_formula(text)
    assert isinstance(psi, Exists)
    assert isinstance(psi.child, And)
    assert psi.free_vars() == ("x",)
    assert parse_formula(to_text(psi)) == psi


def test_variable_appearance_order():
    psi = parse_formula("(y - x > 0) or (z = 0)")
    assert psi.free_vars() == ("y", "x", "z")


def test_parenthesized_polynomial_atom():
    # a leading "(" may open the polynomial itself, not a subformula
    psi = parse_formula("(x^2 + y^2 - 1)*(x^2 + y^2 - 4) = 0")
    assert isinstance(psi, Atom)
    assert psi.poly.total_degree() == 4


def test_rational_coefficients():
    p = parse_poly("1/2*x^2 - 3/4")
    assert p.terms == {(2,): Fraction(1, 2), (0,): Fraction(-3, 4)}
    # p(2) = 5/4 exactly
    two = [Num.rational(2)]
    assert poly_sign_at(p - Fraction(5, 4), two) == 0
    assert poly_sign_at(p, two) == 1


def test_nested_structure():
    psi = parse_formula(
        "not ((x > 0) or (forall y. x - y^2 < 0))")
    assert isinstance(psi, Not)
    assert isinstance(psi.child, Or)


@pytest.mark.parametrize("bad", [
    "x >= 0",                 # only =, >, < are atoms
    "x > 1",                  # right-hand side must be 0
    "exists x. exists x. x > 0",   # double binding
    "(x > 0",                 # unbalanced parens
    "x + = 0",                # malformed polynomial
    "x ! 0",                  # stray character
])
def test_rejects_bad_input(bad):
    # binding violations surface as FormulaError, the parser's base class
    with pytest.raises(FormulaError):
        parse_formula(bad)


def test_named_reference():
    psi = parse_formula("@disk(u, v) and (u > 0)")
    ref = psi.children[0]
    assert ref.name == "disk" and list(ref.args) == ["u", "v"]


def test_error_positions():
    try:
        parse_formula("x +\n* y = 0")
    except ParseError as exc:
        assert exc.line == 2
    else:
        raise AssertionError("expected a parse error")


def test_non_strict_comparison_names_the_operator():
    for text, op, hint in [("x^2 + y^2 - 1 <= 0", "<=", "not (p > 0)"),
                           ("x >= 0", ">=", "not (p < 0)")]:
        with pytest.raises(ParseError) as info:
            parse_formula(text)
        assert f"'{op}' is not supported" in str(info.value)
        assert hint in str(info.value)
        assert info.value.col == text.index(op) + 1
