"""Formula structure, evaluation, and format/degree measurement."""

from fractions import Fraction

import pytest

from sharpcells.cad import decide
from sharpcells.fd import FDPair, atom_fd, fd_of_formula, pformat_of_formula
from sharpcells.formula import (
    Environment,
    FormulaError,
    bound_vars,
    instantiate,
    is_quantifier_free,
    resolve_named,
    to_text,
    validate,
)
from sharpcells.parser import parse_formula


def fd(text, env=None):
    return fd_of_formula(parse_formula(text), env).as_tuple()


def test_atom_fd():
    a = parse_formula("x^2 + y^2 - 1 = 0")
    assert atom_fd(a).as_tuple() == (2, 2)
    # degree floor: linear and constant atoms still cost 1
    assert atom_fd(parse_formula("x > 0")).as_tuple() == (1, 1)


def test_formula_fd_sums_degrees():
    assert fd("(x^2 + y^2 - 1 = 0) and (x - y > 0)") == (2, 3)
    # occurrences count separately
    assert fd("(x > 0) or (x > 0)") == (1, 2)


def test_format_counts_all_variables():
    # three distinct variables beat every atom's own format
    assert fd("(x > 0) and (y > 0) and (z > 0)") == (3, 3)
    # bound variables count too
    assert fd("exists y. x - y^2 = 0") == (2, 2)


def test_pformat_includes_depth():
    psi = parse_formula("not (not (not (x > 0)))")
    assert fd_of_formula(psi).format == 1
    assert pformat_of_formula(psi) == psi.depth()
    flat = parse_formula("x^5 - 2 > 0")
    assert pformat_of_formula(flat) == 1


def test_fdpair_partial_order():
    assert FDPair(2, 3) <= FDPair(2, 5)
    assert not FDPair(3, 1) <= FDPair(2, 5)
    with pytest.raises(ValueError):
        FDPair(1, 0)


def test_eval_qf():
    # quantifier-free formulas are evaluated by decide, the one evaluator
    psi = parse_formula("(x^2 + y^2 - 1 < 0) or (x - 1 = 0)")
    assert decide(psi, {"x": Fraction(0), "y": Fraction(0)})
    assert decide(psi, {"x": Fraction(1), "y": Fraction(5)})
    assert not decide(psi, {"x": Fraction(2), "y": Fraction(0)})
    ray = parse_formula("x - l > 0")
    assert decide(ray, {"l": Fraction(3, 2), "x": Fraction(2)})
    assert not decide(ray, {"l": Fraction(3, 2), "x": Fraction(1)})
    assert is_quantifier_free(psi)
    assert not is_quantifier_free(parse_formula("exists x. x > 0"))


def test_environment_and_named_fd():
    env = Environment()
    disk = parse_formula("x^2 + y^2 - 1 < 0")
    env.register("disk", disk, fd_of_formula(disk))
    psi = parse_formula("@disk(u, v) and (u > 0)")
    assert fd_of_formula(psi, env).as_tuple() == (2, 3)
    inlined = resolve_named(psi, env)
    assert is_quantifier_free(inlined)
    assert decide(inlined, {"u": Fraction(1, 2), "v": Fraction(0)})
    with pytest.raises(FormulaError):
        fd_of_formula(parse_formula("@nope(x)"), env)


def test_each_named_occurrence_binds_its_own_names():
    env = Environment()
    sq = parse_formula("exists t. t^2 - x = 0")
    env.register("sq", sq, fd_of_formula(sq))
    inlined = validate(resolve_named(parse_formula("@sq(x) and @sq(y)"), env))
    names = bound_vars(inlined)
    assert len(names) == len(set(names)) == 2
    assert not decide(inlined, {"x": Fraction(1), "y": Fraction(-1)})
    assert decide(inlined, {"x": Fraction(1), "y": Fraction(2)})


def test_instantiate_renames_and_freshens():
    psi = parse_formula(
        "(exists t. (t - x > 0)) and (forall s. ((s^2 - y > 0) or (x < 0)))")
    out = instantiate(psi, ["u", "v"], "_b")
    assert out.free_vars() == ("u", "v")
    assert bound_vars(out) == ["_b0", "_b1"]
    validate(out)
    # a partial mapping keeps the other free variables
    assert instantiate(psi, {"x": "w"}, "_b").free_vars() == ("w", "y")
    with pytest.raises(FormulaError):
        instantiate(psi, ["u"], "_b")           # arity mismatch
    with pytest.raises(FormulaError):
        instantiate(psi, ["_b1", "v"], "_b")    # a fresh name is free


def test_environment_rejects_conflicting_registration():
    env = Environment()
    a = parse_formula("x > 0")
    env.register("s", a, fd_of_formula(a))
    env.register("s", a, fd_of_formula(a))  # identical re-registration ok
    with pytest.raises(FormulaError):
        env.register("s", parse_formula("x < 0"), FDPair(1, 1))


def test_to_text_is_parseable_inverse():
    texts = [
        "(x^2 - y = 0) and ((y > 0) or (x < 0))",
        "forall e. ((e < 0) or (exists d. d - e^2 > 0))",
        "not (x*y - 1 = 0)",
    ]
    for t in texts:
        psi = parse_formula(t)
        assert parse_formula(to_text(psi)) == psi


def test_validate_rejects_shadowing():
    validate(parse_formula("x > 0"))
    with pytest.raises(FormulaError):
        parse_formula("exists x. ((x > 0) and (exists x. x < 0))")
