"""Polynomial arithmetic against a sympy oracle plus structural checks.

The library reaches sympy only through dense ZZ polynomials; the sympy
expression API appears here alone, as the reference.
"""

import copy
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.densebasic import dmp_from_dict, dmp_to_dict
from sympy.polys.densetools import dup_primitive
from sympy.polys.domains import ZZ
from sympy.polys.euclidtools import dmp_discriminant, dmp_resultant, dup_gcd
from sympy.polys.factortools import dmp_factor_list
from sympy.polys.sqfreetools import dup_sqf_part

from sharpcells import poly
from sharpcells.cad import _block_basis, cad, poly_sign_at, project_polys
from sharpcells.formula import Atom, Exists
from sharpcells.poly import (
    Polynomial,
    discriminant,
    factor,
    gcd_univariate,
    resultant,
    squarefree_univariate,
)
from sharpcells.parser import parse_poly
from sharpcells.realalg import Num

VARS = ("x", "y", "z")


def to_expr(p):
    syms = sp.symbols(p.variables)
    expr = sp.Integer(0)
    for expo, coeff in p.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(syms, expo):
            term *= s**e
        expr += term
    return expr


def from_expr(expr, variables):
    if not variables:
        return Polynomial.constant(Fraction(str(sp.Rational(expr))), ())
    poly = sp.Poly(sp.expand(expr), *sp.symbols(variables))
    return Polynomial(variables, {
        tuple(e): Fraction(str(sp.Rational(c))) for e, c in poly.terms()})


def random_poly(rng, nterms=5, maxdeg=4):
    terms = {}
    for _ in range(nterms):
        expo = tuple(rng.randrange(maxdeg + 1) for _ in VARS)
        terms[expo] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    return Polynomial(VARS, terms)


def test_ring_ops_match_sympy():
    rng = random.Random(11)
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        for ours, theirs in [
            (p + q, to_expr(p) + to_expr(q)),
            (p - q, to_expr(p) - to_expr(q)),
            (p * q, to_expr(p) * to_expr(q)),
            (p ** 2, to_expr(p) ** 2),
        ]:
            assert ours == from_expr(theirs, VARS)


def test_sign_matches_sympy():
    # poly_sign_at(p - v, point) == 0 says p(point) == v exactly
    rng = random.Random(5)
    syms = sp.symbols(VARS)
    for _ in range(20):
        p = random_poly(rng)
        point = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
                 for _ in VARS]
        expected = Fraction(str(sp.Rational(to_expr(p).subs(
            dict(zip(syms, [sp.Rational(c) for c in point]))))))
        nums = [Num.rational(c) for c in point]
        assert poly_sign_at(p - expected, nums) == 0
        assert poly_sign_at(p, nums) == (expected > 0) - (expected < 0)


def test_derivative_matches_sympy():
    rng = random.Random(7)
    for _ in range(10):
        p = random_poly(rng)
        d = p.derivative("y")
        assert d == from_expr(sp.diff(to_expr(p), sp.Symbol("y")), VARS)


def test_zero_conventions():
    z = Polynomial(VARS)
    assert z.is_zero() and z.is_constant()
    assert z.total_degree() == 0
    assert z + z == z and z * z == z
    assert (z - z).is_zero()


def test_degrees_and_constants():
    p = parse_poly("x^3*y + 2*x - 5", ("x", "y"))
    assert p.total_degree() == 4
    assert p.degree_in("x") == 3 and p.degree_in("y") == 1
    c = Polynomial.constant(Fraction(7, 2), VARS)
    assert c.constant_value() == Fraction(7, 2)
    with pytest.raises(ValueError):
        p.constant_value()


def test_coeffs_in_last():
    p = parse_poly("x^2*y^2 + x*y + 3", ("x", "y"))
    cs = p.coeffs_in_last()
    assert len(cs) == 3
    assert cs[0] == parse_poly("3", ("x",))
    assert cs[1] == parse_poly("x", ("x",))
    assert cs[2] == parse_poly("x^2", ("x",))


def test_extend_and_subs():
    p = parse_poly("x*y - 1", ("x", "y"))
    q = p.extend(("x", "y", "z"))
    assert q.variables == ("x", "y", "z")
    assert poly_sign_at(q - 5, [Num.rational(c) for c in (2, 3, 99)]) == 0
    r = p.subs_var("y", Fraction(1, 2))
    assert r.variables == ("x",)
    assert poly_sign_at(r - 2, [Num.rational(6)]) == 0


def test_primitive_normalization():
    p = parse_poly("2/3*x^2 - 4/3*x", ("x",))
    prim = p.primitive()
    assert prim == parse_poly("x^2 - 2*x", ("x",))
    assert (-p).primitive() == prim


def assert_clean(p):
    """The invariant every Polynomial keeps: int exponent tuples as long
    as the variable tuple, and nonzero Fraction coefficients."""
    for expo, c in p.terms.items():
        assert type(expo) is tuple and len(expo) == len(p.variables)
        assert all(type(e) is int for e in expo)
        assert type(c) is Fraction and c != 0


def test_internally_built_polynomials_are_clean():
    # a product whose middle terms cancel keeps no zero coefficient
    x, y = (Polynomial.var(v, ("x", "y")) for v in ("x", "y"))
    assert (x + y) * (x - y) == parse_poly("x^2 - y^2", ("x", "y"))
    rng = random.Random(17)
    for _ in range(8):
        p = random_poly(rng, nterms=3, maxdeg=2)
        q = random_poly(rng, nterms=3, maxdeg=2)
        built = [p * q, -p, p.extend(("w",) + VARS), p.rename({"x": "u"}),
                 p.primitive(), discriminant(p, "z"), resultant(p, q, "z"),
                 *p.coeffs_in_last(), *factor(p * q),
                 *project_polys([p, q], VARS)]
        decomp = cad([p.subs_var("z", 1)], VARS[:2])
        for layer in decomp.layers():
            built += layer.basis
        psi = Exists("z", Atom(p, ">"))
        _, basis = _block_basis(psi, ("x", "y"))
        built += basis or []
        for r in built:
            assert_clean(r)


# -- the dense ZZ boundary against sympy's expression API ---------------------


MAX_DEGREE = 4


@st.composite
def rational_polys(draw, variables):
    """A product of one to three small random factors, possibly repeated,
    so that factoring has something to find.  A factor that would lift the
    product above MAX_DEGREE in any variable is left out: the resultant of
    two degree-8 trivariate products takes seconds on either side of the
    comparison, and such inputs check nothing that smaller ones miss."""
    n = len(variables)
    coeff = st.fractions(min_value=-6, max_value=6, max_denominator=4).filter(
        lambda c: c != 0)
    term = st.tuples(*[st.integers(0, 2)] * n)
    factors = draw(st.lists(
        st.dictionaries(term, coeff, min_size=1, max_size=3), min_size=1,
        max_size=3))
    p = Polynomial.constant(1, variables)
    for terms in factors:
        q = Polynomial(variables, terms)
        q = q * (q if draw(st.booleans()) and len(factors) < 3 else 1)
        if p.is_constant() or all((p * q).degree_in(v) <= MAX_DEGREE
                                  for v in variables):
            p = p * q
    return p


def same_up_to_scalar(p, q):
    if p.is_zero() or q.is_zero():
        return p.is_zero() and q.is_zero()
    return p.primitive() == q.primitive()


def reference_projection(polys, variables):
    """The projection set built from sympy expression calls: each chain runs
    down to the first nonzero constant coefficient, and onto one variable
    stops after the leading coefficient."""
    syms = sp.symbols(variables)
    last, rest = syms[-1], variables[:-1]
    basis = []
    for p in polys:
        for fac, _ in sp.factor_list(to_expr(p))[1]:
            q = from_expr(fac, variables).primitive()
            if not q.is_constant() and q not in basis:
                basis.append(q)
    active = [q for q in basis if q.degree_in(variables[-1]) >= 1]
    out = {q.coeffs_in_last()[0] for q in basis
           if q.degree_in(variables[-1]) == 0}
    exprs = []
    for q in active:
        for c in reversed(q.coeffs_in_last()):
            if c.is_constant() and not c.is_zero():
                break
            out.add(c)
            if len(variables) == 2 and not c.is_zero():
                break
        if q.degree_in(variables[-1]) >= 2:
            exprs.append(sp.discriminant(to_expr(q), last))
    for i, q in enumerate(active):
        for r in active[i + 1:]:
            exprs.append(sp.resultant(to_expr(q), to_expr(r), last))
    out |= {from_expr(e, rest) for e in exprs}
    return {q.primitive() for q in out if not q.is_constant()}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: rational_polys(VARS[:n])))
def test_factor_matches_sympy(p):
    factors = factor(p)
    assert len(factors) == len(sp.factor_list(to_expr(p))[1])
    # each factor divides p some number of times; their product is p
    rebuilt = sp.Integer(1)
    rest = to_expr(p)
    for f in factors:
        assert f == f.primitive() and not f.is_constant()
        fe = to_expr(f)
        k = 0
        while True:
            quo, rem = sp.div(rest, fe, *sp.symbols(p.variables))
            if rem != 0:
                break
            rest, k = quo, k + 1
        assert k >= 1
        rebuilt *= fe**k
    assert same_up_to_scalar(from_expr(rebuilt, p.variables), p)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(rational_polys(VARS[:n]), rational_polys(VARS[:n]),
                        st.sampled_from(VARS[:n]))))
def test_discriminant_and_resultant_match_sympy(case):
    p, q, var = case
    rest = tuple(v for v in p.variables if v != var)
    sym = sp.Symbol(var)
    if p.degree_in(var) >= 1:
        assert same_up_to_scalar(
            discriminant(p, var),
            from_expr(sp.discriminant(to_expr(p), sym), rest))
    if p.degree_in(var) >= 1 and q.degree_in(var) >= 1:
        assert same_up_to_scalar(
            resultant(p, q, var),
            from_expr(sp.resultant(to_expr(p), to_expr(q), sym), rest))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(rational_polys(VARS[:n]), min_size=1, max_size=2)))
def test_projection_matches_expression_reference(polys):
    variables = polys[0].variables
    ours = project_polys(polys, variables)
    assert len(set(ours)) == len(ours)
    assert set(ours) == reference_projection(polys, variables)


# -- the kernel memo ----------------------------------------------------------


RENAME = {"x": "u", "y": "v", "z": "w"}


def dense(p, order):
    """p over the variables of order as sympy's dense ZZ polynomial, with
    denominators cleared by their least common multiple."""
    denom = lcm(*(c.denominator for c in p.terms.values()))
    pos = [p.variables.index(v) for v in order]
    return dmp_from_dict({tuple(e[i] for i in pos): ZZ(int(c * denom))
                          for e, c in p.terms.items()}, len(order) - 1, ZZ)


def from_dense(f, order):
    if not order:
        return Polynomial.constant(int(f), ())
    return Polynomial(order, dmp_to_dict(f, len(order) - 1))


def from_dup(f):
    return [Fraction(int(c)) for c in reversed(f)]


def from_memo(fn, *args):
    """fn(*args), which must be answered without computing anything."""
    misses = poly._memo.cache_info().misses
    out = fn(*args)
    assert poly._memo.cache_info().misses == misses
    return out


def cold_and_warm(fn, *args):
    """fn(*args) from an empty memo, checked equal to the memoised answer."""
    poly._memo.cache_clear()
    cold = fn(*args)
    assert from_memo(fn, *args) == cold
    return cold


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(rational_polys(VARS[:n]), rational_polys(VARS[:n]),
                        st.permutations(VARS[:n]))))
def test_memoised_kernel_ignores_variable_names(case):
    p, q, order = case
    variables, var = p.variables, order[0]
    rest = tuple(v for v in variables if v != var)
    renamed = {v: RENAME[v] for v in variables}

    factors = cold_and_warm(factor, p)
    _, ref = dmp_factor_list(dense(p, variables), len(variables) - 1, ZZ)
    assert set(factors) == {from_dense(g, variables).primitive()
                            for g, _ in ref}
    assert from_memo(factor, p.rename(renamed)) == \
        [f.rename(renamed) for f in factors]
    assert set(factor(p.extend(order))) == \
        {f.extend(order).primitive() for f in factors}

    if p.degree_in(var) >= 1:
        d = cold_and_warm(discriminant, p, var)
        assert d == from_dense(dmp_discriminant(
            dense(p, (var,) + rest), len(rest), ZZ), rest)
        assert from_memo(discriminant, p.rename(renamed), renamed[var]) == \
            d.rename(renamed)
        assert discriminant(p.extend(order), var) == d.extend(order[1:])
    if p.degree_in(var) >= 1 and q.degree_in(var) >= 1:
        r = cold_and_warm(resultant, p, q, var)
        assert r == from_dense(dmp_resultant(
            dense(p, (var,) + rest), dense(q, (var,) + rest), len(rest),
            ZZ), rest)
        assert from_memo(resultant, p.rename(renamed), q.rename(renamed),
                         renamed[var]) == r.rename(renamed)
        assert resultant(p.extend(order), q.extend(order), var) == \
            r.extend(order[1:])


@settings(max_examples=40, deadline=None)
@given(st.tuples(rational_polys(("x",)), rational_polys(("x",))))
def test_memoised_univariate_kernel_matches_dense_sympy(case):
    (p, f), (q, g) = (([c.constant_value() for c in r.coeffs_in_last()],
                       dense(r, ("x",))) for r in case)
    assert cold_and_warm(squarefree_univariate, p) == \
        from_dup(dup_sqf_part(f, ZZ))
    assert cold_and_warm(gcd_univariate, p, q) == \
        from_dup(dup_primitive(dup_gcd(f, g, ZZ), ZZ)[1])


def to_dup(coeffs):
    """A degree-indexed coefficient list as sympy's dense ZZ polynomial,
    with denominators cleared by their least common multiple."""
    denom = lcm(*(Fraction(c).denominator for c in coeffs))
    return [ZZ(int(c * denom)) for c in reversed(coeffs)]


def sympy_sqf(p):
    return from_dup(dup_sqf_part(to_dup(p), ZZ))


def sympy_gcd(p, q):
    return from_dup(dup_primitive(dup_gcd(to_dup(p), to_dup(q), ZZ), ZZ)[1])


@pytest.mark.parametrize("coeffs, sqf", [
    ([5], [1]),                                   # nonzero constants
    ([-3], [1]),
    ([Fraction(2, 3)], [1]),
    ([-1, 2, -1], [-1, 1]),                       # -(x - 1)^2
    ([-1, 0, 0, -1], [1, 0, 0, 1]),               # -(x^3 + 1)
    ([6, -12, 6], [-1, 1]),                       # 6 (x - 1)^2
    ([-4, 0, 4], [-1, 0, 1]),                     # 4 (x^2 - 1)
    ([Fraction(1, 4), Fraction(-1), Fraction(1)], [-1, 2]),  # (x - 1/2)^2
    ([Fraction(-9, 2), 3, Fraction(-1, 2)], [-3, 1]),        # -(x - 3)^2 / 2
    ([0, 0, 0, 2], [0, 1]),                       # 2 x^3
])
def test_squarefree_conventions(coeffs, sqf):
    assert cold_and_warm(squarefree_univariate, coeffs) == sqf
    assert sqf == sympy_sqf(coeffs)


@pytest.mark.parametrize("p, q, g", [
    ([5], [1, 1], [1]),                           # a constant argument
    ([-1, 0, 1], [Fraction(1, 2)], [1]),
    ([-7], [-3], [1]),
    ([1, 0, -1], [-2, 2], [-1, 1]),               # -(x - 1)(x + 1), 2 (x - 1)
    ([-6, 0, 6], [0, 0, -4], [1]),                # not primitive, coprime
    ([Fraction(1, 4), Fraction(-1), Fraction(1)], [Fraction(-1, 3), Fraction(2, 3)],
     [-1, 2]),                                    # (x - 1/2)^2, (2x - 1) / 3
])
def test_gcd_conventions(p, q, g):
    assert cold_and_warm(gcd_univariate, p, q) == g
    assert cold_and_warm(gcd_univariate, q, p) == g
    assert g == sympy_gcd(p, q)


@st.composite
def factored_pairs(draw):
    """Two products of powers of shared integer factors, as coefficient
    lists: exponents up to 4, each product of degree at most 16, and factor
    coefficients up to 2^60.  The first product repeats every factor it
    takes, so the squarefree part divides by a nontrivial gcd."""
    factor = st.dictionaries(st.tuples(st.integers(0, 3)),
                             st.integers(-2**60, 2**60), min_size=1).map(
        lambda terms: Polynomial(("x",), terms)).filter(
        lambda f: not f.is_zero())
    factors = draw(st.lists(factor, min_size=1, max_size=5))
    products = []
    for low in (2, 0):
        f = Polynomial.constant(draw(st.integers(-6, 6).filter(bool)), ("x",))
        for g in factors:
            for _ in range(draw(st.integers(low, 4))):
                if f.degree_in("x") + g.degree_in("x") <= 16:
                    f = f * g
        products.append([c.constant_value() for c in f.coeffs_in_last()])
    return products


@settings(max_examples=60, deadline=None)
@given(factored_pairs())
def test_native_kernel_matches_sympy_on_repeated_factors(case):
    p, q = case
    assert cold_and_warm(squarefree_univariate, p) == sympy_sqf(p)
    assert cold_and_warm(squarefree_univariate, q) == sympy_sqf(q)
    assert cold_and_warm(gcd_univariate, p, q) == sympy_gcd(p, q)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.sampled_from([Fraction(c) for c in (-2, -1, Fraction(-1, 2),
                                           Fraction(1, 2), 1, 2)]),
    max_size=6).map(lambda terms: Polynomial(("x", "y"), terms))


@settings(max_examples=100, deadline=None)
@given(st.lists(small_polys, min_size=1, max_size=5))
def test_sums_equal_the_checking_constructor(polys):
    # few monomials and coefficients, so terms often cancel
    total = polys[0]
    for p in polys[1:]:
        merged = {e: total.terms.get(e, 0) + p.terms.get(e, 0)
                  for e in {**total.terms, **p.terms}}
        expected = Polynomial(total.variables, merged)
        total = total + p
        assert total == expected
        assert all(type(c) is Fraction and c for c in total.terms.values())
    assert total + 0 == total and (total + 1) - 1 == total
    for p in polys:
        assert (p - p).terms == {}


def test_callers_cannot_change_memoised_answers():
    p = parse_poly("x^2*y - y^3 + x", ("x", "y"))
    q = parse_poly("x*y^2 - 2*x + 1", ("x", "y"))
    for fn, args in [(factor, (p * q,)), (discriminant, (p, "y")),
                     (resultant, (p, q, "y"))]:
        first = fn(*args)
        before = copy.deepcopy(first)
        for f in first if isinstance(first, list) else [first]:
            f.terms[(7, 7)] = Fraction(1)
            f.terms.pop(next(iter(f.terms)))
        assert fn(*args) == before

    coeffs = [Fraction(c) for c in (2, -1, -2, 1)]  # (x - 1)(x + 1)(x - 2)
    for fn, args in [(squarefree_univariate, (coeffs,)),
                     (gcd_univariate, (coeffs, [Fraction(-1), Fraction(1)]))]:
        first = fn(*args)
        before = copy.deepcopy(first)
        first[0] += 1
        first.append(Fraction(3))
        assert fn(*args) == before


def test_memo_holds_at_most_its_size():
    size = poly._MEMO_SIZE
    assert poly._memo.cache_info().maxsize == size
    for k in range(size + 50):
        squarefree_univariate([Fraction(k), Fraction(1)])
    info = poly._memo.cache_info()
    assert info.misses == size + 50
    assert info.currsize == size


def ints_only(node):
    """Whether a nested tuple holds nothing but plain ints."""
    if isinstance(node, tuple):
        return all(ints_only(x) for x in node)
    return type(node) is int


def test_memo_keys_and_answers_are_plain_ints(monkeypatch):
    calls = []
    compute = poly._memo.__wrapped__

    def recording(kernel, *keys):
        answer = compute(kernel, *keys)
        calls.append((kernel.__name__, keys, answer))
        return answer

    monkeypatch.setattr(poly, "_memo", recording)
    p = parse_poly("x^2*y - y^3 + 1/2*x", ("x", "y"))
    q = parse_poly("x*y^2 - 2/3*x + 1", ("x", "y"))
    coeffs = [Fraction(c, 3) for c in (2, -1, -2, 1)]
    factor(p * q)
    discriminant(p, "y")
    resultant(p, q, "y")
    squarefree_univariate(coeffs)
    gcd_univariate(coeffs, [Fraction(-1, 2), Fraction(1)])
    assert [name for name, _, _ in calls] == [
        "_factor", "_discriminant", "_resultant", "_sqf_dup", "_gcd_dup"]
    for name, keys, answer in calls:
        assert ints_only(keys) and ints_only(answer), name
