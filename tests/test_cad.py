"""Cylindrical decompositions: cell counts, sign invariance, membership,
point location, quantifier decisions."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from sharpcells import poly
from sharpcells.cad import (
    CADError,
    CeilingError,
    _decide_closed,
    _test_points,
    build_stack,
    cad,
    cell_formula,
    compatible_decomposition,
    decide,
    decomposition_report,
    locate,
    poly_sign_at,
    sample_in_cell,
)
from sharpcells.choice import choice_1d, region_formulas
from sharpcells.formula import And, Atom, Exists, NamedAtom, Or, instantiate
from sharpcells.parser import parse_formula, parse_poly
from sharpcells.poly import Polynomial
from sharpcells.realalg import QQ, Num, isolate_roots, pdeg
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
    base = decomp.layers()[0]
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
    decomp = compatible_decomposition([X])
    inside = [c for c in decomp.cells if c.memberships[0]]
    assert len(inside) == 1 and inside[0].dim == 3
    rep = decomposition_report(decomp)
    assert rep["cells"] == len(decomp.cells)


def test_ceiling_enforced():
    with pytest.raises(CeilingError):
        compatible_decomposition(
            [parse_formula("w^2 + x^2 + y^2 + z^2 - 1 < 0")])
    with pytest.raises(CADError):
        decide(parse_formula("x > 0"), {})


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


# ---------------------------------------------------------------------------
# the sign evaluator against term-by-term Num arithmetic
# ---------------------------------------------------------------------------


def reference_sign(poly, coords):
    """The sign of poly at coords by term-by-term Num arithmetic: one
    multiplication per unit of exponent, as the library once evaluated."""
    total = 0
    for expo, coeff in poly.terms.items():
        term = coeff
        for v, e in zip(coords, expo):
            for _ in range(e):
                term = term * v
        total = total + term
    if isinstance(total, (int, Fraction)):
        return (total > 0) - (total < 0)
    return total.sign()


def cell_points(X, variables, seed):
    """The cell samples of a decomposition compatible with X, sections
    included, and one random point of each cell."""
    decomp = compatible_decomposition([X], variables)
    rng = random.Random(seed)
    points = []
    for cell in decomp.cells:
        points.append(cell.coords)
        points.extend(sample_in_cell(decomp, cell, rng, count=1))
    return decomp, points


def assert_signs_match_reference(X, variables, extra, seed):
    decomp, points = cell_points(X, variables, seed)
    polys = [a.poly.extend(variables) for a in X.atoms()] + list(extra)
    for pt in points:
        for p in polys:
            assert poly_sign_at(p, pt) == reference_sign(p, pt)
    return decomp, points


def random_polys(variables, top):
    term = st.tuples(*[st.integers(0, top)] * len(variables))
    coeff = st.fractions(min_value=-4, max_value=4,
                         max_denominator=3).filter(bool)
    return st.lists(st.dictionaries(term, coeff, max_size=4).map(
        lambda terms: Polynomial(variables, terms)), max_size=3)


@settings(max_examples=10, deadline=None)
@given(sign_conditions(("x",), 3), random_polys(("x",), 3),
       st.integers(0, 2**16))
def test_line_signs_match_reference(X, extra, seed):
    assert_signs_match_reference(X, ("x",), extra, seed)


@settings(max_examples=15, deadline=None)
@given(sign_conditions(("x", "y"), 2), random_polys(("x", "y"), 2),
       st.integers(0, 2**16))
def test_plane_signs_match_reference(X, extra, seed):
    assert_signs_match_reference(X, ("x", "y"), extra, seed)


@settings(max_examples=5, deadline=None)
@given(sign_conditions(("x", "y", "z"), 1), random_polys(("x", "y", "z"), 2),
       st.integers(0, 2**16))
def test_space_signs_match_reference(X, extra, seed):
    assert_signs_match_reference(X, ("x", "y", "z"), extra, seed)


def test_signs_match_reference_at_deep_and_mixed_points():
    # x = +-sqrt2 and y = +-2^(1/4) there: depth-2 samples, section
    # samples where y^2 - x vanishes, and points mixing a rational x with
    # an algebraic y or an algebraic x with a rational y
    X = parse_formula("(x^2 - 2 = 0) or (y^2 - x = 0)")
    extra = [parse_poly(t, ("x", "y")) for t in
             ("x^3*y - 2*y^2 + 1/3", "x*y^2 - 2*x", "y^4 - 2")]
    decomp, points = assert_signs_match_reference(X, ("x", "y"), extra, 5)
    depths = {pt[-1].field.depth() for pt in points}
    assert depths == {0, 1, 2}
    kinds = {tuple(c.as_fraction() is None for c in pt) for pt in points}
    assert {(False, True), (True, False), (True, True)} <= kinds
    on_curve = [pt for pt in points if pt[-1].field.depth() == 2]
    assert {poly_sign_at(extra[2], pt) for pt in on_curve} == {0}


# ---------------------------------------------------------------------------
# the quantifier-block memo
# ---------------------------------------------------------------------------


def test_block_memo_answers_do_not_depend_on_key_order():
    psi = parse_formula("exists t. ((t^2 - x*t + y = 0) and (t - l > 0))")
    rng = random.Random(3)
    for _ in range(12):
        values = {v: Fraction(rng.randrange(-12, 13), 4) for v in "xyl"}
        answers = {decide(psi, {v: values[v] for v in order})
                   for order in ("xyl", "lyx", "ylx")}
        assert len(answers) == 1
    # the discriminant says when the quadratic has a real root
    disc = parse_formula("exists t. (t^2 - x*t + y = 0)")
    for x in range(-3, 4):
        for y in range(-3, 4):
            want = x * x - 4 * y >= 0
            assert decide(disc, {"x": Fraction(x), "y": Fraction(y)}) == want
            assert decide(disc, {"y": Fraction(y), "x": Fraction(x)}) == want


def test_block_memo_keeps_the_ceiling_check():
    psi = parse_formula("exists t. exists s. (t^2 + s^2 - x < 0)")
    assert decide(psi, {"x": Fraction(1)})
    assert decide(psi, {"x": Fraction(1)})  # a memo hit
    with pytest.raises(CeilingError):
        decide(psi, {"x": Fraction(1)}, ceiling=1)


def test_block_memo_keeps_the_body_errors():
    named = Exists("t", And([Atom(parse_poly("t - x", ("t", "x")), ">"),
                             NamedAtom("S", ["t"])]))
    plain = parse_formula("exists t. (t - x > 0)")
    assert decide(plain, {"x": Fraction(0)})
    for _ in range(2):  # errors are not remembered as answers
        with pytest.raises(CADError, match="resolve named atoms"):
            decide(named, {"x": Fraction(0)})
    psi = parse_formula("exists t. (t^2 - x*t + y < 0)")
    assert decide(psi, {"x": Fraction(3), "y": Fraction(1)})
    for _ in range(2):
        with pytest.raises(CADError, match="stray variables"):
            list(_test_points(psi, {"x": Fraction(3)}, 3))


# ---------------------------------------------------------------------------
# the memo of outer quantifiers at rational points
# ---------------------------------------------------------------------------


def memo_lookups():
    info = _decide_closed.cache_info()
    return info.hits, info.misses


def test_renamed_copy_is_decided_once():
    # the roots of t^2 - 5/2 t + 1 are 2 and 1/2
    psi = parse_formula("exists t. ((t^2 - x*t + y = 0) and (t - 1 > 0))")
    assert decide(psi, {"x": Fraction(5, 2), "y": Fraction(1)})
    copy = instantiate(psi, {"x": "u", "y": "v"}, "_r")
    assert copy.var != psi.var and copy.free_vars() == ("u", "v")
    hits, misses = memo_lookups()
    assert decide(copy, {"u": Fraction(5, 2), "v": Fraction(1)})
    assert memo_lookups() == (hits + 1, misses)
    # another point is another key
    assert not decide(copy, {"u": Fraction(5, 2), "v": Fraction(3)})
    assert memo_lookups() == (hits + 1, misses + 1)


def test_memo_keeps_the_ceiling_check():
    psi = parse_formula("exists t. exists s. (t^2 + s^2 - x < 0)")
    assert decide(psi, {"x": Fraction(1)}, ceiling=6)
    copy = instantiate(psi, ["w"], "_r")
    with pytest.raises(CeilingError):
        decide(copy, {"w": Fraction(1)}, ceiling=1)
    assert decide(copy, {"w": Fraction(1)}, ceiling=6)


def test_memo_skips_irrational_points():
    a, _ = sqrt2_pair()
    psi = parse_formula("exists t. (t^2 - x*t + y = 0)")
    lookups = memo_lookups()
    # the discriminant x^2 - 4y is 2 - 4 < 0 and 2 - 1 > 0
    assert not decide(psi, {"x": a, "y": Fraction(1)})
    assert decide(psi, {"x": a, "y": Fraction(1, 4)})
    assert memo_lookups() == lookups


def test_region_d_reuses_the_other_regions():
    total = parse_formula("(x - l > 0) and (l + 1 - x > 0)")
    regions = region_formulas(total, "x")
    lam = Fraction(1, 2)
    _, (case,) = choice_1d(total, fiber_vars=["x"]).evaluate([lam])
    truth = {k: decide(regions[k], {"l": lam}, ceiling=6) for k in "ABC"}
    hits, _ = memo_lookups()
    truth["D"] = decide(regions["D"], {"l": lam}, ceiling=6)
    assert memo_lookups()[0] > hits
    assert truth == {k: k == case for k in "ABCD"}


# ---------------------------------------------------------------------------
# points from unrelated field towers
# ---------------------------------------------------------------------------


def sqrt2_pair():
    """sqrt2 and -sqrt2, each the generator of its own field."""
    minus, plus = isolate_roots(QQ, [Fraction(-2), Fraction(0), Fraction(1)])
    a = Num(plus.as_extension(), plus.as_extension().gen)
    b = Num(minus.as_extension(), minus.as_extension().gen)
    assert a.field is not b.field
    return a, b


def test_decide_joins_unrelated_towers():
    a, b = sqrt2_pair()
    point = {"x": a, "y": b}
    assert decide(parse_formula("x + y = 0"), point)
    assert not decide(parse_formula("x - y = 0"), point)
    assert decide(parse_formula("x - y > 0"), point)
    assert decide(parse_formula("exists z. (z - x - y = 0)"), point)
    assert not decide(parse_formula("exists z. (z^2 + x*y = 0 and z > 0)"),
                      {"x": a, "y": a})
    assert decide(parse_formula("exists z. (z^2 + x*y = 0 and z > 0)"),
                  point)


def test_locate_joins_unrelated_towers():
    a, b = sqrt2_pair()
    decomp = compatible_decomposition([parse_formula("x + y = 0")])
    path = locate(decomp, [a, b])
    cell = decomp.cell_at(path)
    assert cell.dim == 1 and cell.memberships[0]
    # off the line, (sqrt2, sqrt2) lies in the sector above it
    above = decomp.cell_at(locate(decomp, [a, a]))
    assert above.dim == 2 and not above.memberships[0]


# ---------------------------------------------------------------------------
# lifting: rational roots stay exact, other roots get irreducible fields
# ---------------------------------------------------------------------------


def field_degree(value):
    return pdeg(value.field.root.sqf)


def test_rational_root_beside_a_cube_root_is_exact():
    decomp = compatible_decomposition(
        [parse_formula("(3*x - 1)*(x^3 - 2) = 0")])
    third, cube_root = decomp.stacks[()].sections
    assert third.handle.is_rational() and third.handle.exact == Fraction(1, 3)
    cell = decomp.cell_at((1,))
    assert cell.coords[0].as_fraction() == Fraction(1, 3)
    psi, fd = cell_formula(decomp, cell)
    assert isinstance(psi, Atom) and fd.as_tuple() == (1, 1)
    assert field_degree(cube_root.value) == 3


def test_plane_stacks_keep_rational_roots_exact():
    decomp = compatible_decomposition(
        [parse_formula("(x - y^3 + 2)*(3*y - 1) = 0")], ("x", "y"))
    roots_over = {}
    for base in decomp.base.cells:
        x = base.coords[0].as_fraction()
        assert x is not None  # the base has rational roots_over only
        sections = decomp.stacks[base.index_path].sections
        values = [sec.value for sec in sections]
        roots_over[x] = values
        (third,) = [sec for sec, v in zip(sections, values)
                    if v.as_fraction() == Fraction(1, 3)]
        assert third.handle.is_rational()
        for v in values:
            assert v.as_fraction() is not None or field_degree(v) == 3
    # over x = -3 the cubic is -(y + 1)*(y^2 - y + 1): its real root -1
    # comes back rational, found by the lattice test on a degree-3 handle
    assert [v.as_fraction() for v in roots_over[Fraction(-3)]] == \
        [Fraction(-1), Fraction(1, 3)]
    assert sum(v.as_fraction() is None for vs in roots_over.values()
               for v in vs) >= 2


def test_lifting_over_rational_points_never_factors(monkeypatch):
    calls = []
    compute = poly._memo.__wrapped__

    def recording(kernel, *keys):
        calls.append(kernel.__name__)
        return compute(kernel, *keys)

    monkeypatch.setattr(poly, "_memo", recording)
    # (3*y - 1)*(y^2 - x) is reducible on purpose: its squarefree handles
    # hold a rational and an irrational root
    basis = [parse_poly(t, ("x", "y")) for t in (
        "y^3 - x", "x*y^2 - 2", "3*y^3 - y^2 - 3*x*y + x", "y^2 + x*y - 3")]
    values = {}
    for x in (Fraction(-3), Fraction(1, 27), Fraction(2), Fraction(18)):
        stack = build_stack(QQ, [x], basis)
        values[x] = [sec.value for sec in stack.sections]
    assert set(calls) == {"_sqf_dup", "_gcd_dup"}
    rationals = {x: {v.as_fraction() for v in vs} for x, vs in values.items()}
    assert {Fraction(-1, 3), Fraction(1, 3)} <= rationals[Fraction(18)]
    assert Fraction(1, 3) in rationals[Fraction(1, 27)]
    assert any(v.field is not QQ and field_degree(v) == 3
               for v in values[Fraction(2)])


@st.composite
def distinct_factors(draw):
    """One to three distinct monic factors over QQ, as coefficient lists:
    linear ones with non-dyadic rational roots whose denominators reach
    1000, so that the lattice Z/lead of the product's rational roots is
    fine, and quadratics and cubics that sympy calls irreducible."""
    x = sp.Symbol("x")
    root = st.fractions(-4, 4, max_denominator=1000).filter(
        lambda r: r.denominator & (r.denominator - 1))
    linear = root.map(lambda r: (-r, Fraction(1)))
    coeff = st.integers(-4, 4).map(Fraction)
    higher = st.integers(2, 3).flatmap(
        lambda d: st.tuples(*[coeff] * d)).map(
        lambda low: low + (Fraction(1),)).filter(
        lambda c: sp.Poly(to_sympy(c, x), x, domain="QQ").is_irreducible)
    return draw(st.lists(st.one_of(linear, higher), min_size=1, max_size=3,
                         unique=True))


def to_sympy(coeffs, x):
    return sum(sp.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(coeffs))


def assert_sections_match_sympy(sections, expr, x):
    roots = sp.Poly(expr, x).real_roots()
    assert len(sections) == len(roots)
    for sec, root in zip(sections, roots):
        value = sec.value
        if root.is_rational:
            assert sec.handle.is_rational()
            assert sp.Rational(value.as_fraction()) == root
            continue
        assert not sec.handle.is_rational()
        assert sp.Rational(sec.handle.lo) < root < sp.Rational(sec.handle.hi)
        # the field's modulus is squarefree, a multiple of the root's
        # minimal polynomial, and has one root in the generator's interval
        field = value.field
        gen = field.root
        defining = sp.Poly(to_sympy(gen.sqf, x), x, domain="QQ")
        minimal = sp.Poly(sp.minimal_polynomial(root, x), x, domain="QQ")
        cofactor, rem = sp.div(defining, minimal)
        assert defining.is_sqf and rem.is_zero
        assert sp.Rational(gen.lo) < root < sp.Rational(gen.hi)
        assert defining.count_roots(gen.lo, gen.hi) == 1
        # so the field's zero test reads the minimal polynomial at the
        # generator as 0 and its cofactor as nonzero
        assert not field.raw_is_zero(payload(cofactor))
        assert field.raw_is_zero(payload(minimal))


def payload(q):
    """A sympy Poly as a field element: its coefficients from degree 0."""
    return tuple(Fraction(int(c.p), int(c.q))
                 for c in reversed(q.all_coeffs()))


@settings(max_examples=30, deadline=None)
@given(distinct_factors())
def test_sections_are_rational_exactly_at_rational_roots(factors):
    x = sp.Symbol("x")
    expr = sp.expand(sp.Mul(*[to_sympy(f, x) for f in factors]))
    product = Polynomial.constant(1, ("x",))
    for f in factors:
        product = product * Polynomial(
            ("x",), {(i,): c for i, c in enumerate(f) if c})
    decomp = compatible_decomposition([Atom(product, "=")])
    assert_sections_match_sympy(decomp.stacks[()].sections, expr, x)
    # the product unfactored: its sections are re-examined when read
    stack = build_stack(QQ, [], [product])
    assert_sections_match_sympy(stack.sections, expr, x)
