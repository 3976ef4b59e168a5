"""Exact real algebraic arithmetic: Sturm counts, root isolation, towers."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import sharpcells.realalg as realalg
from sharpcells.cad import compatible_decomposition, sample_in_cell
from sharpcells.parser import parse_formula
from sharpcells.poly import gcd_univariate
from sharpcells.realalg import (
    Num,
    QQ,
    RealAlgebraError,
    RootHandle,
    compare_roots,
    count_roots,
    isolate_roots,
    num_in,
    num_join,
    pdivmod,
    peval_frac,
    pgcd,
    rational_between,
    root_bound,
    sort_roots,
    squarefree,
    sturm_chain,
)


def upoly(coeffs):
    return [Fraction(c) for c in coeffs]


def test_sturm_count_matches_sympy():
    rng = random.Random(3)
    x = sp.Symbol("x")
    for _ in range(20):
        coeffs = [rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))]
        if all(c == 0 for c in coeffs):
            continue
        p = squarefree(QQ, upoly(coeffs))
        if len(p) < 2:
            continue
        expr = sum(sp.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(p))
        expected = len(sp.Poly(expr, x).real_roots())
        chain = sturm_chain(QQ, p)
        b = root_bound(QQ, p) + 1
        assert count_roots(QQ, chain, -b, b) == expected


def test_isolate_roots_exact_positions():
    # (x-1)(x-2)(x-3)(x-4)
    p = upoly([24, -50, 35, -10, 1])
    hs = isolate_roots(QQ, p)
    assert len(hs) == 4
    for h, want in zip(hs, [1, 2, 3, 4]):
        h.refine_below(Fraction(1, 100))
        assert h.lo <= want <= h.hi


def test_rational_roots_isolated():
    p = upoly([-1, 0, 4])  # 4x^2 - 1
    hs = isolate_roots(QQ, p)
    for h, want in zip(hs, [Fraction(-1, 2), Fraction(1, 2)]):
        h.refine_below(Fraction(1, 10**6))
        assert h.lo <= want <= h.hi


def test_rational_midpoint_does_not_hide_neighbors():
    # 0 shows up as a bisection midpoint; +-1 must still be found
    hs = isolate_roots(QQ, upoly([0, 1, 0, -1]))  # x - x^3
    assert len(hs) == 3
    for h, want in zip(hs, [-1, 0, 1]):
        h.refine_below(Fraction(1, 100))
        assert h.lo <= want <= h.hi
    # same shape one degree up: roots 0, +-1, +-2
    hs = isolate_roots(QQ, upoly([0, 4, 0, -5, 0, 1]))
    assert len(hs) == 5


def test_compare_and_separate_close_roots():
    # sqrt(2) and a 26-digit rational approximation of it
    a = Fraction(14142135623730950488016887, 10**25)
    r1 = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    (r2,) = isolate_roots(QQ, upoly([-a, 1]))
    assert compare_roots(r1, r2) == 1
    q = rational_between(r2, r1)
    assert a < q and q * q < 2


def test_sort_roots_merges_duplicates():
    a = isolate_roots(QQ, upoly([-2, 0, 1]))        # +-sqrt(2)
    b = isolate_roots(QQ, upoly([-4, 0, 0, 0, 1]))  # +-sqrt(2) again
    groups = sort_roots(a + b)
    assert len(groups) == 2
    assert all(len(g) == 2 for g in groups)


def test_extension_field_arithmetic():
    r = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    K = r.as_extension()
    sqrt2 = Num(K, K.gen)
    assert (sqrt2 * sqrt2).as_fraction() == 2
    assert ((sqrt2 + 1) * (sqrt2 - 1)).as_fraction() == 1
    assert sqrt2.sign() == 1 and (-sqrt2).sign() == -1
    lo, hi = sqrt2.approx(50)
    assert lo * lo < 2 < hi * hi
    third = num_in(K, Fraction(1, 3))
    assert (sqrt2 * third * 3 - sqrt2).is_zero()


def test_division_by_a_longer_polynomial_inverts_nothing(monkeypatch):
    r = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    K = r.as_extension()
    calls = []
    monkeypatch.setattr(K, "inv", lambda a: calls.append(a))
    p = [K.gen, K.one]                      # x + sqrt2
    q = [K.one, K.zero, K.gen]              # sqrt2 x^2 + 1
    assert pdivmod(K, p, q) == ([], p)
    assert pdivmod(K, p + [K.zero], q) == ([], p)
    assert calls == []


def test_tower_of_extensions():
    r2 = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    K = r2.as_extension()
    # x^2 - 3 over K: coefficients [-3, 0, 1] as K payloads
    p3 = [num_in(K, -3).data, K.zero, K.one]
    r3 = isolate_roots(K, p3)[-1]
    L = r3.as_extension()
    sqrt2 = num_in(L, Num(K, K.gen))
    sqrt3 = Num(L, L.gen)
    prod = sqrt2 * sqrt3
    assert (prod * prod).as_fraction() == 6
    assert prod.as_fraction() is None
    assert (sqrt3 - sqrt2).sign() == 1


def test_incomparable_towers_rejected():
    r2 = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    r3 = isolate_roots(QQ, upoly([-3, 0, 1]))[-1]
    K2, K3 = r2.as_extension(), r3.as_extension()
    with pytest.raises((RealAlgebraError, TypeError)):
        _ = Num(K2, K2.gen) + Num(K3, K3.gen)


def test_root_bound_refines_leading_coefficient_near_zero():
    K = isolate_roots(QQ, upoly([-2, 0, 1]))[-1].as_extension()
    # sqrt(2) - 1414213/10^6 lies in (5.6e-7, 5.7e-7); at the first
    # precision its enclosing interval still contains 0
    lead = (Fraction(-1414213, 1000000), Fraction(1))
    lo, hi = K.approx(lead, 8)
    assert lo < 0 < hi
    p = [K.from_int(-1), lead]  # the root 1/lead exceeds 1/(5.7e-7)
    assert root_bound(K, p) > Fraction(10**7, 57)


def test_root_bound_raises_when_lead_never_separates_from_zero():
    class Unresolvable:
        """A field whose approximations never exclude 0."""
        zero = Fraction(0)

        def raw_is_zero(self, a):
            return False

        def approx(self, a, prec):
            return (-Fraction(1, 2**prec), Fraction(1, 2**prec))

    with pytest.raises(RealAlgebraError):
        root_bound(Unresolvable(), [Fraction(1), Fraction(1)])


def test_vanishes_and_sign_of():
    r = isolate_roots(QQ, upoly([-2, 0, 1]))[-1]
    assert r.vanishes(upoly([-2, 0, 1]))
    assert not r.vanishes(upoly([-1, 1]))
    assert r.sign_of(upoly([-1, 1])) == 1     # sqrt2 - 1 > 0
    assert r.sign_of(upoly([2, -1])) == 1     # 2 - sqrt2 > 0
    assert r.sign_of(upoly([-3, 1])) == -1


def test_roots_over_an_extension_merge_and_order():
    K = isolate_roots(QQ, upoly([-3, 0, 1]))[-1].as_extension()  # QQ(sqrt3)
    y2 = [K.from_int(-2), K.zero, K.one]                  # y^2 - 2
    y4 = [K.from_int(-4), K.zero, K.zero, K.zero, K.one]  # y^4 - 4
    groups = sort_roots(isolate_roots(K, y2) + isolate_roots(K, y4))
    assert len(groups) == 2
    assert all(len(g) == 2 for g in groups)
    (sqrt3,) = isolate_roots(K, [K.neg(K.gen), K.one])    # y - sqrt3
    assert compare_roots(groups[1][0], sqrt3) == -1
    assert compare_roots(sqrt3, groups[1][1]) == 1


def test_extension_shrinks_its_own_copy_of_the_root():
    hs = isolate_roots(QQ, upoly([6, 0, -5, 0, 1]))  # (x^2 - 2)(x^2 - 3)
    r = hs[2]                                          # sqrt2
    lo, hi = r.lo, r.hi
    K = r.as_extension()
    gen = Num(K, K.gen)
    assert (gen * gen - 2).is_zero()
    assert len(K.root.sqf) == 3                        # x^2 - 2
    assert Num(K, K.inv((gen - 1).data)) * (gen - 1) == 1
    K.approx(K.gen, 200)
    assert K.root.hi - K.root.lo <= Fraction(1, 2**200)
    assert (r.lo, r.hi) == (lo, hi)
    assert len(r.sqf) == 5


def test_num_join_of_two_fields():
    minus, plus = isolate_roots(QQ, upoly([-2, 0, 1]))
    a = Num(plus.as_extension(), plus.as_extension().gen)     # sqrt2
    b = Num(minus.as_extension(), minus.as_extension().gen)   # -sqrt2
    with pytest.raises(RealAlgebraError):
        num_in(b.field, a)
    a2, b2 = num_join(a, b)
    # a conjugate is found in the other field, which is not extended
    assert a2.field is b.field and b2.field is b.field
    assert (a2 + b2).as_fraction() == 0
    assert (a2 - b2).sign() == 1
    (cbrt,) = isolate_roots(QQ, upoly([-2, 0, 0, 1]))
    c = Num(cbrt.as_extension(), cbrt.as_extension().gen)     # 2^(1/3)
    c2, a3 = num_join(c, a)
    # the generator of 2^(1/3) is adjoined on top of QQ(sqrt2)
    assert c2.field.base is a.field and a3.field is c2.field
    s = c2 + a3
    assert ((s - a3) * (s - a3) * (s - a3)).as_fraction() == 2
    assert 2.67 < float(s) < 2.68
    r = Num.rational(Fraction(1, 3))
    assert [n.field for n in num_join(r, a)] == [a.field, a.field]
    assert [n.field for n in num_join(a, r)] == [a.field, a.field]


@st.composite
def integer_factors(draw):
    """One to three integer linear or quadratic factors, leading
    coefficient nonzero, as coefficient lists (index = degree)."""
    coeff = st.integers(-4, 4)
    out = []
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 2))
        lead = draw(coeff.filter(lambda c: c != 0))
        out.append([Fraction(draw(coeff)) for _ in range(deg)]
                   + [Fraction(lead)])
    return out


@settings(max_examples=60, deadline=None)
@given(integer_factors())
def test_sort_roots_matches_sympy_real_roots(factors):
    x = sp.Symbol("x")
    product = sp.Integer(1)
    handles = []
    for f in factors:
        product *= sum(int(c) * x**i for i, c in enumerate(f))
        handles += isolate_roots(QQ, f)
    groups = sort_roots(handles)
    roots = sp.Poly(product, x).sqf_part().real_roots()
    assert len(groups) == len(roots)
    for group, root in zip(groups, roots):
        for h in group:
            assert sp.Rational(h.lo) <= root <= sp.Rational(h.hi)


@st.composite
def clustered_products(draw):
    """Products of integer linear and quadratic factors, some repeated:
    dyadic and other rational roots, roots at 0, negative roots, pairs of
    roots 2^-k or 1/m apart, and irreducible quadratics."""
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["rational", "dyadic", "zero", "pair",
                                     "quadratic"]))
        if kind == "rational":
            r = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 7)))
            new = [[-r, Fraction(1)]]
        elif kind == "dyadic":
            r = Fraction(draw(st.integers(-15, 15)),
                         2 ** draw(st.integers(0, 4)))
            new = [[-r, Fraction(1)]]
        elif kind == "zero":
            new = [[Fraction(0), Fraction(1)]]
        elif kind == "pair":
            r = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 3)))
            gap = draw(st.sampled_from([Fraction(1, 2**20), Fraction(1, 1000),
                                        Fraction(1, 3**9)]))
            new = [[-r, Fraction(1)], [-r - gap, Fraction(1)]]
        else:
            new = [[Fraction(draw(st.integers(-6, 6))),
                    Fraction(draw(st.integers(-6, 6))),
                    Fraction(draw(st.integers(1, 4)))]]
        if draw(st.integers(0, 4)) == 0:
            new = new * 2
        factors += new
    return factors


def _product(factors):
    out = [Fraction(1)]
    for f in factors:
        out = realalg.pmul(QQ, out, f)
    return out


@settings(max_examples=80, deadline=None)
@given(clustered_products())
def test_integer_isolation_matches_sympy_and_sturm(factors):
    p = _product(factors)
    handles = isolate_roots(QQ, p)
    x = sp.Symbol("x")
    expr = sum(sp.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(p))
    roots = sp.Poly(expr, x).real_roots()
    roots = [r for i, r in enumerate(roots) if i == 0 or r != roots[i - 1]]
    assert len(handles) == len(roots)
    sqf = squarefree(QQ, p)
    chain = sturm_chain(QQ, sqf)
    for h, root in zip(handles, roots):
        if h.is_rational():
            assert sp.Rational(h.exact) == root
            continue
        assert sp.Rational(h.lo) < root < sp.Rational(h.hi)
        assert peval_frac(QQ, sqf, h.lo) != 0
        assert peval_frac(QQ, sqf, h.hi) != 0
        assert count_roots(QQ, chain, h.lo, h.hi) == 1
    for h1, h2 in zip(handles, handles[1:]):
        assert h1.hi <= h2.lo


def _sturm_vanishes(field, handle, q):
    """The zero test by a Sturm count of gcd(sqf, q) in the interval."""
    g = pgcd(field, handle.sqf, q)
    return len(g) >= 2 and count_roots(
        field, sturm_chain(field, g), handle.lo, handle.hi) > 0


def _sturm_equal(field, h1, h2):
    """Equality by a Sturm count of the gcd in both intervals; a rational
    root x counts as the root of y - x in (x - 1, x + 1)."""
    def parts(h):
        if h.is_rational():
            x = h.exact
            return [field.from_fraction(-x), field.one], x - 1, x + 1
        return h.sqf, h.lo, h.hi

    (p1, lo1, hi1), (p2, lo2, hi2) = parts(h1), parts(h2)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    g = pgcd(field, p1, p2)
    return lo < hi and len(g) >= 2 and count_roots(
        field, sturm_chain(field, g), lo, hi) > 0


def _zero_test_cases(over_sqrt3):
    """(field, root handles, test polynomials) over QQ or QQ(sqrt3)."""
    if not over_sqrt3:
        F = QQ
        y = [Fraction(0), Fraction(1)]
        const = Fraction
        gen = None
    else:
        F = isolate_roots(QQ, upoly([-3, 0, 1]))[-1].as_extension()
        y = [F.zero, F.one]
        const = F.from_int
        gen = F.gen

    def poly(*cs):
        return realalg.ptrim(F, [const(c) if isinstance(c, int) else c
                                 for c in cs])

    # (y^2 - 2)(y^2 - 3)(y - 1/2), y^4 - 4 = (y^2 - 2)(y^2 + 2), and
    # (y^2 - 2)(3y - 1), whose root 1/3 bisection never meets exactly
    half = F.from_fraction(Fraction(-1, 2))
    base = realalg.pmul(F, poly(6, 0, -5, 0, 1), [half, F.one])
    handles = (isolate_roots(F, base) + isolate_roots(F, poly(-4, 0, 0, 0, 1))
               + isolate_roots(F, realalg.pmul(F, poly(-2, 0, 1),
                                                poly(-1, 3))))
    qs = [poly(-2, 0, 1), poly(-3, 0, 1), poly(-1, 1), poly(5),
          realalg.pmul(F, poly(-2, 0, 1), poly(5, 1)), poly(-1, 2),
          poly(-4, 0, 0, 0, 1), y, poly(-1, 3), poly(-7, 5)]
    if gen is not None:
        qs += [[F.neg(gen), F.one], [gen, F.one],
               realalg.pmul(F, [F.neg(gen), F.one], poly(-1, 1))]
    return F, handles, qs


@st.composite
def products_and_lines(draw):
    """clustered_products with a linear q: a multiple of the factor of one
    of their rational roots, or of x - r for a random rational r."""
    factors = draw(clustered_products())
    r = st.fractions(-10, 10, max_denominator=12)
    roots = [-f[0] / f[1] for f in factors if len(f) == 2]
    if roots:
        r = st.one_of(st.sampled_from(roots), r)
    r = draw(r)
    c = draw(st.fractions(-5, 5, max_denominator=6).filter(bool))
    return factors, [-c * r, c]


@settings(max_examples=80, deadline=None)
@given(products_and_lines())
def test_linear_zero_test_matches_the_gcd_path(case):
    factors, q = case
    for h in isolate_roots(QQ, _product(factors)):
        if h.is_rational():
            continue
        g = gcd_univariate(h.sqf, q)
        want = len(g) >= 2 and realalg._changes_sign(QQ, g, h.lo, h.hi)
        assert h.copy().vanishes(q) == want
        cut = h.copy()
        assert cut.vanishes(q, shrink=True) == want
        assert cut.sqf == (g if want else h.sqf)
        assert (cut.lo, cut.hi) == (h.lo, h.hi)


def _bisect_apart(r1, r2):
    """compare_roots on two distinct roots whose intervals overlap, without
    its probe: the loop bisects both until the intervals part."""
    while not (r1.hi < r2.lo or r2.hi < r1.lo):
        r1.refine()
        r2.refine()
    return -1 if r1.hi < r2.lo else 1


def _state(h):
    return h.lo, h.hi, h.exact


@pytest.mark.parametrize("p, q, lo, hi", [
    ([-2, 0, 1], [-1, -1, 1], 1, 2),              # sqrt2, golden ratio
    ([-1, -1, 1], [-2, 0, 1], 1, 2),
    ([-2, 0, 1], [-5, 0, 0, 1], 1, 2),            # sqrt2, 5^(1/3)
    ([2, -6, -1, 3], [-1, 0, 8], 0, 1),           # 1/3, sqrt(1/8)
    ([-2, 0, 1], [15, -10, -3, 2], 1, 2),         # 3/2 is met exactly
    # 3.5e-9 apart: they part only after the probe gives up
    ([-2, 0, 1], [-200000001, 0, 100000000], 1, 2),
])
def test_compare_roots_parts_distinct_roots_as_the_loop_does(p, q, lo, hi):
    def handles():
        return (RootHandle(QQ, squarefree(QQ, upoly(f)), Fraction(lo),
                           Fraction(hi)) for f in (p, q))
    r1, r2 = handles()
    ref1, ref2 = handles()
    want = _bisect_apart(ref1, ref2)
    assert compare_roots(r1, r2) == want
    assert (_state(r1), _state(r2)) == (_state(ref1), _state(ref2))


@pytest.mark.parametrize("p, a, q, b", [
    # sqrt2 in (1, 2), and in (5/4, 3/2) as a root of (x^2 - 2)(x^2 - 3)
    ([-2, 0, 1], (1, 2), [6, 0, -5, 0, 1], (Fraction(5, 4), Fraction(3, 2))),
    # 1/3, which no bisection lands on, as a root of two products
    ([2, -6, -1, 3], (0, 1), [3, -9, -1, 3], (Fraction(1, 4), Fraction(1, 2))),
    # 1/2, which the first bisection of either copy lands on
    ([2, -4, -1, 2], (0, 1), [3, -6, -1, 2], (Fraction(1, 4), Fraction(3, 4))),
])
def test_compare_roots_keeps_the_intervals_of_equal_roots(p, a, q, b):
    r1 = RootHandle(QQ, upoly(p), *map(Fraction, a))
    r2 = RootHandle(QQ, upoly(q), *map(Fraction, b))
    before = (_state(r1), _state(r2))
    assert compare_roots(r1, r2) == 0
    assert (_state(r1), _state(r2)) == before


@pytest.mark.parametrize("over_sqrt3", [False, True])
def test_sign_change_zero_test_agrees_with_sturm(over_sqrt3):
    F, handles, qs = _zero_test_cases(over_sqrt3)
    for h in handles:
        for q in qs:
            want = _sturm_vanishes(F, h, q)
            assert h.copy().vanishes(q) == want
            cut = h.copy()
            assert cut.vanishes(q, shrink=True) == want
            if want and not cut.is_rational():
                assert len(cut.sqf) == len(pgcd(F, h.sqf, q))
                assert count_roots(F, sturm_chain(F, cut.sqf),
                                   cut.lo, cut.hi) == 1
    rationals = [RootHandle.rational(F, Fraction(1, 2)),
                 RootHandle.rational(F, Fraction(3, 2))]
    for h1 in handles + rationals:
        for h2 in handles + rationals:
            want = _sturm_equal(F, h1, h2)
            assert (compare_roots(h1.copy(), h2.copy()) == 0) == want


def test_plane_cad_builds_no_sturm_chain_over_qq(monkeypatch):
    real_sturm_chain = sturm_chain
    fields = []

    def guarded(field, p):
        if field is QQ:
            raise AssertionError("Sturm chain over QQ")
        fields.append(field)
        return real_sturm_chain(field, p)

    monkeypatch.setattr(realalg, "sturm_chain", guarded)
    sets = [parse_formula("x^2 + y^2 - 2 < 0"),
            parse_formula("y^3 - x*y - 1 = 0")]
    decomp = compatible_decomposition(sets)
    rng = random.Random(5)
    for cell in decomp.cells:
        sample_in_cell(decomp, cell, rng, count=2)
    assert fields  # stacks over algebraic abscissae still use Sturm chains
