"""Sparse multivariate polynomials with exact rational coefficients.

Polynomials carry an explicit ordered variable tuple; the exponent tuples in
the term map always have the same length as the variable tuple.  The zero
polynomial has an empty term map and total degree 0 by convention.

This module is the library's only boundary to sympy, and sympy serves
only factoring, discriminants and resultants.  They run on sympy's dense
integer polynomials over ZZ; no sympy expression is ever built.  The
univariate squarefree part and gcd, which the lifting over rational points
needs, run on Python ints here.  All five kernel functions are memoised
together on integer keys that hold no variable names, so the same
polynomial under other names is factored once; the memo keeps the 1,024
most recently used answers.  sympy is imported only on a miss of factoring,
a discriminant or a resultant, inside those kernel functions, so work that
needs no projection (parsing, format/degree, structure trees, reduction
checks, stacks over rational points) never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class Polynomial:
    """An exact polynomial in an ordered list of variables.

    terms maps exponent tuples to nonzero Fraction coefficients.
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.variables):
                raise ValueError(
                    f"exponent tuple {expo} does not match variables {self.variables}"
                )
            coeff = Fraction(coeff)
            if coeff != 0:
                clean[expo] = clean.get(expo, Fraction(0)) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def _clean(cls, variables, terms):
        """A polynomial on terms that are already clean: int exponent tuples
        as long as the variable tuple, and nonzero Fraction coefficients.
        Unlike the constructor, this checks and copies nothing."""
        p = object.__new__(cls)
        p.variables = variables
        p.terms = terms
        return p

    @classmethod
    def constant(cls, c, variables):
        variables = tuple(variables)
        c = Fraction(c)
        if c == 0:
            return cls(variables)
        return cls(variables, {(0,) * len(variables): c})

    @classmethod
    def var(cls, name, variables):
        variables = tuple(variables)
        i = variables.index(name)
        expo = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {expo: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def total_degree(self):
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def degree_in(self, name):
        i = self.variables.index(name)
        if not self.terms:
            return 0
        return max(e[i] for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((0,) * len(self.variables), Fraction(0))

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.variables == other.variables
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.variables, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.variables != self.variables:
                raise ValueError("variable mismatch")
            return other
        return Polynomial.constant(other, self.variables)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            c += terms.get(e, 0)
            if c:
                terms[e] = c
            else:
                del terms[e]
        return Polynomial._clean(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._clean(self.variables,
                                 {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Polynomial._clean(self.variables,
                                 {e: c for e, c in terms.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(1, self.variables)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation and substitution ---------------------------------------

    def subs_var(self, name, value):
        """Substitute one variable by a rational, dropping it from the list."""
        i = self.variables.index(name)
        value = Fraction(value)
        new_vars = self.variables[:i] + self.variables[i + 1 :]
        terms = {}
        for expo, coeff in self.terms.items():
            c = coeff * value ** expo[i]
            e = expo[:i] + expo[i + 1 :]
            if c != 0:
                terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(new_vars, terms)

    def extend(self, variables):
        """View this polynomial in a larger ordered variable list."""
        variables = tuple(variables)
        index = []
        for v in self.variables:
            if v not in variables:
                raise ValueError(f"variable {v} missing from {variables}")
            index.append(variables.index(v))
        terms = {}
        for expo, coeff in self.terms.items():
            e = [0] * len(variables)
            for pos, exp in zip(index, expo):
                e[pos] = exp
            terms[tuple(e)] = coeff
        return Polynomial._clean(variables, terms)

    def rename(self, mapping):
        """Rename variables via a dict, keeping order."""
        return Polynomial._clean(
            tuple(mapping.get(v, v) for v in self.variables), self.terms)

    def coeffs_in_last(self):
        """Coefficients w.r.t. the last variable, as polynomials in the rest.

        Returns a list c_0..c_d indexed by the power of the last variable.
        """
        rest = self.variables[:-1]
        d = 0
        if self.terms:
            d = max(e[-1] for e in self.terms)
        buckets = [dict() for _ in range(d + 1)]
        for expo, coeff in self.terms.items():
            buckets[expo[-1]][expo[:-1]] = coeff
        return [Polynomial._clean(rest, b) for b in buckets]

    def derivative(self, name):
        i = self.variables.index(name)
        terms = {}
        for expo, coeff in self.terms.items():
            if expo[i] == 0:
                continue
            e = list(expo)
            c = coeff * e[i]
            e[i] -= 1
            terms[tuple(e)] = c
        return Polynomial(self.variables, terms)

    def primitive(self):
        """Integer-primitive associate with positive leading coefficient.

        Used to normalize projection polynomials; the sign convention keys
        off the lexicographically largest exponent.
        """
        if not self.terms:
            return self
        ints = primitive_integers(self.terms.values())
        sign = 1 if self.terms[max(self.terms)] > 0 else -1
        return Polynomial._clean(self.variables, {
            e: Fraction(sign * c) for e, c in zip(self.terms, ints)})

    # -- printing ----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, reverse=True):
            coeff = self.terms[expo]
            factors = []
            for v, e in zip(self.variables, expo):
                if e == 1:
                    factors.append(v)
                elif e > 1:
                    factors.append(f"{v}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = str(abs(coeff)) + "*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"


# ---------------------------------------------------------------------------
# exact algebra: sympy's dense ZZ polynomials, and a univariate kernel on ints
# ---------------------------------------------------------------------------
# Denominators are cleared on the way in, so a discriminant or resultant is
# exact up to a nonzero rational factor; callers normalize with .primitive().
#
# Every kernel call goes through _memo, keyed on the integer data after
# denominators are cleared: a univariate coefficient tuple, or a multivariate
# polynomial's sorted (exponents, integer) terms in the kernel's variable
# order.  Keys and answers hold no variable names, so the fresh bound names a
# quantified formula is instantiated with do not defeat the memo, and both
# are tuples of plain ints, so no caller can change a cached answer.
#
# sympy is imported only inside the sympy kernel functions, so their first
# miss loads it; after that each such import is one dict lookup.

_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _memo(kernel, *keys):
    """kernel(*keys), computed once per distinct key while it stays among
    the _MEMO_SIZE most recently used."""
    return kernel(*keys)


def _integers(coeffs):
    """Fractions scaled by their common denominator, as ints."""
    coeffs = list(coeffs)
    denom = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (denom // c.denominator) for c in coeffs]


def primitive_integers(coeffs):
    """Fractions scaled by a positive rational to coprime ints."""
    ints = _integers(coeffs)
    g = gcd(*ints)
    return [c // g for c in ints]


def _key(p, order):
    """p's integer terms over the variables of order, outermost first."""
    pos = [p.variables.index(v) for v in order]
    return tuple(sorted(zip((tuple(e[i] for i in pos) for e in p.terms),
                            _integers(p.terms.values()))))


def _from_key(terms, n):
    """The dense ZZ polynomial in n variables with these terms."""
    from sympy.polys.densebasic import dmp_from_dict
    from sympy.polys.domains import ZZ
    return dmp_from_dict({e: ZZ(c) for e, c in terms}, n - 1, ZZ)


def _terms(f, n):
    """The dense ZZ polynomial f in n variables as (exponents, int) terms."""
    if not n:
        return (((), int(f)),) if f else ()
    from sympy.polys.densebasic import dmp_to_dict
    return tuple((e, int(c)) for e, c in dmp_to_dict(f, n - 1).items())


def _polynomial(variables, terms):
    """The polynomial in variables with these (exponents, int) terms."""
    return Polynomial._clean(variables, {e: Fraction(c) for e, c in terms})


def _eliminating(var, *polys):
    """The variables other than var, and the keys of polys with var moved
    to the front."""
    rest = tuple(v for v in polys[0].variables if v != var)
    return rest, [_key(p, (var,) + rest) for p in polys]


def _in_order(factors):
    # by degree in the outermost variable, multiplicity, then coefficients:
    # the order sympy's factor_list gives for the same variable order
    ordered = sorted(factors, key=lambda fk: (len(fk[0]), fk[1], fk[0]))
    return [f for f, _ in ordered]


def _factor(f, n):
    from sympy.polys.domains import ZZ
    from sympy.polys.factortools import dmp_factor_list
    _, factors = dmp_factor_list(_from_key(f, n), n - 1, ZZ)
    return tuple(_terms(g, n) for g in _in_order(factors))


def factor(p: Polynomial):
    """Distinct nonconstant irreducible factors of p over the rationals, each
    integer-primitive with positive leading coefficient."""
    if p.is_constant():
        return []
    return [_polynomial(p.variables, terms).primitive()
            for terms in _memo(_factor, _key(p, p.variables),
                               len(p.variables))]


def _to_dup(coeffs):
    return tuple(reversed(_integers(coeffs)))


def _from_dup(f):
    return list(reversed(f))


# The univariate kernel runs on tuples of Python ints, leading coefficient
# first, with no sympy: a primitive polynomial remainder sequence (Brown and
# Traub, "On Euclid's algorithm and the theory of subresultants", J. ACM 18,
# 1971) gives the gcd, and the squarefree part is f / gcd(f, f').

def _primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    if not f:
        return f
    g = gcd(*f)
    if f[0] < 0:
        g = -g
    return tuple(c // g for c in f)


def _prem(f, g):
    """A pseudo-remainder of f by g (deg f >= deg g >= 1): f times a power
    of g's leading coefficient, reduced below deg g.  Leading zeros are
    dropped as they appear, so the power may be lower than the textbook
    one; the PRS makes every remainder primitive and does not notice."""
    lc, tail, n = g[0], g[1:], len(g)
    r = list(f)
    while len(r) >= n:
        c = r[0]
        r = [lc * a - c * b for a, b in zip(r[1:n], tail)] + \
            [lc * a for a in r[n:]]
        while r and not r[0]:
            del r[0]
    return tuple(r)


def _gcd_dup(f, g):
    """The primitive gcd, with positive leading coefficient, of integer
    polynomials f and g, not both zero: a primitive PRS, which stops at
    zero or at a constant."""
    if len(f) < len(g):
        f, g = g, f
    f, g = _primitive(f), _primitive(g)
    while g:
        if len(g) == 1:
            return (1,)
        f, g = g, _primitive(_prem(f, g))
    return f


def _exquo(f, g):
    """The quotient of f by a nonzero g that divides it in Z[x]."""
    r, lc = list(f), g[0]
    q = []
    for i in range(len(f) - len(g) + 1):
        c = r[i] // lc
        q.append(c)
        if c:
            for j, b in enumerate(g):
                r[i + j] -= c * b
    return tuple(q)


def _sqf_dup(f):
    f = _primitive(f)
    if len(f) < 2:  # zero, or a constant, which is (1,) once primitive
        return f
    n = len(f) - 1
    df = tuple(c * (n - i) for i, c in enumerate(f[:-1]))
    # f and the gcd are primitive with positive leading coefficients, so
    # by Gauss's lemma the quotient is too
    return _exquo(f, _gcd_dup(f, df))


def squarefree_univariate(coeffs):
    """Squarefree part of a nonzero univariate polynomial over the
    rationals, integer-primitive with positive leading coefficient, so a
    nonzero constant gives [1].  In, a coefficient list of ints (Fractions
    are scaled to ints first); out, a new list of ints; both indexed by
    degree.  Computed on Python ints, without sympy."""
    return _from_dup(_memo(_sqf_dup, _to_dup(coeffs)))


def gcd_univariate(p, q):
    """Greatest common divisor of two nonzero univariate polynomials over
    the rationals, integer-primitive with positive leading coefficient, so
    a constant argument gives [1]; lists of ints as in
    squarefree_univariate.  Computed on Python ints, without sympy."""
    return _from_dup(_memo(_gcd_dup, _to_dup(p), _to_dup(q)))


def _discriminant(f, n):
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_discriminant
    return _terms(dmp_discriminant(_from_key(f, n), n - 1, ZZ), n - 1)


def _resultant(f, g, n):
    from sympy.polys.domains import ZZ
    from sympy.polys.euclidtools import dmp_resultant
    return _terms(dmp_resultant(_from_key(f, n), _from_key(g, n), n - 1,
                                ZZ), n - 1)


def discriminant(p: Polynomial, var):
    """Discriminant of p with respect to var, in the remaining variables."""
    rest, (f,) = _eliminating(var, p)
    return _polynomial(rest, _memo(_discriminant, f, len(rest) + 1))


def resultant(p: Polynomial, q: Polynomial, var):
    """Resultant of p and q with respect to var, in the remaining variables."""
    rest, (f, g) = _eliminating(var, p, q)
    return _polynomial(rest, _memo(_resultant, f, g, len(rest) + 1))
