"""Exact real algebraic arithmetic for CAD lifting.

Every isolated real root is a RootHandle: a squarefree polynomial over a
field with a rational interval holding exactly that root, or the root
itself when it is rational.  One handle type serves root isolation,
comparison and sorting, and the generators of field towers QQ(a1)(a2)...:
an ExtensionField is built on its own copy of a handle.

Over the rationals the work runs on Python ints: roots are isolated by
Descartes' rule of signs with bisection (Vincent-Collins-Akritas), and a
sign at a rational a/b is a homogeneous Horner sum.  Over extension fields
roots are isolated with Sturm chains.  Defining polynomials need not be
irreducible: a root is a root of q exactly when gcd(sqf, q) changes sign
across the isolating interval, and inversion shrinks the defining
polynomial when it discovers a factor without the selected root.  All
decisions are exact; floating point is never consulted.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .poly import gcd_univariate, primitive_integers, squarefree_univariate


class RealAlgebraError(ArithmeticError):
    pass


# ---------------------------------------------------------------------------
# univariate polynomials over a field: plain coefficient lists, index = degree
# ---------------------------------------------------------------------------


def ptrim(field, p):
    while p and field.raw_is_zero(p[-1]):
        p = p[:-1]
    return p


def pzero(p):
    return len(p) == 0


def pdeg(p):
    return len(p) - 1


def padd(field, p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else field.zero
        b = q[i] if i < len(q) else field.zero
        out.append(field.add(a, b))
    return ptrim(field, out)


def pneg(field, p):
    return [field.neg(c) for c in p]


def psub(field, p, q):
    return padd(field, p, pneg(field, q))


def pmul(field, p, q):
    if pzero(p) or pzero(q):
        return []
    out = [field.zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = field.add(out[i + j], field.mul(a, b))
    return ptrim(field, out)


def pdivmod(field, p, q):
    if pzero(q):
        raise ZeroDivisionError("polynomial division by zero")
    q = ptrim(field, q)
    rem = ptrim(field, list(p))
    if len(rem) < len(q):  # nothing to divide: skip inverting the lead
        return [], rem
    inv_lc = field.inv(q[-1])
    quo = [field.zero] * (len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        rem = ptrim(field, rem)
        if len(rem) < len(q):
            break
        c = field.mul(rem[-1], inv_lc)
        k = len(rem) - len(q)
        quo[k] = field.add(quo[k], c)
        for i, b in enumerate(q):
            rem[k + i] = field.sub(rem[k + i], field.mul(c, b))
        rem = rem[:-1]
    return ptrim(field, quo), ptrim(field, rem)


def pmonic(field, p):
    p = ptrim(field, p)
    if pzero(p):
        return p
    inv_lc = field.inv(p[-1])
    return [field.mul(c, inv_lc) for c in p]


def pgcd(field, p, q):
    a, b = ptrim(field, p), ptrim(field, q)
    while not pzero(b):
        _, r = pdivmod(field, a, b)
        a, b = b, r
    return pmonic(field, a)


def pextgcd(field, p, q):
    """Return (g, u, v) with u*p + v*q = g, g monic."""
    a, b = ptrim(field, p), ptrim(field, q)
    ua, va = [field.one], []
    ub, vb = [], [field.one]
    while not pzero(b):
        quo, r = pdivmod(field, a, b)
        a, b = b, r
        ua, ub = ub, psub(field, ua, pmul(field, quo, ub))
        va, vb = vb, psub(field, va, pmul(field, quo, vb))
    if pzero(a):
        return a, ua, va
    inv_lc = field.inv(a[-1])
    scale = lambda p_: [field.mul(c, inv_lc) for c in p_]
    return scale(a), scale(ua), scale(va)


def pderiv(field, p):
    out = []
    for i in range(1, len(p)):
        out.append(field.mul(field.from_int(i), p[i]))
    return ptrim(field, out)


def peval(field, p, x):
    """Evaluate at a field element x (Horner)."""
    acc = field.zero
    for c in reversed(p):
        acc = field.add(field.mul(acc, x), c)
    return acc


def peval_frac(field, p, q: Fraction):
    return peval(field, p, field.from_fraction(q))


def squarefree(field, p):
    p = ptrim(field, p)
    if pdeg(p) <= 1:
        return pmonic(field, p)
    g = pgcd(field, p, pderiv(field, p))
    if pdeg(g) == 0:
        return pmonic(field, p)
    quo, _ = pdivmod(field, p, g)
    return pmonic(field, quo)


def sturm_chain(field, p):
    chain = [ptrim(field, p)]
    d = pderiv(field, p)
    if not pzero(d):
        chain.append(d)
        while True:
            _, r = pdivmod(field, chain[-2], chain[-1])
            if pzero(r):
                break
            chain.append(pneg(field, r))
    return chain


def _variations(values):
    """Sign variations in a sequence of numbers, zeros skipped."""
    count, prev = 0, 0
    for x in values:
        if x > 0:
            count += prev < 0
            prev = 1
        elif x < 0:
            count += prev > 0
            prev = -1
    return count


def sturm_variations(field, chain, t):
    """Sign variations of a Sturm chain at t, and whether t is a root of
    the chain's first polynomial.  t is a rational, or -math.inf or
    math.inf, where the signs are those of the leading terms."""
    if t in (-math.inf, math.inf):
        signs = [field.sign(q[-1]) * (-1 if t < 0 and pdeg(q) % 2 else 1)
                 for q in chain]
    else:
        signs = [_sign_at(field, q, t) for q in chain]
    return _variations(signs), signs[0] == 0


def count_roots(field, chain, a, b):
    """Number of distinct real roots in (a, b); endpoints must be non-roots."""
    return (sturm_variations(field, chain, a)[0]
            - sturm_variations(field, chain, b)[0])


def root_bound(field, p):
    """Cauchy-style rational bound on the absolute value of all roots."""
    p = ptrim(field, p)
    if pdeg(p) < 1:
        return Fraction(1)
    prec = 8
    lo, hi = field.approx(p[-1], prec)
    while lo <= 0 <= hi:  # refine until the interval excludes 0
        prec *= 2
        if prec > 2**16:
            raise RealAlgebraError("cannot bound leading coefficient away from 0")
        lo, hi = field.approx(p[-1], prec)
    lead = min(abs(lo), abs(hi))
    top = Fraction(0)
    for c in p[:-1]:
        lo, hi = field.approx(c, 8)
        top = max(top, max(abs(lo), abs(hi)))
    return Fraction(1) + top / lead


def _nonroot_near(field, p, x: Fraction, step: Fraction, direction: int):
    """A rational point near x (on the given side) where p does not vanish."""
    t = x + direction * step
    while field.raw_is_zero(peval_frac(field, p, t)):
        step = step / 2
        t = x + direction * step
    return t


def isolate_roots(field, p):
    """Root handles for the distinct real roots of p, in increasing order.

    A root met exactly by bisection comes back rational; every other handle
    carries the squarefree part of p and an interval isolating one root.
    Over QQ the integer kernel below isolates the roots; over extension
    fields Sturm chains count them.
    """
    p = ptrim(field, p)
    if pzero(p):
        raise RealAlgebraError("cannot isolate roots of the zero polynomial")
    if pdeg(p) == 0:
        return []
    if field is QQ:
        if pdeg(p) == 1:
            return [RootHandle.rational(QQ, -Fraction(p[0]) / p[1])]
        return _isolate_squarefree(squarefree_univariate(p))
    sqf = squarefree(field, p)
    chain = sturm_chain(field, sqf)
    bound = root_bound(field, sqf)
    lo = _nonroot_near(field, sqf, -bound, Fraction(1), -1)
    hi = _nonroot_near(field, sqf, bound, Fraction(1), +1)
    out = []

    def recurse(a, b, n):
        if n == 0:
            return
        if n == 1:
            out.append(RootHandle(field, sqf, a, b))
            return
        mid = (a + b) / 2
        if field.raw_is_zero(peval_frac(field, sqf, mid)):
            # shrink the punched-out gap until mid is the only root inside
            # it, so no roots are lost to (left, mid) or (mid, right)
            gap = (b - a) / 4
            while True:
                left = _nonroot_near(field, sqf, mid, gap, -1)
                right = _nonroot_near(field, sqf, mid, gap, +1)
                nl = count_roots(field, chain, a, left)
                nr = count_roots(field, chain, right, b)
                if nl + 1 + nr == n:
                    break
                gap = gap / 4
            recurse(a, left, nl)
            out.append(RootHandle.rational(field, mid))
            recurse(right, b, nr)
        else:
            k = count_roots(field, chain, a, mid)
            recurse(a, mid, k)
            recurse(mid, b, n - k)

    recurse(lo, hi, count_roots(field, chain, lo, hi))
    return out


# ---------------------------------------------------------------------------
# integer kernel over QQ: signs and Descartes root isolation on Python ints
# ---------------------------------------------------------------------------


def _int_sign(ints, x):
    """Sign of an integer polynomial at the rational x = a/b (b > 0): the
    sign of sum c_i a^i b^(n-i), by Horner's rule."""
    a, b = x.numerator, x.denominator
    acc, bk = 0, 1
    for c in reversed(ints):
        acc = acc * a + c * bk
        bk *= b
    return (acc > 0) - (acc < 0)


def _sign_at(field, p, x: Fraction):
    """Sign of the polynomial p over field at the rational x."""
    if field is QQ:
        return _int_sign(primitive_integers(p), x)
    return field.sign(peval_frac(field, p, x))


def _gcd(field, p, q):
    if field is QQ:
        return gcd_univariate(p, q)
    return pgcd(field, p, q)


def _changes_sign(field, g, lo: Fraction, hi: Fraction):
    """Whether g has opposite signs at lo and hi.  For g dividing a
    squarefree polynomial with one root in (lo, hi) and no root at lo or
    hi, this says exactly whether that root is a root of g."""
    return _sign_at(field, g, lo) * _sign_at(field, g, hi) < 0


def _taylor_shift(c):
    """Coefficients of c(y + 1)."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _bound_exp(c):
    """k with every root of the integer polynomial c strictly below 2^k in
    absolute value: Fujiwara's bound 2 max |c_(n-i) / c_n|^(1/i), rounded up
    through bit lengths."""
    n = len(c) - 1
    lead = abs(c[n]).bit_length() - 1
    return 1 + max(-((lead - abs(c[n - i]).bit_length()) // i)
                   for i in range(1, n + 1) if c[n - i])


def _dyadic(a, e):
    """a / 2^e as a Fraction, for any integer e."""
    return Fraction(a, 1 << e) if e >= 0 else Fraction(a << -e)


def _positive_roots(c):
    """The positive roots of a squarefree integer polynomial c with
    c(0) != 0, as isolating intervals (lo, hi) and exact roots (x, x).

    Node (a, e, q) stands for the interval 2^k (a/2^e, (a+1)/2^e), whose
    roots are the roots of q in (0, 1); Descartes' rule applied to
    (y+1)^n q(1/(y+1)) bounds their number, and is exact when it says 0
    or 1.  Children halve the interval: 2^n q(y/2) and its shift by 1.
    """
    n = len(c) - 1
    if n < 1:
        return []
    k = _bound_exp(c)
    if k >= 0:  # q(y) = p(2^k y), up to a positive power of two
        q = [ci << (k * i) for i, ci in enumerate(c)]
    else:
        q = [ci << (-k * (n - i)) for i, ci in enumerate(c)]
    out = []
    todo = [(0, 0, q)]
    while todo:
        a, e, q = todo.pop()
        v = _variations(_taylor_shift(q[::-1]))
        if v == 0:
            continue
        if v == 1:
            out.append((_dyadic(a, e - k), _dyadic(a + 1, e - k)))
            continue
        m = len(q) - 1
        left = [ci << (m - i) for i, ci in enumerate(q)]
        bits = 0
        for ci in left:
            bits |= ci
        twos = (bits & -bits).bit_length() - 1  # left is divisible by 2^twos
        if twos:
            left = [ci >> twos for ci in left]
        right = _taylor_shift(left)
        if right[0] == 0:  # the midpoint is a root
            x = _dyadic(2 * a + 1, e + 1 - k)
            out.append((x, x))
            right = right[1:]
        todo.append((2 * a + 1, e + 1, right))
        todo.append((2 * a, e + 1, left))
    return out


def _isolate_squarefree(p):
    """isolate_roots over QQ for a p already known to be squarefree: the
    integer kernel alone."""
    ints = primitive_integers(p)
    sqf = [Fraction(c) for c in ints]
    rest, found = ints, []
    if ints[0] == 0:
        found.append((Fraction(0), Fraction(0)))
        rest = ints[1:]
    mirrored = [-ci if i % 2 else ci for i, ci in enumerate(rest)]
    found.extend((-hi, -lo) for lo, hi in _positive_roots(mirrored))
    found.extend(_positive_roots(rest))
    roots = {lo for lo, hi in found if lo == hi}
    deriv = [i * ci for i, ci in enumerate(ints)][1:]
    handles = []
    for lo, hi in sorted(found):
        if lo in roots or hi in roots:
            # an end at a root r: sqf has the sign of sqf'(r) from the
            # lower end up to the isolated root, the opposite sign above it
            s = _int_sign(deriv, lo if lo in roots else hi)
            while lo in roots or hi in roots:
                mid = (lo + hi) / 2
                smid = _int_sign(ints, mid)
                if smid == 0:
                    lo = hi = mid
                    break
                if smid == s:
                    lo = mid
                else:
                    hi = mid
        if lo == hi:
            handles.append(RootHandle.rational(QQ, lo))
        else:
            handle = RootHandle(QQ, sqf, lo, hi)
            handle._ints = ints
            handles.append(handle)
    return handles


# ---------------------------------------------------------------------------
# interval helpers (rational endpoints)
# ---------------------------------------------------------------------------


def _iadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _imul(a, b):
    vals = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(vals), max(vals))


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class RationalField:
    """The base of every tower; payloads are Fractions."""

    base = None
    zero = Fraction(0)
    one = Fraction(1)

    def from_fraction(self, q):
        return Fraction(q)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def raw_is_zero(self, a):
        return a == 0

    def sign(self, a):
        return (a > 0) - (a < 0)

    def approx(self, a, prec):
        return (a, a)

    def depth(self):
        return 0

    def describe(self):
        return "QQ"


QQ = RationalField()


class ExtensionField:
    """base(alpha) where alpha is the real root a RootHandle isolates.

    The field keeps its own copy of the handle, so refining the field never
    moves the caller's handle.  Elements are tuples of base payloads, read
    as polynomials evaluated at alpha; they need not be reduced.  The
    root's squarefree polynomial is the defining polynomial, and it may
    shrink over time as zero tests and inversions discover factors not
    carrying alpha.
    """

    def __init__(self, root):
        self.base = root.field
        self.root = root.copy()
        if root.exact is not None or pdeg(root.sqf) < 1:
            raise RealAlgebraError("defining polynomial must be nonconstant")
        if root.sign_at(root.lo) == 0 or root.sign_at(root.hi) == 0:
            raise RealAlgebraError("isolating interval endpoints must be non-roots")

    # elements -------------------------------------------------------------

    zero = ()

    @property
    def one(self):
        return (self.base.one,)

    @property
    def gen(self):
        return (self.base.zero, self.base.one)

    def from_fraction(self, q):
        q = Fraction(q)
        if q == 0:
            return ()
        return (self.base.from_fraction(q),)

    def from_int(self, n):
        return self.from_fraction(Fraction(n))

    def lift(self, base_elem):
        """Embed a base-field payload as a constant."""
        if self.base.raw_is_zero(base_elem):
            return ()
        return (base_elem,)

    def add(self, a, b):
        return tuple(padd(self.base, list(a), list(b)))

    def sub(self, a, b):
        return tuple(psub(self.base, list(a), list(b)))

    def neg(self, a):
        return tuple(pneg(self.base, list(a)))

    def mul(self, a, b):
        prod = pmul(self.base, list(a), list(b))
        _, rem = pdivmod(self.base, prod, self.root.sqf)
        return tuple(rem)

    def raw_is_zero(self, a):
        return self.root.vanishes(a, shrink=True)

    def inv(self, a):
        a = ptrim(self.base, list(a))
        if self.raw_is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        root = self.root
        if root.exact is not None:
            return (self.base.inv(peval_frac(self.base, a, root.exact)),)
        while True:
            g, _, v = pextgcd(self.base, root.sqf, a)
            if pdeg(g) == 0:
                return tuple(v)
            # alpha is not a root of g (a(alpha) != 0), so strip the factor
            root.sqf, _ = pdivmod(self.base, root.sqf, g)

    # signs ------------------------------------------------------------------

    def approx(self, a, prec):
        """Rational interval containing a(alpha), width shrinking with prec."""
        a = ptrim(self.base, list(a))
        if not a:
            return (Fraction(0), Fraction(0))
        return self.root.enclose(a, prec)

    def sign(self, a):
        return self.root.sign_of(a)

    def depth(self):
        return 1 + self.base.depth()

    def describe(self):
        r = self.root
        return f"{self.base.describe()}(root of deg-{pdeg(r.sqf)} in ({r.lo},{r.hi}))"


# ---------------------------------------------------------------------------
# number wrapper
# ---------------------------------------------------------------------------


class Num:
    """A field element with operator sugar."""

    __slots__ = ("field", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = data

    @classmethod
    def rational(cls, q):
        return cls(QQ, Fraction(q))

    def _coerce(self, other):
        if isinstance(other, Num):
            if other.field is self.field:
                return other.data
            if other.field is QQ:
                return self.field.from_fraction(other.data)
            raise RealAlgebraError("numbers from different towers")
        if isinstance(other, (int, Fraction)):
            return self.field.from_fraction(Fraction(other))
        return NotImplemented

    def __add__(self, other):
        d = self._coerce(other)
        if d is NotImplemented:
            return NotImplemented
        return Num(self.field, self.field.add(self.data, d))

    __radd__ = __add__

    def __neg__(self):
        return Num(self.field, self.field.neg(self.data))

    def __sub__(self, other):
        d = self._coerce(other)
        if d is NotImplemented:
            return NotImplemented
        return Num(self.field, self.field.sub(self.data, d))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        d = self._coerce(other)
        if d is NotImplemented:
            return NotImplemented
        return Num(self.field, self.field.mul(self.data, d))

    __rmul__ = __mul__

    def sign(self):
        return self.field.sign(self.data)

    def is_zero(self):
        return self.field.raw_is_zero(self.data)

    def approx(self, prec=30):
        return self.field.approx(self.data, prec)

    def as_fraction(self):
        """Exact Fraction value, if this number is visibly rational; else
        None.  An extension-field element counts when its reduced payload
        is constant, all the way down the tower."""
        field, data = self.field, self.data
        while field is not QQ:
            payload = list(data)
            while payload and field.base.raw_is_zero(payload[-1]):
                payload.pop()
            if len(payload) > 1:
                return None
            field = field.base
            data = payload[0] if payload else field.zero
        return data

    def __float__(self):
        lo, hi = self.approx(40)
        return float((lo + hi) / 2)

    def __repr__(self):
        if self.field is QQ:
            return f"Num({self.data})"
        lo, hi = self.approx(20)
        return f"Num(~{float((lo + hi) / 2):.6g})"

    def cmp(self, other):
        return (self - other).sign()

    def __lt__(self, other):
        return self.cmp(other) < 0

    def __le__(self, other):
        return self.cmp(other) <= 0

    def __gt__(self, other):
        return self.cmp(other) > 0

    def __ge__(self, other):
        return self.cmp(other) >= 0

    def __eq__(self, other):
        if isinstance(other, (Num, int, Fraction)):
            return self.cmp(other) == 0
        return NotImplemented

    def __hash__(self):
        raise TypeError("exact algebraic numbers are unhashable")


def num_in(field, value):
    """Embed a Fraction or lower-tower Num into the given field."""
    if isinstance(value, (int, Fraction)):
        return Num(field, field.from_fraction(Fraction(value)))
    if isinstance(value, Num):
        if value.field is field:
            return value
        if value.field is QQ:
            return Num(field, field.from_fraction(value.data))
        # lift through one extension step
        if getattr(field, "base", None) is value.field:
            return Num(field, field.lift(value.data))
        if getattr(field, "base", None) is not None:
            inner = num_in(field.base, value)
            return Num(field, field.lift(inner.data))
    raise RealAlgebraError(f"cannot embed {value!r} into {field.describe()}")


def num_join(a: Num, b: Num):
    """a and b as numbers of one field.

    That field is the deeper operand's, when the other's tower lies inside
    its tower, and otherwise that field with the missing generators of the
    other tower adjoined on top of it.
    """
    if a.field.depth() > b.field.depth():
        b, a = num_join(b, a)
        return a, b
    field, embed = _tower_map(a.field, b.field)
    return Num(field, embed(a.data)), num_in(field, b)


def _tower_map(field, target):
    """A field K built on target and the embedding of field's payloads
    into K.

    K is target when field is one of the fields of target's tower.
    Otherwise field's generator is taken to the field that holds its
    base: its defining polynomial, mapped there, is still squarefree with
    the same real roots, so the generator's isolating interval isolates it
    there too.  Roots among the generators of that field are divided out;
    the generator is adjoined only when no such root or linear remainder
    gives it.
    """
    tower = target
    while tower is not None:
        if tower is field:
            return target, lambda d: num_in(target, Num(field, d)).data
        tower = tower.base
    base, embed = _tower_map(field.base, target)
    root = field.root
    gen = None
    if root.exact is not None:
        gen = base.from_fraction(root.exact)
    else:
        p = [embed(c) for c in root.sqf]
        for g in _generators(base):
            if base.raw_is_zero(peval(base, p, g)):
                if root.lo < Num(base, g) < root.hi:
                    gen = g
                    break
                p, _ = pdivmod(base, p, [base.neg(g), base.one])
        if gen is None and pdeg(p) == 1:
            gen = base.neg(base.mul(p[0], base.inv(p[1])))
    if gen is not None:
        return base, lambda d: peval(base, [embed(c) for c in d], gen)
    K = ExtensionField(RootHandle(base, p, root.lo, root.hi))
    return K, lambda d: peval(K, [K.lift(embed(c)) for c in d], K.gen)


def _generators(field):
    """The generator of every level of field's tower, as field payloads."""
    out = []
    level = field
    while level is not QQ:
        out.append(num_in(field, Num(level, level.gen)).data)
        level = level.base
    return out


# ---------------------------------------------------------------------------
# root handles: refinable references to isolated real roots
# ---------------------------------------------------------------------------


class RootHandle:
    """One isolated real root of a squarefree polynomial over a field.

    An algebraic handle holds the squarefree polynomial sqf and a rational
    interval (lo, hi) holding exactly one of its roots; the endpoints are
    never roots.  A rational handle holds the root itself as exact, with
    lo = hi = exact.  Bisection may land on an algebraic root, which then
    becomes exact too.  Over QQ the handle keeps the primitive integer
    coefficients of sqf for its signs, made on first use and again after
    sqf is cut down.
    """

    def __init__(self, field, sqf, lo: Fraction, hi: Fraction):
        self.field = field
        self.sqf = sqf
        self.lo = lo
        self.hi = hi
        self.exact = None

    @property
    def sqf(self):
        return self._sqf

    @sqf.setter
    def sqf(self, p):
        self._sqf = p
        self._ints = None

    @classmethod
    def rational(cls, field, x: Fraction):
        handle = cls(field, None, x, x)
        handle.exact = x
        return handle

    def copy(self):
        handle = RootHandle(self.field, self.sqf, self.lo, self.hi)
        handle._ints = self._ints
        handle.exact = self.exact
        return handle

    def is_rational(self):
        return self.exact is not None

    def sign_at(self, x: Fraction):
        """Sign of sqf at the rational x."""
        if self.field is not QQ:
            return _sign_at(self.field, self.sqf, x)
        if self._ints is None:
            self._ints = primitive_integers(self.sqf)
        return _int_sign(self._ints, x)

    def refine(self):
        """Halve the isolating interval, or land on the root."""
        self.refine_below((self.hi - self.lo) / 2)

    def refine_below(self, width: Fraction):
        """Bisect until the interval is at most width wide."""
        if self.exact is not None:
            return
        slo = self.sign_at(self.lo)
        while self.hi - self.lo > width:
            mid = (self.lo + self.hi) / 2
            smid = self.sign_at(mid)
            if smid == 0:
                self.exact = mid
                self.lo = self.hi = mid
                return
            if smid == slo:
                self.lo = mid
            else:
                self.hi = mid

    def vanishes(self, q, shrink=False):
        """Does the UPoly q (over the same field) vanish at this root?

        The root is a root of q exactly when g = gcd(sqf, q) changes sign
        across the isolating interval.  With shrink=True a vanishing q also
        cuts sqf down to g, which still carries the root.  Over QQ a linear
        q is decided by its own root, without a gcd.
        """
        f = self.field
        q = ptrim(f, list(q))
        if pzero(q):
            return True
        if self.exact is not None:
            return _sign_at(f, q, self.exact) == 0
        if pdeg(q) == 0:
            return False
        if f is QQ and pdeg(q) == 1:
            # q's one root r is this root exactly when the interval holds r
            # and sqf vanishes there; then gcd(sqf, q) is q, made primitive
            r = -Fraction(q[0]) / q[1]
            if not (self.lo < r < self.hi and self.sign_at(r) == 0):
                return False
            if shrink:
                sign = 1 if q[1] > 0 else -1
                self.sqf = [Fraction(sign * c) for c in primitive_integers(q)]
            return True
        g = _gcd(f, self.sqf, q)
        if pdeg(g) < 1 or not _changes_sign(f, g, self.lo, self.hi):
            return False
        if shrink:
            self.sqf = g
        return True

    def enclose(self, q, prec):
        """Rational interval containing q at this root, evaluated on the
        isolating interval refined below width 2^-prec."""
        f = self.field
        self.refine_below(Fraction(1, 2**prec))
        iv = (Fraction(0), Fraction(0))
        for c in reversed(q):
            iv = _iadd(_imul(iv, (self.lo, self.hi)), f.approx(c, prec))
        return iv

    def sign_of(self, q):
        """Exact sign of q at this root; a vanishing q shrinks sqf as in
        vanishes(q, shrink=True)."""
        q = ptrim(self.field, list(q))
        if self.vanishes(q, shrink=True):
            return 0
        prec = 4
        while True:
            lo, hi = self.enclose(q, prec)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            prec *= 2
            if prec > 2**20:
                raise RealAlgebraError("sign refinement failed to converge")

    def as_extension(self):
        """An ExtensionField with this root as generator (rational roots
        stay in the current field)."""
        if self.exact is not None:
            return None
        return ExtensionField(self)


# bisections compare_roots makes on copies of two overlapping algebraic
# handles over QQ before it pays a gcd
_PROBE_STEPS = 16


def _probe_apart(r1: RootHandle, r2: RootHandle):
    """-1 or 1 ordering two overlapping algebraic handles over QQ when
    copies of them part within _PROBE_STEPS bisections, else 0.

    On success the handles take the copies' intervals, which are the ones
    the loop of compare_roots reaches: for distinct roots it makes exactly
    these bisections.  Otherwise the copies are dropped, so equal roots
    keep their intervals.
    """
    c1, c2 = r1.copy(), r2.copy()
    for _ in range(_PROBE_STEPS):
        c1.refine()
        c2.refine()
        if c1.hi < c2.lo or c2.hi < c1.lo:
            for r, c in ((r1, c1), (r2, c2)):
                r.lo, r.hi, r.exact = c.lo, c.hi, c.exact
            return -1 if c1.hi < c2.lo else 1
    return 0


def compare_roots(r1: RootHandle, r2: RootHandle):
    """-1, 0, or 1 comparing two root handles over the same field."""
    f = r1.field
    if r1.is_rational() and r2.is_rational():
        return (r1.exact > r2.exact) - (r1.exact < r2.exact)
    g = None
    for _ in range(10_000):
        if r1.hi < r2.lo:
            return -1
        if r2.hi < r1.lo:
            return 1
        # overlapping intervals: equal only if they share a root.  Each
        # interval holds one root of its own sqf and no endpoint is a root,
        # so a rational inside the other interval is that root exactly
        # when it is a root of sqf, and a root of the gcd inside both
        # intervals is both roots.
        if r1.is_rational():
            if r2.sign_at(r1.exact) == 0:
                return 0
        elif r2.is_rational():
            if r1.sign_at(r2.exact) == 0:
                return 0
        else:
            if g is None:
                # distinct roots almost always part after a few bisections;
                # over an extension field a bisection refines the shared
                # generator, so only QQ handles are probed on copies
                side = _probe_apart(r1, r2) if f is QQ else 0
                if side:
                    return side
                g = _gcd(f, r1.sqf, r2.sqf)
            lo = max(r1.lo, r2.lo)
            hi = min(r1.hi, r2.hi)
            if lo < hi and pdeg(g) >= 1 and _changes_sign(f, g, lo, hi):
                return 0
        r1.refine()
        r2.refine()
    raise RealAlgebraError("root comparison failed to converge")


def sort_roots(handles):
    """Sort root handles, merging equal ones.

    Returns a list of groups; each group is a list of handles representing
    the same real number, in increasing order of value.
    """
    groups = []
    for h in handles:
        placed = False
        lo_idx = 0
        hi_idx = len(groups)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            c = compare_roots(h, groups[mid][0])
            if c == 0:
                groups[mid].append(h)
                placed = True
                break
            if c < 0:
                hi_idx = mid
            else:
                lo_idx = mid + 1
        if not placed:
            groups.insert(lo_idx, [h])
    return groups


def rational_between(r1: RootHandle, r2: RootHandle):
    """A rational strictly between two adjacent (distinct) roots."""
    for _ in range(10_000):
        if r1.hi < r2.lo:
            return (r1.hi + r2.lo) / 2
        r1.refine()
        r2.refine()
    raise RealAlgebraError("failed to separate adjacent roots")
