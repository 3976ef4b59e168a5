"""Answer checking that does not use the code under test.

Formulas are kept by the generator as nested lists:

    ["atom", poly_text, sign]      sign is "=", ">" or "<"
    ["and", [f, ...]], ["or", [f, ...]], ["not", f]

poly_text uses the sharpcells syntax (``^`` for powers, ``a/b`` for rational
literals).  It is evaluated here by Python arithmetic on Fractions, or on
rational intervals when a coordinate is an algebraic number: only the
rational enclosure ``Num.approx`` is taken from the library, never a sign.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_TOKEN = re.compile(r"\^(\d+)|(\d+)")


def render(f):
    """The formula as sharpcells input text."""
    kind = f[0]
    if kind == "atom":
        return f"({f[1]} {f[2]} 0)"
    if kind in ("and", "or"):
        return "(" + f" {kind} ".join(render(c) for c in f[1]) + ")"
    if kind == "not":
        return f"not {render(f[1])}"
    raise ValueError(f"unknown formula node {kind!r}")


def atoms(f):
    if f[0] == "atom":
        return [f]
    if f[0] == "not":
        return atoms(f[1])
    return [a for c in f[1] for a in atoms(c)]


def compile_poly(text):
    """A Python code object evaluating poly_text with exact rationals."""
    expr = _TOKEN.sub(lambda m: f"**{m.group(1)}" if m.group(1)
                      else f"F({m.group(2)})", text)
    return compile(expr, "<poly>", "eval")


class Interval:
    """Closed rational interval with enclosure-preserving arithmetic."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)

    @staticmethod
    def of(v):
        return v if isinstance(v, Interval) else Interval(v)

    def __add__(self, o):
        o = Interval.of(o)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, o):
        return self + (-Interval.of(o))

    def __rsub__(self, o):
        return Interval.of(o) + (-self)

    def __mul__(self, o):
        o = Interval.of(o)
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return Interval(min(p), max(p))

    __rmul__ = __mul__

    def __pow__(self, n):
        out = Interval(1)
        for _ in range(n):
            out = out * self
        return out

    def sign(self):
        """+1, -1, 0 for the point zero, None when the interval straddles 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None


def enclosure(value, prec):
    """Rational interval around a Fraction or a sharpcells Num."""
    if isinstance(value, (int, Fraction)):
        return Interval(value)
    q = value.as_fraction()
    if q is not None:
        return Interval(q)
    lo, hi = value.approx(prec)
    return Interval(lo, hi)


def signs_at(codes, names, point, precs=(16, 64)):
    """Sign of each compiled polynomial at a point (mapping name -> value).

    A sign still undecided at the finest precision is taken as 0: the
    point lies on that polynomial's zero set.
    """
    out = [None] * len(codes)
    for prec in precs:
        env = {"F": Fraction}
        env.update({v: enclosure(point[v], prec) for v in names})
        for i, code in enumerate(codes):
            if out[i] is None:
                out[i] = Interval.of(eval(code, env)).sign()
        if None not in out:
            return out
    return [0 if s is None else s for s in out]


def truth(f, signs):
    """Truth of formula f given the signs of its atoms, in atoms() order."""
    it = iter(signs)

    def go(node):
        kind = node[0]
        if kind == "atom":
            s = next(it)
            return {"=": s == 0, ">": s > 0, "<": s < 0}[node[2]]
        if kind == "not":
            return not go(node[1])
        vals = [go(c) for c in node[1]]  # consume every atom in order
        return all(vals) if kind == "and" else any(vals)

    return go(f)


def sqrt_enclosure(t: Fraction, bits=80):
    """Rational interval of width 2^-bits around sqrt(t), t >= 0."""
    scaled = math.isqrt(t.numerator * 4**bits // t.denominator)
    return Interval(Fraction(scaled, 2**bits), Fraction(scaled + 1, 2**bits))


def exact_sqrt(t: Fraction):
    """sqrt(t) when it is rational, else None."""
    rn, rd = math.isqrt(t.numerator), math.isqrt(t.denominator)
    if rn * rn == t.numerator and rd * rd == t.denominator:
        return Fraction(rn, rd)
    return None
