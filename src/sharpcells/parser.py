"""Text front end for the formula grammar.

Atoms are `<poly> <op> 0` with op in {=, >, <}; polynomials use + - * ^ with
integer or rational literals; connectives `and`, `or`, `not`; quantifiers
`exists v.` and `forall v.`; named-set references `@name(v1, ..., vk)`.
Binary connective groups are parenthesized; `parse_formula` is the inverse
of the canonical printer.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    FormulaError,
    NamedAtom,
    Not,
    Or,
    validate,
)
from .poly import Polynomial

KEYWORDS = {"and", "or", "not", "exists", "forall"}

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<ref>@[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^()=><,./])
    """,
    re.VERBOSE,
)


class ParseError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


def _tokenize(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            tokens.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def expect(self, value):
        tok = self.next()
        if tok[1] != value:
            self.error(f"expected {value!r}, found {tok[1] or 'end of input'!r}", tok)
        return tok

    # -- formula layer -----------------------------------------------------

    def formula(self):
        node = self.conjunct()
        if self.peek()[1] == "or":
            children = [node]
            while self.peek()[1] == "or":
                self.next()
                children.append(self.conjunct())
            return Or(children)
        return node

    def conjunct(self):
        node = self.unary()
        if self.peek()[1] == "and":
            children = [node]
            while self.peek()[1] == "and":
                self.next()
                children.append(self.unary())
            return And(children)
        return node

    def unary(self):
        tok = self.peek()
        if tok[1] == "not":
            self.next()
            return Not(self.unary())
        if tok[1] in ("exists", "forall"):
            self.next()
            var = self.next()
            if var[0] != "name" or var[1] in KEYWORDS:
                self.error("expected a variable name after quantifier", var)
            self.expect(".")
            body = self.unary()
            return (Exists if tok[1] == "exists" else Forall)(var[1], body)
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok[0] == "ref":
            return self.named_atom()
        if tok[1] == "(":
            # could open an atom's polynomial or a subformula; try the
            # atom first (the polynomial grammar handles its own parens)
            mark = self.i
            try:
                return self.atom_body()
            except ParseError:
                self.i = mark
            self.expect("(")
            node = self.formula()
            self.expect(")")
            return node
        # bare atom, e.g. inside `exists y. x - y^2 = 0`
        return self.atom_body()

    def named_atom(self):
        tok = self.next()
        name = tok[1][1:]
        self.expect("(")
        args = []
        while True:
            var = self.next()
            if var[0] != "name" or var[1] in KEYWORDS:
                self.error("expected a variable name", var)
            args.append(var[1])
            nxt = self.next()
            if nxt[1] == ")":
                break
            if nxt[1] != ",":
                self.error("expected ',' or ')'", nxt)
        return NamedAtom(name, args)

    def atom_body(self):
        expr = self.poly_expr()
        tok = self.next()
        if tok[1] not in ("=", ">", "<"):
            self.error("expected comparison operator", tok)
        if tok[1] != "=" and self.peek()[1] == "=":
            flip = "<" if tok[1] == ">" else ">"
            self.error(f"'{tok[1]}=' is not supported; write "
                       f"'not (p {flip} 0)' for 'p {tok[1]}= 0'", tok)
        zero = self.next()
        if zero[1] != "0":
            self.error("atom right-hand side must be 0", zero)
        order, build = expr
        poly = build(tuple(order))
        return Atom(poly, tok[1])

    # -- polynomial layer --------------------------------------------------
    # Parsed lazily: first pass collects the variable appearance order, the
    # builder then produces the Polynomial over that variable tuple.

    def poly_expr(self):
        order = []
        node = self._sum(order)
        return order, node

    def _sum(self, order):
        negate = False
        if self.peek()[1] in ("+", "-"):
            negate = self.next()[1] == "-"
        node = self._product(order)
        if negate:
            inner = node
            node = lambda vs, f=inner: -f(vs)
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            rhs = self._product(order)
            lhs = node
            if op == "+":
                node = lambda vs, a=lhs, b=rhs: a(vs) + b(vs)
            else:
                node = lambda vs, a=lhs, b=rhs: a(vs) - b(vs)
        return node

    def _product(self, order):
        node = self._power(order)
        while self.peek()[1] == "*":
            self.next()
            rhs = self._power(order)
            lhs = node
            node = lambda vs, a=lhs, b=rhs: a(vs) * b(vs)
        return node

    def _power(self, order):
        base = self._factor(order)
        if self.peek()[1] == "^":
            self.next()
            tok = self.next()
            if tok[0] != "num":
                self.error("exponent must be a nonnegative integer", tok)
            n = int(tok[1])
            return lambda vs, b=base, k=n: b(vs) ** k
        return base

    def _factor(self, order):
        tok = self.next()
        if tok[1] == "(":
            node = self._sum(order)
            self.expect(")")
            return node
        if tok[1] == "-":
            inner = self._factor(order)
            return lambda vs, f=inner: -f(vs)
        if tok[0] == "num":
            value = Fraction(int(tok[1]))
            if self.peek()[1] == "/":
                self.next()
                den = self.next()
                if den[0] != "num" or int(den[1]) == 0:
                    self.error("expected a nonzero denominator", den)
                value = Fraction(int(tok[1]), int(den[1]))
            return lambda vs, c=value: Polynomial.constant(c, vs)
        if tok[0] == "name" and tok[1] not in KEYWORDS:
            if tok[1] not in order:
                order.append(tok[1])
            return lambda vs, v=tok[1]: Polynomial.var(v, vs)
        self.error("expected a polynomial factor", tok)


def parse_formula(text: str):
    """Parse formula text into an AST, checking the binding discipline."""
    parser = _Parser(text)
    node = parser.formula()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.error(f"unexpected trailing input {tok[1]!r}", tok)
    return validate(node)


def parse_poly(text: str, variables=None):
    """Parse a bare polynomial; optional explicit variable order."""
    parser = _Parser(text)
    order, build = parser.poly_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        parser.error(f"unexpected trailing input {tok[1]!r}", tok)
    if variables is None:
        variables = tuple(order)
    else:
        missing = set(order) - set(variables)
        if missing:
            raise FormulaError(f"undeclared variables {sorted(missing)}")
    return build(tuple(variables))
