"""First-order formula ASTs over polynomial sign atoms.

A formula with n free variables defines a subset of R^n; the free variables
are linearly ordered (order of first appearance unless overridden).  Atoms
are polynomial sign conditions, plus references to previously registered
named sets carrying their own format/degree annotation.
"""

from __future__ import annotations

import itertools

from .poly import Polynomial

SIGNS = ("=", ">", "<")


class FormulaError(ValueError):
    pass


class Formula:
    """Base class; concrete nodes below."""

    def free_vars(self):
        raise NotImplementedError

    def all_vars(self):
        """All distinct variable names, free or quantified, in order of appearance."""
        raise NotImplementedError

    def depth(self):
        raise NotImplementedError

    def atoms(self):
        """Iterate over atom occurrences (Atom and NamedAtom nodes)."""
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def __repr__(self):
        return to_text(self)

    def __str__(self):
        return to_text(self)


class Atom(Formula):
    """A polynomial sign condition `p sign 0`."""

    def __init__(self, poly: Polynomial, sign: str):
        if sign not in SIGNS:
            raise FormulaError(f"bad sign {sign!r}")
        self.poly = poly
        self.sign = sign

    def _key(self):
        return (self.poly, self.sign)

    def free_vars(self):
        return self.poly.variables

    def all_vars(self):
        return list(self.poly.variables)

    def depth(self):
        return 0

    def atoms(self):
        yield self


class NamedAtom(Formula):
    """A reference `@name(v1,...,vk)` to a registered named set."""

    def __init__(self, name: str, args):
        self.name = name
        self.args = tuple(args)

    def _key(self):
        return (self.name, self.args)

    def free_vars(self):
        return self.args

    def all_vars(self):
        return list(self.args)

    def depth(self):
        return 0

    def atoms(self):
        yield self


class _Junction(Formula):
    def __init__(self, children):
        children = tuple(children)
        if len(children) < 2:
            raise FormulaError("junction needs at least two children")
        self.children = children

    def _key(self):
        return self.children

    def free_vars(self):
        return _merge_orders(c.free_vars() for c in self.children)

    def all_vars(self):
        return list(_merge_orders(c.all_vars() for c in self.children))

    def depth(self):
        return 1 + max(c.depth() for c in self.children)

    def atoms(self):
        for c in self.children:
            yield from c.atoms()


class And(_Junction):
    pass


class Or(_Junction):
    pass


class Not(Formula):
    def __init__(self, child):
        self.child = child

    def _key(self):
        return (self.child,)

    def free_vars(self):
        return self.child.free_vars()

    def all_vars(self):
        return self.child.all_vars()

    def depth(self):
        return 1 + self.child.depth()

    def atoms(self):
        yield from self.child.atoms()


class _Quantifier(Formula):
    def __init__(self, var: str, child):
        self.var = var
        self.child = child

    def _key(self):
        return (self.var, self.child)

    def free_vars(self):
        return tuple(v for v in self.child.free_vars() if v != self.var)

    def all_vars(self):
        seen = list(self.child.all_vars())
        if self.var not in seen:
            seen.append(self.var)
        return seen

    def depth(self):
        return 1 + self.child.depth()

    def atoms(self):
        yield from self.child.atoms()


class Exists(_Quantifier):
    pass


class Forall(_Quantifier):
    pass


def _merge_orders(orders):
    seen = []
    for order in orders:
        for v in order:
            if v not in seen:
                seen.append(v)
    return tuple(seen)


def bound_vars(psi):
    out = []
    for node in walk(psi):
        if isinstance(node, _Quantifier):
            out.append(node.var)
    return out


def walk(psi):
    yield psi
    if isinstance(psi, _Junction):
        for c in psi.children:
            yield from walk(c)
    elif isinstance(psi, (Not, _Quantifier)):
        yield from walk(psi.child)


def validate(psi):
    """Check the binding discipline: each quantified variable bound exactly
    once and not free elsewhere."""
    bounds = bound_vars(psi)
    dup = {v for v in bounds if bounds.count(v) > 1}
    if dup:
        raise FormulaError(f"doubly-bound variables: {sorted(dup)}")
    clash = set(bounds) & set(psi.free_vars())
    if clash:
        raise FormulaError(f"variables both free and bound: {sorted(clash)}")
    return psi


def is_quantifier_free(psi):
    return not any(isinstance(n, _Quantifier) for n in walk(psi))


# -- named-set environment -------------------------------------------------


class Environment:
    """Append-only registry of named sets, each with its FD annotation."""

    def __init__(self):
        self._sets = {}

    def register(self, name, formula, fd):
        if name in self._sets:
            if self._sets[name] != (formula, fd):
                raise FormulaError(f"name {name!r} already registered")
            return
        self._sets[name] = (formula, fd)

    def lookup(self, name):
        try:
            return self._sets[name]
        except KeyError:
            raise FormulaError(f"unresolved named set @{name}") from None

    def names(self):
        return sorted(self._sets)


def resolve_named(psi, env):
    """Inline every named-set reference.

    Each occurrence @name(args) becomes the target with its free variables
    renamed to args and its bound variables named _{name}_{k}_{i}, where k
    counts the occurrences, so two references never bind one name twice.
    """
    occurrence = itertools.count()

    def go(node):
        if isinstance(node, Atom):
            return node
        if isinstance(node, NamedAtom):
            target, _ = env.lookup(node.name)
            return instantiate(resolve_named(target, env), node.args,
                               f"_{node.name}_{next(occurrence)}_")
        if isinstance(node, _Junction):
            return type(node)([go(c) for c in node.children])
        if isinstance(node, Not):
            return Not(go(node.child))
        if isinstance(node, _Quantifier):
            return type(node)(node.var, go(node.child))
        raise FormulaError(f"unknown node {node!r}")

    return go(psi)


def rename_vars(psi, mapping):
    if isinstance(psi, Atom):
        return Atom(psi.poly.rename(mapping), psi.sign)
    if isinstance(psi, NamedAtom):
        return NamedAtom(psi.name, [mapping.get(v, v) for v in psi.args])
    if isinstance(psi, _Junction):
        return type(psi)([rename_vars(c, mapping) for c in psi.children])
    if isinstance(psi, Not):
        return Not(rename_vars(psi.child, mapping))
    if isinstance(psi, _Quantifier):
        return type(psi)(mapping.get(psi.var, psi.var),
                         rename_vars(psi.child, mapping))
    raise FormulaError(f"unknown node {psi!r}")


def instantiate(psi, mapping, prefix):
    """A copy of psi with free variables renamed and every binder fresh.

    mapping is a dict from some free variables to their new names, or a
    sequence of new names for all free variables in order.  The i-th
    quantifier in walk order binds the name {prefix}{i}; a fresh name
    equal to a free variable of the copy is an error.
    """
    free = psi.free_vars()
    if not isinstance(mapping, dict):
        mapping = list(mapping)
        if len(mapping) != len(free):
            raise FormulaError(f"arity mismatch: {len(free)} free variables, "
                               f"{len(mapping)} names")
        mapping = dict(zip(free, mapping))
    fresh = [f"{prefix}{i}" for i in range(len(bound_vars(psi)))]
    clash = set(fresh) & {mapping.get(v, v) for v in free}
    if clash:
        raise FormulaError(f"fresh bound names {sorted(clash)} are free")
    fresh = iter(fresh)

    def go(node, names):
        if isinstance(node, Atom):
            return Atom(node.poly.rename(names), node.sign)
        if isinstance(node, NamedAtom):
            return NamedAtom(node.name, [names.get(v, v) for v in node.args])
        if isinstance(node, _Junction):
            return type(node)([go(c, names) for c in node.children])
        if isinstance(node, Not):
            return Not(go(node.child, names))
        if isinstance(node, _Quantifier):
            var = next(fresh)
            return type(node)(var, go(node.child, {**names, node.var: var}))
        raise FormulaError(f"unknown node {node!r}")

    return go(psi, mapping)


# -- canonical printer -----------------------------------------------------


def to_text(psi):
    if isinstance(psi, Atom):
        return f"({psi.poly} {psi.sign} 0)"
    if isinstance(psi, NamedAtom):
        return f"@{psi.name}({', '.join(psi.args)})"
    if isinstance(psi, And):
        return "(" + " and ".join(to_text(c) for c in psi.children) + ")"
    if isinstance(psi, Or):
        return "(" + " or ".join(to_text(c) for c in psi.children) + ")"
    if isinstance(psi, Not):
        return f"not {to_text(psi.child)}"
    if isinstance(psi, Exists):
        return f"exists {psi.var}. {to_text(psi.child)}"
    if isinstance(psi, Forall):
        return f"forall {psi.var}. {to_text(psi.child)}"
    raise FormulaError(f"unknown node {psi!r}")
