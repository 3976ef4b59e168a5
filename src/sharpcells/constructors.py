"""Named formula constructors: differentiability loci, local maxima,
constrained diagonals, and the rescaling of the line into the unit
interval.

All constructors return plain formulas over polynomial sign atoms, so the
results feed directly into the FD accounting and the geometric engines.
Absolute values are expanded into squared comparisons throughout.
"""

from __future__ import annotations

from fractions import Fraction

from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    FormulaError,
    Not,
    Or,
    instantiate,
    validate,
)
from .poly import Polynomial
from .parser import parse_poly


class ConstructorError(FormulaError):
    pass


def _conj(parts):
    parts = list(parts)
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def _dist2_text(us, vs):
    return " + ".join(f"({u} - {v})^2" for u, v in zip(us, vs))


def diff_locus_formula(graph: Formula, ell: int, k: int) -> Formula:
    """The set of points where a function given by its graph relation is
    differentiable in every output coordinate.

    graph must have ell + k free variables (inputs then outputs).  For each
    output coordinate the classical epsilon-delta formula is emitted, with
    the slope a block of ell fresh variables and both distance comparisons
    squared.  The comparison in the conclusion is non-strict so the trivial
    case of zero displacement does not falsify it.
    """
    fv = graph.free_vars()
    if len(fv) != ell + k:
        raise ConstructorError(
            f"graph has {len(fv)} free variables, expected {ell + k}")
    xs = list(fv[:ell])
    conjuncts = []
    for i in range(k):
        Ls = [f"_L{i}_{j}" for j in range(ell)]
        ys = [f"_y{i}_{j}" for j in range(ell)]
        us = [f"_u{i}_{j}" for j in range(k)]
        vs = [f"_v{i}_{j}" for j in range(k)]
        eps = f"_e{i}"
        dlt = f"_d{i}"
        graph_y = instantiate(graph, ys + us, f"_g{i}ab")
        graph_x = instantiate(graph, xs + vs, f"_g{i}bb")
        dist2 = _dist2_text(ys, xs)
        near = parse_poly(f"{dist2} - {dlt}^2")
        slope = " - ".join(f"{L}*({y} - {x})"
                           for L, y, x in zip(Ls, ys, xs))
        err = parse_poly(f"({us[i]} - {vs[i]} - ({slope}))^2"
                         f" - {eps}^2*({dist2})")
        hyp = And([graph_y, graph_x, Atom(near, "<")])
        concl = Not(Atom(err, ">"))
        body = Or([Not(hyp), concl])
        for v in reversed(ys + us + vs):
            body = Forall(v, body)
        body = Exists(dlt, And([Atom(parse_poly(dlt), ">"), body]))
        body = Forall(eps, Or([Not(Atom(parse_poly(eps), ">")), body]))
        for L in reversed(Ls):
            body = Exists(L, body)
        conjuncts.append(body)
    return validate(_conj(conjuncts))


def local_maxima_formula(X: Formula, functional) -> Formula:
    """The set of local maxima of a linear functional restricted to X."""
    xs = list(X.free_vars())
    functional = [Fraction(c) for c in functional]
    if len(functional) != len(xs):
        raise ConstructorError(
            f"functional has length {len(functional)}, expected {len(xs)}")
    ys = [f"_m{j}" for j in range(len(xs))]
    eps = "_me"
    X_y = instantiate(X, ys, "_mxb")
    dist2 = parse_poly(f"{_dist2_text(ys, xs)} - {eps}^2")
    terms = []
    for c, y, x in zip(functional, ys, xs):
        if c == 0:
            continue
        cs = f"{c.numerator}" if c.denominator == 1 else \
            f"{c.numerator}/{c.denominator}"
        terms.append(f"({cs})*({y} - {x})")
    if not terms:
        # zero functional: every point of X is a local maximum
        return validate(X)
    gain = parse_poly(" + ".join(terms))
    near = And([X_y, Atom(dist2, "<")])
    inner = Or([Not(near), Not(Atom(gain, ">"))])
    for y in reversed(ys):
        inner = Forall(y, inner)
    cond = Exists(eps, And([Atom(parse_poly(eps), ">"), inner]))
    return validate(And([X, cond]))


def diagonal_formulas(X_a: Formula, X_b: Formula, n: int):
    """Two product sets used when comparing section germs.

    The first output is X_a x X_b restricted by equality of the first n-1
    coordinates; the second adds equality in coordinate n.
    """
    xs = list(X_a.free_vars())
    ell = len(xs)
    if len(X_b.free_vars()) != ell:
        raise ConstructorError("ambient dimensions differ")
    if not 1 <= n <= ell:
        raise ConstructorError(f"need 1 <= n <= {ell}, got {n}")
    ys = [f"{v}_r" for v in xs]
    X_b_r = instantiate(X_b, ys, "_dgb")
    X_a_f = instantiate(X_a, xs, "_dfb")  # freshen bound vars against X_b_r
    eqs = [Atom(parse_poly(f"{x} - {y}"), "=")
           for x, y in zip(xs[: n - 1], ys[: n - 1])]
    first = _conj([X_a_f, X_b_r] + eqs)
    second = _conj([X_a_f, X_b_r] + eqs +
                   [Atom(parse_poly(f"{xs[n-1]} - {ys[n-1]}"), "=")])
    return validate(first), validate(second)


# the coordinatewise homeomorphism from the open unit interval onto the
# line is x -> (x - 1/2)/(x - x^2); substituting it into an atom and
# clearing denominators by even powers of x - x^2 (positive on the
# interval) keeps atoms polynomial and signs unchanged.


def _rescale_atom(atom: Atom) -> Atom:
    p = atom.poly
    variables = p.variables
    nums = {}
    dens = {}
    for v in variables:
        nums[v] = parse_poly(f"{v} - 1/2", variables)
        dens[v] = parse_poly(f"{v} - {v}^2", variables)
    powers = {v: 2 * ((p.degree_in(v) + 1) // 2) for v in variables}
    total = Polynomial(variables)
    for expo, coeff in p.terms.items():
        term = Polynomial.constant(coeff, variables)
        for v, e in zip(variables, expo):
            term = term * nums[v] ** e * dens[v] ** (powers[v] - e)
        total = total + term
    return Atom(total, atom.sign)


def _unit_box_atom(v: str) -> Atom:
    return Atom(parse_poly(f"{v} - {v}^2"), ">")


def rescale_to_unit(X: Formula) -> Formula:
    """The preimage of X in the open unit box under the coordinatewise
    homeomorphism from the interval onto the line."""

    def go(node):
        if isinstance(node, Atom):
            return _rescale_atom(node)
        if isinstance(node, (And, Or)):
            return type(node)([go(c) for c in node.children])
        if isinstance(node, Not):
            return Not(go(node.child))
        if isinstance(node, Exists):
            return Exists(node.var,
                          And([_unit_box_atom(node.var), go(node.child)]))
        if isinstance(node, Forall):
            return Forall(node.var,
                          Or([Not(_unit_box_atom(node.var)), go(node.child)]))
        raise ConstructorError(f"cannot rescale {node!r}")

    boxes = [_unit_box_atom(v) for v in X.free_vars()]
    return validate(_conj([go(X)] + boxes))


def unrescale_point(point):
    """Image in the line of a rational point of the unit interval, one
    coordinate at a time."""
    out = []
    for x in point:
        x = Fraction(x)
        if not 0 < x < 1:
            raise ConstructorError(f"{x} is not inside the unit interval")
        out.append((x - Fraction(1, 2)) / (x - x * x))
    return out
