"""Exact cylindrical algebraic decomposition over the rationals (dim <= 3).

Projection is McCallum's reduced set (coefficient chain, discriminants,
pairwise resultants) over an irreducible factor basis; in at most three
variables it needs no Collins fallback, and beyond three it rejects a
factor it is not known to be complete for.  Lifting is exact: sector
samples are rational, section samples are real algebraic numbers in field
towers from realalg.  Every sign decision goes through exact arithmetic.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache, reduce

from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    NamedAtom,
    Not,
    Or,
    bound_vars,
    instantiate,
)
from .fd import fd_of_formula
from .poly import (
    Polynomial,
    discriminant,
    factor,
    primitive_integers,
    resultant,
)
from .realalg import (
    QQ,
    Num,
    RootHandle,
    isolate_roots,
    nonzero_sign,
    num_in,
    num_join,
    peval,
    ptrim,
    rational_between,
    sort_roots,
)


class CADError(Exception):
    pass


class CeilingError(CADError):
    """Requested dimension exceeds the ceiling."""


# the largest ambient dimension the engine decomposes; decide alone takes a
# ceiling of its own, on quantifier depth
DEFAULT_CEILING = 3


# ---------------------------------------------------------------------------
# basic types
# ---------------------------------------------------------------------------


class Cell:
    """One cell of a cylindrical decomposition.

    index_path holds one stack index per level; even indices are sectors
    (intervals), odd indices sections (graphs of root functions).  The
    sample point is exact: rational in sector coordinates, real algebraic
    in sections.
    """

    def __init__(self, index_path, field, coords, dim):
        self.index_path = tuple(index_path)
        self.field = field
        self.coords = list(coords)
        self.dim = dim
        self.memberships = None  # filled by compatible_decomposition

    @property
    def level(self):
        return len(self.index_path)

    def sample_dict(self, variables):
        return dict(zip(variables, self.coords))

    def __repr__(self):
        return f"Cell{self.index_path}(dim {self.dim})"


class CellDecomposition:
    """A sign-invariant cylindrical decomposition of R^level.

    Carries the recursive base decomposition and, per base cell, the stack
    data (substituted univariate polynomials and section roots) used for
    lifting, adjacency, and cell formulas.
    """

    def __init__(self, variables, basis, cells, base):
        self.variables = tuple(variables)
        self.basis = list(basis)
        self.cells = list(cells)
        self.base = base
        self.stacks = {}  # base index_path -> Stack

    @property
    def level(self):
        return len(self.variables)

    def __len__(self):
        return len(self.cells)

    def cell_at(self, index_path):
        index_path = tuple(index_path)
        for c in self.cells:
            if c.index_path == index_path:
                return c
        raise KeyError(index_path)

    def layers(self):
        """Decompositions from the one-dimensional base up to this one."""
        chain = []
        d = self
        while d is not None:
            chain.append(d)
            d = d.base
        return list(reversed(chain))


# ---------------------------------------------------------------------------
# factor basis and projection
# ---------------------------------------------------------------------------


def factor_basis(polys, variables):
    """Distinct irreducible rational factors, primitive-normalized."""
    out = []
    for p in polys:
        if p.is_zero():
            raise CADError("zero polynomial in input")
        for q in factor(p.extend(variables)):
            if q not in out:
                out.append(q)
    return out


def project_polys(polys, variables=None):
    """Projection of a set of polynomials, eliminating the last variable.

    The output (in one fewer variable) holds, for each irreducible factor
    q, its coefficients in the last variable from the top down to the
    first nonzero constant, its discriminant, and the pairwise resultants.
    Onto one variable only the leading coefficient is kept: an irreducible
    q cannot vanish identically over a point of the line (Brown 2001).
    Onto the plane an irreducible q vanishes identically over at most
    finitely many points, the common zeros of its kept coefficients, and
    these become 0-cells, so no Collins fallback is needed (McCallum 1988).
    In more variables such a factor may vanish identically over a curve,
    where the set is not known to be complete, so a chain with no nonzero
    constant raises CADError there.
    """
    polys = list(polys)
    if not polys:
        return []
    if variables is None:
        variables = polys[0].variables
    variables = tuple(variables)
    if len(variables) < 2:
        raise CADError("projection needs at least two variables")
    basis = factor_basis(polys, variables)
    last = variables[-1]
    active = [q for q in basis if q.degree_in(last) >= 1]
    passthrough = [q.coeffs_in_last()[0] for q in basis
                   if q.degree_in(last) == 0]
    out = []

    def add(q):
        if q.is_constant():
            return
        q = q.primitive()
        if q not in out:
            out.append(q)

    for q in passthrough:
        add(q)

    for q in active:
        for c in reversed(q.coeffs_in_last()):
            if c.is_zero():
                continue
            if c.is_constant():
                break
            add(c)
            if len(variables) == 2:
                break
        else:
            if len(variables) > 3:
                raise CADError(
                    f"the coefficients of {q} in {last} have no nonzero "
                    f"constant; the projection is only complete for such "
                    f"a factor in at most three variables")
        if q.degree_in(last) >= 2:
            add(discriminant(q, last))

    for i in range(len(active)):
        for j in range(i + 1, len(active)):
            add(resultant(active[i], active[j], last))

    return out


def _eliminate(polys, order, keep):
    """Project polys down the variable order until only its first keep
    variables are left."""
    work = [p.extend(tuple(order)) for p in polys]
    while len(order) > keep:
        nonconst = [p for p in work if not p.is_constant()]
        work = project_polys(nonconst, tuple(order)) if nonconst else []
        order = order[:-1]
    return work


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------


def _rational_root(handle):
    """The same rational-field root as a rational handle when it is
    rational, and otherwise the handle itself.

    A rational root of the primitive integer polynomial of handle.sqf has
    a denominator dividing its leading coefficient, so it lies on the
    lattice Z/lead, lead the coefficient's absolute value.  A copy of the
    handle refined below width 1/lead holds at most two lattice points,
    and the root is rational exactly when sqf vanishes at one of them.
    The handle itself is not refined.
    """
    lead = abs(primitive_integers(handle.sqf)[-1])
    probe = handle.copy()
    probe.refine_below(Fraction(1, lead))
    if probe.is_rational():
        return RootHandle.rational(QQ, probe.exact)
    for k in range(math.ceil(probe.lo * lead),
                   math.floor(probe.hi * lead) + 1):
        if probe.sign_at(Fraction(k, lead)) == 0:
            return RootHandle.rational(QQ, Fraction(k, lead))
    return handle


def _section_value(field, handle):
    """Exact Num for the root a handle isolates over a field: a rational
    root stays in the field, any other root becomes the generator of an
    extension whose modulus is the handle's squarefree, possibly reducible
    polynomial."""
    if handle.is_rational():
        return Num(field, field.from_fraction(handle.exact))
    ext = handle.as_extension()
    return Num(ext, ext.gen)


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------


class Section:
    """One section of a stack: a root handle over the stack's field, the
    indices of the basis polynomials whose restrictions have this root
    (their handles merged into it in sort_roots), and, on first use, its
    exact value.  Over QQ that first use replaces a handle whose root is
    rational by a rational handle (_rational_root), for value and later
    readers alike."""

    def __init__(self, field, handle, indices):
        self.field = field
        self.handle = handle
        self.indices = indices

    @cached_property
    def value(self):
        if self.field is QQ and not self.handle.is_rational():
            self.handle = _rational_root(self.handle)
        return _section_value(self.field, self.handle)


class Stack:
    """The sections of a polynomial basis over one base point.

    upolys[i] is basis polynomial i with the base point substituted, a
    coefficient list over field, or None where it vanishes identically on
    the fiber; sections are the distinct real roots of the upolys in
    increasing order.
    """

    def __init__(self, field, coords, basis, upolys, sections):
        self.field = field
        self.coords = coords
        self.basis = basis
        self.upolys = upolys
        self.sections = sections

    def sector_samples(self):
        """Rational sample values for the sectors, below, between and
        above the sections."""
        handles = [s.handle for s in self.sections]
        if not handles:
            return [Fraction(0)]
        samples = [handles[0].lo - 1]
        for h1, h2 in zip(handles, handles[1:]):
            samples.append(rational_between(h1, h2))
        samples.append(handles[-1].hi + 1)
        return samples

    def zeros(self, idx):
        """The indices of the basis polynomials that vanish on cell idx of
        the stack (even: a sector, odd: a section): those nullified on the
        fiber and, on a section, those whose roots merged into it.  Every
        other basis polynomial is nonzero on the cell."""
        out = {i for i, up in enumerate(self.upolys) if up is None}
        if idx % 2:
            out |= self.sections[idx // 2].indices
        return out

    @cached_property
    def product(self):
        """Product of the basis polynomials nonconstant on the fiber, or
        None when there are none."""
        active = [q for q, up in zip(self.basis, self.upolys)
                  if up is not None and len(up) >= 2]
        return reduce(operator.mul, active) if active else None


def restrict(field, poly, values, free=-1):
    """poly as a coefficient list over field in its variable number free
    (the last by default), the other variables set, in order, to values
    (elements of field).

    Over QQ this is one homogeneous integer evaluation (_cleared), made
    primitive: a list of ints, a positive rational multiple of the
    restriction, so its signs and roots are the restriction's.
    """
    free %= len(poly.variables)
    if field is QQ:
        out = ptrim(QQ, _cleared(poly, values, free))
        g = math.gcd(*out)
        return [c // g for c in out]
    out = [field.zero] * (poly.degree_in(poly.variables[free]) + 1)
    powers = [[field.one] for _ in values]  # powers[j][e] = values[j]^e
    for expo, c in poly.terms.items():
        term = field.from_fraction(c)
        for e, v, pw in zip(expo[:free] + expo[free + 1:], values, powers):
            if e:
                while len(pw) <= e:
                    pw.append(field.mul(pw[-1], v))
                term = field.mul(term, pw[e])
        out[expo[free]] = field.add(out[expo[free]], term)
    return ptrim(field, out)


def build_stack(field, coords, basis):
    """The stack of a basis over one base point of the given field: the
    roots of each restricted polynomial's squarefree part, isolated by
    isolate_roots.  Nothing is factored: a section's value is rational or
    generates an extension on its handle's squarefree polynomial (see
    Section).  Each section records the basis indices of the handles
    sort_roots merged into it, so the stack knows which basis polynomials
    vanish on each of its cells (Stack.zeros)."""
    values = [num_in(field, c).data for c in coords]
    upolys = []
    handles = []
    owner = {}  # id(handle) -> basis index
    for i, poly in enumerate(basis):
        up = restrict(field, poly, values)
        upolys.append(up if up else None)  # None: vanishes on the fiber
        if len(up) >= 2:
            for h in isolate_roots(field, up):
                owner[id(h)] = i
                handles.append(h)
    sections = [Section(field, group[0], {owner[id(h)] for h in group})
                for group in sort_roots(handles)]
    return Stack(field, coords, basis, upolys, sections)


def _lift_cells(base_cell, stack):
    field = stack.field
    coords = stack.coords
    # values before samples: refining a handle for a sample can land on its
    # root exactly, which would change the section's field
    values = [sec.value for sec in stack.sections]
    sectors = stack.sector_samples()
    cells = []
    for idx in range(2 * len(values) + 1):
        if idx % 2 == 0:
            new_field = field
            new_coords = list(coords) + [num_in(field, sectors[idx // 2])]
            dim = base_cell.dim + 1
        else:
            value = values[idx // 2]
            new_field = value.field
            if new_field is field:
                new_coords = list(coords) + [value]
            else:
                new_coords = [num_in(new_field, c) for c in coords] + [value]
            dim = base_cell.dim
        cells.append(Cell(base_cell.index_path + (idx,), new_field,
                          new_coords, dim))
    return cells


# ---------------------------------------------------------------------------
# the decomposition builder
# ---------------------------------------------------------------------------


def cad(polys, variables=None):
    """Sign-invariant cylindrical decomposition of R^len(variables)."""
    polys = list(polys)
    if variables is None:
        if not polys:
            raise CADError("need variables when no polynomials are given")
        variables = polys[0].variables
    variables = tuple(variables)
    for p in polys:
        if p.variables != variables:
            raise CADError("all polynomials must share one variable order")
    if len(variables) == 0:
        raise CADError("need at least one variable")
    if len(variables) > DEFAULT_CEILING:
        raise CeilingError(f"dimension {len(variables)} exceeds ceiling "
                           f"{DEFAULT_CEILING}")
    basis = factor_basis(polys, variables)
    return _cad_levels(basis, variables)


def _cad_levels(basis, variables):
    if len(variables) == 1:
        virtual_base = Cell((), QQ, [], 0)
        stack = build_stack(QQ, [], basis)
        cells = _lift_cells(virtual_base, stack)
        d = CellDecomposition(variables, basis, cells, None)
        d.stacks[()] = stack
        return d
    proj = project_polys(basis, variables) if basis else []
    base = _cad_levels(
        factor_basis(proj, variables[:-1]) if proj else [],
        variables[:-1])
    d = CellDecomposition(variables, basis, [], base)
    cells = []
    for base_cell in base.cells:
        stack = build_stack(base_cell.field, base_cell.coords, basis)
        d.stacks[base_cell.index_path] = stack
        cells.extend(_lift_cells(base_cell, stack))
    d.cells = cells
    return d


# ---------------------------------------------------------------------------
# random in-cell sampling
# ---------------------------------------------------------------------------


def _random_in_sector(sections, j, rng):
    t = Fraction(rng.randrange(1, 64), 64)
    if not sections:
        return Fraction(rng.randrange(-200, 201), 100)
    if j == 0:
        return sections[0].handle.lo - t
    if j == len(sections):
        return sections[-1].handle.hi + t
    h1 = sections[j - 1].handle
    h2 = sections[j].handle
    while not h1.hi < h2.lo:  # a gap to draw from, not one touching point
        h1.refine()
        h2.refine()
    a, b = h1.hi, h2.lo
    return a + t * (b - a)


def sample_in_cell(decomp, cell, rng, count=1):
    """Random exact points inside a cell, as coordinate lists of Num.

    Sector coordinates are drawn as random rationals.  While every
    coordinate so far is a section, the point is the cell's own base sample
    and the decomposition's stack over it is reused.  Past the first sector
    coordinate the stack is rebuilt over the random base point, like every
    other stack, and its sections are re-solved exactly.
    """
    layers = decomp.layers()
    out = []
    for _ in range(count):
        field = QQ
        coords = []
        on_sample = True  # only section coordinates so far
        for k, idx in enumerate(cell.index_path):
            if on_sample:
                stack = layers[k].stacks[cell.index_path[:k]]
            else:
                stack = build_stack(field, coords, layers[k].basis)
            sections = stack.sections
            if idx % 2 == 1:
                value = sections[idx // 2].value
                if value.field is not field:
                    coords = [num_in(value.field, c) for c in coords]
                    field = value.field
                coords.append(value)
            else:
                val = _random_in_sector(sections, idx // 2, rng)
                coords.append(num_in(field, val))
                on_sample = False
        out.append(coords)
    return out


def locate(decomp, point):
    """Index path of the unique cell containing an exact point.

    point is a sequence of Fractions or Nums; comparisons against stack
    sections are exact, so the answer is certified.
    """
    layers = decomp.layers()
    if len(point) != decomp.level:
        raise CADError("point dimension mismatch")
    coords = []
    path = []
    for k, value in enumerate(point):
        *coords, v = _in_one_field(coords + [value])
        stack = build_stack(v.field, coords, layers[k].basis)
        idx = 0
        landed = None
        for j, sec in enumerate(stack.sections):
            c = _num_cmp(v, sec.value)
            if c == 0:
                idx = 2 * j + 1
                landed = sec.value
                break
            if c < 0:
                idx = 2 * j
                break
            idx = 2 * j + 2
        coords.append(v if landed is None else landed)
        path.append(idx)
    return tuple(path)


def _num_cmp(a, b):
    a, b = _in_one_field([a, b])
    return (a - b).sign()


def poly_sign_at(poly, coords):
    """Exact sign of a polynomial at a coordinate list of Num.

    At a rational point this is the sign of one integer sum.  Otherwise the
    visibly rational coordinates are substituted first, the polynomial is
    restricted to its last algebraic coordinate in the field of the others,
    and evaluated there by Horner's rule.
    """
    field, value = _value_at(poly, coords)
    return field.sign(value)


def _nonzero_sign(poly, coords):
    """poly_sign_at for a polynomial known not to vanish at coords: at an
    algebraic point the sign comes from interval enclosures alone, with no
    zero test."""
    field, value = _value_at(poly, coords)
    return nonzero_sign(field, value)


def _value_at(poly, coords):
    """(field, payload) for poly at coords; at a rational point the payload
    is one integer sum, a positive multiple of the value (_cleared)."""
    if len(coords) != len(poly.variables):
        raise ValueError("point dimension mismatch")
    values = [c.as_fraction() for c in coords]
    if None not in values:
        return QQ, sum(_cleared(poly, values))
    for name, q in zip(poly.variables, values):
        if q is not None:
            poly = poly.subs_var(name, q)
    algebraic = [c for c, q in zip(coords, values) if q is None]
    field = _deepest_field(algebraic)
    data = [num_in(field, c).data for c in algebraic]
    up = restrict(field, poly, data[:-1])
    return field, peval(field, up, data[-1])


def _cleared(poly, point, free=None):
    """poly's integer coefficients in its variable number free, the other
    variables set, in order, to the rationals point; with free None, every
    variable is set and the list has one entry.  Every coefficient
    denominator, and each coordinate's denominator to its degree, is
    cleared, so the list is a positive multiple of the rational one."""
    terms = poly.terms
    if not terms:
        return []
    denom = math.lcm(*[c.denominator for c in terms.values()])
    powers = []  # powers[i][e] = a^e b^(top - e) for coordinate i = a/b
    point = iter(point)
    for i, top in enumerate(map(max, zip(*terms))):
        if i == free:  # the free variable contributes no factor
            powers.append([1] * (top + 1))
            continue
        q = next(point)
        a, b = q.numerator, q.denominator
        powers.append([a ** e * b ** (top - e) for e in range(top + 1)])
    out = [0] * (1 if free is None else len(powers[free]))
    for expo, c in terms.items():
        out[0 if free is None else expo[free]] += (
            c.numerator * (denom // c.denominator)
            * math.prod(map(operator.getitem, powers, expo)))
    return out


# ---------------------------------------------------------------------------
# cell formulas with root indexing
# ---------------------------------------------------------------------------


def _lt(a, b):
    """Atom expressing a < b for two variables."""
    p = Polynomial((a, b), {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    return Atom(p, ">")


def _eq(a, b):
    p = Polynomial((a, b), {(1, 0): Fraction(1), (0, 1): Fraction(-1)})
    return Atom(p, "=")


def _jth_root(P, target, j, fresh):
    """Formula stating that target is the j-th real root, in increasing
    order, of P read as a polynomial in its last variable."""
    x = P.variables[-1]
    aux = [next(fresh) for _ in range(j - 1)]
    parts = [Atom(P.rename({x: u}), "=") for u in aux]
    chain = aux + [target]
    parts += [_lt(a, b) for a, b in zip(chain, chain[1:])]
    parts.append(Atom(P.rename({x: target}), "="))
    z = next(fresh)
    bad = And([Atom(P.rename({x: z}), "="), _lt(z, target)])
    if aux:
        closure = Forall(z, Or([Not(bad)] + [_eq(z, u) for u in aux]))
    else:
        closure = Forall(z, Not(bad))
    body = And(parts + [closure])
    for u in reversed(aux):
        body = Exists(u, body)
    return body


def _var_minus(var, r):
    return Polynomial((var,), {(1,): Fraction(1), (0,): -Fraction(r)})


def cell_formula(decomp, cell, fresh_prefix="_q"):
    """A defining formula for a cell, with its format/degree pair.

    Sections are described by root indexing into the product of the stack
    polynomials; the format of these descriptions grows with the root
    index, which is exactly the growth star representations avoid.
    """
    layers = decomp.layers()
    fresh = (f"{fresh_prefix}{i}" for i in itertools.count())
    parts = []
    for k, idx in enumerate(cell.index_path):
        layer = layers[k]
        var = layer.variables[-1]
        stack = layer.stacks[cell.index_path[:k]]
        sections = stack.sections
        P = stack.product
        if idx % 2 == 1:
            sec = sections[idx // 2]
            if k == 0 and sec.handle.is_rational():
                parts.append(Atom(_var_minus(var, sec.handle.exact), "="))
            else:
                parts.append(_jth_root(P, var, idx // 2 + 1, fresh))
        else:
            j = idx // 2  # number of sections strictly below this sector
            if j >= 1:
                sec = sections[j - 1]
                if k == 0 and sec.handle.is_rational():
                    parts.append(Atom(_var_minus(var, sec.handle.exact), ">"))
                else:
                    u = next(fresh)
                    parts.append(Exists(u, And([_jth_root(P, u, j, fresh),
                                                _lt(u, var)])))
            if j < len(sections):
                sec = sections[j]
                if k == 0 and sec.handle.is_rational():
                    parts.append(Atom(_var_minus(var, sec.handle.exact), "<"))
                else:
                    w = next(fresh)
                    parts.append(Exists(w, And([_jth_root(P, w, j + 1, fresh),
                                                _lt(var, w)])))
    if not parts:
        psi = Atom(Polynomial.constant(1, decomp.variables[:1]), ">")
    elif len(parts) == 1:
        psi = parts[0]
    else:
        psi = And(parts)
    return psi, fd_of_formula(psi)


# ---------------------------------------------------------------------------
# exact decisions for quantified formulas (small ambient dimension)
# ---------------------------------------------------------------------------


def _deepest_field(values):
    field = QQ
    for v in values:
        if isinstance(v, Num) and v.field.depth() > field.depth():
            field = v.field
    return field


def _as_num(value):
    if isinstance(value, Num):
        return value
    return Num.rational(value)


def _in_tower(field, top):
    while top is not None:
        if top is field:
            return True
        top = top.base
    return False


def _in_one_field(values):
    """Rationals and Nums as Nums of one field: the deepest operand's when
    every other field lies in its tower, and otherwise that field with the
    other towers joined on through realalg.num_join."""
    nums = [_as_num(v) for v in values]
    field = _deepest_field(nums)
    if all(_in_tower(n.field, field) for n in nums):
        return [num_in(field, n) for n in nums]
    # num_join builds on the deeper operand's field, and top's field is
    # never shallower than n's, so every join extends the fields before it
    top = Num(field, field.zero)
    joined = []
    for n in nums:
        n, top = num_join(n, top)
        joined.append(n)
    return [num_in(top.field, n) for n in joined]


def _eval_atom(atom, point, zeros):
    coerced = _in_one_field(point[v] for v in atom.poly.variables)
    factors = zeros[0].get(id(atom)) if zeros else None
    if factors is None:
        s = poly_sign_at(atom.poly, coerced)
    elif factors & zeros[1]:
        s = 0
    else:
        s = _nonzero_sign(atom.poly, coerced)
    if atom.sign == "=":
        return s == 0
    if atom.sign == ">":
        return s > 0
    return s < 0


def decide(psi: Formula, point=None, ceiling=DEFAULT_CEILING):
    """Exact truth value of a formula under a variable assignment.

    The assignment must cover every free variable (values may be rational
    or exact algebraic Num); quantified variables are handled by recursive
    decomposition over projection polynomials, so the quantifier depth is
    limited by the ceiling.

    An outer quantifier, one under nothing but And, Or and Not, whose free
    variables all have rational values is decided through a memo: its key
    is the quantifier renamed to canonical names, the values and the
    ceiling, so it holds no caller names, and a renamed copy met again at
    the same point is decided once.  Nested quantifiers are not memoised.
    The memo shares its size with the block memo (_BLOCK_MEMO_SIZE).

    Every sign is decided here with a zero test.  The memberships of
    compatible_decomposition go through the same evaluator, _decide, with
    the cell's zero set in place of the zero tests.
    """
    point = dict(point or {})
    missing = [v for v in psi.free_vars() if v not in point]
    if missing:
        raise CADError(f"unassigned free variables {missing}")
    return _decide(psi, point, ceiling)


def _decide(psi, point, ceiling, outer=True, zeros=None):
    """The one evaluator behind decide and every membership.

    zeros, when given, is (factors, zero set) for a point that is a cell
    sample of a decomposition: factors maps id(atom), for each nonconstant
    atom of the decomposition's sets that uses no bound variable, to the
    basis indices of its polynomial's factors, and the zero set holds the
    indices that vanish on the cell (Stack.zeros).  Such an atom is 0
    exactly when one of its factors is in the set; otherwise its sign is
    read from interval enclosures alone.  Every other atom takes
    poly_sign_at.
    """
    if isinstance(psi, Atom):
        return _eval_atom(psi, point, zeros)
    if isinstance(psi, NamedAtom):
        raise CADError("resolve named atoms before deciding")
    if isinstance(psi, And):
        return all(_decide(c, point, ceiling, outer, zeros)
                   for c in psi.children)
    if isinstance(psi, Or):
        return any(_decide(c, point, ceiling, outer, zeros)
                   for c in psi.children)
    if isinstance(psi, Not):
        return not _decide(psi.child, point, ceiling, outer, zeros)
    if isinstance(psi, (Exists, Forall)):
        if outer:
            free = psi.free_vars()
            values = tuple(_as_num(point[v]).as_fraction() for v in free)
            if None not in values:
                names = [f"_f{i}" for i in range(len(free))]
                return _decide_closed(instantiate(psi, names, "_b"), values,
                                      ceiling)
        return _decide_quantifier(psi, point, ceiling, zeros)
    raise CADError(f"cannot decide {psi!r}")


def _decide_quantifier(psi, point, ceiling, zeros=None):
    """Truth of a quantified psi: its body at every test point of psi.var."""
    want = isinstance(psi, Exists)
    for value in _test_points(psi, point, ceiling):
        newpoint = dict(point)
        newpoint[psi.var] = value
        if _decide(psi.child, newpoint, ceiling, outer=False,
                   zeros=zeros) == want:
            return want
    return not want


def _test_points(psi, point, ceiling):
    """Candidate values for psi.var covering every relevant sign condition.

    Isolates the roots of psi's projection basis (see _block_basis) in
    psi.var at the current (possibly algebraic) assignment; yields each
    root and a rational in each gap.
    """
    if len(bound_vars(psi)) > ceiling:
        raise CeilingError("quantifier depth exceeds ceiling")
    names = psi.free_vars()
    assigned, basis = _block_basis(psi, tuple(v for v in point if v in names))
    if basis is None:
        yield Num.rational(0)
        return
    coords = _in_one_field(point[v] for v in assigned)
    field = coords[0].field if coords else QQ
    stack = build_stack(field, coords, basis)
    samples = stack.sector_samples()
    yield Num.rational(samples[0])
    for sec, sample in zip(stack.sections, samples[1:]):
        yield sec.value
        yield Num.rational(sample)


# Quantifier blocks projected once per distinct (formula, assigned names),
# while among the most recently used; decide meets the same block at every
# point of an outer quantifier or of a decomposition.
_BLOCK_MEMO_SIZE = 512


@lru_cache(maxsize=_BLOCK_MEMO_SIZE)
def _block_basis(psi, names):
    """The names, in order, of those given that psi's body uses, and the
    basis of psi's body projected onto them and psi.var, extended to those
    variables; the basis is None when the body does not use psi.var.

    Deeper quantified variables are eliminated by projection.  Results are
    tuples, shared by every caller.
    """
    var = psi.var
    inner_bound = bound_vars(psi.child)
    polys = []
    for atom in psi.child.atoms():
        if not isinstance(atom, Atom):
            raise CADError("resolve named atoms before deciding")
        if not atom.poly.is_constant():
            polys.append(atom.poly)
    order = []
    for p in polys:
        for v in p.variables:
            if v not in order:
                order.append(v)
    if var not in order:
        return (), None
    full = [v for v in names if v in order]
    full.append(var)
    full += [v for v in inner_bound if v in order]
    stray = [v for v in order if v not in full]
    if stray:
        raise CADError(f"stray variables {stray} in quantified body")
    keep = full.index(var) + 1
    work = _eliminate(polys, full, keep)
    full = tuple(full[:keep])
    return full[:-1], tuple(p.extend(full) for p in work
                            if not p.is_constant())


@lru_cache(maxsize=_BLOCK_MEMO_SIZE)
def _decide_closed(psi, values, ceiling):
    """Truth of a quantifier psi in canonical names (_f0, _f1, ... free,
    from formula.instantiate) with the free variables at the rationals
    values, in order."""
    point = {f"_f{i}": v for i, v in enumerate(values)}
    return _decide_quantifier(psi, point, ceiling)


# ---------------------------------------------------------------------------
# decompositions compatible with a family of sets
# ---------------------------------------------------------------------------


def compatible_decomposition(sets, variables=None):
    """A cylindrical decomposition of R^n compatible with the given sets.

    Each input formula defines a subset of the common ambient space; every
    cell lies entirely inside or outside each set, recorded per cell in
    cell.memberships.  Quantified inputs contribute their projection
    polynomials; membership is then decided exactly at cell samples.

    Each membership goes through _decide with the cell's zero set: an atom
    that uses no bound variable is 0 exactly when one of its factors in
    the basis vanishes on the cell (Stack.zeros), and otherwise takes its
    sign from interval enclosures, with no zero test.  The map from atoms
    to basis indices is built once per decomposition.
    """
    sets = list(sets)
    if variables is None:
        order = []
        for s in sets:
            for v in s.free_vars():
                if v not in order:
                    order.append(v)
        variables = tuple(order)
    else:
        variables = tuple(variables)
        for s in sets:
            extra = set(s.free_vars()) - set(variables)
            if extra:
                raise CADError(f"free variables {sorted(extra)} outside "
                               f"the ambient variables {variables}")
    if not variables:
        raise CADError("no ambient variables")
    if len(variables) > DEFAULT_CEILING:
        raise CeilingError(f"dimension {len(variables)} exceeds ceiling "
                           f"{DEFAULT_CEILING}")

    polys = []

    def add(p):
        if p.is_constant():
            return
        q = p.extend(variables).primitive()
        if q not in polys:
            polys.append(q)

    for s in sets:
        bvars = bound_vars(s)
        free_polys = []
        quant_polys = []
        for atom in s.atoms():
            if not isinstance(atom, Atom):
                raise CADError("resolve named atoms first")
            if set(atom.poly.variables) & set(bvars):
                quant_polys.append(atom.poly)
            else:
                free_polys.append(atom.poly)
        for p in free_polys:
            add(p)
        if quant_polys:
            order = list(variables) + list(bvars)
            if len(order) > DEFAULT_CEILING:
                raise CeilingError("elimination depth exceeds ceiling")
            for p in _eliminate(quant_polys, order, len(variables)):
                add(p)

    d = cad(polys, variables)
    factors = {}  # id(atom) -> basis indices of its factors
    for s in sets:
        bvars = set(bound_vars(s))
        for atom in s.atoms():
            p = atom.poly
            if not p.is_constant() and not bvars & set(p.variables):
                # the polynomial add made, so factor hits the kernel memo
                q = p.extend(variables).primitive()
                factors[id(atom)] = {d.basis.index(f) for f in factor(q)}
    for c in d.cells:
        point = c.sample_dict(variables)
        zeros = (factors, d.stacks[c.index_path[:-1]].zeros(c.index_path[-1]))
        c.memberships = tuple(_decide(s, point, DEFAULT_CEILING, zeros=zeros)
                              for s in sets)
    return d


def decomposition_report(decomp):
    """Cell count and the largest cell-description format/degree pair."""
    best = None
    for c in decomp.cells:
        _, fd = cell_formula(decomp, c)
        if best is None or (fd.format, fd.degree) > (best.format, best.degree):
            best = fd
    return {"cells": len(decomp.cells),
            "max_fd": best.as_tuple() if best else None}
