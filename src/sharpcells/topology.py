"""Cell adjacency, connected components, the component-count bound checker,
stratification, triangulation in one and two variables, and Betti numbers.

Adjacency is decided exactly in up to three variables.  When a base cell B
lies in the closure of a base cell B', each section over B' converges at
B to one section over B or to infinity, the same one at every point of B.
One path inside B' toward B's sample point therefore decides the limits,
and along it they are a plane limit problem, solved exactly by counting
roots between rational separators with Sturm chains.  The rule needs
every polynomial to keep a nonzero restriction to the fibre over B; where
one vanishes identically, adjacency raises NullifiedFibreError.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cad import (
    CADError,
    build_stack,
    cell_formula,
    compatible_decomposition,
    restrict,
)
from .fd import fd_of_formula
from .formula import Formula, Or
from .poly import resultant
from .realalg import (
    QQ,
    Num,
    pdivmod,
    pgcd,
    sturm_chain,
    sturm_variations,
)


class TopologyError(CADError):
    pass


class NullifiedFibreError(TopologyError):
    """A polynomial vanishes identically on the fibre over a base cell, so
    the sections near that fibre need not converge to single points."""


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


class AdjacencyGraph:
    """Cells as vertices, an edge when one cell's closure meets the other."""

    heuristic = False  # adjacency is always exact

    def __init__(self, vertices, edges):
        self.vertices = list(vertices)
        self.edges = {frozenset(e) for e in edges}

    def neighbors(self, v):
        out = []
        for e in self.edges:
            if v in e:
                other = [w for w in e if w != v]
                out.append(other[0] if other else v)
        return out

    def components(self, restrict=None):
        """Connected components of the subgraph on the given vertex set."""
        verts = list(self.vertices if restrict is None else restrict)
        vset = set(verts)
        parent = {v: v for v in verts}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for e in self.edges:
            pair = list(e)
            if len(pair) == 2 and pair[0] in vset and pair[1] in vset:
                parent[find(pair[0])] = find(pair[1])
        groups = {}
        for v in verts:
            groups.setdefault(find(v), []).append(v)
        return [sorted(g) for g in
                sorted(groups.values(), key=lambda g: min(g))]


def _near_endpoint(field, upolys, r_handle, far_handle, side):
    """A rational u between r and far, with no real root of the upolys
    (coefficient lists over field) from r to u.

    side +1 looks at the interval to the right of r, side -1 to the left.
    No upoly may vanish at r.  Then refining r's isolating interval until
    Sturm counts find no root in it, and it lies clear of far, makes its
    end on that side such a u; a rational r steps out by halving distances.
    """
    chains = []
    for up in upolys:
        if not up:
            raise TopologyError("a separator line lies on a root curve")
        chains.append(sturm_chain(field, up))

    def usable(u):
        """u lies before far, and no upoly has a root between r and u."""
        if far_handle is not None and (
                far_handle.lo <= u if side > 0 else far_handle.hi >= u):
            return False
        a, b = sorted((r_handle.lo if side > 0 else r_handle.hi, u))
        for chain in chains:
            va, root_a = sturm_variations(field, chain, a)
            vb, root_b = sturm_variations(field, chain, b)
            if root_a or root_b or va != vb:
                return False
        return True

    step = Fraction(1)
    for _ in range(10_000):
        if r_handle.is_rational():
            u = r_handle.exact + side * step
            step /= 2
        else:
            u = r_handle.hi if side > 0 else r_handle.lo
        if usable(u):
            return u
        r_handle.refine()
        if far_handle is not None:
            far_handle.refine()
    raise TopologyError("no approach to a section clear of the separators")


def _limit_codes(field, fibre, seps, count):
    """Where each root of the fibre polynomial lies among the separators.

    Returns a list of length count: 0 below the first separator, i between
    the i-th and the next, len(seps) above the last, counted with a Sturm
    chain.  Near the base cell whose sector samples the separators are,
    each code is the limit of one section: 0 is minus infinity, i the i-th
    section over that cell, and len(seps) plus infinity.
    """
    chain = sturm_chain(field, fibre)
    below = []
    for t in [-math.inf, *seps, math.inf]:
        v, root = sturm_variations(field, chain, t)
        if root:
            raise TopologyError("a root curve meets a separator")
        below.append(v)
    codes = [i for i, (a, b) in enumerate(zip(below, below[1:]))
             for _ in range(a - b)]
    if len(codes) != count:
        raise TopologyError("root accounting mismatch near a section")
    return codes


def _column_edges(path_prefix, n_sections):
    """Edges between consecutive cells of one stack."""
    edges = []
    total = 2 * n_sections + 1
    for j in range(total - 1):
        edges.append((path_prefix + (j,), path_prefix + (j + 1,)))
    return edges


def _limit_edges(upper, lower, codes, s):
    """Edges between the stack over base cell upper and the stack, with s
    sections, over a base cell lower in its closure, given the limit codes
    of upper's sections.  A section meets the section it converges to; a
    sector meets every cell over lower between the limits of its two
    bounding sections."""
    edges = []
    for q, c in enumerate(codes, 1):
        if 1 <= c <= s:
            edges.append((upper + (2 * q - 1,), lower + (2 * c - 1,)))
    bounds = [0] + codes + [s + 1]
    for q in range(len(codes) + 1):
        lo, hi = bounds[q], bounds[q + 1]
        for j in range(max(2 * lo - 1, 0), min(2 * hi - 1, 2 * s) + 1):
            edges.append((upper + (2 * q,), lower + (j,)))
    return edges


def _dim(path):
    return sum(1 - i % 2 for i in path)


def _axis_codes(decomp, upper, lower, P, seps, count):
    """Limit codes along a line parallel to axis k, the first index where
    the two base paths differ: lower is a section there, upper the sector
    beside it, and lower's later coordinates are rational sector samples,
    held fixed.  The line stops before any root, on that side, of P on a
    separator plane or of a base stack crossing a fixed coordinate, so no
    section crosses a separator and the line stays inside upper."""
    layers = decomp.layers()
    k = next(j for j, (a, b) in enumerate(zip(upper, lower)) if a != b)
    side = upper[k] - lower[k]
    stack = layers[k].stacks[lower[:k]]
    field, sections = stack.field, stack.sections
    t = lower[k] // 2
    far = sections[t + side].handle if 0 <= t + side < len(sections) \
        else None
    fixed = [c.data for c in stack.coords] + [
        field.from_fraction(c.as_fraction())
        for c in decomp.stacks[lower].coords[k + 1:]]
    avoid = [restrict(field, P, fixed + [field.from_fraction(s)], k)
             for s in seps]
    for j in range(k + 1, decomp.level - 1):
        crossing = layers[j].stacks[upper[:j]].product
        if crossing is not None:
            avoid.append(restrict(field, crossing, fixed[:j], k))
    u = _near_endpoint(field, avoid, sections[t].handle, far, side)
    point = fixed[:k] + [field.from_fraction(u)] + fixed[k:]
    fibre = restrict(field, P, point)
    return _limit_codes(field, fibre, seps, count)


def _curve_end_codes(decomp, upper, lower, P, seps, count):
    """Limit codes where a curve y = f(x) over an x-interval ends at a
    point (alpha, beta).  Walk along the curve to a rational x1 past every
    real root of Res_y(P(x, y, s), g) for the curve's polynomial g and each
    separator s: on the way P(x, f(x), s) never vanishes, so no section
    crosses a separator.  A resultant may also vanish at alpha, through
    another root of g(alpha, y); such factors are divided out."""
    base = decomp.base
    x_sections = base.base.stacks[()].sections
    side = upper[0] - lower[0]
    t = lower[0] // 2
    far = x_sections[t + side].handle if 0 <= t + side < len(x_sections) \
        else None
    column = base.stacks[upper[:1]]
    q = upper[1] // 2
    curve = column.sections[q].handle
    g = next(p for p, up in zip(base.basis, column.upolys)
             if up is not None and len(up) >= 2 and curve.vanishes(up))
    x, y, z = decomp.variables
    r = x_sections[t].handle
    avoid = []
    for s in seps:
        res = restrict(QQ, resultant(P.subs_var(z, s), g, y), [])
        while res and r.vanishes(res):
            # r.sqf is irreducible: level-1 handles isolate the roots of
            # factor_basis's irreducible polynomials, so the gcd removes
            # the conjugates of alpha and no other root of res
            root_poly = [-r.exact, Fraction(1)] if r.is_rational() else r.sqf
            res, _ = pdivmod(QQ, res, pgcd(QQ, res, root_poly))
        avoid.append(res)
    x1 = _near_endpoint(QQ, avoid, r, far, side)
    value = build_stack(QQ, [Num.rational(x1)], base.basis).sections[q].value
    field = value.field
    fibre = restrict(field, P, [field.from_fraction(x1), value.data])
    return _limit_codes(field, fibre, seps, count)


def _pair_codes(decomp, upper, lower, known):
    """Limit codes of the sections over base cell upper at base cell lower
    in its closure.  known[u][l] holds the codes of the pairs whose
    dimensions differ by one."""
    top = decomp.stacks[upper]
    if not top.sections:
        return []
    k = next(j for j, (a, b) in enumerate(zip(upper, lower)) if a != b)
    if all(i % 2 == 0 for i in lower[k + 1:]):
        walk = _axis_codes
    elif _dim(upper) == 1:
        walk = _curve_end_codes
    else:
        # a 2-cell over a point: the sections extend continuously to the
        # closure of the 2-cell, so their limits at the point are the
        # limits, along a 1-cell between the two, of the sections they
        # converge to on that 1-cell
        mid = next((m for m in known.get(upper, ())
                    if lower in known.get(m, ())), None)
        if mid is None:
            raise TopologyError(f"no 1-cell between base cells {upper} "
                                f"and {lower}")
        s_mid = len(decomp.stacks[mid].sections)
        s = len(decomp.stacks[lower].sections)
        inner = known[mid][lower]
        return [0 if c == 0 else s + 1 if c > s_mid else inner[c - 1]
                for c in known[upper][mid]]
    return walk(decomp, upper, lower, top.product,
                decomp.stacks[lower].sector_samples(), len(top.sections))


def _check_fibres(decomp):
    last = decomp.variables[-1]
    for path, stack in decomp.stacks.items():
        for q, up in zip(decomp.basis, stack.upolys):
            if up is None and q.degree_in(last) >= 1:
                raise NullifiedFibreError(
                    f"{q} vanishes identically on the fibre over base cell "
                    f"{path}; the limits of the sections near it are not "
                    f"decided")


def _edges(decomp):
    """Adjacency edges of a decomposition of dimension one to three.

    The base edges give the pairs of base cells B in the closure of B';
    the limit codes of the sections over B' at B give the edges between
    their stacks, and consecutive cells of each stack are adjacent.
    """
    if decomp.level == 1:
        paths = [c.index_path for c in decomp.cells]
        return set(map(frozenset, zip(paths, paths[1:])))
    _check_fibres(decomp)
    edges = set()
    for path, stack in decomp.stacks.items():
        edges.update(map(frozenset, _column_edges(path,
                                                  len(stack.sections))))
    pairs = sorted((sorted(e, key=_dim) for e in _edges(decomp.base)),
                   key=lambda pair: _dim(pair[1]) - _dim(pair[0]))
    known = {}
    for lower, upper in pairs:
        codes = _pair_codes(decomp, upper, lower, known)
        known.setdefault(upper, {})[lower] = codes
        edges.update(map(frozenset, _limit_edges(
            upper, lower, codes, len(decomp.stacks[lower].sections))))
    return edges


def adjacency(decomp) -> AdjacencyGraph:
    """Exact cell adjacency graph of a decomposition in one to three
    variables."""
    if decomp.level > 3:
        raise TopologyError(
            f"adjacency not supported in dimension {decomp.level}")
    return AdjacencyGraph([c.index_path for c in decomp.cells],
                          _edges(decomp))


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


class Component:
    """A connected component: its cells, a defining formula, and its FD."""

    def __init__(self, cells, formula, fd):
        self.cells = list(cells)
        self.formula = formula
        self.fd = fd

    def __repr__(self):
        return f"Component({len(self.cells)} cells, {self.fd})"


def _cells_formula(decomp, cell_paths):
    parts = []
    for i, path in enumerate(cell_paths):
        psi, _ = cell_formula(decomp, decomp.cell_at(path),
                              fresh_prefix=f"_q{i}_")
        parts.append(psi)
    psi = parts[0] if len(parts) == 1 else Or(parts)
    return psi, fd_of_formula(psi)


def connected_components(X: Formula, decomp=None):
    """Connected components of the set defined by X, as lists of cells with
    a defining formula and FD each."""
    if decomp is None:
        decomp = compatible_decomposition([X])
    graph = adjacency(decomp)
    inside = [c.index_path for c in decomp.cells if c.memberships[0]]
    out = []
    for group in graph.components(restrict=inside):
        psi, fd = _cells_formula(decomp, group)
        out.append(Component(group, psi, fd))
    return out


# ---------------------------------------------------------------------------
# component-count bound checking
# ---------------------------------------------------------------------------


def check_component_bound(family, cap) -> dict:
    """Count components across a degree-indexed family and fit the growth.

    family maps a degree index to a formula.  The report holds each set's
    component count and the least-squares slope of log(count) against
    log(index); the check passes when the slope is at most the cap.
    """
    if not family:
        raise TopologyError("empty family")
    counts = {D: len(connected_components(family[D])) for D in sorted(family)}
    xs = [math.log(D) for D in counts if D >= 1]
    ys = [math.log(max(counts[D], 1)) for D in counts if D >= 1]
    if len(set(xs)) >= 2:
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        exponent = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                    / sum((x - mx) ** 2 for x in xs))
    else:
        exponent = 0.0
    return {
        "counts": counts,
        "exponent": exponent,
        "cap": float(cap),
        "passed": exponent <= float(cap),
    }


# ---------------------------------------------------------------------------
# stratification
# ---------------------------------------------------------------------------


class Stratum:
    """All cells of one dimension from a decomposition adapted to a set."""

    def __init__(self, dim, cells, formula, fd):
        self.dim = dim
        self.cells = list(cells)
        self.formula = formula
        self.fd = fd

    def __repr__(self):
        return f"Stratum(dim {self.dim}, {len(self.cells)} cells)"


def stratify(X: Formula):
    """Partition of X into smooth pieces, one stratum per dimension.

    The cells of a compatible decomposition are analytic graphs and bands,
    so grouping those inside X by dimension yields embedded submanifolds.
    """
    decomp = compatible_decomposition([X])
    groups = {}
    for c in decomp.cells:
        if c.memberships[0]:
            groups.setdefault(c.dim, []).append(c.index_path)
    out = []
    for dim in sorted(groups):
        psi, fd = _cells_formula(decomp, groups[dim])
        out.append(Stratum(dim, groups[dim], psi, fd))
    return out


# ---------------------------------------------------------------------------
# simplicial complexes and Betti numbers
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """Vertices with rational coordinates plus face-closed simplices.

    labels maps a simplex (as a sorted vertex tuple) to the set of input
    identifiers whose set contains its image.
    """

    def __init__(self, vertices, simplices, labels=None):
        self.vertices = [tuple(Fraction(x) for x in v) for v in vertices]
        self.simplices = {0: set(), 1: set(), 2: set()}
        for s in simplices:
            self._add(tuple(sorted(s)))
        self.labels = {tuple(sorted(k)): set(v)
                       for k, v in (labels or {}).items()}

    def _add(self, s):
        if len(set(s)) != len(s):
            raise TopologyError(f"degenerate simplex {s}")
        if len(s) > 3:
            raise TopologyError("complex dimension is capped at two")
        self.simplices[len(s) - 1].add(s)
        for face in itertools.combinations(s, len(s) - 1):
            if face:
                self._add(face)

    def counts(self):
        return tuple(len(self.simplices[k]) for k in (0, 1, 2))

    def euler_characteristic(self):
        v, e, f = self.counts()
        return v - e + f


def _rank(rows, ncols):
    """Rank of a sparse rational matrix given as {col: coeff} rows."""
    rows = [dict(r) for r in rows if r]
    rank = 0
    pivots = {}
    for row in rows:
        for col, lead in sorted(pivots.items()):
            prow, pcoeff = lead
            if col in row:
                factor = row[col] / pcoeff
                for c, v in prow.items():
                    row[c] = row.get(c, Fraction(0)) - factor * v
                    if row[c] == 0:
                        del row[c]
        row = {c: v for c, v in row.items() if v != 0}
        if row:
            col = min(row)
            pivots[col] = (row, row[col])
            rank += 1
    return rank


def betti(K: SimplicialComplex):
    """(b0, b1, b2): rational homology ranks from boundary-matrix ranks."""
    verts = sorted(K.simplices[0])
    edges = sorted(K.simplices[1])
    tris = sorted(K.simplices[2])
    vi = {v: i for i, v in enumerate(verts)}
    ei = {e: i for i, e in enumerate(edges)}
    d1 = [{vi[(e[0],)]: Fraction(-1), vi[(e[1],)]: Fraction(1)}
          for e in edges]
    d2 = []
    for t in tris:
        row = {}
        for k, face in enumerate(((t[1], t[2]), (t[0], t[2]), (t[0], t[1]))):
            row[ei[face]] = Fraction((-1) ** k)
        d2.append(row)
    r1 = _rank(d1, len(verts))
    r2 = _rank(d2, len(edges))
    b0 = len(verts) - r1
    b1 = len(edges) - r1 - r2
    b2 = len(tris) - r2
    return (b0, b1, b2)


# ---------------------------------------------------------------------------
# triangulation (one and two variables)
# ---------------------------------------------------------------------------


def _vertex_coords(cell):
    """Midpoints of 2^-40 enclosures of the cell's sample coordinates, and
    whether they are the sample itself (every coordinate rational)."""
    coords = tuple(sum(c.approx(40)) / 2 for c in cell.coords)
    return coords, all(c.as_fraction() is not None for c in cell.coords)


def _check_closed_bounded(decomp, graph, inside):
    inset = set(inside)
    layers = decomp.layers()
    for path in inside:
        for k, i in enumerate(path):
            n = len(layers[k].stacks[path[:k]].sections)
            if i == 0 or i == 2 * n:
                raise TopologyError(
                    "set is unbounded (reaches an extreme cell)")
    for e in graph.edges:
        pair = sorted(e, key=lambda p: decomp.cell_at(p).dim)
        if len(pair) != 2:
            continue
        lo, hi = pair
        if hi in inset and lo not in inset and \
                decomp.cell_at(lo).dim < decomp.cell_at(hi).dim:
            raise TopologyError(
                f"set is not closed: cell {hi} has boundary cell {lo} "
                "outside the set")


def triangulate(X: Formula, subsets=()):
    """Simplicial complex for a closed bounded set in one or two variables.

    Zero-cells become vertices; one-cells are subdivided at their sample
    point into two edges; two-cells are coned from their sample point over
    their boundary edges.  Returns the complex and a description: the
    simplices of each cell, and per vertex "exact" (a rational sample) or
    "approximate" (midpoints of enclosures of an algebraic sample).
    Simplices inherit the labels of the originating cell.
    """
    subsets = list(subsets)
    decomp = compatible_decomposition([X] + subsets)
    if decomp.level > 2:
        raise TopologyError("triangulation supports at most two variables")
    graph = adjacency(decomp)
    inside = [c.index_path for c in decomp.cells if c.memberships[0]]
    if not inside:
        return SimplicialComplex([], []), {}
    _check_closed_bounded(decomp, graph, inside)
    inset = set(inside)
    vid = {}
    coords = []
    kinds = []

    def vertex(path, key=None):
        key = key or path
        if key not in vid:
            vid[key] = len(coords)
            point, exact = _vertex_coords(decomp.cell_at(path))
            coords.append(point)
            kinds.append("exact" if exact else "approximate")
        return vid[key]

    def midpoint(path):
        return vertex(path, path + ("mid",))

    simplices = []
    labels = {}
    cell_map = {}

    def emit(simplex, path):
        simplex = tuple(sorted(simplex))
        simplices.append(simplex)
        cell = decomp.cell_at(path)
        labs = {i for i, flag in enumerate(cell.memberships[1:]) if flag}
        labels.setdefault(simplex, set()).update(labs)
        cell_map.setdefault(path, []).append(simplex)

    def edge_pieces(path):
        """The two subdivided edges of a one-cell, via its endpoints."""
        ends = [p for p in graph.neighbors(path)
                if decomp.cell_at(p).dim == 0]
        if len(ends) != 2:
            raise TopologyError(
                f"one-cell {path} has {len(ends)} endpoints; expected 2")
        m = midpoint(path)
        return [(vertex(ends[0]), m), (m, vertex(ends[1]))]

    for path in inside:
        cell = decomp.cell_at(path)
        if cell.dim == 0:
            emit((vertex(path),), path)
        elif cell.dim == 1:
            for e in edge_pieces(path):
                emit(e, path)
        else:
            center = midpoint(path)
            boundary = [p for p in graph.neighbors(path)
                        if decomp.cell_at(p).dim == 1]
            degree = {}
            for b in boundary:
                for e in edge_pieces(b):
                    emit((center, e[0], e[1]), path)
                    for v in e:
                        degree[v] = degree.get(v, 0) + 1
            if any(d % 2 for v, d in degree.items()
                   if not _is_midpoint(v, vid)):
                raise TopologyError(
                    f"two-cell {path} has a non-cyclic boundary")
    K = SimplicialComplex(coords, simplices, labels)
    description = {
        "cells": {str(p): [list(s) for s in ss] for p, ss in cell_map.items()},
        "vertices": {str(i): kind for i, kind in enumerate(kinds)},
    }
    return K, description


def _is_midpoint(vertex_id, vid):
    for key, i in vid.items():
        if i == vertex_id:
            return key[-1] == "mid"
    return False


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def complex_to_json(K: SimplicialComplex) -> dict:
    return {
        "version": 1,
        "vertices": [[str(x) for x in v] for v in K.vertices],
        "simplices": {str(k): sorted(map(list, K.simplices[k]))
                      for k in (0, 1, 2)},
        "labels": {",".join(map(str, k)): sorted(v)
                   for k, v in sorted(K.labels.items())},
    }


def complex_to_off(K: SimplicialComplex) -> str:
    """OFF text for external viewers; flat coordinates, triangles only."""
    lines = ["OFF"]
    tris = sorted(K.simplices[2])
    lines.append(f"{len(K.vertices)} {len(tris)} 0")
    for v in K.vertices:
        xs = [float(x) for x in v] + [0.0] * (3 - len(v))
        lines.append(" ".join(f"{x:.9g}" for x in xs))
    for t in tris:
        lines.append("3 " + " ".join(map(str, t)))
    return "\n".join(lines) + "\n"


def components_to_json(components) -> dict:
    from .formula import to_text
    return {
        "version": 1,
        "components": [
            {"cells": [list(p) for p in c.cells],
             "fd": list(c.fd.as_tuple()),
             "formula": to_text(c.formula)}
            for c in components],
    }
