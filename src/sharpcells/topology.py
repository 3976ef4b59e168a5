"""Cell adjacency, connected components, the component-count bound checker,
stratification, triangulation in one and two variables, and Betti numbers.

Adjacency in the plane is decided exactly: over each base interval the
section curves are root functions of the stack polynomials, and their
one-sided limits at the interval endpoints are found by exactly comparing
isolated roots with rational separators.  Three-dimensional adjacency is
sampling-based and flagged as heuristic.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .cad import (
    CADError,
    DEFAULT_CEILING,
    cell_formula,
    compatible_decomposition,
    locate,
)
from .constructors import local_maxima_formula
from .fd import fd_of_formula
from .formula import (
    And,
    Atom,
    Formula,
    Not,
    Or,
    is_quantifier_free,
    resolve_named,
)
from .realalg import (
    QQ,
    RootHandle,
    compare_roots,
    isolate_roots,
    ptrim,
    rational_between,
)


class TopologyError(CADError):
    pass


# ---------------------------------------------------------------------------
# adjacency
# ---------------------------------------------------------------------------


class AdjacencyGraph:
    """Cells as vertices, an edge when one cell's closure meets the other."""

    def __init__(self, vertices, edges, heuristic=False):
        self.vertices = list(vertices)
        self.edges = {frozenset(e) for e in edges}
        self.heuristic = heuristic

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


def _near_endpoint(P, seps, r_handle, far_handle, side):
    """A rational abscissa inside the interval, past every x where a root
    curve of P crosses one of the separator lines.

    side +1 looks at the interval to the right of r, side -1 to the left.
    """
    closest = far_handle
    for t in seps:
        # P(x, t) as a coefficient list in x
        up = [Fraction(0)] * (P.degree_in(P.variables[0]) + 1)
        for (i, j), c in P.terms.items():
            up[i] += c * t**j
        up = ptrim(QQ, up)
        if len(up) <= 1:
            continue
        for h in isolate_roots(QQ, up):
            if compare_roots(h, r_handle) == side and (
                    closest is None or compare_roots(h, closest) == -side):
                closest = h
    if closest is None:
        return r_handle.hi + 1 if side > 0 else r_handle.lo - 1
    if side > 0:
        return rational_between(r_handle, closest)
    return rational_between(closest, r_handle)


def _limit_codes(decomp, P, x0, seps, count):
    """Which candidate each root curve converges to, as ordered codes.

    Returns a list of length count: 0 for minus infinity, i for the i-th
    candidate (1-based), len(seps) for plus infinity.
    """
    up = ptrim(QQ, [Fraction(c.eval([x0])) for c in P.coeffs_in_last()])
    separators = [RootHandle.rational(QQ, t) for t in seps]
    codes = []
    for h in isolate_roots(QQ, up):
        code = 0
        for sep in separators:
            c = compare_roots(h, sep)
            if c == 0:
                raise TopologyError("a root curve meets a separator")
            if c < 0:
                break
            code += 1
        codes.append(code)
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


def _cross_edges(decomp, section_idx, sector_idx, side):
    """Edges between a section column and a flanking sector column."""
    base = decomp.base
    base_sections = base.stacks[()].sections
    t = section_idx // 2
    r_handle = base_sections[t].handle
    col = decomp.stacks[(section_idx,)]
    s = len(col.sections)
    sector = decomp.stacks[(sector_idx,)]
    m = len(sector.sections)
    edges = []
    if m == 0:
        # one full-plane band over the sector; its closure covers the line
        for j in range(2 * s + 1):
            edges.append(((sector_idx, 0), (section_idx, j)))
        return edges
    P = sector.product(decomp.basis)
    seps = col.sector_samples()
    if side > 0:
        far = base_sections[t + 1].handle if t + 1 < len(base_sections) \
            else None
    else:
        far = base_sections[t - 1].handle if t >= 1 else None
    x0 = _near_endpoint(P, seps, r_handle, far, side)
    codes = _limit_codes(decomp, P, x0, seps, m)
    # codes[q-1] is the limit of the q-th root curve: 0 = -inf, i = i-th
    # section of the column, s+1 = +inf
    for q in range(1, m + 1):
        c = codes[q - 1]
        if 1 <= c <= s:
            edges.append(((sector_idx, 2 * q - 1), (section_idx, 2 * c - 1)))
    for q in range(m + 1):  # bands between curves q and q+1
        lo = 0 if q == 0 else codes[q - 1]
        hi = s + 1 if q == m else codes[q]
        for i in range(1, s + 1):
            if lo <= i <= hi:
                edges.append(((sector_idx, 2 * q), (section_idx, 2 * i - 1)))
        for i in range(s + 1):  # vertical sector (y_i, y_{i+1}), codes i, i+1
            if lo <= i and i + 1 <= hi:
                edges.append(((sector_idx, 2 * q), (section_idx, 2 * i)))
    return edges


def _adjacency_exact(decomp):
    edges = []
    if decomp.level == 1:
        paths = [c.index_path for c in decomp.cells]
        for a, b in zip(paths, paths[1:]):
            edges.append((a, b))
        return AdjacencyGraph(paths, edges)
    base_sections = decomp.base.stacks[()].sections
    for base_cell in decomp.base.cells:
        i = base_cell.index_path[0]
        edges.extend(_column_edges((i,), len(decomp.stacks[(i,)].sections)))
    for t in range(len(base_sections)):
        si = 2 * t + 1
        edges.extend(_cross_edges(decomp, si, si - 1, side=-1))
        edges.extend(_cross_edges(decomp, si, si + 1, side=+1))
    return AdjacencyGraph([c.index_path for c in decomp.cells], edges)


def _adjacency_sampled(decomp, rng=None, probes=40):
    """Heuristic adjacency for three variables: probe small neighborhoods
    of each lower-dimensional cell and record which cells they land in."""
    rng = rng or random.Random(7)
    paths = [c.index_path for c in decomp.cells]
    edges = set()
    for cell in decomp.cells:
        if cell.dim == decomp.level:
            continue
        approx = [sum(c.approx(24), Fraction(0)) / 2 for c in cell.coords]
        for _ in range(probes):
            k = rng.randrange(8, 24)
            delta = Fraction(1, 2 ** k)
            point = [a + Fraction(rng.randrange(-3, 4)) * delta
                     for a in approx]
            try:
                other = locate(decomp, point)
            except CADError:
                continue
            if other != cell.index_path:
                edges.add(frozenset((cell.index_path, other)))
    return AdjacencyGraph(paths, edges, heuristic=True)


def adjacency(decomp, rng=None) -> AdjacencyGraph:
    """Cell adjacency graph; exact up to two variables, heuristic in three."""
    if decomp.level <= 2:
        return _adjacency_exact(decomp)
    if decomp.level == 3:
        return _adjacency_sampled(decomp, rng=rng)
    raise TopologyError(f"adjacency not supported in dimension {decomp.level}")


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


def connected_components(X: Formula, env=None, ceiling=DEFAULT_CEILING,
                         decomp=None):
    """Connected components of the set defined by X, as lists of cells with
    a defining formula and FD each."""
    if env is not None:
        X = resolve_named(X, env)
    if decomp is None:
        decomp = compatible_decomposition([X], ceiling=ceiling)
    graph = adjacency(decomp)
    inside = [c.index_path for c in decomp.cells if c.memberships[0]]
    out = []
    for group in graph.components(restrict=inside):
        psi, fd = _cells_formula(decomp, group)
        out.append(Component(group, psi, fd))
    return out


# ---------------------------------------------------------------------------
# grid-sampling oracle
# ---------------------------------------------------------------------------


def _poly_on_grid(poly, grids):
    import numpy as np
    vals = np.zeros_like(grids[0])
    for expo, coeff in poly.terms.items():
        term = np.full_like(grids[0], float(coeff))
        for g, e in zip(grids, expo):
            if e:
                term = term * g ** e
        vals = vals + term
    return vals


def grid_components(X: Formula, lo=-5, hi=5, step=Fraction(1, 200)) -> int:
    """Component count by union-find over a float sample grid.

    Sampling oracle for tests: 8-neighbor connectivity on same-membership
    grid points.  Thin features below the grid step are invisible, and
    equality atoms are thickened to a small band, so inputs should keep
    their features well above the resolution.  Needs numpy and scipy,
    which come with the package's `test` extra.
    """
    import numpy as np
    if not is_quantifier_free(X):
        raise TopologyError("grid oracle needs a quantifier-free formula")
    variables = X.free_vars()
    n = int(round((hi - lo) / step)) + 1
    axes = [np.linspace(float(lo), float(hi), n) for _ in variables]
    grids = np.meshgrid(*axes, indexing="ij")
    mask = _grid_mask(X, grids, variables)
    from scipy import ndimage
    structure = np.ones((3,) * len(variables), dtype=bool)
    _, count = ndimage.label(mask, structure=structure)
    return int(count)


def _grid_mask(psi, grids, variables):
    from scipy import ndimage
    if isinstance(psi, Atom):
        vals = _poly_on_grid(psi.poly.extend(variables), grids)
        if psi.sign == "=":
            # a grid point lies on the curve when the polynomial changes
            # sign (or vanishes) within its immediate neighborhood
            size = (3,) * vals.ndim
            return (ndimage.maximum_filter(vals, size=size) >= 0) & \
                   (ndimage.minimum_filter(vals, size=size) <= 0)
        if psi.sign == ">":
            return vals > 0
        return vals < 0
    if isinstance(psi, And):
        out = _grid_mask(psi.children[0], grids, variables)
        for c in psi.children[1:]:
            out = out & _grid_mask(c, grids, variables)
        return out
    if isinstance(psi, Or):
        out = _grid_mask(psi.children[0], grids, variables)
        for c in psi.children[1:]:
            out = out | _grid_mask(c, grids, variables)
        return out
    if isinstance(psi, Not):
        return ~_grid_mask(psi.child, grids, variables)
    raise TopologyError("grid oracle needs a quantifier-free formula")


# ---------------------------------------------------------------------------
# component-count bound checking
# ---------------------------------------------------------------------------


def _closed_variant(psi):
    """Strict atoms relaxed to their closures, for the witness check."""
    if isinstance(psi, Atom):
        if psi.sign == ">":
            return Not(Atom(psi.poly, "<"))
        if psi.sign == "<":
            return Not(Atom(psi.poly, ">"))
        return psi
    if isinstance(psi, (And, Or)):
        return type(psi)([_closed_variant(c) for c in psi.children])
    if isinstance(psi, Not):
        return Not(_closed_variant(psi.child))
    return psi


def check_component_bound(family, cap, env=None, ceiling=DEFAULT_CEILING,
                          witness_functionals=None) -> dict:
    """Count components across a degree-indexed family and fit the growth.

    family maps a degree index to a formula.  The fitted exponent is the
    least-squares slope of log(count) against log(index), and the check
    passes when it stays at or below the cap.  For the largest index a
    local-maxima witness is probed on the closed variant of the set: the
    report records whether its cells drop in dimension and how many
    components of the set it meets.
    """
    if not family:
        raise TopologyError("empty family")
    counts = {}
    parts = {}
    for D in sorted(family):
        comps = connected_components(family[D], env=env, ceiling=ceiling)
        counts[D] = len(comps)
        parts[D] = comps
    xs = [math.log(D) for D in counts if D >= 1]
    ys = [math.log(max(counts[D], 1)) for D in counts if D >= 1]
    if len(set(xs)) >= 2:
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        exponent = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                    / sum((x - mx) ** 2 for x in xs))
    else:
        exponent = 0.0
    top = max(family)
    witness = _maxima_witness(family[top], parts[top], env, ceiling,
                              witness_functionals)
    return {
        "counts": counts,
        "exponent": exponent,
        "cap": float(cap),
        "passed": exponent <= float(cap),
        "witness": witness,
    }


def _maxima_witness(X, components, env, ceiling, functionals):
    if env is not None:
        X = resolve_named(X, env)
    closed = _closed_variant(X)
    ell = len(X.free_vars())
    if functionals is None:
        functionals = [[1] + [0] * (ell - 1), [-1] + [0] * (ell - 1)]
        if ell >= 2:
            functionals.append([0] * (ell - 1) + [1])
            functionals.append([0] * (ell - 1) + [-1])
            functionals.append([1] * ell)
    best = None
    for f in functionals:
        maxima = local_maxima_formula(closed, f)
        try:
            d = compatible_decomposition([closed, maxima], ceiling=ceiling)
        except CADError as exc:
            best = best or {"functional": f, "error": str(exc)}
            continue
        dim_x = max((c.dim for c in d.cells if c.memberships[0]), default=-1)
        max_cells = [c for c in d.cells if c.memberships[1]]
        dim_m = max((c.dim for c in max_cells), default=-1)
        graph = adjacency(d)
        inside = [c.index_path for c in d.cells if c.memberships[0]]
        met = 0
        for group in graph.components(restrict=inside):
            if any(c.index_path in group for c in max_cells):
                met += 1
        total = len(graph.components(restrict=inside))
        record = {
            "functional": f,
            "set_dimension": dim_x,
            "maxima_dimension": dim_m,
            "dimension_drops": dim_m < dim_x,
            "components_met": met,
            "components_total": total,
            "closed_variant": True,
        }
        if record["dimension_drops"] and met == total:
            return record
        if best is None or met > best.get("components_met", -1):
            best = record
    return best


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


def stratify(X: Formula, env=None, ceiling=DEFAULT_CEILING):
    """Partition of X into smooth pieces, one stratum per dimension.

    The cells of a compatible decomposition are analytic graphs and bands,
    so grouping those inside X by dimension yields embedded submanifolds.
    """
    if env is not None:
        X = resolve_named(X, env)
    decomp = compatible_decomposition([X], ceiling=ceiling)
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


def _vertex_coords(cell, prec=40):
    """Midpoints of 2^-prec enclosures of the cell's sample coordinates,
    and whether they are the sample itself (every coordinate rational)."""
    coords = tuple(sum(c.approx(prec)) / 2 for c in cell.coords)
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


def triangulate(X: Formula, subsets=(), env=None, ceiling=DEFAULT_CEILING):
    """Simplicial complex for a closed bounded set in one or two variables.

    Zero-cells become vertices; one-cells are subdivided at their sample
    point into two edges; two-cells are coned from their sample point over
    their boundary edges.  Returns the complex and a description: the
    simplices of each cell, and per vertex "exact" (a rational sample) or
    "approximate" (midpoints of enclosures of an algebraic sample).
    Simplices inherit the labels of the originating cell.
    """
    if env is not None:
        X = resolve_named(X, env)
        subsets = [resolve_named(s, env) for s in subsets]
    subsets = list(subsets)
    decomp = compatible_decomposition([X] + subsets, ceiling=ceiling)
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
