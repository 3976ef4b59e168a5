"""Star representations: sets presented as unions of projections of
connected components of auxiliary sets, with their own format/degree
accounting (max of formats, sum of degrees).

The payoff is on cells: a cell of a sign-invariant decomposition is cut
out by a full sign condition on the basis polynomials, and distinct cells
with the same sign vector are never adjacent, so each cell is a connected
component of its sign-condition set.  The sign condition is quantifier
free with format equal to the ambient dimension, so the star format of a
cell does not grow with its root index the way direct cell formulas do.
"""

from __future__ import annotations

from .cad import (
    CADError,
    compatible_decomposition,
    poly_sign_at,
)
from .fd import FDPair, fd_of_formula
from .formula import And, Atom, Formula, instantiate, to_text
from .parser import parse_formula, parse_poly
from .topology import connected_components


class StarError(CADError):
    pass


class StarEntry:
    """One summand: a source set, a component index under the canonical
    ordering (smallest cell index path first), and the target dimension."""

    def __init__(self, source: Formula, fd: FDPair, component: int,
                 target_dim: int):
        self.source = source
        self.fd = fd
        self.component = int(component)
        self.target_dim = int(target_dim)

    def __repr__(self):
        return f"StarEntry({self.fd}, component {self.component}, " \
               f"target {self.target_dim})"


class StarRep:
    def __init__(self, entries):
        self.entries = list(entries)
        if not self.entries:
            raise StarError("a star representation needs at least one entry")

    def __repr__(self):
        return f"StarRep({len(self.entries)} entries, {star_fd(self)})"


def star_fd(r: StarRep) -> FDPair:
    """Star format/degree: max of entry formats, sum of entry degrees."""
    return FDPair(max(e.fd.format for e in r.entries),
                  sum(e.fd.degree for e in r.entries))


def star_union(*reps) -> StarRep:
    """Union of star representations by concatenation; the star FD is the
    componentwise (max, sum), with no format increase."""
    entries = []
    for r in reps:
        entries.extend(r.entries)
    return StarRep(entries)


def to_star(X: Formula) -> StarRep:
    """Star representation of a set: one entry per connected component.

    Each entry's source is X itself and its FD that of X, so the star
    degree is the component count times the degree.  The empty set keeps
    a single entry.
    """
    fd = fd_of_formula(X)
    ell = len(X.free_vars())
    components = connected_components(X)
    n = max(len(components), 1)
    return StarRep([StarEntry(X, fd, i, ell) for i in range(n)])


# ---------------------------------------------------------------------------
# star representations of decomposition cells
# ---------------------------------------------------------------------------


def _sign_vector(decomp, cell):
    layers = decomp.layers()
    signs = []
    for k, layer in enumerate(layers):
        coords = cell.coords[: k + 1]
        for q in layer.basis:
            signs.append(poly_sign_at(q, coords))
    return tuple(signs)


def _sign_vectors(decomp):
    cached = getattr(decomp, "_star_signs", None)
    if cached is None:
        cached = {c.index_path: _sign_vector(decomp, c)
                  for c in decomp.cells}
        decomp._star_signs = cached
    return cached


def _sign_formula(decomp, signs):
    layers = decomp.layers()
    variables = decomp.variables
    atoms = []
    i = 0
    for layer in layers:
        for q in layer.basis:
            s = signs[i]
            i += 1
            op = "=" if s == 0 else (">" if s > 0 else "<")
            atoms.append(Atom(q.extend(variables), op))
    if not atoms:
        # trivial decomposition: a single cell, the whole space
        p = parse_poly(" + ".join(f"0*{v}" for v in variables) + " + 1",
                       variables)
        return Atom(p, ">")
    return atoms[0] if len(atoms) == 1 else And(atoms)


def cell_star_rep(decomp, cell, target_dim=None) -> StarRep:
    """The cell as one connected component of its full sign-condition set.

    Adjacent cells always differ in some basis-polynomial sign, so the
    cells sharing this cell's sign vector are pairwise non-adjacent and
    each is its own component; the selector is the cell's rank among them
    in index-path order.
    """
    vectors = _sign_vectors(decomp)
    mine = vectors[cell.index_path]
    alike = sorted(p for p, v in vectors.items() if v == mine)
    rank = alike.index(cell.index_path)
    psi = _sign_formula(decomp, mine)
    return StarRep([StarEntry(psi, fd_of_formula(psi), rank,
                              decomp.level if target_dim is None
                              else target_dim)])


def star_report(decomp) -> dict:
    """Cell count and the largest star FD over all cells."""
    best = None
    for c in decomp.cells:
        fd = star_fd(cell_star_rep(decomp, c))
        if best is None or (fd.format, fd.degree) > (best.format, best.degree):
            best = fd
    return {"cells": len(decomp.cells), "max_star_fd": list(best.as_tuple())}


# ---------------------------------------------------------------------------
# star cell decomposition
# ---------------------------------------------------------------------------


def star_ccd(reps, n):
    """Cylindrical decomposition of the first n coordinates compatible with
    every represented set.

    All source sets are brought into a common ambient box by padding with
    trailing unit intervals, one simultaneous decomposition is computed,
    and its cells are projected.  Each output cell is the projection of a
    connected full-space cell, recorded as that cell's one-component star
    representation with target dimension n.

    Returns (decomposition, stars, report) where stars maps output cell
    index paths to StarReps.
    """
    reps = list(reps)
    if not reps:
        raise StarError("no star representations given")
    ell = 0
    for r in reps:
        for e in r.entries:
            ell = max(ell, len(e.source.free_vars()))
    if not 1 <= n <= ell:
        raise StarError(f"need 1 <= n <= {ell}")
    variables = tuple(f"_s{i + 1}" for i in range(ell))
    sets = []
    for r in reps:
        for e in r.entries:
            k = len(e.source.free_vars())
            psi = instantiate(e.source, variables[:k], "_sb")
            pads = [Atom(parse_poly(f"{v} - {v}^2"), ">")
                    for v in variables[k:]]
            sets.append(And([psi] + pads) if pads else psi)
    full = compatible_decomposition(sets, variables=variables)
    out = full.layers()[n - 1]
    stars = {}
    for cell in out.cells:
        covering = min(c.index_path for c in full.cells
                       if c.index_path[:n] == cell.index_path)
        rep = cell_star_rep(full, full.cell_at(covering), target_dim=n)
        stars[cell.index_path] = rep
    fds = [star_fd(r) for r in stars.values()]
    report = {
        "cells": len(out.cells),
        "max_star_fd": list(max(fds, key=lambda p: (p.format,
                                                    p.degree)).as_tuple()),
    }
    return out, stars, report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def star_to_json(r: StarRep) -> dict:
    return {
        "version": 1,
        "entries": [
            {"source": to_text(e.source), "fd": list(e.fd.as_tuple()),
             "component": e.component, "target_dim": e.target_dim}
            for e in r.entries],
        "star_fd": list(star_fd(r).as_tuple()),
    }


def star_from_json(doc) -> StarRep:
    if doc.get("version") != 1:
        raise StarError(f"unsupported star schema version {doc.get('version')}")
    return StarRep([
        StarEntry(parse_formula(e["source"]), FDPair(*e["fd"]),
                  e["component"], e["target_dim"])
        for e in doc["entries"]])
