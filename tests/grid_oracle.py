"""Float grid oracle for component counts: a test helper, not library code.

Needs numpy and scipy, which come with the package's `test` extra.
"""

from fractions import Fraction

import numpy as np
from scipy import ndimage

from sharpcells.formula import And, Atom, Formula, Not, Or, is_quantifier_free
from sharpcells.topology import TopologyError


def _poly_on_grid(poly, grids):
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

    8-neighbor connectivity on same-membership grid points.  Thin features
    below the grid step are invisible, and equality atoms are thickened to
    a small band, so inputs should keep their features well above the
    resolution.
    """
    if not is_quantifier_free(X):
        raise TopologyError("grid oracle needs a quantifier-free formula")
    variables = X.free_vars()
    n = int(round((hi - lo) / step)) + 1
    axes = [np.linspace(float(lo), float(hi), n) for _ in variables]
    grids = np.meshgrid(*axes, indexing="ij")
    mask = _grid_mask(X, grids, variables)
    structure = np.ones((3,) * len(variables), dtype=bool)
    _, count = ndimage.label(mask, structure=structure)
    return int(count)


def _grid_mask(psi, grids, variables):
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
