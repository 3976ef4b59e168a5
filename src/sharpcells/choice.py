"""Definable choice: an explicit section of a definable family.

For a family of nonempty subsets of the line the section is built from two
landmarks of each fiber: its infimum a and the right end b of the maximal
initial interval starting at a.  Four cases arise (both infinite, only a
infinite, only b infinite, both finite) and each gets a closed-form value
(0, b-1, a+1, the midpoint).  Higher fiber dimension is handled one
coordinate at a time: choose in the projected family, slice, repeat.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cad import (
    CADError,
    DEFAULT_CEILING,
    _as_num,
    _decide,
    _test_points,
)
from .fd import FDPair, fd_of_formula
from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    Formula,
    Not,
    Or,
    instantiate,
    to_text,
    validate,
)
from .parser import parse_poly
from .realalg import num_join


class ChoiceError(CADError):
    pass


def _gt(text):
    return Atom(parse_poly(text), ">")


def region_formulas(total: Formula, fiber_var: str) -> dict:
    """The four parameter regions of a one-dimensional family, as formulas
    over the remaining free variables.

    A: the fiber is the whole line.  B: unbounded below but not the line.
    C: the infimum a is attained as a finite landmark and everything above
    it belongs to the fiber.  D: everything else with a nonempty fiber.
    The infimum enters through its graph condition: a is a lower bound and
    no larger number is.
    """
    v = fiber_var
    # numbers for fresh bound names, unique within this region set and the
    # same on every call, so equal inputs give equal formulas
    counter = itertools.count()

    def member(x, tag):
        return instantiate(total, {v: x}, f"_cb{tag}_")

    # each builder draws fresh bound names, so a region may embed several
    # copies of another without rebinding a variable
    def whole_line():
        t = next(counter)
        xf = f"_c{t}f"
        return Forall(xf, member(xf, t))

    def unbounded_below():
        t = next(counter)
        M, xm = f"_c{t}M", f"_c{t}m"
        return Forall(M, Exists(xm, And([
            member(xm, t), _gt(f"{M} - {xm}")])))

    def region_b():
        return And([unbounded_below(), Not(whole_line())])

    def region_c():
        t = next(counter)
        a, x1, x2, eps, z = (f"_c{t}{s}" for s in ("a", "1", "2", "e", "z"))
        graph_a = And([
            Forall(x1, Or([Not(member(x1, f"{t}l")),
                           Not(_gt(f"{a} - {x1}"))])),
            Forall(eps, Or([Not(_gt(eps)),
                            Exists(z, And([member(z, f"{t}z"),
                                           _gt(f"{a} + {eps} - {z}")]))])),
        ])
        return Exists(a, And([
            graph_a,
            Forall(x2, Or([Not(_gt(f"{x2} - {a}")), member(x2, f"{t}u")])),
        ]))

    t = next(counter)
    x0 = f"_c{t}0"
    region_d = And([Exists(x0, member(x0, t)),
                    Not(whole_line()), Not(region_b()), Not(region_c())])
    return {"A": validate(whole_line()), "B": validate(region_b()),
            "C": validate(region_c()), "D": validate(region_d)}


# ---------------------------------------------------------------------------
# exact fiber profiles
# ---------------------------------------------------------------------------


def _nadd(a, b):
    a, b = num_join(a, b)
    return a + b


def _axis_case(psi, var, point):
    """Landmarks of {x : psi} at a fixed assignment of the other variables.

    Returns (case, value): the case letter and the exact chosen value.
    Candidates come from the same root data the decision procedure uses, so
    the in/out pattern along the line is certified.
    """
    wrapper = Exists(var, psi)
    cands = list(_test_points(wrapper, point, DEFAULT_CEILING))
    flags = []
    for c in cands:
        sub = dict(point)
        sub[var] = c
        flags.append(_decide(psi, sub, DEFAULT_CEILING))
    n = len(cands)
    try:
        first = flags.index(True)
    except ValueError:
        raise ChoiceError("empty fiber")
    # candidates alternate interval sample, root, interval sample, ...
    if first == 0:
        a = None
    elif first % 2 == 1:
        a = cands[first]
    else:
        a = cands[first - 1]
    end = first
    while end + 1 < n and flags[end + 1]:
        end += 1
    if end == n - 1:
        b = None
    elif end % 2 == 1:
        b = cands[end]
    else:
        b = cands[end + 1]
    if a is None and b is None:
        return "A", _as_num(Fraction(0))
    if a is None:
        return "B", _nadd(b, _as_num(Fraction(-1)))
    if b is None:
        return "C", _nadd(a, _as_num(Fraction(1)))
    s = _nadd(a, b)
    return "D", s * Fraction(1, 2)


# ---------------------------------------------------------------------------
# the choice function
# ---------------------------------------------------------------------------


class ChoiceFunction:
    """A section of a definable family, evaluable at exact parameters.

    stages[i] records the recursion step for fiber coordinate i: the
    projected family it works on, the four case regions, and their FDs.
    """

    def __init__(self, total, param_vars, fiber_vars, stages):
        self.total = total
        self.param_vars = tuple(param_vars)
        self.fiber_vars = tuple(fiber_vars)
        self.stages = stages

    @property
    def fd(self) -> FDPair:
        pairs = [r["fd"] for s in self.stages for r in s["regions"].values()]
        return FDPair(max(p.format for p in pairs),
                      max(p.degree for p in pairs))

    def evaluate(self, lam):
        """Exact fiber point over one parameter value.

        lam is a mapping or a sequence matching the parameter variables.
        Returns (coordinates, case letters), one of each per fiber
        coordinate.
        """
        if not isinstance(lam, dict):
            lam = list(lam)
            if len(lam) != len(self.param_vars):
                raise ChoiceError(
                    f"{len(lam)} values for {len(self.param_vars)} "
                    f"parameters {list(self.param_vars)}")
            lam = dict(zip(self.param_vars, lam))
        missing = [p for p in self.param_vars if p not in lam]
        if missing:
            raise ChoiceError(f"unassigned parameters {missing}")
        point = {k: _as_num(v) for k, v in lam.items()}
        coords = []
        cases = []
        for stage in self.stages:
            case, value = _axis_case(stage["family"], stage["var"], point)
            point[stage["var"]] = value
            coords.append(value)
            cases.append(case)
        return coords, cases


def choice(total: Formula, ell: int, fiber_vars=None) -> ChoiceFunction:
    """Choice function for a family whose fibers are subsets of R^ell.

    The last ell free variables of total (in their appearance order) are
    the fiber coordinates unless fiber_vars names them explicitly; the
    rest are parameters.  A section exists only when every fiber is
    nonempty, so the closed sentence (for all parameters, some fiber point
    lies in total) is decided once; ChoiceError is raised when it is
    false, and CeilingError when total has more than DEFAULT_CEILING
    variables.
    """
    fv = total.free_vars()
    if ell < 1 or ell > len(fv):
        raise ChoiceError(f"need 1 <= ell <= {len(fv)}")
    if fiber_vars is not None:
        fibers = tuple(fiber_vars)
        if len(fibers) != ell or any(v not in fv for v in fibers):
            raise ChoiceError("fiber_vars must name ell free variables")
        params = tuple(v for v in fv if v not in fibers)
    else:
        params = fv[:len(fv) - ell]
        fibers = fv[len(fv) - ell:]
    closed = total
    for w in reversed(fibers):
        closed = Exists(w, closed)
    for p in reversed(params):
        closed = Forall(p, closed)
    if not _decide(closed, {}, DEFAULT_CEILING):
        raise ChoiceError("empty fiber (certified)")
    stages = []
    for i, v in enumerate(fibers):
        family = total
        for w in reversed(fibers[i + 1:]):
            family = Exists(w, family)
        regions = region_formulas(family, v)
        stages.append({
            "var": v,
            "family": family,
            "regions": {k: {"formula": r, "fd": fd_of_formula(r)}
                        for k, r in regions.items()},
        })
    return ChoiceFunction(total, params, fibers, stages)


def choice_1d(total: Formula, fiber_vars=None, samples=None) -> ChoiceFunction:
    """Choice for families of subsets of the line."""
    # samples is ignored: perfbench/workloads.py's warm_up passes
    # samples=2, and the benchmark changes only in its own commits
    return choice(total, 1, fiber_vars=fiber_vars)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def choice_to_json(fn: ChoiceFunction) -> dict:
    return {
        "version": 1,
        "parameters": list(fn.param_vars),
        "fiber": list(fn.fiber_vars),
        "fd": list(fn.fd.as_tuple()),
        "stages": [
            {"var": s["var"],
             "regions": {k: {"formula": to_text(rec["formula"]),
                             "fd": list(rec["fd"].as_tuple())}
                         for k, rec in sorted(s["regions"].items())}}
            for s in fn.stages],
    }
