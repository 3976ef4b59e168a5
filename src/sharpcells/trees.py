"""Structure trees: rooted trees of set-forming operations whose leaves
are registered named sets.

Internal nodes carry one of the operation tags union, intersection,
project_last, complement, times_R_right, times_R_left; the last of these
is only allowed in slanted trees.  Trees carry a format/degree recursion
in which only products with a line raise the format, and the degree is the
sum of the leaf degrees.
"""

from __future__ import annotations

import itertools

from .calculus import SHARP_SYSTEM, Leaf, Node, derive_fd
from .fd import FDPair
from .formula import (
    And,
    Atom,
    Exists,
    Forall,
    FormulaError,
    Not,
    Or,
    instantiate,
    rename_vars,
    validate,
)

OPS = ("union", "intersection", "project_last", "complement",
       "times_R_right", "times_R_left")

MULTI_OPS = ("union", "intersection")


class TreeError(ValueError):
    pass


class TLeaf:
    """A leaf referencing a named set registered in an environment."""

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return f"TLeaf({self.name})"


class TNode:
    def __init__(self, op: str, children):
        if op not in OPS:
            raise TreeError(f"unknown operation {op!r}")
        self.op = op
        self.children = list(children)

    def __repr__(self):
        return f"TNode({self.op}, {self.children})"


class StructureTree:
    """A rooted tree with ordered children and a slanted flag."""

    def __init__(self, root, slanted: bool = False):
        self.root = root
        self.slanted = slanted

    def __repr__(self):
        return f"StructureTree({self.root}, slanted={self.slanted})"


def _ambient(node, env, path, violations):
    """Ambient dimension of the set at a vertex, collecting violations."""
    if isinstance(node, TLeaf):
        try:
            formula, _ = env.lookup(node.name)
        except FormulaError:
            violations.append(f"{path}: unresolved leaf {node.name!r}")
            return None
        return len(formula.free_vars())
    if not isinstance(node, TNode):
        violations.append(f"{path}: not a tree node")
        return None
    dims = [_ambient(c, env, f"{path}.{i}", violations)
            for i, c in enumerate(node.children)]
    if node.op in MULTI_OPS:
        if len(node.children) < 1:
            violations.append(f"{path}: {node.op} needs children")
            return None
        known = [d for d in dims if d is not None]
        if known and any(d != known[0] for d in known):
            violations.append(
                f"{path}: {node.op} children live in different spaces "
                f"{sorted(set(known))}")
            return None
        return known[0] if known else None
    if len(node.children) != 1:
        violations.append(f"{path}: {node.op} takes exactly one child")
        return None
    d = dims[0]
    if d is None:
        return None
    if node.op == "project_last":
        if d < 1:
            violations.append(f"{path}: cannot project a 0-dimensional space")
            return None
        return d - 1
    if node.op == "complement":
        return d
    return d + 1  # both product operations


def validate_tree(t: StructureTree, env):
    """Empty list when the tree is well formed, else the violations."""
    violations = []
    _ambient(t.root, env, "root", violations)
    if not t.slanted:
        def scan(node, path):
            if isinstance(node, TNode):
                if node.op == "times_R_left":
                    violations.append(
                        f"{path}: times_R_left requires a slanted tree")
                for i, c in enumerate(node.children):
                    scan(c, f"{path}.{i}")
        scan(t.root, "root")
    return violations


def _check(t, env):
    violations = validate_tree(t, env)
    if violations:
        raise TreeError("; ".join(violations))


def omega_fd(t: StructureTree, env) -> FDPair:
    """The tree's format/degree: its Sharp derivation, with leaf FDs from
    the environment, so the degree is the sum over leaves and only
    product-with-a-line nodes add one to the format."""
    _check(t, env)

    def go(node):
        if isinstance(node, TLeaf):
            return Leaf(node.name, env.lookup(node.name)[1])
        op = "projection" if node.op == "project_last" else node.op
        return Node(op, [go(c) for c in node.children])

    return derive_fd(go(t.root), SHARP_SYSTEM)


# ---------------------------------------------------------------------------
# realizing trees as formulas
# ---------------------------------------------------------------------------


def _pad_atoms(psi, newvar, front):
    """Extend every atom's polynomial with an extra variable so the padded
    coordinate appears (unconstrained) in the formula."""
    if isinstance(psi, Atom):
        if front:
            vs = (newvar,) + psi.poly.variables
        else:
            vs = psi.poly.variables + (newvar,)
        return Atom(psi.poly.extend(vs), psi.sign)
    if isinstance(psi, (And, Or)):
        return type(psi)([_pad_atoms(c, newvar, front) for c in psi.children])
    if isinstance(psi, Not):
        return Not(_pad_atoms(psi.child, newvar, front))
    if isinstance(psi, (Exists, Forall)):
        return type(psi)(psi.var, _pad_atoms(psi.child, newvar, front))
    raise TreeError(f"cannot pad {psi!r}")


def tree_to_formula(t: StructureTree, env):
    """The formula defining the root set, over canonical variable names.

    Projection becomes an existential on the last coordinate, complement a
    negation, products pad every atom with the fresh coordinate.
    """
    _check(t, env)
    counter = itertools.count()

    def go(node):
        if isinstance(node, TLeaf):
            formula, _ = env.lookup(node.name)
            ell = len(formula.free_vars())
            canon = [f"_x{i + 1}" for i in range(ell)]
            return instantiate(formula, canon, f"_t{next(counter)}b"), ell
        parts = [go(c) for c in node.children]
        if node.op in MULTI_OPS:
            ell = parts[0][1]
            kids = [p[0] for p in parts]
            if len(kids) == 1:
                return kids[0], ell
            ctor = And if node.op == "intersection" else Or
            return ctor(kids), ell
        child, ell = parts[0]
        if node.op == "complement":
            return Not(child), ell
        if node.op == "project_last":
            last = f"_x{ell}"
            fresh = f"_p{next(counter)}"
            return Exists(fresh, rename_vars(child, {last: fresh})), ell - 1
        if node.op == "times_R_right":
            return _pad_atoms(child, f"_x{ell + 1}", front=False), ell + 1
        # times_R_left: shift the existing coordinates up by one
        shifted = rename_vars(
            child, {f"_x{i + 1}": f"_x{i + 2}" for i in range(ell)})
        return _pad_atoms(shifted, "_x1", front=True), ell + 1

    psi, _ = go(t.root)
    return validate(psi)


def lift_times_R(t: StructureTree) -> StructureTree:
    """The tree for the product of a line with the root set, built by
    replacing every associated set by its product with a line.

    The result is slanted, has format exactly one larger, and the same
    degree.
    """

    def go(node):
        if isinstance(node, TLeaf):
            return TNode("times_R_left", [TLeaf(node.name)])
        return TNode(node.op, [go(c) for c in node.children])

    return StructureTree(go(t.root), slanted=True)


# ---------------------------------------------------------------------------
# JSON serialization (schema version 1)
# ---------------------------------------------------------------------------


def _node_to_json(node):
    if isinstance(node, TLeaf):
        return {"kind": "leaf", "name": node.name}
    return {"kind": "node", "op": node.op,
            "children": [_node_to_json(c) for c in node.children]}


def _node_from_json(doc):
    if doc["kind"] == "leaf":
        return TLeaf(doc["name"])
    return TNode(doc["op"], [_node_from_json(c) for c in doc["children"]])


def tree_to_json(t: StructureTree) -> dict:
    return {"version": 1, "slanted": bool(t.slanted),
            "root": _node_to_json(t.root)}


def tree_from_json(doc) -> StructureTree:
    if doc.get("version") != 1:
        raise TreeError(f"unsupported tree schema version {doc.get('version')}")
    return StructureTree(_node_from_json(doc["root"]),
                         slanted=bool(doc.get("slanted", False)))
