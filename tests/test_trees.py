"""Structure trees: validation, the format/degree recursion, flattening."""

import json
import random

import pytest

from sharpcells.calculus import SHARP_SYSTEM, Leaf, Node, derive_fd
from sharpcells.fd import fd_of_formula
from sharpcells.formula import Environment, is_quantifier_free
from sharpcells.parser import parse_formula
from sharpcells.trees import (
    StructureTree,
    TLeaf,
    TNode,
    TreeError,
    lift_times_R,
    omega_fd,
    tree_from_json,
    tree_to_formula,
    tree_to_json,
    validate_tree,
)

LEAVES = {
    "circle": "x^2 + y^2 - 1 = 0",
    "disk": "x^2 + y^2 - 4 < 0",
    "hyperbola": "x*y - 1 = 0",
    "halfplane": "x - y > 0",
    "cubic": "y - x^3 = 0",
}


def make_env(names=LEAVES):
    env = Environment()
    for name, text in names.items():
        psi = parse_formula(text)
        env.register(name, psi, fd_of_formula(psi))
    return env


def random_tree(rng, names, depth=3, allow_project=True):
    if depth == 0 or rng.random() < 0.35:
        return TLeaf(rng.choice(names))
    ops = ["union", "intersection", "complement"]
    if allow_project:
        ops.append("times_R_right")
    op = rng.choice(ops)
    if op in ("union", "intersection"):
        kids = [random_tree(rng, names, depth - 1, allow_project)
                for _ in range(rng.randrange(2, 4))]
        return TNode(op, kids)
    if op == "times_R_right":
        # keep dimensions consistent: product then project back down
        inner = random_tree(rng, names, depth - 1, allow_project)
        return TNode("project_last", [TNode("times_R_right", [inner])])
    return TNode(op, [random_tree(rng, names, depth - 1, allow_project)])


def hand_omega(node, env):
    if isinstance(node, TLeaf):
        return env.lookup(node.name)[1]
    subs = [hand_omega(c, env) for c in node.children]
    fmt = max(f.format for f in subs)
    if node.op in ("times_R_right", "times_R_left"):
        fmt += 1
    return type(subs[0])(fmt, sum(f.degree for f in subs))


def as_derivation(node, env):
    """The tree read as a derivation: leaves carry their environment FD."""
    if isinstance(node, TLeaf):
        return Leaf(node.name, env.lookup(node.name)[1])
    op = "projection" if node.op == "project_last" else node.op
    return Node(op, [as_derivation(c, env) for c in node.children])


def test_omega_fd_matches_hand_recursion_on_random_trees():
    env = make_env()
    rng = random.Random(77)
    names = list(LEAVES)
    for _ in range(20):
        t = StructureTree(random_tree(rng, names))
        assert omega_fd(t, env) == hand_omega(t.root, env)
        # the structure-tree recursion is the Sharp axiom system
        assert omega_fd(t, env) == derive_fd(as_derivation(t.root, env),
                                             SHARP_SYSTEM)


def test_projection_and_complement_leave_fd_unchanged():
    env = make_env()
    base = StructureTree(TNode("union", [TLeaf("circle"), TLeaf("disk")]))
    fd0 = omega_fd(base, env)
    wrapped = StructureTree(TNode("complement", [base.root]))
    assert omega_fd(wrapped, env) == fd0
    projected = StructureTree(TNode("project_last", [base.root]))
    assert omega_fd(projected, env) == fd0


def test_products_raise_format_by_one():
    env = make_env()
    t = StructureTree(TNode("times_R_right", [TLeaf("circle")]))
    assert omega_fd(t, env).as_tuple() == (3, 2)


def test_lift_times_R_adds_exactly_one_format():
    env = make_env()
    rng = random.Random(5)
    names = list(LEAVES)
    for _ in range(10):
        t = StructureTree(random_tree(rng, names))
        lifted = lift_times_R(t)
        assert lifted.slanted
        before = omega_fd(t, env)
        after = omega_fd(lifted, env)
        assert after.format == before.format + 1
        assert after.degree == before.degree


def test_tree_to_formula_agrees_with_omega_fd():
    env = make_env()
    t = StructureTree(TNode("union", [
        TNode("intersection", [TLeaf("disk"), TLeaf("halfplane")]),
        TLeaf("circle"),
    ]))
    psi = tree_to_formula(t, env)
    assert is_quantifier_free(psi)
    assert fd_of_formula(psi) == omega_fd(t, env)


def test_tree_to_formula_projection_and_product():
    env = make_env()
    t = StructureTree(
        TNode("project_last", [TNode("times_R_right", [TLeaf("cubic")])]))
    psi = tree_to_formula(t, env)
    assert len(psi.free_vars()) == 2
    # padding must not change the degree
    assert fd_of_formula(psi).degree == omega_fd(t, env).degree


def test_validate_tree_reports_problems():
    env = make_env()
    bad = StructureTree(TNode("union", [
        TLeaf("circle"), TLeaf("missing")]))
    msgs = validate_tree(bad, env)
    assert any("missing" in m for m in msgs)
    mixed = StructureTree(TNode("union", [
        TLeaf("circle"),
        TNode("project_last", [TLeaf("disk")])]))
    assert validate_tree(mixed, env)
    flat_left = StructureTree(TNode("times_R_left", [TLeaf("circle")]))
    assert any("slanted" in m for m in validate_tree(flat_left, env))
    with pytest.raises(TreeError):
        omega_fd(bad, env)


def test_json_round_trip():
    t = StructureTree(TNode("complement", [
        TNode("union", [TLeaf("a"), TLeaf("b")])]), slanted=True)
    t2 = tree_from_json(json.loads(json.dumps(tree_to_json(t))))
    assert t2.slanted
    assert tree_to_json(t2) == tree_to_json(t)
