"""End-to-end acceptance checks.

Each test pins down one advertised behavior of the package at its stated
tolerance: the format/degree golden table, exact decomposition and sign
invariance, component counting against an independent grid oracle, growth
fits, definable choice, structure trees, star accounting, topology, and
the normalization bound.  Where a runtime budget is part of the contract
the test asserts it.
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from sharpcells.calculus import (
    P_SYSTEM,
    SHARP_SYSTEM,
    W_SYSTEM,
    apply_rule,
    normalize_bound,
)
from sharpcells.cad import (
    compatible_decomposition,
    decomposition_report,
    poly_sign_at,
    sample_in_cell,
)
from sharpcells.fd import FDPair, fd_of_formula, pformat_of_formula
from sharpcells.formula import Environment
from sharpcells.parser import parse_formula
from sharpcells.choice import choice_1d, region_formulas
from sharpcells.cad import decide
from sharpcells.star import star_fd, star_report, star_union, to_star
from sharpcells.topology import (
    betti,
    connected_components,
    triangulate,
)
from sharpcells.trees import (
    StructureTree,
    TLeaf,
    TNode,
    lift_times_R,
    omega_fd,
)

from grid_oracle import grid_components


def fitted_exponent(xs, ys):
    """Least-squares slope of log y against log x."""
    slope, _ = np.polyfit(np.log(np.array(xs, float)),
                          np.log(np.array(ys, float)), 1)
    return float(slope)


# ---------------------------------------------------------------------------
# 1. format/degree golden table
# ---------------------------------------------------------------------------

# hand-derived: format = max over atoms of their variable count, and at
# least the number of distinct variables (bound ones included); degree
# sums max(deg, 1) over atom occurrences
FD_GOLDEN = [
    ("x > 0", (1, 1)),
    ("x^2 - 2 = 0", (1, 2)),
    ("x^5 - 2 > 0", (1, 5)),
    ("(x > 0) or (x > 0)", (1, 2)),
    ("not (not (x^2 - 1 < 0))", (1, 2)),
    ("(x^3 - x > 0) and (x > 0)", (1, 4)),
    ("x^2 + y^2 - 1 = 0", (2, 2)),
    ("x*y - 1 = 0", (2, 2)),
    ("x - 2*y + 1 = 0", (2, 1)),
    ("y - x^3 = 0", (2, 3)),
    ("(x^2 + y^2 - 1 = 0) and (x - y > 0)", (2, 3)),
    ("(x^2 + y^2 - 1 < 0) or (x - 1 = 0)", (2, 3)),
    ("(x*y > 0) or (x + y < 0)", (2, 3)),
    ("not (x*y - 1 = 0)", (2, 2)),
    ("(x > 0) and (y > 0) and (z > 0)", (3, 3)),
    ("x^2*y^2*z^2 - 1 < 0", (3, 6)),
    ("exists y. x - y^2 = 0", (2, 2)),
    ("exists z. ((x - z > 0) and (z - y > 0))", (3, 2)),
    ("forall e. ((e < 0) or (exists d. d - e^2 > 0))", (2, 3)),
    ("exists x. exists y. ((x^2 + y^2 - 1 = 0) and (x - y = 0))", (2, 3)),
]

# parse format: max of the format and the nesting depth (atoms sit at 0)
PFORMAT_GOLDEN = [
    ("x > 0", 1),
    ("not (not (not (x > 0)))", 3),
    ("((x > 0) or (y > 0)) and (z > 0)", 3),
    ("exists y. x - y^2 = 0", 2),
]

# rule applications: degrees always sum; format is the max plus the
# system's surcharge for the operation
RULE_GOLDEN = [
    (P_SYSTEM, "union", [(1, 1), (1, 1)], (2, 2)),
    (P_SYSTEM, "intersection", [(2, 3), (4, 5)], (5, 8)),
    (P_SYSTEM, "projection", [(2, 3)], (3, 3)),
    (P_SYSTEM, "times_R_right", [(4, 1)], (5, 1)),
    (W_SYSTEM, "union", [(2, 3), (4, 5), (1, 7)], (4, 15)),
    (W_SYSTEM, "intersection", [(2, 2), (2, 2)], (3, 4)),
    (W_SYSTEM, "complement", [(3, 4)], (4, 4)),
    (SHARP_SYSTEM, "union", [(2, 3), (4, 5), (1, 7)], (4, 15)),
    (SHARP_SYSTEM, "intersection", [(5, 2), (3, 9)], (5, 11)),
    (SHARP_SYSTEM, "projection", [(5, 7)], (5, 7)),
    (SHARP_SYSTEM, "complement", [(2, 3)], (2, 3)),
    (SHARP_SYSTEM, "times_R_left", [(2, 3)], (3, 3)),
]


def test_01_fd_golden_table():
    t0 = time.monotonic()
    for text, want in FD_GOLDEN:
        assert fd_of_formula(parse_formula(text)).as_tuple() == want, text
    for text, want in PFORMAT_GOLDEN:
        assert pformat_of_formula(parse_formula(text)) == want, text
    for system, op, ins, want in RULE_GOLDEN:
        got = apply_rule(system, op, [FDPair(*p) for p in ins])
        assert got.as_tuple() == want, (system.variant, op, ins)
    assert len(FD_GOLDEN) + len(PFORMAT_GOLDEN) + len(RULE_GOLDEN) >= 30
    assert time.monotonic() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. decomposition correctness and sign invariance
# ---------------------------------------------------------------------------

# degrees stay at or below 6 in the plane and 3 in space
SIGN_CORPUS = [
    "x^2 + y^2 - 1 = 0",
    "(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) = 0",
    "x^2 + 4*y^2 - 4 < 0",
    "x*y - 1 = 0",
    "y^2 - x = 0",
    "y - x^3 + x = 0",
    "y^2 - x^3 = 0",
    "y^2 - x^2*(x + 1) = 0",
    "(x^2 + y^2)^2 - (x^2 - y^2) = 0",
    "(x^2 + y^2)^3 - 4*x^2*y^2 = 0",
    "x - 2*y + 1 = 0",
    "(x > 0) and (1 - x > 0)",
    "((x^2 + y^2 - 1 > 0) and (4 - x^2 - y^2 > 0))",
    "(x^2 + y^2 - 1 < 0) or (x - y > 0)",
    "x^3 + y^3 - 3*x*y = 0",
    "x^2 - 2 = 0",
    "x^3 - x > 0",
    "(x - 1)*(x - 2)*(x - 3) = 0",
    "x*y > 0",
    "x^2 + y^2 + 1 = 0",
    "x^4 + y^4 - 1 = 0",
    "x^2 + y^2 + z^2 - 1 = 0",
    "z - x - y = 0",
    "x^2 + y^2 - z^2 = 0",
    "x^2 + y^2 + z^2 - 1 < 0",
]


def test_02_cad_sign_invariance():
    t0 = time.monotonic()
    assert len(SIGN_CORPUS) == 25
    circle = compatible_decomposition([parse_formula("x^2 + y^2 - 1 = 0")])
    assert len(circle.cells) == 13
    rng = random.Random(20240)
    for text in SIGN_CORPUS:
        decomp = compatible_decomposition([parse_formula(text)])
        polys = decomp.layers()[-1].basis
        for cell in decomp.cells:
            base = [poly_sign_at(p, cell.coords) for p in polys]
            for pt in sample_in_cell(decomp, cell, rng, count=50):
                assert [poly_sign_at(p, pt) for p in polys] == base, text
    assert time.monotonic() - t0 < 60.0


# the stacked parabolas y - x^2 - i = 0, i < D, in the order (y, x)
PARABOLAS = [" or ".join(f"(y - x^2 - {i} = 0)" for i in range(D))
             for D in range(1, 5)]


@pytest.mark.parametrize("text", SIGN_CORPUS + PARABOLAS)
def test_zero_sets_are_the_exact_zeros(text):
    """The provenance a stack records against exact signs: at every cell
    sample of every layer, a basis polynomial's index is in the cell's
    zero set exactly when the polynomial vanishes there, and each
    membership equals decide at the sample, made without the zero set."""
    X = parse_formula(text)
    decomp = compatible_decomposition([X])
    for layer in decomp.layers():
        for cell in layer.cells:
            path = cell.index_path
            zeros = layer.stacks[path[:-1]].zeros(path[-1])
            for i, q in enumerate(layer.basis):
                assert (i in zeros) == (poly_sign_at(q, cell.coords) == 0)
    for cell in decomp.cells:
        point = cell.sample_dict(decomp.variables)
        assert cell.memberships == (decide(X, point),), (text, cell)


# ---------------------------------------------------------------------------
# 3. component counts against the grid oracle
# ---------------------------------------------------------------------------

# plane sets of degree at most 4, features well above the 1/200 grid step
ORACLE_SETS = [
    "x^2 + y^2 - 1 < 0",
    "x^2 + y^2 - 1 = 0",
    "(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1) < 0",
    "(x^2 + y^2 - 1)*((x - 3)^2 + y^2 - 1) = 0",
    "x*y - 1 = 0",
    "x*y - 1 > 0",
    "y - x^2 > 0",
    "y^2 - x^2 - 1 = 0",
    "(x^2 + y^2 - 1 > 0) and (4 - x^2 - y^2 > 0)",
    "(y - x^2 + 2 > 0) and (1 - y + x^2 > 0) and (4 - x^2 - y^2 > 0)",
    "x^2 - y^2 > 0",
    "(x^2 - 1)^2 + y^2 - 1 < 0",
    "y^2 - x^2*(x + 1) = 0",
    "(x^2 + y^2 - 4)*(x^2 + y^2 - 1) > 0",
    "(y - x^2 = 0) and (4 - x^2 > 0)",
]


def test_03_components_match_grid_oracle():
    t0 = time.monotonic()
    assert len(ORACLE_SETS) == 15
    for text in ORACLE_SETS:
        X = parse_formula(text)
        assert len(connected_components(X)) == grid_components(X), text
    assert time.monotonic() - t0 < 120.0


# ---------------------------------------------------------------------------
# 4. component growth of the shifted-root product family
# ---------------------------------------------------------------------------


def test_04_product_family_component_bound():
    counts = {}
    for d in range(1, 9):
        poly = " * ".join(f"(x - {i})" for i in range(1, d + 1))
        X = parse_formula(f"{poly} > 0")
        counts[d] = len(connected_components(X))
    for d, n in counts.items():
        assert n == (d + 2) // 2, d  # ceil((d + 1) / 2)
    exponent = fitted_exponent(list(counts), list(counts.values()))
    assert exponent <= 1.5 + 0.2


# ---------------------------------------------------------------------------
# 5. cell-count growth and flat star formats on a curve family
# ---------------------------------------------------------------------------


def chebyshev_text(d):
    prev, cur = "1", "x"
    for _ in range(d - 1):
        prev, cur = cur, f"2*x*({cur}) - ({prev})"
    return cur


def test_05_cell_growth_and_star_formats():
    cells = []
    direct_formats = []
    star_formats = []
    degrees = list(range(2, 9))
    for d in degrees:
        decomp = compatible_decomposition(
            [parse_formula(f"y - ({chebyshev_text(d)}) = 0")])
        rep = decomposition_report(decomp)
        cells.append(rep["cells"])
        direct_formats.append(rep["max_fd"][0])
        star_formats.append(star_report(decomp)["max_star_fd"][0])
    assert fitted_exponent(degrees, cells) <= 2.2
    # naive per-cell formats grow with the degree; star accounting keeps
    # the format pinned at the ambient dimension
    assert all(a < b for a, b in zip(direct_formats, direct_formats[1:]))
    assert len(set(star_formats)) == 1


# ---------------------------------------------------------------------------
# 6. definable choice on parametric families
# ---------------------------------------------------------------------------

CHOICE_FAMILIES = [
    "x - l > 0",
    "l - x > 0",
    "x - l = 0",
    "(x - l > 0) and (l + 1 - x > 0)",
    "(x - l > 0) and (l^2 + 1 - x > 0)",
    "x^2 + l^2 + 1 > 0",
    "x + l^2 + 1 > 0",
    "(x^2 - l^2 - 1 > 0) and (x > 0)",
    "(x - l)*(x - l - 2) > 0",
    "x - l^3 > 0",
]


def test_06_choice_membership_and_partition():
    rng = random.Random(61)
    for text in CHOICE_FAMILIES:
        total = parse_formula(text)
        fn = choice_1d(total, fiber_vars=["x"])
        for _ in range(200):
            lam = Fraction(rng.randrange(-400, 401), 100)
            (g,), _ = fn.evaluate([lam])
            assert decide(total, {"l": lam, "x": g}), (text, lam)
        regions = region_formulas(total, "x")
        for lam in map(Fraction, (-2, 0, 3)):
            truth = {k: decide(r, {"l": lam}, ceiling=6)
                     for k, r in regions.items()}
            assert sum(truth.values()) == 1, (text, lam)
            (letter,) = fn.evaluate([lam])[1]
            assert truth[letter], (text, lam)


# ---------------------------------------------------------------------------
# 7. structure trees
# ---------------------------------------------------------------------------

TREE_LEAVES = {
    "circle": "x^2 + y^2 - 1 = 0",
    "disk": "x^2 + y^2 - 4 < 0",
    "hyperbola": "x*y - 1 = 0",
    "halfplane": "x - y > 0",
    "cubic": "y - x^3 = 0",
}

LEAF_CORPORA = [
    ["x^2 + y^2 - 1 = 0", "x - y > 0"],
    ["x^2 + y^2 - 1 < 0", "x^2 + y^2 - 4 < 0"],
    ["x*y - 1 = 0", "x > 0", "y > 0"],
    ["y - x^2 = 0", "y - 1 < 0"],
    ["(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) = 0", "x - 2 > 0"],
]


def tree_env():
    env = Environment()
    for name, text in TREE_LEAVES.items():
        psi = parse_formula(text)
        env.register(name, psi, fd_of_formula(psi))
    return env


def random_tree(rng, names, depth=3):
    if depth == 0 or rng.random() < 0.35:
        return TLeaf(rng.choice(names))
    op = rng.choice(["union", "intersection", "complement", "product"])
    if op in ("union", "intersection"):
        kids = [random_tree(rng, names, depth - 1)
                for _ in range(rng.randrange(2, 4))]
        return TNode(op, kids)
    if op == "product":
        inner = random_tree(rng, names, depth - 1)
        return TNode("project_last", [TNode("times_R_right", [inner])])
    return TNode(op, [random_tree(rng, names, depth - 1)])


def hand_omega(node, env):
    if isinstance(node, TLeaf):
        return env.lookup(node.name)[1]
    subs = [hand_omega(c, env) for c in node.children]
    fmt = max(f.format for f in subs)
    if node.op in ("times_R_right", "times_R_left"):
        fmt += 1
    return FDPair(fmt, sum(f.degree for f in subs))


def test_07_structure_trees():
    env = tree_env()
    rng = random.Random(71)
    names = list(TREE_LEAVES)
    for _ in range(20):
        t = StructureTree(random_tree(rng, names))
        assert omega_fd(t, env) == hand_omega(t.root, env)

    base = StructureTree(TNode("union", [TLeaf("circle"), TLeaf("disk")]))
    fd0 = omega_fd(base, env)
    assert omega_fd(StructureTree(TNode("complement", [base.root])),
                    env) == fd0
    assert omega_fd(StructureTree(TNode("project_last", [base.root])),
                    env) == fd0

    for _ in range(10):
        t = StructureTree(random_tree(rng, names))
        lifted = lift_times_R(t)
        before, after = omega_fd(t, env), omega_fd(lifted, env)
        assert after.format == before.format + 1
        assert after.degree == before.degree

    # one decomposition refines every leaf of a corpus at once
    sample_rng = random.Random(72)
    for texts in LEAF_CORPORA:
        sets = [parse_formula(t) for t in texts]
        decomp = compatible_decomposition(sets)
        for cell in decomp.cells:
            (pt,) = sample_in_cell(decomp, cell, sample_rng, count=1)
            point = dict(zip(decomp.variables, pt))
            for s, member in zip(sets, cell.memberships):
                assert decide(s, point) == member, texts


# ---------------------------------------------------------------------------
# 8. star accounting over the corpus
# ---------------------------------------------------------------------------


def test_08_star_consistency():
    for text in SIGN_CORPUS:
        X = parse_formula(text)
        fd = fd_of_formula(X)
        n = max(len(connected_components(X)), 1)
        sf = star_fd(to_star(X))
        assert sf.as_tuple() == (fd.format, n * fd.degree), text

    a = to_star(parse_formula("x^2 + y^2 - 1 = 0"))
    b = to_star(parse_formula("x*y - 1 = 0"))
    u = star_union(a, b)
    assert star_fd(u).format == max(star_fd(a).format, star_fd(b).format)
    assert star_fd(u).degree == star_fd(a).degree + star_fd(b).degree


# ---------------------------------------------------------------------------
# 9. triangulation and Betti numbers
# ---------------------------------------------------------------------------

CLOSED_BOUNDED = [
    "x^2 + y^2 - 1 = 0",
    "not (x^2 + y^2 - 1 > 0)",
    "(not (x^2 + y^2 - 1 < 0)) and (not (x^2 + y^2 - 4 > 0))",
    "not ((x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) > 0)",
    "(not (x < 0)) and (not (x - 1 > 0))",
    "(x - 1)*(x + 1) = 0",
    "x^2 + 4*y^2 - 4 = 0",
    "(not (x - 1 > 0)) and (not (x + 1 < 0)) and "
    "(not (y - 1 > 0)) and (not (y + 1 < 0))",
    "(x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) = 0",
    "(x = 0) and (y = 0)",
]


def test_09_betti_numbers():
    t0 = time.monotonic()
    circle = parse_formula("x^2 + y^2 - 1 = 0")
    assert betti(triangulate(circle)[0]) == (1, 1, 0)
    annulus = parse_formula(
        "(not (x^2 + y^2 - 1 < 0)) and (not (x^2 + y^2 - 4 > 0))")
    assert betti(triangulate(annulus)[0]) == (1, 1, 0)
    disks = parse_formula(
        "not ((x^2 + y^2 - 1)*((x - 4)^2 + y^2 - 1) > 0)")
    assert betti(triangulate(disks)[0]) == (2, 0, 0)
    assert len(CLOSED_BOUNDED) == 10
    for text in CLOSED_BOUNDED:
        X = parse_formula(text)
        b0 = betti(triangulate(X)[0])[0]
        assert b0 == len(connected_components(X)), text
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 10. normalization bound
# ---------------------------------------------------------------------------


def test_10_normalize_bound():
    for F in range(1, 21):
        assert normalize_bound(F, lambda x: x + 1) == 2 * F
        assert normalize_bound(F, lambda x: 2 * x) == F * 2**F
