"""Seeded inputs, operations and answer checks for the four workloads.

Every workload is an endless stream of *rounds*.  A round has a fixed mix
of operation kinds; only the random parameters (shifts, centres, parameter
values) change from round to round, so a run's batch of whole rounds
has the workload's stated mix.  Each generated operation carries its
expected answer, fixed by construction, so checking never asks the code
under test what the answer should be.

Generation needs no sharpcells import: the same (workload, seed, stream)
always yields byte-identical operations.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys
from fractions import Fraction

import oracle

WORKLOADS = ("cad_sample", "quantified", "topology", "cli_cold")


def frac(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        f"{q.numerator}/{q.denominator}"


def shifted(var, shift):
    """Text of var - shift."""
    sign = "-" if shift > 0 else "+"
    return f"({var} {sign} {frac(abs(shift))})"


def odd_over(den, rng, top=7):
    """A random rational k/den with k odd, |k| <= top.  A fixed denominator
    keeps coefficient sizes, and with them op costs, alike across seeds."""
    return Fraction(rng.choice(range(1, top + 1, 2)) * rng.choice((-1, 1)),
                    den)


def atom(poly, sign):
    return ["atom", poly, sign]


# ---------------------------------------------------------------------------
# cad_sample: one-shot decompositions of distinct plane and space sets
# ---------------------------------------------------------------------------

# the plane and space shapes of the acceptance suite's sign corpus, in
# placeholders X, Y, Z that are replaced by shifted variables
SHAPES = [
    atom("X^2 + Y^2 - 1", "="),
    atom("(X^2 + Y^2 - 1)*((X - 4)^2 + Y^2 - 1)", "="),
    atom("X^2 + 4*Y^2 - 4", "<"),
    atom("X*Y - 1", "="),
    atom("Y^2 - X", "="),
    atom("Y - X^3 + X", "="),
    atom("Y^2 - X^3", "="),
    atom("Y^2 - X^2*(X + 1)", "="),
    atom("(X^2 + Y^2)^2 - (X^2 - Y^2)", "="),
    atom("(X^2 + Y^2)^3 - 4*X^2*Y^2", "="),
    atom("X - 2*Y + 1", "="),
    ["and", [atom("X^2 + Y^2 - 1", ">"), atom("4 - X^2 - Y^2", ">")]],
    ["or", [atom("X^2 + Y^2 - 1", "<"), atom("X - Y", ">")]],
    atom("X^3 + Y^3 - 3*X*Y", "="),
    atom("X*Y", ">"),
    atom("X^2 + Y^2 + 1", "="),
    atom("X^4 + Y^4 - 1", "="),
    atom("X^2 + Y^2 + Z^2 - 1", "="),
    atom("Z - X - Y", "="),
    atom("X^2 + Y^2 - Z^2", "="),
    atom("X^2 + Y^2 + Z^2 - 1", "<"),
]


def chebyshev(d, var="X"):
    prev, cur = "1", var
    for _ in range(d - 1):
        prev, cur = cur, f"2*{var}*({cur}) - ({prev})"
    return cur


# the paper's poly(D) cell growth at fixed format: y = T_d(x), d = 2..8
SHAPES += [atom(f"Y - ({chebyshev(d)})", "=") for d in range(2, 9)]


def _map_polys(f, fn):
    """f with fn applied to the text of every atom's polynomial."""
    if f[0] == "atom":
        return atom(fn(f[1]), f[2])
    if f[0] == "not":
        return ["not", _map_polys(f[1], fn)]
    return [f[0], [_map_polys(c, fn) for c in f[1]]]


def _cad_sample_round(rng, ctx):
    # shifts of +-1/4 and +-3/4 only: the cost of the Chebyshev curves grows
    # with the shift's numerator to the power d, which spread the tail
    # between seeds.  That leaves 16 shifts per plane shape, enough for 16
    # rounds of distinct inputs.
    ops = []
    for shape in SHAPES:
        for _ in range(100):
            subs = {ph: shifted(ph.lower(), odd_over(4, rng, top=3))
                    for ph in "XYZ"}
            f = _map_polys(shape, lambda t: "".join(subs.get(ch, ch)
                                                    for ch in t))
            text = oracle.render(f)
            if text not in ctx["seen"]:
                break
        ctx["seen"].add(text)
        ops.append({"kind": "cad_sample", "formula": f,
                    "sample_seed": rng.randrange(2**31)})
    return ops


def _run_cad_sample(sc, op, state):
    psi = sc.parse_formula(oracle.render(op["formula"]))
    try:
        d = sc.compatible_decomposition([psi])
    except sys.modules["sharpcells.cad"].ProjectionDegeneracy:
        # the documented remedy for a nullified coefficient chain
        d = sc.compatible_decomposition([psi], projection="collins")
    rng = random.Random(op["sample_seed"])
    return d, [sc.sample_in_cell(d, c, rng, count=2) for c in d.cells]


def _check_cad_sample(op, result):
    d, samples = result
    f = op["formula"]
    codes = [oracle.compile_poly(a[1]) for a in oracle.atoms(f)]
    names = d.variables
    for cell, points in zip(d.cells, samples):
        ref = oracle.signs_at(codes, names, dict(zip(names, cell.coords)))
        if oracle.truth(f, ref) != cell.memberships[0]:
            return False, f"membership of cell {cell.index_path}"
        for pt in points:
            if oracle.signs_at(codes, names, dict(zip(names, pt))) != ref:
                return False, f"signs vary in cell {cell.index_path}"
    return True, [len(d.cells), sum(c.memberships[0] for c in d.cells)]


# ---------------------------------------------------------------------------
# quantified: a few parametric families queried again and again
# ---------------------------------------------------------------------------

# families of subsets of the x-line over the parameter l, with the case
# letter and the chosen value as functions of (lambda, c): a is the
# infimum, b the right end of the initial interval from a, and the value
# is 0, b - 1, a + 1 or (a + b)/2 for cases A to D.  A value
# ("sqrt", t, s, k) stands for s*sqrt(t) + k.
FAMILIES = [
    (atom("x - {c}*l", ">"), lambda l, c: ("C", l * c + 1)),
    (atom("{c}*l - x", ">"), lambda l, c: ("B", l * c - 1)),
    (atom("x - l - {c}", "="), lambda l, c: ("D", l + c)),
    (["and", [atom("x - l", ">"), atom("l + {c} - x", ">")]],
     lambda l, c: ("D", l + c / 2)),
    (["and", [atom("x - l", ">"), atom("l^2 + {c} - x", ">")]],
     lambda l, c: ("D", (l + l * l + c) / 2)),
    (atom("x^2 + l^2 + {c}", ">"), lambda l, c: ("A", Fraction(0))),
    (atom("x + l^2 + {c}", ">"), lambda l, c: ("C", 1 - l * l - c)),
    (["and", [atom("x^2 - l^2 - {c}", ">"), atom("x", ">")]],
     lambda l, c: ("C", ("sqrt", l * l + c, 1, 1))),
    (atom("(x - l)*(x - l - {c})", ">"), lambda l, c: ("B", l - 1)),
    (atom("x^2 - l - {c}", ">"),
     lambda l, c: ("A", Fraction(0)) if l + c < 0
     else ("B", ("sqrt", l + c, -1, -1))),
]

# closed sentences in x with their truth as a function of (lambda, c)
SENTENCES = [
    ("exists y. (y^2 - x - {c} = 0)", lambda l, c: l + c >= 0),
    ("forall y. (y^2 + x*y + {c} > 0)", lambda l, c: l * l < 4 * c),
    ("exists y. ((y - x > 0) and ({c} - y > 0))", lambda l, c: l < c),
]

# c > 1/4 keeps every family's fibre nonempty for all lambda
PARAMS = [Fraction(n, 2) for n in range(1, 7)]


def _expected(value):
    """Exact expected value: a Fraction, or ("sqrt", t, s, k) as strings."""
    if not isinstance(value, tuple):
        return frac(value)
    _, t, s, k = value
    r = oracle.exact_sqrt(t)
    if r is not None:
        return frac(s * r + k)
    return ["sqrt", frac(t), s, frac(k)]


# The costly ops of this workload are the region decides, and their cost
# depends on the family's c and on lambda.  So c is fixed per family and
# every family cycles through the same region lambdas in a seeded order:
# seven rounds (a run of 20 s) decide the same regions on every seed, and
# the spread between runs reflects the program, not the draw.  The seed
# still draws every evaluation and sentence parameter.
REGION_LAMBDAS = tuple(Fraction(k, 4) for k in (-10, -5, -1, 2, 5, 8, 11))


def _quantified_context():
    fams = [(_with_c(f, c), c, rule) for (f, rule), c
            in zip(FAMILIES, itertools.cycle(PARAMS))]
    sents = [(text.format(c=frac(c)), c, rule) for (text, rule), c
             in zip(SENTENCES, PARAMS[::2])]
    return {"families": fams, "sentences": sents,
            "region_lambdas": [[] for _ in FAMILIES]}


def _with_c(f, c):
    return _map_polys(f, lambda t: t.format(c=frac(c)))


def _quantified_round(rng, ctx):
    ops = []
    for fid, (f, c, rule) in enumerate(ctx["families"]):
        ops.append({"kind": "choice", "family": fid,
                    "text": oracle.render(f)})
        for _ in range(8):
            lam = Fraction(rng.randrange(-400, 401), 100)
            case, value = rule(lam, c)
            ops.append({"kind": "evaluate", "family": fid, "formula": f,
                        "at": frac(lam), "case": case,
                        "value": _expected(value)})
        cycle = ctx["region_lambdas"][fid]
        if not cycle:
            cycle.extend(rng.sample(REGION_LAMBDAS, len(REGION_LAMBDAS)))
        lam = cycle.pop()
        case, _ = rule(lam, c)
        for letter in "ABCD":
            ops.append({"kind": "region", "family": fid, "letter": letter,
                        "at": frac(lam), "truth": letter == case})
    for text, c, rule in ctx["sentences"]:
        lam = Fraction(rng.randrange(-16, 17), 4)
        ops.append({"kind": "sentence", "text": text, "at": frac(lam),
                    "truth": rule(lam, c)})
    return ops


def _run_quantified(sc, op, state):
    kind = op["kind"]
    if kind == "choice":
        total = sc.parse_formula(op["text"])
        fn = sc.choice_1d(total, fiber_vars=["x"])
        regions = sc.region_formulas(total, "x")
        state[op["family"]] = (fn, regions)
        return fn, regions
    if kind == "evaluate":
        fn, _ = state[op["family"]]
        return fn.evaluate([Fraction(op["at"])])
    if kind == "region":
        _, regions = state[op["family"]]
        return sc.decide(regions[op["letter"]], {"l": Fraction(op["at"])},
                         ceiling=6)
    psi = sc.parse_formula(op["text"])
    return sc.decide(psi, {"x": Fraction(op["at"])})


def num_text(value):
    """Exact rational as p/q; an irrational as ~ and 20 decimals."""
    q = value.as_fraction()
    if q is not None:
        return frac(q)
    lo, hi = value.approx(80)
    return f"~{round((lo + hi) / 2 * 10**20)}e-20"


def _value_ok(g, want):
    if isinstance(want, str):
        return g.as_fraction() == Fraction(want)
    _, t, s, k = want
    if g.as_fraction() is not None:
        return False
    root = oracle.sqrt_enclosure(Fraction(t))
    expect = root * s + Fraction(k)
    lo, hi = g.approx(60)
    slack = Fraction(1, 2**50)
    return expect.lo - slack <= lo and hi <= expect.hi + slack


def _check_quantified(op, result):
    kind = op["kind"]
    if kind == "choice":
        fn, regions = result
        ok = (fn.param_vars == ("l",) and fn.fiber_vars == ("x",)
              and sorted(regions) == list("ABCD"))
        return ok, list(fn.fd.as_tuple())
    if kind == "evaluate":
        (g,), (case,) = result
        f = op["formula"]
        codes = [oracle.compile_poly(a[1]) for a in oracle.atoms(f)]
        member = oracle.truth(f, oracle.signs_at(
            codes, ("l", "x"), {"l": Fraction(op["at"]), "x": g}))
        ok = case == op["case"] and _value_ok(g, op["value"]) and member
        return ok, [case, num_text(g)]
    return result == op["truth"], result


# ---------------------------------------------------------------------------
# topology: components, Betti numbers and stars of sets known by construction
# ---------------------------------------------------------------------------


def _circle(a, b, r2):
    return f"{shifted('x', a)}^2 + {shifted('y', b)}^2 - {frac(r2)}"


def _plane_shape(kind, rng):
    """(formula, components, betti or None for unbounded sets)."""
    a, b = odd_over(4, rng), odd_over(4, rng)
    if kind.startswith("circles"):
        k = int(kind[-1])
        polys = [f"({_circle(a + 3 * i, b, 1)})" for i in range(k)]
        return atom("*".join(polys), "="), k, [k, k, 0]
    if kind == "annulus":
        return (["and", [["not", atom(_circle(a, b, 1), "<")],
                         ["not", atom(_circle(a, b, 4), ">")]]], 1, [1, 1, 0])
    if kind.startswith("hyperbola"):
        # "hyperbola" shifts along x only; "hyperbola_xy" (a known defect,
        # see KNOWN_DEFECTS) shifts along y too
        c = rng.choice((Fraction(1), Fraction(2), Fraction(1, 2)))
        y = shifted("y", b) if kind == "hyperbola_xy" else "y"
        poly = f"{shifted('x', a)}*{y} - {frac(c)}"
        return atom(poly, "="), 2, None
    if kind == "disks":
        poly = f"({_circle(a, b, 1)})*({_circle(a + 4, b, 1)})"
        return ["not", atom(poly, ">")], 2, [2, 0, 0]
    raise ValueError(kind)


PLANE_KINDS = ("circles1", "circles2", "circles3", "annulus", "hyperbola",
               "disks")

SOLIDS = {
    "ball": ("{x}^2 + {y}^2 + {z}^2 - 1", "<"),
    "sphere": ("{x}^2 + {y}^2 + {z}^2 - 1", "="),
    "cone": ("{x}^2 + {y}^2 - {z}^2", "="),
}

# Ops the library answers wrongly at the commit that added the benchmark:
# the 3-D component counts of the sphere (6, truth 1) and the cone (5,
# truth 1), and hyperbolas shifted along y, whose components and stars
# raise ProjectionDegeneracy (neither has a Collins fallback).  The timed
# streams leave them out, because a timed op must not fail;
# known_defects.py runs them and reports which still fail.  Two disjoint
# spheres are left out everywhere: one such op takes about 24 s, longer
# than a whole run.
KNOWN_DEFECTS = (("components", "sphere"), ("components", "cone"),
                 ("components", "hyperbola_xy"), ("star", "hyperbola_xy"))


def _solid_op(name, rng):
    template, sign = SOLIDS[name]
    centre = {v: shifted(v, odd_over(2, rng, top=3)) for v in "xyz"}
    return {"kind": "components", "shape": name,
            "formula": atom(template.format(**centre), sign), "expect": 1}


def defect_ops(seed):
    """One op of each known-defect kind, seeded like the streams."""
    rng = random.Random(f"known_defects:{seed}")
    ops = []
    for op_kind, shape in KNOWN_DEFECTS:
        if shape in SOLIDS:
            ops.append(_solid_op(shape, rng))
            continue
        f, comps, _ = _plane_shape(shape, rng)
        ops.append({"kind": op_kind, "shape": shape, "formula": f,
                    "expect": comps})
    return ops


def _topology_round(rng, ctx):
    ops = []
    for kind in PLANE_KINDS:
        for op_kind in ("components", "star", "betti"):
            f, comps, betti = _plane_shape(kind, rng)
            if op_kind == "betti" and betti is None:
                continue
            ops.append({"kind": op_kind, "shape": kind, "formula": f,
                        "expect": betti if op_kind == "betti" else comps})
    ops.append(_solid_op("ball", rng))
    return ops


def _run_topology(sc, op, state):
    psi = sc.parse_formula(oracle.render(op["formula"]))
    kind = op["kind"]
    if kind == "components":
        return len(sc.connected_components(psi))
    if kind == "star":
        return len(sc.to_star(psi).entries)
    return list(sc.betti(sc.triangulate(psi)[0]))


def _check_topology(op, result):
    return result == op["expect"], result


# ---------------------------------------------------------------------------
# cli_cold: one cold `python -m sharpcells.cli` process per op
# ---------------------------------------------------------------------------

TREE_LEAVES = {
    "circle": ("x^2 + y^2 - 1 = 0", [2, 2]),
    "line": ("x - y > 0", [2, 1]),
    "hyperbola": ("x*y - 1 = 0", [2, 2]),
    "cubic": ("y - x^3 = 0", [2, 3]),
}

# three no-algebra to six algebra subcommands, so the median sits inside
# the algebra group rather than on the gap between the two
CLI_MIX = ("parse", "fdinfo", "tree", "cad", "components", "betti", "choice",
           "components", "betti")


def _sign_pair(rng):
    d, e = rng.randrange(1, 4), rng.randrange(1, 4)
    a = Fraction(rng.randrange(1, 40), rng.choice((1, 2, 4)))
    b = Fraction(rng.randrange(1, 40), rng.choice((1, 2, 4)))
    px = "x" if d == 1 else f"x^{d}"
    py = "y" if e == 1 else f"y^{e}"
    text = f"(({px} - {frac(a)} > 0) and ({py} - {frac(b)} < 0))"
    return text, d + e


def _cli_op(sub, rng):
    if sub == "parse":
        text, _ = _sign_pair(rng)
        return {"argv": [], "file": text, "expect": text}
    if sub == "fdinfo":
        text, degree = _sign_pair(rng)
        return {"argv": [], "file": text,
                "expect": f"format 2  degree {degree}  P-format 2"}
    if sub == "tree":
        names = rng.sample(sorted(TREE_LEAVES), rng.randrange(2, 4))
        op_name = rng.choice(("union", "intersection"))
        doc = {"tree": {"version": 1, "slanted": False,
                        "root": {"kind": "node", "op": op_name,
                                 "children": [{"kind": "leaf", "name": n}
                                              for n in names]}},
               "leaves": {n: {"formula": TREE_LEAVES[n][0],
                              "fd": TREE_LEAVES[n][1]} for n in names}}
        degree = sum(TREE_LEAVES[n][1][1] for n in names)
        return {"argv": [], "file": doc, "expect": f"tree FD (2, {degree})"}
    if sub == "cad":
        a, b = odd_over(4, rng), odd_over(4, rng)
        text = f"{_circle(a, b, rng.choice((1, 4, Fraction(9, 4))))} = 0"
        return {"argv": [], "file": text, "expect": None}
    if sub == "components":
        kind = rng.choice(("circles1", "circles2", "circles3"))
        f, comps, _ = _plane_shape(kind, rng)
        return {"argv": [], "file": oracle.render(f),
                "expect": f"{comps} connected component(s)"}
    if sub == "betti":
        kind = rng.choice(("circles2", "annulus", "disks"))
        f, _, b = _plane_shape(kind, rng)
        return {"argv": [], "file": oracle.render(f),
                "expect": f"b0 {b[0]}  b1 {b[1]}  b2 {b[2]}"}
    if sub == "choice":
        fid = rng.choice((0, 1, 2, 3, 6))  # families with rational values
        f, rule = FAMILIES[fid]
        c = rng.choice(PARAMS)
        lam = Fraction(rng.randrange(-40, 41), 4)
        case, value = rule(lam, c)
        at = frac(lam)
        # --at=value: argparse would read a leading minus as an option
        return {"argv": ["--fiber", "x", f"--at={at}"],
                "file": oracle.render(_with_c(f, c)),
                "expect": "parameters: l",
                "last": f"g({at}) = ({frac(value)})  cases {case}"}
    raise ValueError(sub)


def _cli_round(rng, ctx):
    ops = []
    for sub in CLI_MIX:
        op = _cli_op(sub, rng)
        op.update(kind="cli", sub=sub)
        ops.append(op)
    return ops


def cli_files(op, directory, index):
    """Write the op's input file; return the subcommand argv."""
    ext = "json" if op["sub"] == "tree" else "fml"
    path = os.path.join(directory, f"op{index}.{ext}")
    body = op["file"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(body if isinstance(body, str) else json.dumps(body))
    return [op["sub"], path, *op["argv"]]


def _check_cli(op, result):
    code, text = result
    lines = text.splitlines()
    first = lines[0] if lines else ""
    if code != 0:
        return False, f"exit {code}"
    if op["sub"] == "cad":
        head, _, rest = first.partition(" cells over ")
        ok = head.isdigit() and rest == "(x, y)"
    else:
        ok = first == op["expect"]
    if "last" in op:
        ok = ok and lines[-1] == op["last"]
        return ok, [first, lines[-1]]
    return ok, first


# ---------------------------------------------------------------------------
# streams, warm-up and dispatch
# ---------------------------------------------------------------------------

ROUNDS = {"cad_sample": _cad_sample_round, "quantified": _quantified_round,
          "topology": _topology_round, "cli_cold": _cli_round}
RUN = {"cad_sample": _run_cad_sample, "quantified": _run_quantified,
       "topology": _run_topology}
CHECK = {"cad_sample": _check_cad_sample, "quantified": _check_quantified,
         "topology": _check_topology, "cli_cold": _check_cli}


def rounds(workload, seed, stream):
    """Endless rounds of ops for a workload; ``stream`` keeps the timed and
    the traced inputs apart."""
    rng = random.Random(f"{workload}:{seed}:{stream}")
    ctx = {"seen": set()}
    if workload == "quantified":
        ctx.update(_quantified_context())
    while True:
        yield ROUNDS[workload](rng, ctx)


def run_op(sc, workload, op, state):
    """Run one in-process op (cli_cold ops are child processes, started by
    the runner); state carries objects later ops of a round reuse."""
    return RUN[workload](sc, op, state)


def check(workload, op, result):
    """(passed, exact answer for the digest)."""
    return CHECK[workload](op, result)


def warm_up(workload, sc):
    """Fill sympy's caches and lazy set-up on inputs the streams never
    produce (integer coefficients the generators do not use)."""
    if workload == "cli_cold":
        sc.parse_formula("x^2 + 3*y^2 - 5 = 0")
        return
    psi = sc.parse_formula("x^2 + 3*y^2 - 5 = 0")
    if workload == "cad_sample":
        d = sc.compatible_decomposition([psi])
        rng = random.Random(0)
        for c in d.cells:
            sc.sample_in_cell(d, c, rng)
    elif workload == "quantified":
        fn = sc.choice_1d(sc.parse_formula("x - 5*l - 7 > 0"),
                          fiber_vars=["x"], samples=2)
        fn.evaluate([Fraction(3)])
        sc.decide(sc.parse_formula("exists y. (y^2 - x - 7 = 0)"),
                  {"x": Fraction(1)})
    else:
        sc.connected_components(psi)
        sc.betti(sc.triangulate(psi)[0])
        sc.to_star(psi)
