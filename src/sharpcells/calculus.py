"""Axiom-system rule tables, FD derivations, reduction checks, and the
format-normalization bound.

Three systems of increasing strength govern how format/degree pairs move
through set operations.  In the weakest (P) every operation may raise the
format by one and binary union/intersection sum degrees.  The middle system
(W) gives n-ary unions for free.  The strongest (Sharp) also makes
projections, complements, and n-ary intersections format-free; only
products with a line raise format.
"""

from __future__ import annotations

from .fd import FDPair

OPS = ("union", "intersection", "projection", "complement",
       "times_R_right", "times_R_left")

VARIANTS = ("P", "W", "Sharp")


class CalculusError(ValueError):
    pass


def _max_plus(inputs, bump):
    return FDPair(max(p.format for p in inputs) + bump,
                  sum(p.degree for p in inputs))


def _single(inputs, bump):
    (p,) = inputs
    return FDPair(p.format + bump, p.degree)


# per variant: op -> (arity constraint, transfer)
# arity constraint: "unary", "binary", "nary"
_RULES = {
    "P": {
        "union": ("binary", lambda ins: _max_plus(ins, 1)),
        "intersection": ("binary", lambda ins: _max_plus(ins, 1)),
        "projection": ("unary", lambda ins: _single(ins, 1)),
        "complement": ("unary", lambda ins: _single(ins, 1)),
        "times_R_right": ("unary", lambda ins: _single(ins, 1)),
        "times_R_left": ("unary", lambda ins: _single(ins, 1)),
    },
    "W": {
        "union": ("nary", lambda ins: _max_plus(ins, 0)),
        "intersection": ("nary", lambda ins: _max_plus(ins, 1)),
        "projection": ("unary", lambda ins: _single(ins, 1)),
        "complement": ("unary", lambda ins: _single(ins, 1)),
        "times_R_right": ("unary", lambda ins: _single(ins, 1)),
        "times_R_left": ("unary", lambda ins: _single(ins, 1)),
    },
    "Sharp": {
        "union": ("nary", lambda ins: _max_plus(ins, 0)),
        "intersection": ("nary", lambda ins: _max_plus(ins, 0)),
        "projection": ("unary", lambda ins: _single(ins, 0)),
        "complement": ("unary", lambda ins: _single(ins, 0)),
        "times_R_right": ("unary", lambda ins: _single(ins, 1)),
        "times_R_left": ("unary", lambda ins: _single(ins, 1)),
    },
}


class AxiomSystem:
    """One of the three rule tables, selected by variant name."""

    def __init__(self, variant: str):
        if variant not in VARIANTS:
            raise CalculusError(f"unknown variant {variant!r}")
        self.variant = variant
        self.rules = _RULES[variant]

    def __repr__(self):
        return f"AxiomSystem({self.variant})"


P_SYSTEM = AxiomSystem("P")
W_SYSTEM = AxiomSystem("W")
SHARP_SYSTEM = AxiomSystem("Sharp")


def apply_rule(system: AxiomSystem, op: str, inputs) -> FDPair:
    """Transfer function of one rule application."""
    if op not in OPS:
        raise CalculusError(f"unknown operation {op!r}")
    inputs = list(inputs)
    if not inputs:
        raise CalculusError("rule needs at least one input")
    arity, fn = system.rules[op]
    if arity == "unary" and len(inputs) != 1:
        raise CalculusError(f"{op} takes exactly one input")
    if arity == "binary" and len(inputs) != 2:
        raise CalculusError(
            f"{op} is binary in variant {system.variant}")
    if arity == "nary" and len(inputs) < 1:
        raise CalculusError(f"{op} needs inputs")
    return fn(inputs)


# ---------------------------------------------------------------------------
# derivations
# ---------------------------------------------------------------------------


class Leaf:
    """A generator with its FD annotation."""

    def __init__(self, name: str, fd: FDPair):
        self.name = name
        self.fd = fd

    def __repr__(self):
        return f"Leaf({self.name}, {self.fd})"


class Node:
    """An axiom-rule application over child derivations."""

    def __init__(self, op: str, children):
        if op not in OPS:
            raise CalculusError(f"unknown operation {op!r}")
        self.op = op
        self.children = list(children)
        if not self.children:
            raise CalculusError("derivation node needs children")

    def __repr__(self):
        return f"Node({self.op}, {self.children})"


def derive_fd(d, system: AxiomSystem) -> FDPair:
    """Root FD of a derivation: an upper bound on the set's FD in the
    filtration generated by the leaves under this axiom system."""
    if isinstance(d, Leaf):
        return d.fd
    if isinstance(d, Node):
        return apply_rule(system, d.op,
                          [derive_fd(c, system) for c in d.children])
    raise CalculusError(f"not a derivation: {d!r}")


# ---------------------------------------------------------------------------
# reduction witnesses
# ---------------------------------------------------------------------------


class ReductionWitness:
    """A candidate reduction between filtrations: a format reindexing
    a(F) and a per-format degree polynomial P_F(D).

    a maps formats to formats; polys maps each format to the coefficient
    list (constant first) of a polynomial with nonnegative rational
    coefficients applied to the degree.
    """

    def __init__(self, a, polys):
        self.a = dict(a)
        self.polys = {int(f): [c for c in coeffs]
                      for f, coeffs in polys.items()}
        for f, coeffs in self.polys.items():
            if not coeffs or all(c == 0 for c in coeffs):
                raise CalculusError(f"degree polynomial for format {f} is zero")
            if any(c < 0 for c in coeffs):
                raise CalculusError("degree polynomial needs nonnegative "
                                    "coefficients")

    def degree_bound(self, fmt: int, degree: int) -> int:
        if fmt not in self.polys:
            raise CalculusError(f"witness has no degree polynomial for "
                                f"format {fmt}")
        return sum(c * degree**i for i, c in enumerate(self.polys[fmt]))

    def format_bound(self, fmt: int) -> int:
        if fmt not in self.a:
            raise CalculusError(f"witness undefined on format {fmt}")
        return self.a[fmt]


def check_reduction(corpus, witness: ReductionWitness,
                    system: AxiomSystem) -> dict:
    """Check a reduction witness on a finite corpus.

    corpus entries are (source FDPair, target-side derivation).  Each entry
    passes when the derived target FD is within (a(F), P_F(D)) of the
    source.  The report lists the violations and the exercised FD range.
    """
    violations = []
    formats = []
    degrees = []
    for i, (source, derivation) in enumerate(corpus):
        target = derive_fd(derivation, system)
        formats.append(source.format)
        degrees.append(source.degree)
        fbound = witness.format_bound(source.format)
        dbound = witness.degree_bound(source.format, source.degree)
        if target.format > fbound or target.degree > dbound:
            violations.append({
                "entry": i,
                "source": source.as_tuple(),
                "target": target.as_tuple(),
                "bound": (fbound, dbound),
            })
    return {
        "entries": len(list(corpus)),
        "violations": violations,
        "passed": not violations,
        "format_range": [min(formats), max(formats)] if formats else None,
        "degree_range": [min(degrees), max(degrees)] if degrees else None,
        "system": system.variant,
    }


def report_as_text(report: dict) -> str:
    lines = [f"reduction check ({report['system']}): "
             f"{report['entries']} entries, "
             f"{'pass' if report['passed'] else 'FAIL'}"]
    if report["format_range"]:
        lines.append(f"  formats exercised: {report['format_range'][0]}"
                     f"..{report['format_range'][1]}, degrees: "
                     f"{report['degree_range'][0]}"
                     f"..{report['degree_range'][1]}")
    for v in report["violations"]:
        lines.append(f"  entry {v['entry']}: source {v['source']} -> "
                     f"target {v['target']} exceeds bound {v['bound']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# format normalization
# ---------------------------------------------------------------------------


def normalize_bound(F: int, C) -> int:
    """C composed with itself F times, applied to F.

    This is the format bound for a set presented in the filtration
    generated by rules whose format cost is C.  C must be monotone
    nondecreasing with C(x) >= x on the probed values.
    """
    if F < 0:
        raise CalculusError("format must be nonnegative")
    value = F
    prev = None
    for _ in range(F):
        nxt = C(value)
        if nxt < value:
            raise CalculusError(f"C({value}) = {nxt} < {value}")
        if prev is not None and nxt < prev:
            raise CalculusError("C is not monotone on probed values")
        prev = nxt
        value = nxt
    return value


# ---------------------------------------------------------------------------
# JSON serialization (schema version 1)
# ---------------------------------------------------------------------------


def derivation_to_json(d) -> dict:
    if isinstance(d, Leaf):
        return {"kind": "leaf", "name": d.name, "fd": list(d.fd.as_tuple())}
    return {"kind": "node", "op": d.op,
            "children": [derivation_to_json(c) for c in d.children]}


def derivation_from_json(doc) -> Leaf | Node:
    if doc["kind"] == "leaf":
        return Leaf(doc["name"], FDPair(*doc["fd"]))
    return Node(doc["op"], [derivation_from_json(c) for c in doc["children"]])


def witness_to_json(w: ReductionWitness) -> dict:
    return {"version": 1,
            "a": {str(k): v for k, v in sorted(w.a.items())},
            "polys": {str(k): [str(c) for c in v]
                      for k, v in sorted(w.polys.items())}}


def witness_from_json(doc) -> ReductionWitness:
    from fractions import Fraction
    return ReductionWitness(
        {int(k): int(v) for k, v in doc["a"].items()},
        {int(k): [Fraction(c) for c in v] for k, v in doc["polys"].items()})
