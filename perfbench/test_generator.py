"""Checks of the benchmark's own generator and oracle (no sharpcells import).

    python3 -m pytest -q perfbench/test_generator.py
"""

import json
from fractions import Fraction
from itertools import islice

import oracle
import workloads


def _dump(workload, seed, stream="timed", n=2):
    rounds = islice(workloads.rounds(workload, seed, stream), n)
    return json.dumps(list(rounds), sort_keys=True).encode()


def test_same_seed_gives_byte_identical_inputs():
    for w in workloads.WORKLOADS:
        assert _dump(w, 7) == _dump(w, 7), w


def test_seeds_and_streams_differ():
    for w in workloads.WORKLOADS:
        assert _dump(w, 7) != _dump(w, 8), w
        assert _dump(w, 7) != _dump(w, 7, "traced"), w


def test_rounds_keep_their_mix():
    for w in workloads.WORKLOADS:
        kinds = [[(op["kind"], op.get("sub"), op.get("shape"))
                  for op in r] for r in islice(workloads.rounds(w, 3, "timed"), 3)]
        assert kinds[0] == kinds[1] == kinds[2], w


def test_cad_sample_inputs_never_repeat():
    texts = [oracle.render(op["formula"]) for r in
             islice(workloads.rounds("cad_sample", 5, "timed"), 6) for op in r]
    assert len(texts) == len(set(texts))


def test_oracle_evaluates_exactly_and_by_interval():
    f = ["and", [["atom", "x^2 + y^2 - 1", "<"], ["atom", "x - 1/3", ">"]]]
    codes = [oracle.compile_poly(a[1]) for a in oracle.atoms(f)]
    point = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
    signs = oracle.signs_at(codes, "xy", point)
    assert signs == [-1, 1] and oracle.truth(f, signs)
    assert oracle.signs_at(codes, "xy", {"x": Fraction(1, 3),
                                         "y": Fraction(0)}) == [-1, 0]
    root2 = oracle.sqrt_enclosure(Fraction(2))
    assert root2.lo ** 2 < 2 < root2.hi ** 2
    assert oracle.exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert oracle.exact_sqrt(Fraction(2)) is None


def test_family_rules_match_their_fibres():
    # spot-check the closed forms against the fibre at a few parameters
    for (f, rule) in workloads.FAMILIES:
        for lam in (Fraction(-3), Fraction(0), Fraction(5, 2)):
            c = Fraction(3, 2)
            _, value = rule(lam, c)
            if isinstance(value, tuple):  # irrational: checked in runs
                continue
            member = workloads._with_c(f, c)
            codes = [oracle.compile_poly(a[1]) for a in oracle.atoms(member)]
            signs = oracle.signs_at(codes, "lx", {"l": lam, "x": value})
            assert oracle.truth(member, signs), (f, lam)
