"""Batch command line front end.

One subcommand per analysis; plain-text tables go to standard output and
the full JSON document is written when --json is given.  Every subcommand
is deterministic, and JSON output carries no timing, so identical inputs
produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import calculus, trees
from .cad import (
    CADError,
    CeilingError,
    compatible_decomposition,
    cell_formula,
    decomposition_report,
)
from .choice import choice, choice_to_json
from .fd import FDPair, fd_of_formula, pformat_of_formula
from .formula import Environment, to_text
from .parser import ParseError, parse_formula
from .realalg import RealAlgebraError
from .star import star_ccd, star_fd, star_report, star_to_json, to_star
from .topology import (
    NullifiedFibreError,
    betti,
    check_component_bound,
    complex_to_json,
    complex_to_off,
    components_to_json,
    connected_components,
    stratify,
    triangulate,
)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit2(f"cannot read {path}: {exc.strerror}")


class SystemExit2(Exception):
    """Input-level failure: message printed, exit status 1."""


def _load_formula(path):
    try:
        return parse_formula(_read(path))
    except ParseError as exc:
        raise SystemExit2(f"{path}: {exc}")


def _num_json(value, approx=None):
    frac = value.as_fraction() if hasattr(value, "as_fraction") else \
        Fraction(value)
    if frac is not None:
        doc = str(frac)
        if approx:
            return {"exact": doc, "approx": f"{float(frac):.{approx}g}"}
        return doc
    lo, hi = value.approx(64)
    doc = {"isolating": [str(lo), str(hi)]}
    if approx:
        doc["approx"] = f"{float((lo + hi) / 2):.{approx}g}"
    return doc


def _emit(args, doc, text_lines):
    for line in text_lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _cells_json(decomp, approx, with_formulas=False):
    out = []
    for c in decomp.cells:
        entry = {
            "index_path": list(c.index_path),
            "dim": c.dim,
            "sample": [_num_json(x, approx) for x in c.coords],
        }
        if c.memberships is not None:
            entry["memberships"] = list(c.memberships)
        if with_formulas:
            psi, fd = cell_formula(decomp, c)
            entry["formula"] = to_text(psi)
            entry["fd"] = list(fd.as_tuple())
        out.append(entry)
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args):
    psi = _load_formula(args.file)
    doc = {"version": 1, "formula": to_text(psi),
           "free_vars": list(psi.free_vars())}
    _emit(args, doc, [doc["formula"],
                      "free variables: " + " ".join(doc["free_vars"])])
    return 0


def _cmd_fdinfo(args):
    psi = _load_formula(args.file)
    fd = fd_of_formula(psi)
    pf = pformat_of_formula(psi)
    doc = {"version": 1, "fd": list(fd.as_tuple()), "p_format": pf}
    _emit(args, doc, [f"format {fd.format}  degree {fd.degree}  "
                      f"P-format {pf}"])
    return 0


def _cmd_cad(args):
    sets = [_load_formula(p) for p in args.files]
    t0 = time.monotonic()
    decomp = compatible_decomposition(sets)
    elapsed = time.monotonic() - t0
    doc = {
        "version": 1,
        "variables": list(decomp.variables),
        "cells": _cells_json(decomp, args.approx, with_formulas=args.stats),
    }
    lines = [f"{len(decomp.cells)} cells over "
             f"({', '.join(decomp.variables)})"]
    if args.stats:
        max_fd = max(tuple(entry["fd"]) for entry in doc["cells"])
        doc["stats"] = {
            "level": decomp.level,
            "basis_size": len(decomp.basis),
            "max_degree": max((p.total_degree() for p in decomp.basis),
                              default=0),
            "cells": len(doc["cells"]),
            "max_cell_fd": max_fd,
        }
        lines.append(f"stats: level {decomp.level}, "
                     f"{len(decomp.basis)} basis polynomials, "
                     f"max cell FD {max_fd}, "
                     f"wall {elapsed:.3f}s")
    _emit(args, doc, lines)
    return 0


def _cmd_components(args):
    psi = _load_formula(args.file)
    comps = connected_components(psi)
    doc = components_to_json(comps)
    lines = [f"{len(comps)} connected component(s)"]
    for i, c in enumerate(comps):
        lines.append(f"  component {i}: {len(c.cells)} cells, "
                     f"FD {c.fd.as_tuple()}")
    _emit(args, doc, lines)
    return 0


def _cmd_bound_check(args):
    family = {i + 1: _load_formula(p) for i, p in enumerate(args.files)}
    rep = check_component_bound(family, args.cap)
    doc = {"version": 1, **rep}
    doc["cap"] = str(args.cap)
    lines = ["index  components"]
    for d, n in sorted(rep["counts"].items()):
        lines.append(f"{d:>5}  {n}")
    lines.append(f"fitted exponent {rep['exponent']:.3f} "
                 f"(cap {args.cap}): {'pass' if rep['passed'] else 'FAIL'}")
    _emit(args, doc, lines)
    return 0 if rep["passed"] else 1


def _cmd_stratify(args):
    psi = _load_formula(args.file)
    strata = stratify(psi)
    doc = {"version": 1, "strata": [
        {"dim": s.dim, "cells": [list(p) for p in s.cells],
         "fd": list(s.fd.as_tuple())} for s in strata]}
    lines = [f"{len(strata)} strata"]
    for s in strata:
        lines.append(f"  dim {s.dim}: {len(s.cells)} cells, "
                     f"FD {s.fd.as_tuple()}")
    _emit(args, doc, lines)
    return 0


def _cmd_triangulate(args):
    psi = _load_formula(args.file)
    subsets = [_load_formula(p) for p in args.subsets]
    K, desc = triangulate(psi, subsets)
    doc = {"version": 1, "complex": complex_to_json(K), "map": desc}
    v, e, f = K.counts()
    lines = [f"complex: {v} vertices, {e} edges, {f} triangles"]
    if args.off:
        with open(args.off, "w", encoding="utf-8") as fh:
            fh.write(complex_to_off(K))
        lines.append(f"OFF written to {args.off}")
    _emit(args, doc, lines)
    return 0


def _cmd_betti(args):
    psi = _load_formula(args.file)
    K, _ = triangulate(psi)
    b = betti(K)
    doc = {"version": 1, "betti": list(b),
           "euler_characteristic": K.euler_characteristic()}
    _emit(args, doc, [f"b0 {b[0]}  b1 {b[1]}  b2 {b[2]}"])
    return 0


def _cmd_choice(args):
    psi = _load_formula(args.file)
    fibers = args.fiber.split(",") if args.fiber else None
    fn = choice(psi, args.ell, fiber_vars=fibers)
    doc = choice_to_json(fn)
    lines = [f"parameters: {' '.join(fn.param_vars) or '(none)'}",
             f"fiber: {' '.join(fn.fiber_vars)}",
             f"FD {fn.fd.as_tuple()}"]
    if args.at is not None:
        at = [str(v) for v in args.at]
        coords, cases = fn.evaluate(args.at)
        doc["evaluation"] = {
            "at": at,
            "cases": cases,
            "coordinates": [_num_json(c, args.approx) for c in coords],
        }
        shown = ", ".join(
            str(c.as_fraction()) if c.as_fraction() is not None
            else f"~{float(c):.6g}" for c in coords)
        lines.append(f"g({','.join(at)}) = ({shown})  cases {''.join(cases)}")
    _emit(args, doc, lines)
    return 0


def _cmd_tree(args):
    doc_in = json.loads(_read(args.file))
    t = trees.tree_from_json(doc_in["tree"] if "tree" in doc_in else doc_in)
    env = Environment()
    for name, rec in doc_in.get("leaves", {}).items():
        leaf = parse_formula(rec["formula"])
        env.register(name, leaf, FDPair(*rec["fd"]))
    violations = trees.validate_tree(t, env)
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        return 1
    fd = trees.omega_fd(t, env)
    psi = trees.tree_to_formula(t, env)
    # carrying the tree makes the document a valid tree.v1 input
    doc = {**trees.tree_to_json(t), "omega_fd": list(fd.as_tuple()),
           "formula": to_text(psi),
           "formula_fd": list(fd_of_formula(psi).as_tuple())}
    _emit(args, doc, [f"tree FD {fd.as_tuple()}",
                      f"formula: {doc['formula']}"])
    return 0


def _cmd_star(args):
    if args.ccd is not None:
        reps = [to_star(_load_formula(p)) for p in args.files]
        decomp, stars, rep = star_ccd(reps, args.ccd)
        doc = {"version": 1, "cells": len(decomp.cells),
               "max_star_fd": rep["max_star_fd"],
               "stars": {",".join(map(str, k)): star_to_json(v)
                         for k, v in sorted(stars.items())}}
        _emit(args, doc, [f"{rep['cells']} cells, "
                          f"max star FD {tuple(rep['max_star_fd'])}"])
        return 0
    rep = to_star(_load_formula(args.files[0]))
    doc = star_to_json(rep)
    fd = star_fd(rep)
    _emit(args, doc, [f"{len(rep.entries)} entries, star FD {fd.as_tuple()}"])
    return 0


def _cmd_reduce_check(args):
    doc_in = json.loads(_read(args.file))
    witness = calculus.witness_from_json(doc_in["witness"])
    system = calculus.AxiomSystem(doc_in.get("system", "Sharp"))
    corpus = []
    for entry in doc_in["corpus"]:
        corpus.append((FDPair(*entry["source"]),
                       calculus.derivation_from_json(entry["derivation"])))
    rep = calculus.check_reduction(corpus, witness, system)
    # carrying the checked input makes the document a valid reduction.v1 input
    doc = {"version": 1,
           "witness": calculus.witness_to_json(witness),
           "corpus": [{"source": list(source.as_tuple()),
                       "derivation": calculus.derivation_to_json(d)}
                      for source, d in corpus],
           **rep}
    _emit(args, doc, calculus.report_as_text(rep).splitlines())
    return 0 if rep["passed"] else 1


def _cmd_report(args):
    rows = []
    for path in args.files:
        psi = _load_formula(path)
        fd = fd_of_formula(psi)
        decomp = compatible_decomposition([psi])
        naive = decomposition_report(decomp)
        stars = star_report(decomp)
        comps = connected_components(psi, decomp=decomp)
        rows.append({
            "file": path,
            "fd": list(fd.as_tuple()),
            "cells": naive["cells"],
            "components": len(comps),
            "max_cell_fd": naive["max_fd"],
            "max_star_fd": stars["max_star_fd"],
        })
    doc = {"version": 1, "sets": rows}
    lines = ["file  FD  cells  components  cell-FD  star-FD"]
    for r in rows:
        lines.append(f"{r['file']}  {tuple(r['fd'])}  {r['cells']}  "
                     f"{r['components']}  {tuple(r['max_cell_fd'])}  "
                     f"{tuple(r['max_star_fd'])}")
    _emit(args, doc, lines)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 3, a code of their own;
    argparse gives its subparsers the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _digits(text):
    """K for --approx: a non-negative integer up to sys.float_info.dig,
    the significant digits of the float an approximation is."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    k = int(text)
    if k > sys.float_info.dig:
        raise argparse.ArgumentTypeError(
            f"expected at most {sys.float_info.dig} digits, got {k}")
    return k


def _rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):  # argparse maps only ValueError
        raise argparse.ArgumentTypeError(f"expected a rational, got {text!r}")


def _rationals(text):
    return [_rational(tok) for tok in text.split(",")]


def _build_parser():
    top = _Parser(
        prog="sharpcells",
        description="format/degree analyses of semialgebraic sets")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        """A subcommand with --json."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", metavar="PATH")
        p.set_defaults(fn=fn)
        return p

    p = command("parse", _cmd_parse, "parse a formula file")
    p.add_argument("file")

    p = command("fdinfo", _cmd_fdinfo, "format/degree and P-format")
    p.add_argument("file")

    p = command("cad", _cmd_cad, "compatible cylindrical decomposition")
    p.add_argument("files", nargs="+")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--approx", type=_digits, default=0, metavar="K")

    p = command("components", _cmd_components, "connected components")
    p.add_argument("file")

    p = command("bound-check", _cmd_bound_check,
                "component-count growth check")
    p.add_argument("files", nargs="+")
    p.add_argument("--cap", type=_rational, required=True)

    p = command("stratify", _cmd_stratify, "smooth strata by dimension")
    p.add_argument("file")

    p = command("triangulate", _cmd_triangulate,
                "triangulate a closed bounded set")
    p.add_argument("file")
    p.add_argument("subsets", nargs="*")
    p.add_argument("--off", metavar="PATH")

    p = command("betti", _cmd_betti, "Betti numbers of a closed bounded set")
    p.add_argument("file")

    p = command("choice", _cmd_choice, "definable choice function")
    p.add_argument("file")
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--fiber", help="comma-separated fiber variable names")
    p.add_argument("--at", type=_rationals,
                   help="comma-separated rational parameter values")
    p.add_argument("--approx", type=_digits, default=0, metavar="K")

    p = command("tree", _cmd_tree, "structure tree analysis")
    p.add_argument("file")

    p = command("star", _cmd_star, "star representation / decomposition")
    p.add_argument("files", nargs="+")
    p.add_argument("--ccd", type=int, metavar="N",
                   help="decompose the first N coordinates")

    p = command("reduce-check", _cmd_reduce_check,
                "check a reduction witness")
    p.add_argument("file")

    p = command("report", _cmd_report, "summary table over formula files")
    p.add_argument("files", nargs="+")

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "star" and args.ccd is None and len(args.files) > 1:
        parser.error("star takes one file unless --ccd is given")
    try:
        return args.fn(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CeilingError as exc:
        print(f"ceiling exceeded: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"resource limit: {exc!r}", file=sys.stderr)
        return 2
    except (NullifiedFibreError, RealAlgebraError) as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 2
    except (ParseError, CADError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
