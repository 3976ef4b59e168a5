"""Outside-in tracing of sharpcells layers.

The tracer wraps library functions from outside: for each target it
replaces the function in *every* module namespace that binds it (several
modules import functions by name, e.g. ``locate`` in ``topology`` or
``_decide`` in ``choice``), and restores the originals on ``uninstall``.
Span wrappers record (name, start, end, parent span, op id) in memory;
hot functions get count-only wrappers.  Nothing under ``src/`` changes.

Self time of a span is its duration minus the durations of its direct
child spans.  No layer has a queue or a worker pool, so there is no
waiting time to record.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute path, metric prefix)
SPAN_TARGETS = [
    ("sharpcells.parser", "parse_formula", "parser.parse_formula"),
    ("sharpcells.fd", "fd_of_formula", "fd.fd_of_formula"),
    ("sharpcells.cad", "factor_basis", "cad.factor_basis"),
    ("sharpcells.cad", "project_polys", "cad.project_polys"),
    ("sharpcells.cad", "compatible_decomposition",
     "cad.compatible_decomposition"),
    ("sharpcells.cad", "cad", "cad.cad"),
    ("sharpcells.cad", "sample_in_cell", "cad.sample_in_cell"),
    ("sharpcells.cad", "decide", "cad.decide"),
    ("sharpcells.cad", "locate", "cad.locate"),
    ("sharpcells.cad", "cell_formula", "cad.cell_formula"),
    ("sharpcells.realalg", "isolate_roots", "realalg.isolate_roots"),
    ("sharpcells.realalg", "sort_roots", "realalg.sort_roots"),
    ("sympy", "factor_list", "sympy.factor_list"),
    ("sympy", "resultant", "sympy.resultant"),
    ("sympy", "discriminant", "sympy.discriminant"),
    ("sharpcells.topology", "adjacency", "topology.adjacency"),
    ("sharpcells.topology", "connected_components",
     "topology.connected_components"),
    ("sharpcells.topology", "triangulate", "topology.triangulate"),
    ("sharpcells.topology", "betti", "topology.betti"),
    ("sharpcells.choice", "region_formulas", "choice.region_formulas"),
    ("sharpcells.choice", "ChoiceFunction.evaluate",
     "choice.ChoiceFunction.evaluate"),
    ("sharpcells.star", "to_star", "star.to_star"),
    ("sharpcells.star", "star_report", "star.star_report"),
]

COUNT_TARGETS = [
    ("sharpcells.realalg", "compare_roots", "realalg.compare_roots"),
    ("sharpcells.realalg", "RootHandle.refine", "realalg.RootHandle.refine"),
    ("sharpcells.realalg", "ExtensionField.__init__",
     "realalg.ExtensionField"),
    ("sharpcells.cad", "_decide", "cad._decide"),
    ("sharpcells.cad", "_test_points", "cad._test_points"),
]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = -1
        self.calls = {}  # calls per target, span and count-only alike
        self.counters = {}
        self.seen_projections = set()
        self._locates_before = 0
        self._patches = []  # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def add(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def _span(self, name, fn, before=None, after=None):
        spans, stack, calls = self.spans, self.stack, self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if name == "cad.locate":
                    self.add("cad.locate.errors")
                raise
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- layer-specific counts ---------------------------------------------

    def _before_project(self, args, kwargs):
        polys = list(args[0] if args else kwargs["polys"])
        variables = args[1] if len(args) > 1 else kwargs.get("variables")
        if variables is None and polys:
            variables = polys[0].variables
        method = args[2] if len(args) > 2 else kwargs.get("method", "mccallum")
        key = (tuple(variables or ()), method, frozenset(polys))
        if key in self.seen_projections:
            self.add("cad.project_polys.repeats")
        self.seen_projections.add(key)

    def _after_project(self, out):
        self.add("cad.project_polys.out_polys", len(out))

    def _after_decomposition(self, d):
        self.add("cad.cells", len(d.cells))
        depth = max((c.field.depth() for c in d.cells), default=0)
        if depth > self.counters.get("cad.max_tower_depth", 0):
            self.counters["cad.max_tower_depth"] = depth

    def _after_sample(self, points):
        self.add("cad.sample_in_cell.points", len(points))

    def _before_adjacency(self, args, kwargs):
        self._locates_before = self.calls["cad.locate"]

    def _after_adjacency(self, graph):
        self.add("topology.adjacency.edges", len(graph.edges))
        if graph.heuristic:
            self.add("topology.adjacency.heuristic")
            self.add("topology.adjacency.heuristic_edges", len(graph.edges))
            self.add("topology.adjacency.probes",
                     self.calls["cad.locate"] - self._locates_before)

    def _after_triangulate(self, result):
        K = result[0]
        self.add("topology.simplices", sum(K.counts()))

    # -- patching -----------------------------------------------------------

    def install(self):
        hooks = {
            "cad.project_polys": (self._before_project, self._after_project),
            "cad.compatible_decomposition": (None, self._after_decomposition),
            "cad.sample_in_cell": (None, self._after_sample),
            "topology.adjacency": (self._before_adjacency,
                                   self._after_adjacency),
            "topology.triangulate": (None, self._after_triangulate),
        }
        for module, path, name in SPAN_TARGETS:
            before, after = hooks.get(name, (None, None))
            self._patch(module, path,
                        lambda fn, n=name, b=before, a=after:
                        self._span(n, fn, b, a))
        for module, path, name in COUNT_TARGETS:
            self._patch(module, path,
                        lambda fn, n=name: self._count(n, fn))

    def _patch(self, module, path, make):
        owner = sys.modules[module]
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            original = owner.__dict__[attr]
            self._set(owner, attr, make(original), original)
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == module
                                   or mod_name.startswith("sharpcells")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper, original)

    def _set(self, owner, attr, value, original):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def dump(self):
        return {"spans": self.spans, "calls": self.calls,
                "counters": self.counters}

    def merge(self, doc, op):
        """Fold in a dump written by a traced child process as op ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end,
                               parent + base if parent >= 0 else -1, op])
        for key, n in doc["calls"].items():
            self.calls[key] = self.calls.get(key, 0) + n
        for key, n in doc["counters"].items():
            if key == "cad.max_tower_depth":
                self.counters[key] = max(self.counters.get(key, 0), n)
            else:
                self.add(key, n)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.dump(), fh)

    def layer_metrics(self):
        """Per-layer metrics: calls and self time per span target, the
        count-only targets, and the derived counts and ratios."""
        self_s = {name: 0.0 for _, _, name in SPAN_TARGETS}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        calls = {name: self.calls.get(name, 0) for _, _, name
                 in SPAN_TARGETS + COUNT_TARGETS}
        out = {}
        for name in self_s:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for _, _, name in COUNT_TARGETS:
            key = "realalg.ExtensionField.count" \
                if name == "realalg.ExtensionField" else f"{name}.calls"
            out[key] = calls[name]
        c = self.counters
        n_proj = calls["cad.project_polys"]
        n_loc = calls["cad.locate"]
        probes = c.get("topology.adjacency.probes", 0)
        out.update({
            "cad.project_polys.out_polys": c.get(
                "cad.project_polys.out_polys", 0),
            "cad.project_polys.repeat_ratio":
                c.get("cad.project_polys.repeats", 0) / n_proj
                if n_proj else 0.0,
            "cad.cells": c.get("cad.cells", 0),
            "cad.max_tower_depth": c.get("cad.max_tower_depth", 0),
            "cad.sample_in_cell.points": c.get("cad.sample_in_cell.points", 0),
            "cad.locate.errors": c.get("cad.locate.errors", 0),
            "cad.locate.error_ratio":
                c.get("cad.locate.errors", 0) / n_loc if n_loc else 0.0,
            "topology.adjacency.edges": c.get("topology.adjacency.edges", 0),
            "topology.adjacency.heuristic":
                c.get("topology.adjacency.heuristic", 0),
            "topology.adjacency.probe_yield":
                c.get("topology.adjacency.heuristic_edges", 0) / probes
                if probes else 0.0,
            "topology.simplices": c.get("topology.simplices", 0),
            "trace.spans": len(self.spans),
        })
        return out
