"""Outside-in layer tracing: wrap ``pathalg`` functions from the benchmark.

The program is not edited.  Each public layer function is replaced, in every
``pathalg`` module that binds it, by a wrapper that records a span (name,
start, end, parent span, job id) in memory; a few hot helpers get counting
wrappers instead.  Self time is a span's duration minus that of its direct
children.  The module name is the layer.

``quiver_core`` is counted, not timed: its methods run millions of times per
job and a timing wrapper would swamp them, so their time stays in the self
time of the layer that called them.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

# functions that get a span, by module
SPANNED = {
    "cli": ("main", "parse_problem"),
    "reduction_engine": ("reduce_full", "check_diamond", "complete",
                         "irreducible_paths", "overlaps", "ambiguities_n"),
    "star_product": ("star", "star_k", "mc_check", "gauge_check"),
    "cohomology": ("cocycle_space", "coboundary_space", "hh2"),
    "variety": ("mc_equations", "canonical_set", "cochain_basis", "pbw_check"),
    "quantization": ("graphical_star", "eval_graph", "quantize_check",
                     "enumerate_graphs", "schouten_jacobi_check"),
}
LAYERS = tuple(SPANNED) + ("quiver_core",)

# (metric name, unit) in the order they are reported
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.parse_problem.s", "s"),
    ("cli.self_s", "s"),
    ("reduction_engine.reduce_full.calls", "count"),
    ("reduction_engine.reduce_full.self_s", "s"),
    ("reduction_engine.rewrite_steps", "count"),
    ("reduction_engine.rewrites_per_word", "ratio"),
    ("reduction_engine.budget_exhausted", "count"),
    ("reduction_engine.check_diamond.self_s", "s"),
    ("reduction_engine.complete.self_s", "s"),
    ("reduction_engine.irreducible_paths.self_s", "s"),
    ("star_product.star.calls", "count"),
    ("star_product.star.self_s", "s"),
    ("star_product.mc_check.self_s", "s"),
    ("star_product.cochains_built", "count"),
    ("cohomology.cocycle_space.self_s", "s"),
    ("cohomology.coboundary_space.self_s", "s"),
    ("cohomology.hh2.self_s", "s"),
    ("cohomology.matrix_cells", "count"),
    ("cohomology.basis_size", "count"),
    ("variety.mc_equations.self_s", "s"),
    ("variety.canonical_set.self_s", "s"),
    ("variety.equations", "count"),
    ("quantization.graphical_star.calls", "count"),
    ("quantization.graphical_star.self_s", "s"),
    ("quantization.eval_graph.calls", "count"),
    ("quantization.eval_graph.self_s", "s"),
    ("quantization.operators_built", "count"),
    ("quantization.operator_hit_ratio", "ratio"),
    ("quantization.quantize_check.self_s", "s"),
    ("quantization.enumerate_graphs.s", "s"),
    ("quiver_core.polyscalar_new", "count"),
    ("quiver_core.polyscalar_mul", "count"),
    ("quiver_core.element_mul", "count"),
]


class Tracer:
    """Installs the wrappers on a set of loaded ``pathalg`` modules."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._words: list[set] = []  # words rewritten by each open reduce_full
        self._undo: list[tuple] = []

    # -- wrappers -------------------------------------------------------------
    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _reduce_full(self, fn):
        counts, words = self.counts, self._words
        exhausted = self.modules["reduction_engine"].BudgetExceeded

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            words.append(set())
            try:
                return fn(*args, **kwargs)
            except exhausted:
                counts["budget_exhausted"] += 1
                raise
            finally:
                counts["distinct_words"] += len(words.pop())

        return wrapper

    def _rightmost_split(self, fn):
        counts, words = self.counts, self._words

        @functools.wraps(fn)
        def wrapper(p, S):
            split = fn(p, S)
            if split is not None:
                counts["rewrite_steps"] += 1
                if words:
                    words[-1].add(p)
            return split

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------------
    def _rebind(self, module, name, wrap):
        """Replace every module-level binding of module.name in pathalg."""
        original = getattr(module, name)
        wrapper = wrap(original)
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name, wrapper):
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self):
        m = self.modules
        after = {"cohomology.cocycle_space": self._after_cocycles,
                 "variety.mc_equations": self._after_equations}
        for short, names in SPANNED.items():
            for name in names:
                full = f"{short}.{name}"
                self._rebind(m[short], name,
                             lambda fn, full=full: self._span(
                                 full, fn, after.get(full)))
        # reduce_full: a span around a counter of distinct rewritten words
        self._rebind(m["reduction_engine"], "reduce_full", self._reduce_full)
        self._rebind(m["reduction_engine"], "rightmost_split",
                     self._rightmost_split)
        self._rebind(m["quantization"], "_graph_operator",
                     lambda fn: self._counter("operators_built", fn))
        q = m["quiver_core"]
        cochain = m["star_product"].DeformationCochain
        for cls, name, key in ((q.PolyScalar, "__init__", "polyscalar_new"),
                               (q.PolyScalar, "__mul__", "polyscalar_mul"),
                               (q.Element, "__mul__", "element_mul"),
                               (cochain, "__init__", "cochains_built")):
            self._patch_method(cls, name,
                               self._counter(key, cls.__dict__[name]))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _after_cocycles(self, space):
        self.counts["matrix_cells"] += len(space.matrix) * len(space.basis)
        self.counts["basis_size"] += len(space.basis)

    def _after_equations(self, eqs):
        self.counts["equations"] += len(eqs)

    # -- analysis ---------------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict[str, float]:
        own = self.self_times()
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _, _), s in zip(self.spans, own):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += s
        c = self.counts
        evals = calls["quantization.eval_graph"]
        values = {
            "cli.main.calls": calls["cli.main"],
            "cli.parse_problem.s": total["cli.parse_problem"],
            "cli.self_s": self_s["cli.main"] + self_s["cli.parse_problem"],
            "reduction_engine.rewrite_steps": c["rewrite_steps"],
            "reduction_engine.rewrites_per_word":
                c["rewrite_steps"] / c["distinct_words"]
                if c["distinct_words"] else 0.0,
            "reduction_engine.budget_exhausted": c["budget_exhausted"],
            "star_product.cochains_built": c["cochains_built"],
            "cohomology.matrix_cells": c["matrix_cells"],
            "cohomology.basis_size": c["basis_size"],
            "variety.equations": c["equations"],
            "quantization.operators_built": c["operators_built"],
            "quantization.operator_hit_ratio":
                1 - c["operators_built"] / evals if evals else 0.0,
            "quantization.enumerate_graphs.s":
                total["quantization.enumerate_graphs"],
            "quiver_core.polyscalar_new": c["polyscalar_new"],
            "quiver_core.polyscalar_mul": c["polyscalar_mul"],
            "quiver_core.element_mul": c["element_mul"],
        }
        for name, _ in PER_LAYER:
            if name in values:
                continue
            span, _, stat = name.rpartition(".")
            values[name] = calls[span] if stat == "calls" else self_s[span]
        return values

    def layer_split(self, labels: dict) -> dict[str, dict[str, float]]:
        """Self time per layer for every job label, for all jobs, and for
        the set-up spans recorded outside any job."""
        out: dict[str, dict[str, float]] = defaultdict(Counter)
        for (name, _, _, _, job), s in zip(self.spans, self.self_times()):
            layer = name.split(".")[0]
            if job is None:
                out["set-up"][layer] += s
                continue
            out["all jobs"][layer] += s
            out[labels[job]][layer] += s
        return out

    def write(self, path, meta: dict):
        names = sorted({rec[0] for rec in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(dict(meta, names=names,
                           fields=["name", "start", "end", "parent", "job"],
                           spans=[[index[n], round(s, 7), round(e, 7), p, j]
                                  for n, s, e, p, j in self.spans]), f)
