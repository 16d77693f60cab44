"""Spans and work counters around the public functions of every hypermono
module, installed from outside the program by replacing module attributes.

Each wrapped function records a span (name, start, end, parent span, op).
A wrapper replaces the function under every name that refers to it in any
hypermono module, so calls through imported names (`distgraph.neighbors`
calling `exact.enumerate_short_vectors`) are seen too. Spans stay in memory
until the pass ends.

The element-level helpers of `exact` (mat_mul, bilinear, vec_*, ...) get no
span: they run millions of times per pass and a span would cost more than
the call. `mat_mul` is counted instead where a per-layer metric needs it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

# public functions that get a span, by module
SPANNED = {
    "cli": ("run", "cmd_classify", "cmd_family", "cmd_build", "cmd_gram",
            "cmd_certify", "cmd_growth", "cmd_landau", "cmd_appendix"),
    "exponents": ("cyclotomic_structure", "poly_from_structure", "classify",
                  "scalar_shift", "make_family", "match_family",
                  "to_factorial_form", "landau_integral"),
    "levelt": ("companion_matrix", "build", "lattice_basis", "hr_generators"),
    "lattice": ("classify_parity", "invariant_form", "root_vector",
                "reflection", "two_elementary", "quotient_gate"),
    "distgraph": ("config_for", "neighbors", "find_path", "factorize_path",
                  "explicit_path_N1_3", "certify", "component_generators"),
    "exact": ("mat_inv", "mat_det", "nullspace", "primitive_integer_vector",
              "smith_normal_form", "integer_kernel_and_solution",
              "signature_of_symmetric", "enumerate_short_vectors"),
    "growth": ("closure_under_inverse", "enumerate_ball", "geometric_grid",
               "fit_slope", "growth_run", "saturated_word_limit"),
    "spin": ("spin", "congruence_check", "word_search", "verify_basis_change",
             "dirichlet_region"),
}

# matrix products counted per calling module, attributed to the innermost
# open span: `growth.products` and `spin.word_search.products`
COUNTED_PRODUCTS = ("growth", "spin")


def _count_results(counts, name, result):
    if name == "distgraph.find_path":
        counts["distgraph.nodes_expanded"] += result.nodes_expanded
    elif name == "distgraph.neighbors":
        counts["distgraph.neighbors.returned"] += len(result)
    elif name == "exact.enumerate_short_vectors":
        counts["exact.enumerate_short_vectors.returned"] += len(result)
    elif name == "lattice.quotient_gate":
        counts["lattice.gate.certified"] += result.verdict == "InfiniteIndexCertified"
    elif name == "spin.dirichlet_region":
        counts["spin.dirichlet.half_planes"] += len(result.half_planes)
        counts["spin.dirichlet.vertices"] += len(result.vertices)


class Tracer:
    """Span and counter store for one pass; `install` patches the modules."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = ""

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            # a recursive call's result is counted once, by the outermost call
            if all(spans[i][0] != name for i in stack):
                _count_results(counts, name, result)
            return result
        return traced

    def _products(self, module, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        total = f"{module}.products"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[total] += 1
            if stack:
                counts[spans[stack[-1]][0] + ".products"] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self):
        mods = {m: importlib.import_module(f"hypermono.{m}") for m in SPANNED}
        for module, names in SPANNED.items():
            for fname in names:
                orig = getattr(mods[module], fname)
                wrapped = self._span(f"{module}.{fname}", orig)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapped)
        for module in COUNTED_PRODUCTS:
            mod = mods[module]
            mod.mat_mul = self._products(module, mod.mat_mul)


def _ancestors(spans, idx):
    parent = spans[idx][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def summarize(spans, counts) -> dict:
    """Per-name and per-module time (`.s`, outermost spans only, so recursion
    is not counted twice), self time (`.self_s`, duration minus child spans)
    and call counts (`.calls`), merged with the work counters."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(float)
    calls: Counter = Counter()
    for idx, (name, start, end, _, _) in enumerate(spans):
        module = name.split(".", 1)[0]
        dur = end - start
        calls[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child[idx]
        out[f"{module}.self_s"] += dur - child[idx]
        above = list(_ancestors(spans, idx))
        if name not in above:
            out[f"{name}.s"] += dur
        if not any(a.split(".", 1)[0] == module for a in above):
            out[f"{module}.s"] += dur
    out.update(calls)
    out.update(counts)
    esv = counts["exact.enumerate_short_vectors.returned"]
    out["distgraph.neighbor_yield"] = (
        counts["distgraph.neighbors.returned"] / esv if esv else 0.0)
    return dict(out)


# Per-layer metrics a traced run reports, in the order printed. Names ending
# in `.s` or `_s` are seconds; `neighbor_yield` is neighbors returned per
# Fincke-Pohst candidate; the rest are counts, which must repeat exactly
# between two traced passes. A layer a workload does not reach reads 0.
PER_LAYER = (
    "cli.s", "cli.self_s", "cli.run.self_s", "cli.run.calls",
    "exponents.s", "exponents.self_s", "exponents.classify.calls",
    "levelt.s", "levelt.self_s", "levelt.build.s", "levelt.build.calls",
    "lattice.s", "lattice.self_s",
    "lattice.invariant_form.s", "lattice.invariant_form.calls",
    "lattice.quotient_gate.s", "lattice.gate.certified",
    "distgraph.s", "distgraph.self_s", "distgraph.certify.self_s",
    "distgraph.find_path.s", "distgraph.find_path.calls",
    "distgraph.nodes_expanded",
    "distgraph.neighbors.s", "distgraph.neighbors.self_s",
    "distgraph.neighbors.calls", "distgraph.neighbors.returned",
    "distgraph.neighbor_yield", "distgraph.factorize_path.s",
    "exact.s", "exact.self_s",
    "exact.nullspace.s", "exact.smith_normal_form.s",
    "exact.signature_of_symmetric.s",
    "exact.enumerate_short_vectors.s", "exact.enumerate_short_vectors.calls",
    "exact.enumerate_short_vectors.returned",
    "exact.mat_inv.s", "exact.integer_kernel_and_solution.s",
    "growth.s", "growth.self_s", "growth.saturated_word_limit.s",
    "growth.enumerate_ball.s", "growth.enumerate_ball.calls",
    "growth.growth_run.s", "growth.products",
    "spin.s", "spin.self_s",
    "spin.dirichlet_region.s", "spin.dirichlet_region.calls",
    "spin.dirichlet.half_planes", "spin.dirichlet.vertices",
    "spin.word_search.s", "spin.word_search.calls",
    "spin.word_search.products", "spin.verify_basis_change.s",
    "trace.overhead_s",
)


def is_time(name: str) -> bool:
    return name.endswith(".s") or name.endswith("_s")


def unit(name: str) -> str:
    if name.endswith("_yield"):
        return "ratio"
    return "s" if is_time(name) else "count"
