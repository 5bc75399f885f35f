"""Per-layer tracing of covmat from outside the program.

`Tracer.install` replaces each public function listed in LAYERS with a
wrapper that records a span (layer, start, end, parent).  covmat's
modules bind these names with `from .x import y`, so the wrapper is put
into every covmat module namespace that holds the original object.
`DensityMatrix.__post_init__` is wrapped on the class.  The wrappers stay
for the rest of the process, so a traced run puts its untraced half first.

Spans are kept in memory for one CLI call at a time; `fold` turns them
into per-layer self time (a span's duration minus the time its direct
children cover) and call counts.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

MODULES = ("covmat", "covmat.cli", "covmat.states", "covmat.linalg", "covmat.observables",
           "covmat.covariance", "covmat.criteria", "covmat.concurrence")

# layer -> (defining module, public functions that belong to it)
LAYERS = {
    "states.load": ("covmat.states", ("load_state",)),
    "states.build": ("covmat.states", ("build_state", "bennett_state", "max_entangled",
                                       "isotropic", "product_state", "mix", "random_pure",
                                       "random_mixed", "random_separable", "dm_from_vector")),
    "linalg.partial_trace": ("covmat.linalg", ("partial_trace",)),
    "linalg.spectral": ("covmat.linalg", ("trace_norm", "min_eigenvalue")),
    "linalg.reshuffle": ("covmat.linalg", ("realign", "partial_transpose")),
    "observables.basis": ("covmat.observables", ("gell_mann_basis", "pad_basis",
                                                 "rotate_basis")),
    "covariance.block": ("covmat.covariance", ("correlation_block",)),
    "covariance.variance": ("covmat.covariance", ("joint_variance_sum",)),
    "criteria": ("covmat.criteria", ("kf_criterion", "hs_criterion", "ppt_criterion",
                                     "ccnr_criterion", "multipartite_full_sep",
                                     "tripartite_full_sep", "tripartite_bisep")),
    "concurrence": ("covmat.concurrence", ("bound_ccnr_ppt", "bound_lur", "bound_optimized",
                                           "all_bounds", "pure_concurrence",
                                           "svd_rotated_bases")),
}
VALIDATE = "linalg.validate"
CLI = "cli"
ALL_LAYERS = (CLI, *LAYERS, VALIDATE)


def metric_names(layer: str) -> tuple[str, str]:
    """(self-time metric, call-count metric) of a layer."""
    if "." in layer:
        return f"{layer}_ms", f"{layer}_calls"
    return f"{layer}.self_ms", f"{layer}.calls"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.self_ms: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (layer, start, time.perf_counter(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        mods = [importlib.import_module(m) for m in MODULES]
        for layer, (home, names) in LAYERS.items():
            for name in names:
                original = getattr(importlib.import_module(home), name)
                wrapped = self.wrap(layer, original)
                for mod in mods:
                    if getattr(mod, name, None) is original:
                        setattr(mod, name, wrapped)
        dm = importlib.import_module("covmat.linalg").DensityMatrix
        dm.__post_init__ = self.wrap(VALIDATE, dm.__post_init__)

    def fold(self) -> list:
        """Add the spans recorded since the last fold to the per-layer
        totals and return them."""
        spans = self.spans[:]
        child_ms = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000
        for (layer, start, end, _), covered in zip(spans, child_ms):
            self.self_ms[layer] += (end - start) * 1000 - covered
            self.calls[layer] += 1
        self.spans.clear()
        return spans
