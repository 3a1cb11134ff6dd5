"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``planewidth`` module namespace that holds it (``evaluate`` is imported by
``optimizer``, ``bounds``, ``partition`` and ``cli``; ``distance`` by
``realization``), and ``uninstall`` puts the originals back.  A span is
(layer, operation, parent span, start, end); spans live in flat arrays in
memory and are written out once, at the end.  A layer's self time is its
span's duration minus the durations of its direct child spans.

``geometry.distance`` runs once per edge inside ``evaluate``, so it is
counted, not spanned: a span there would cost more than the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

#: (defining module, function) -> layer name, one per traced public function.
SPANNED = {
    ("graphs", "read_edge_list"): "graphs.parse",
    ("graphs", "read_dimacs"): "graphs.parse",
    ("graphs", "generate"): "graphs.generate",
    ("graphs", "complement"): "graphs.complement",
    ("coloring", "max_clique"): "coloring.max_clique",
    ("coloring", "chromatic_number"): "coloring.chromatic_number",
    ("coloring", "greedy_dsatur"): "coloring.greedy_dsatur",
    ("geometry", "diameter"): "geometry.diameter",
    ("geometry", "pal_hexagon"): "geometry.pal_hexagon",
    ("realization", "evaluate"): "realization.evaluate",
    ("realization", "feasibilize"): "realization.feasibilize",
    ("realization", "known_complete_arrangement"): "realization.construct",
    ("realization", "lattice_complete_arrangement"): "realization.construct",
    ("realization", "from_coloring"): "realization.construct",
    ("realization", "from_circular"): "realization.construct",
    ("realization", "low_dim_realization"): "realization.construct",
    ("realization", "pullback"): "realization.construct",
    ("realization", "join_realization"): "realization.construct",
    ("realization", "product_realization"): "realization.construct",
    ("realization", "union_realization"): "realization.construct",
    ("realization", "read_realization"): "realization.io",
    ("realization", "write_realization"): "realization.io",
    ("partition", "tiling_coloring"): "partition.tiling_coloring",
    ("optimizer", "objective_and_grad"): "optimizer.objective_and_grad",
    ("optimizer", "optimize"): "optimizer.optimize",
    ("optimizer", "brute_force"): "optimizer.brute_force",
    ("bounds", "pw_interval"): "bounds.pw_interval",
    ("cli", "main"): "cli.main",
}
COUNTED = {("geometry", "distance"): "geometry.distance"}
SORTED_EDGES = "graphs.sorted_edges"

LAYERS = sorted(set(SPANNED.values()) | {SORTED_EDGES})


class Tracer:
    def __init__(self, package):
        self.package = package
        self.layer_id = {name: i for i, name in enumerate(LAYERS)}
        self.layer = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.current_op = -1
        self.counts = {name: 0 for name in COUNTED.values()}
        self.edges = 0              # edges seen by evaluate
        self.overrun = 0.0          # pw_interval wall time beyond chi_budget
        self.inexact = 0            # chromatic_number results with exact False
        self._patched = []

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, *, on_exit=None):
        lid = self.layer_id[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.layer.append(lid)
            self.op.append(self.current_op)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.end[idx] = t1
                self.stack.pop()
            if on_exit is not None:
                on_exit(args, kwargs, result, t1 - self.start[idx])
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _on_evaluate(self, args, kwargs, result, dur):
        self.edges += args[0].m

    def _on_chromatic(self, args, kwargs, result, dur):
        self.inexact += not result.exact

    def _make_on_pw_interval(self, fn):
        sig = inspect.signature(fn)

        def on_exit(args, kwargs, result, dur):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.overrun += max(0.0, dur - bound.arguments["chi_budget"])
        return on_exit

    # -- installing -------------------------------------------------------

    def _modules(self):
        prefix = self.package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix
                                      or name.startswith(prefix + "."))]

    def install(self):
        prefix = self.package.__name__
        wrappers = {}
        for (mod, fname), name in [*SPANNED.items(), *COUNTED.items()]:
            fn = getattr(sys.modules["%s.%s" % (prefix, mod)], fname)
            if name in COUNTED.values():
                wrappers[id(fn)] = (fn, self._counter(name, fn))
                continue
            on_exit = None
            if name == "realization.evaluate":
                on_exit = self._on_evaluate
            elif name == "coloring.chromatic_number":
                on_exit = self._on_chromatic
            elif name == "bounds.pw_interval":
                on_exit = self._make_on_pw_interval(fn)
            wrappers[id(fn)] = (fn, self._span(name, fn, on_exit=on_exit))
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        graph = sys.modules[prefix + ".graphs"].Graph
        original = graph.sorted_edges
        self._patched.append((graph, "sorted_edges", original))
        graph.sorted_edges = self._span(SORTED_EDGES, original)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched = []

    # -- results ----------------------------------------------------------

    def arrays(self):
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self):
        """Per-layer calls, total and self seconds over every span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros(len(dur))
        has = a["parent"] >= 0
        np.add.at(child, a["parent"][has], dur[has])
        self_s = dur - child
        out = {}
        for name, lid in self.layer_id.items():
            sel = a["layer"] == lid
            out[name] = {"calls": int(sel.sum()),
                         "total_s": float(dur[sel].sum()),
                         "self_s": float(self_s[sel].sum())}
        for name, count in self.counts.items():
            out[name] = {"calls": count, "total_s": 0.0, "self_s": 0.0}
        return out

    def save(self, path):
        np.savez_compressed(path, layers=np.array(LAYERS), **self.arrays())
