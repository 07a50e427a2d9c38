"""Spans at kjuggle's public-function boundaries, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper in the globals
of every loaded kjuggle module that holds it, so calls made through a name a
layer imported from another (``closedforms.count_sequences``) are seen too and
nest under their caller.  Spans are kept in flat arrays and written out once,
at the end.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# span name -> (module, function) pairs whose calls it records
LAYERS = {
    "roots": [("roots", f) for f in ("positive_roots", "highest_root", "weight_from_simple",
                                     "simple_root", "simple_root_coefficients",
                                     "root_to_weight", "parse_root", "ambient_dim")],
    "kostant.count": [("kostant", "count_partitions"), ("kostant", "count_capacity_restricted")],
    "kostant.enumerate": [("kostant", "enumerate_partitions")],
    "juggling.count": [("juggling", "count_sequences"), ("juggling", "labeled_count")],
    "juggling.enumerate": [("juggling", "enumerate_sequences"),
                           ("juggling", "enumerate_labeled_sequences")],
    "bijection.gamma": [("bijection", "gamma")],
    "bijection.gamma_inverse": [("bijection", "gamma_inverse")],
    "bijection.verify": [("bijection", "verify_correspondence")],
    "bcd.reduction": [("bcd", "schmidt_bincer_count"), ("bcd", "schmidt_bincer_literal")],
    "poset.build": [("poset", "build_poset")],
    "poset.mobius": [("poset", "mobius_from_bottom")],
    "closedforms.permdet": [("closedforms", f) for f in ("perm_det_count", "permanent",
                                                         "determinant")],
    "closedforms.gf": [("closedforms", "gf_direct_count"), ("closedforms", "gf_coefficients")],
    "closedforms.lidskii": [("closedforms", "lidskii_count")],
    "closedforms.ehrhart": [("closedforms", "ehrhart_fit")],
    "cli.dispatch": [("cli", "dispatch")],
}

# Layers that produce something countable: counter name -> size of a result.
ITEMS = {
    "kostant.enumerate": {"kostant.enumerate.items": len},
    "juggling.enumerate": {"juggling.enumerate.items": len},
    "poset.build": {"poset.elements": len, "poset.covers": lambda p: len(p.covers)},
}

QUERY = "query"


class Tracer:
    def __init__(self):
        self.names = [QUERY] + list(LAYERS)
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counters = {c: 0 for fns in ITEMS.values() for c in fns}
        self.lidskii_inner = [0, 0]  # juggling counts called by lidskii_count, zeros among them
        self._patched = []

    def _wrap(self, fn, name_id, hook):
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(parents[idx], result)
            return result
        return traced

    def _hook(self, layer):
        counters = self.counters
        if layer in ITEMS:
            sizes = list(ITEMS[layer].items())

            def count_items(parent, result):
                for counter, size in sizes:
                    counters[counter] += size(result)
            return count_items
        if layer == "juggling.count":
            lidskii = self.names.index("closedforms.lidskii")
            name_ids, inner = self.name_ids, self.lidskii_inner

            def lidskii_inner(parent, result):
                if parent >= 0 and name_ids[parent] == lidskii:
                    inner[0] += 1
                    inner[1] += result == 0
            return lidskii_inner
        return None

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "kjuggle" or n.startswith("kjuggle."))]
        for layer, targets in LAYERS.items():
            name_id = self.names.index(layer)
            for modname, attr in targets:
                orig = getattr(sys.modules[f"kjuggle.{modname}"], attr)
                wrapper = self._wrap(orig, name_id, self._hook(layer))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, key, wrapper)
                            self._patched.append((module, key, orig))

    def uninstall(self):
        for module, key, orig in reversed(self._patched):
            setattr(module, key, orig)
        self._patched.clear()

    def query(self, fn):
        """Run one query under a root span."""
        return self._wrap(fn, 0, None)()

    def layer_metrics(self, per: int) -> dict:
        """self time and calls of each layer, and the item counters, per `per`
        rounds; a layer's self time is its spans' time minus their children's."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            k = self.name_ids[i]
            self_s[k] += ends[i] - starts[i] - child[i]
            calls[k] += 1
        out = {}
        for k, name in enumerate(self.names):
            if name == QUERY:
                continue
            out[f"{name}.self_s"] = (self_s[k] / per, "s")
            out[f"{name}.calls"] = (calls[k] / per, "count")
        for counter, value in self.counters.items():
            out[counter] = (value / per, "count")
        inner, zeros = self.lidskii_inner
        out["closedforms.lidskii.inner_zero_frac"] = (zeros / inner if inner else 0.0, "ratio")
        return out

    def write(self, path: Path):
        """Write every span as CSV: id, name, start and end (s), parent id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span,name,start_s,end_s,parent\n")
            for i in range(len(self.starts)):
                out.write(f"{i},{self.names[self.name_ids[i]]},{self.starts[i]:.9f},"
                          f"{self.ends[i]:.9f},{self.parents[i]}\n")
