"""Spans around the program's public functions, for the traced run.

The wrappers are installed from here, so nothing in the program changes.
A function is wrapped in every `chevalley` module that holds it, since some
callers import names directly (`weyl_elements` in `definability`,
`enumerate_group` in `witnesses` and `cli`); a method is wrapped on its
class.  Spans are kept in memory aggregated per (name, parent), the parent
being the innermost wrapped caller, because the definability and
sl2-product workloads make hundreds of thousands of `mat_mul` calls; the
aggregates are written as JSON lines when the workload ends.

Per span name the quantities are `calls`; `s`, inclusive time counted
only for the outermost span of that name, so recursion is not counted
twice; `self_s`, inclusive time minus the time of wrapped callees; and the
counts that the per-name hooks below add.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _mat_mul_hook(rec, args, out, dur):
    ring = args[0]
    rec["products"] += out.size // (out.shape[-2] * out.shape[-1])
    residue = ring.kind == "modular" or (ring.kind == "finite_field" and ring.deg == 1)
    rec["residue_s" if residue else "table_s"] += dur


def _elements_of_result(rec, args, out, dur):
    rec["elements"] += out.order


def _elements_of_group_arg(rec, args, out, dur):
    rec["elements"] += args[1].order


# (module, attribute, span name, hook): functions looked up as module globals
FUNCTIONS = [
    ("gfmat", "mat_mul", "gfmat.mat_mul", _mat_mul_hook),
    ("gfmat", "mat_inv", "gfmat.mat_inv", None),
    ("chevgroup", "enumerate_group", "chevgroup.enumerate_group", _elements_of_result),
    ("chevgroup", "centralizer_indices", "chevgroup.centralizer_indices", None),
    ("chevgroup", "verify_bruhat", "chevgroup.verify_bruhat", None),
    ("chevgroup", "weyl_elements", "chevgroup.weyl_elements", None),
    ("witnesses", "verify_dc", "witnesses.verify_dc", None),
    ("definability", "define_set", "definability.define_set", _elements_of_group_arg),
    ("definability", "map_c", "definability.map_c", None),
    ("definability", "map_m", "definability.map_m", None),
    ("adelic", "mult_formula_P", "adelic.mult_formula_P", None),
    ("adelic", "theta_sl2", "adelic.theta_sl2", None),
    ("adelic", "sl2_formula_report", "adelic.sl2_formula_report", None),
]

# (module, class, attribute, span name): methods, wrapped on the class
METHODS = [
    ("rings", "GF", "__init__", "rings.tables"),
    ("rings", "Zmod", "__init__", "rings.tables"),
    ("rings", "ProductRing", "__init__", "rings.tables"),
    ("definability", "ThetaMap", "round_trip", "definability.ThetaMap.round_trip"),
    ("adelic", "SL2Group", "__init__", "adelic.SL2Group"),
    ("adelic", "SL2Group", "canon", "adelic.SL2Group.canon"),
]


class Tracer:
    def __init__(self):
        self._stack = [["", 0.0]]  # [span name, time spent in wrapped callees]
        self._depth = defaultdict(int)
        self.spans: dict[tuple[str, str], Counter] = {}

    def wrap(self, name, fn, hook=None):
        stack, depth, spans = self._stack, self._depth, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0]
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                stack[-1][1] += dur
            rec = spans.get((name, parent))
            if rec is None:
                rec = spans[(name, parent)] = Counter()
            rec["calls"] += 1
            if not depth[name]:
                rec["s"] += dur
            rec["self_s"] += dur - frame[1]
            if hook is not None:
                hook(rec, args, out, dur)
            return out

        return wrapper

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "chevalley" or n.startswith("chevalley.")]
        for modname, attr, name, hook in FUNCTIONS:
            orig = getattr(sys.modules[f"chevalley.{modname}"], attr)
            wrapped = self.wrap(name, orig, hook)
            for m in mods:
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[f"chevalley.{modname}"], clsname)
            setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))

    def total(self, name: str, quantity: str, parent: str | None = None):
        return sum(rec[quantity] for (n, p), rec in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def metric(self, metric: str):
        """Value of `<span name>.<quantity>`.  `scanned` of
        centralizer_indices counts (element, condition) commutation tests:
        each test multiplies g s and s g, so it is half the d x d products
        of the mat_mul calls made directly under it."""
        name, quantity = metric.rsplit(".", 1)
        if quantity == "scanned":
            return self.total("gfmat.mat_mul", "products", parent=name) // 2
        return self.total(name, quantity)

    def write(self, path):
        with open(path, "w") as fh:
            for (name, parent), rec in sorted(self.spans.items()):
                fh.write(json.dumps({"name": name, "parent": parent or None, **rec}) + "\n")
