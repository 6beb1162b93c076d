"""Out-of-tree tracing of lienil's layers.

The tracer wraps lienil's public functions (and the arithmetic dunders of its
element classes) from outside: it replaces each original function object in
every loaded ``lienil`` module that holds it, so ``lienil.dets.map_reduce_sum``
and ``lienil.parallel.map_reduce_sum`` are the same wrapper.  ``uninstall``
puts the originals back.  Callers must look functions up through their module
(``dets.sdet``) at call time for the wrappers to apply.

Every wrapped call is timed on a stack: a call's self time is its duration
minus the time covered by wrapped calls nested inside it, and its busy time
is counted only for the outermost call of the same metric.  Calls that enter
a layer from another layer (or from a request) are also kept as spans with a
parent id.  The innermost arithmetic (``Cyc``, ``GrassmannElement``,
``RPolynomial``, ``OracleElement`` products and sums, ``Endomorphism``
application) runs millions of times, so it is aggregated into counts and self
time and never kept as individual spans.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import sys
import time
from collections import Counter

LAYERS = ("scalars", "grassmann", "linalg", "matrices", "supermatrix", "dets",
          "rings", "parallel", "serialize", "cli")

# (module, class, attribute) -> metric; aggregated, never a span per call.
# Dunders that only delegate (GrassmannElement.__sub__ -> __add__) are left
# alone so that each arithmetic operation is counted once.
ARITHMETIC = {
    ("scalars", "Cyc", "__mul__"): "scalars.mul",
    ("scalars", "Cyc", "__add__"): "scalars.add",
    ("scalars", "Cyc", "__sub__"): "scalars.add",
    ("scalars", "Cyc", "inverse"): "scalars.inverse",
    ("grassmann", "GrassmannElement", "__mul__"): "grassmann.mul",
    ("grassmann", "GrassmannElement", "__add__"): "grassmann.add",
    ("rings", "RPolynomial", "__mul__"): "rings.rpoly_mul",
    ("rings", "Endomorphism", "__call__"): "rings.endomorphism",
    ("rings", "OracleElement", "__mul__"): "rings.oracle_mul",
}

# Layer-entry methods traced like public functions.
METHODS = {("matrices", "Matrix", "__mul__"): "matrices.matmul"}

# Public helpers called once per element operation: aggregated like the
# arithmetic so that they do not flood the span list.
HOT_HELPERS = {"rings.check_same_ring", "scalars.format_fraction",
               "scalars.parse_fraction", "scalars.parse_scalar"}


def _metric_for(layer, name):
    if layer == "serialize":
        if name.endswith("_from_json"):
            return "serialize.decode"
        if name.endswith("_to_json"):
            return "serialize.encode"
    return f"{layer}.{name}"


class Tracer:
    """Span stack, per-metric aggregates and extra counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []            # frames: [layer, child_time, span_id]
        self.agg = {}              # metric -> [calls, self_s, busy_s]
        self.depth = Counter()     # metric -> nesting depth (for busy time)
        self.counters = Counter()  # pairs, hits, perm terms, shape repeats ...
        self.errors = Counter()    # layer -> exceptions leaving the layer
        self.spans = []            # (id, parent_id, name, start, end)
        self._ids = itertools.count()
        self.request_total = 0.0
        self.request_self = 0.0
        self._shape_keys = set()
        self._patches = []         # (holder, attribute, original)

    # --- timing core -------------------------------------------------

    def _call(self, metric, layer, keep_span, fn, args, kwargs):
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = None
        if keep_span and (parent is None or parent[0] != layer):
            span_id = next(self._ids)
        frame = [layer, 0.0, span_id]
        stack.append(frame)
        depth = self.depth
        depth[metric] += 1
        clock = self.clock
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            if parent is None or parent[0] != layer:
                self.errors[layer] += 1
            raise
        finally:
            t1 = clock()
            stack.pop()
            dur = t1 - t0
            a = self.agg.get(metric)
            if a is None:
                a = self.agg[metric] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur - frame[1]
            depth[metric] -= 1
            if not depth[metric]:
                a[2] += dur
            if parent is not None:
                parent[1] += dur
            if span_id is not None:
                self.spans.append((span_id, parent[2] if parent else None,
                                   metric, t0, t1))

    def request(self, name, fn, *args):
        """Run ``fn(*args)`` as one request: a root span whose self time is
        the part no wrapped layer call accounts for."""
        frame = ["request", 0.0, next(self._ids)]
        self.stack.append(frame)
        t0 = self.clock()
        try:
            return fn(*args)
        finally:
            t1 = self.clock()
            self.stack.pop()
            self.request_total += t1 - t0
            self.request_self += (t1 - t0) - frame[1]
            self.spans.append((frame[2], None, "request." + name, t0, t1))

    # --- wrappers ----------------------------------------------------

    def wrap(self, metric, fn, keep_span=True):
        layer = metric.split(".", 1)[0]
        call = self._call

        def wrapper(*args, **kwargs):
            return call(metric, layer, keep_span, fn, args, kwargs)
        return wrapper

    def _wrap_grassmann_mul(self, fn):
        call, counters = self._call, self.counters

        def wrapper(a, b):
            other = getattr(b, "coeffs", None)
            if isinstance(other, dict):
                hits = 0
                for ma in a.coeffs:
                    for mb in other:
                        if not ma & mb:
                            hits += 1
                counters["grassmann.mul.pairs"] += len(a.coeffs) * len(other)
                counters["grassmann.mul.hits"] += hits
            else:                     # scalar operand: one pair per term
                counters["grassmann.mul.pairs"] += len(a.coeffs)
                counters["grassmann.mul.hits"] += len(a.coeffs)
            return call("grassmann.mul", "grassmann", False, fn, (a, b), {})
        return wrapper

    def _wrap_matmul(self, fn, matrix_cls):
        call = self._call

        def wrapper(a, b):
            if not isinstance(b, matrix_cls):   # scaling, not a product
                return fn(a, b)
            return call("matrices.matmul", "matrices", True, fn, (a, b), {})
        return wrapper

    def _wrap_map_reduce(self, fn):
        call, counters = self._call, self.counters

        def wrapper(items, term, *args, **kwargs):
            items = list(items)
            counters["dets.perm_terms"] += len(items)

            def counted(x):
                value = term(x)
                if value:
                    counters["dets.perm_terms_nonzero"] += 1
                return value
            return call("parallel.map_reduce_sum", "parallel", True, fn,
                        (items, counted) + args, kwargs)
        return wrapper

    def _wrap_shape(self, fn):
        call, counters, seen = self._call, self.counters, self._shape_keys

        def wrapper(spec, *args, **kwargs):
            key = (spec.ring, spec.delta.name, spec.T.matrix, args,
                   tuple(sorted(kwargs.items())))
            if key in seen:
                counters["supermatrix.shape.repeats"] += 1
            seen.add(key)
            return call("supermatrix.shape", "supermatrix", True, fn,
                        (spec,) + args, kwargs)
        return wrapper

    # --- installation ------------------------------------------------

    def install(self):
        """Wrap every lienil layer; patch each holder of each original."""
        mods = {name: importlib.import_module("lienil." + name)
                for name in LAYERS}
        replace = {}                       # id(original) -> (original, wrapper)
        for (mod, cls, attr), metric in ARITHMETIC.items():
            fn = vars(getattr(mods[mod], cls))[attr]
            if metric == "grassmann.mul":
                replace[id(fn)] = (fn, self._wrap_grassmann_mul(fn))
            else:
                replace[id(fn)] = (fn, self.wrap(metric, fn, keep_span=False))
        for (mod, cls, attr), metric in METHODS.items():
            klass = getattr(mods[mod], cls)
            fn = vars(klass)[attr]
            replace[id(fn)] = (fn, self._wrap_matmul(fn, klass))
        for layer, mod in mods.items():
            for name, fn in vars(mod).items():
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or id(fn) in replace):
                    continue
                metric = _metric_for(layer, name)
                if metric == "parallel.map_reduce_sum":
                    wrapper = self._wrap_map_reduce(fn)
                elif metric == "supermatrix.shape":
                    wrapper = self._wrap_shape(fn)
                else:
                    wrapper = self.wrap(metric, fn,
                                        keep_span=metric not in HOT_HELPERS)
                replace[id(fn)] = (fn, wrapper)

        holders = [m for n, m in list(sys.modules.items())
                   if n == "lienil" or n.startswith("lienil.")]
        for holder in holders:
            self._patch_namespace(holder, vars(holder), replace)
            for obj in list(vars(holder).values()):
                if (inspect.isclass(obj)
                        and getattr(obj, "__module__", "").startswith("lienil")):
                    self._patch_namespace(obj, vars(obj), replace)

    def _patch_namespace(self, holder, namespace, replace):
        for attr, value in list(namespace.items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(holder, attr, hit[1])
                self._patches.append((holder, attr, value))

    def uninstall(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    # --- results -----------------------------------------------------

    def snapshot(self):
        """Plain-data aggregates, mergeable across processes."""
        return {"agg": {k: list(v) for k, v in self.agg.items()},
                "counters": dict(self.counters),
                "errors": dict(self.errors),
                "request_total": self.request_total,
                "request_self": self.request_self,
                "spans": len(self.spans)}


def merge_snapshots(snaps):
    out = {"agg": {}, "counters": Counter(), "errors": Counter(),
           "request_total": 0.0, "request_self": 0.0, "spans": 0}
    for s in snaps:
        for k, (calls, self_s, busy_s) in s["agg"].items():
            a = out["agg"].setdefault(k, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += self_s
            a[2] += busy_s
        out["counters"].update(s["counters"])
        out["errors"].update(s["errors"])
        out["request_total"] += s["request_total"]
        out["request_self"] += s["request_self"]
        out["spans"] += s["spans"]
    return out
