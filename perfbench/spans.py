"""Span tracer for the per-layer benchmark run.

`Tracer.install()` wraps every public function of the eight mvspoly layers
where its name is looked up: the module global, every `from ... import` copy
held by another mvspoly module, and the methods of `FieldCtx` and `FpSpan`.
Nothing under `src/` is edited; the wrappers live only in the traced process.

Each call to a wrapped function records a span (name, start, end, parent,
op id) in flat arrays held in memory.  The hot leaf operations (the `FieldCtx`
element ops and a few constant-time `poly` helpers) would make millions of
spans, so they are aggregated instead: a count and a time per enclosing span,
plus per-name totals.  A leaf op called inside another leaf op is counted but
not timed, so no time is counted twice.

A span's self time is its duration minus the time its child spans and its
directly aggregated leaf ops cover.  Summed over all spans and leaf ops, self
times equal the duration of the root spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from common import LAYERS

# (module, class, prefix): a method is named prefix + "." + method and the
# constructor module + "." + class, so FieldCtx.add is "gf.add", its __init__
# "gf.FieldCtx", and FpSpan.add "linalg.FpSpan.add".
CLASSES = (("gf", "FieldCtx", "gf"), ("linalg", "FpSpan", "linalg.FpSpan"))

LEAF_OPS = frozenset(
    ["gf." + m for m in (
        "add", "sub", "neg", "smul", "mul", "inv", "div", "pow_elem", "int_elem",
        "frobenius_p", "frobenius", "in_subfield", "elem_to_int", "elem_from_int",
        "elements", "spec_str", "format_elem", "parse_elem")]
    + ["poly." + f for f in (
        "zero", "const", "monomial", "x_poly", "degree", "lc", "is_monic", "coeff")])


def _rref_cells(rows, p):
    shape = getattr(rows, "shape", None)
    if shape is not None:
        return int(np.prod(shape))
    if not len(rows):
        return 0
    first = rows[0]
    return len(rows) * (len(first) if hasattr(first, "__len__") else 1)


# per-call counters kept next to the spans: name -> (counter, f(args) -> int)
ARG_COUNTERS = {
    "poly.mul": ("poly.mul.term_pairs", lambda a: len(a[1]) * len(a[2])),
    "linalg.rref_mod": ("linalg.rref_mod.cells", lambda a: _rref_cells(a[0], a[1])),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.leaf_n = array("q")
        self.leaf_t = array("d")
        self.leaf_calls: dict[str, int] = {}
        self.leaf_time: dict[str, float] = {}
        self.counters = {c: 0 for c, _ in ARG_COUNTERS.values()}
        self.stack = [-1]
        self.op_id = -1
        self._in_leaf = False
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -------------------------------------------------------------

    def _open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.leaf_n.append(0)
        self.leaf_t.append(0.0)
        self.stack.append(i)
        return i

    @contextmanager
    def span(self, name, op_id=None):
        """A root or bench-level span around the benchmark's own calls."""
        if op_id is not None:
            self.op_id = op_id
        i = self._open(self._id(name))
        self.start[i] = perf_counter()
        try:
            yield
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()

    def _span_wrapper(self, name, fn):
        nid = self._id(name)
        counter = ARG_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](args)
            i = tracer._open(nid)
            tracer.start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer.stack.pop()
        return traced

    def _leaf_wrapper(self, name, fn):
        tracer = self
        self.leaf_calls[name] = 0
        self.leaf_time[name] = 0.0
        calls, times = self.leaf_calls, self.leaf_time

        def traced(*args, **kwargs):
            calls[name] += 1
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                tracer._in_leaf = False
                times[name] += dt
                s = tracer.stack[-1]
                if s >= 0:
                    tracer.leaf_n[s] += 1
                    tracer.leaf_t[s] += dt
        return traced

    def _wrap(self, name, fn):
        if name in LEAF_OPS:
            return self._leaf_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap the public functions and methods of every layer.  Call after
        importing mvspoly and before building any field context."""
        mods = {m: importlib.import_module("mvspoly." + m) for m in LAYERS}
        replaced = {}
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for layer, cls_name, prefix in CLASSES:
            cls = getattr(mods[layer], cls_name)
            for attr, obj in list(vars(cls).items()):
                if not inspect.isfunction(obj):
                    continue
                if attr == "__init__":
                    name = f"{layer}.{cls_name}"
                elif attr.startswith("_"):
                    continue
                else:
                    name = f"{prefix}.{attr}"
                self._patched.append((cls, attr, obj))
                setattr(cls, attr, self._wrap(name, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def arrays(self):
        return (np.array(self.name, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.op, dtype=np.int32), np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64), np.array(self.leaf_n, dtype=np.int64),
                np.array(self.leaf_t, dtype=np.float64))

    def save(self, path):
        name, parent, op, start, end, leaf_n, leaf_t = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), name=name,
                            parent=parent, op=op, start=start, end=end,
                            leaf_n=leaf_n, leaf_t=leaf_t)

    def summary(self):
        """Per-name calls, inclusive and self seconds, plus the span-tree
        facts the layer metrics need."""
        name, parent, _, start, end, leaf_n, leaf_t = self.arrays()
        k = len(self.names)
        dur = end - start
        has_parent = parent >= 0
        child_t = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=len(name))
        child_n = np.bincount(parent[has_parent], minlength=len(name))
        self_t = dur - child_t - leaf_t
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=self_t, minlength=k)
        out = {"calls": {}, "incl_s": {}, "self_s": {}}
        for i, nm in enumerate(self.names):
            out["calls"][nm] = int(calls[i])
            out["incl_s"][nm] = float(incl[i])
            out["self_s"][nm] = float(selfs[i])
        for nm, c in self.leaf_calls.items():
            out["calls"][nm] = c
            out["incl_s"][nm] = self.leaf_time[nm]
            out["self_s"][nm] = self.leaf_time[nm]
        roots = ~has_parent
        out["root_s"] = float(dur[roots].sum())

        def spans_of(nm):
            return name == self._ids[nm] if nm in self._ids else np.zeros(len(name), bool)

        # mills_check spans that got past the degree filter compose T(F):
        # one of their direct children is poly.compose or the additive apply_poly
        mills = spans_of("mvsp.mills_check")
        composing = spans_of("poly.compose") | spans_of("linearized.apply_poly")
        composed = np.zeros(len(name), bool)
        composed[parent[composing & has_parent]] = True
        out["mills_checks"] = int(mills.sum())
        out["mills_composed"] = int((mills & composed).sum())
        # validate_value_poly hits its cache without calling into any layer
        vvp = spans_of("mvsp.validate_value_poly")
        miss = vvp & ((child_n > 0) | (leaf_n > 0))
        out["vvp_miss"] = int(miss.sum())
        out["vvp_miss_s"] = float(dur[miss].sum())
        out["counters"] = dict(self.counters)
        out["spans"] = int(len(name))
        return out


def layer_self_s(summary, layer):
    return sum(v for nm, v in summary["self_s"].items() if nm.split(".")[0] == layer)


def layer_metrics(summary, n_ops, traced_wall, untraced_wall):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    calls = summary["calls"].get
    incl = summary["incl_s"].get
    gf_leaf = [nm for nm in summary["calls"] if nm in LEAF_OPS and nm.startswith("gf.")]
    gf_leaf_calls = sum(summary["calls"][nm] for nm in gf_leaf)
    gf_leaf_s = sum(summary["self_s"][nm] for nm in gf_leaf)
    m = {
        "cli.main.calls": calls("cli.main", 0),
        "cli.self_s": layer_self_s(summary, "cli"),
        "cli.build_parser.s": incl("cli.build_parser", 0.0),
        "gf.FieldCtx.s": incl("gf.FieldCtx", 0.0),
        "gf.find_modulus.s": incl("gf.find_modulus", 0.0),
        "gf.elements.s": incl("gf.elements", 0.0),
    }
    for op in ("add", "mul", "inv", "pow_elem", "frobenius_p"):
        m[f"gf.{op}.calls"] = calls(f"gf.{op}", 0)
    m["gf.self_s"] = layer_self_s(summary, "gf")
    m["gf.ns_per_op"] = 1e9 * gf_leaf_s / gf_leaf_calls if gf_leaf_calls else 0.0
    m["poly.mul.calls"] = calls("poly.mul", 0)
    m["poly.mul.term_pairs"] = summary["counters"]["poly.mul.term_pairs"]
    for fn in ("compose", "pow_", "frob_power", "divmod_", "field_gcd", "eval_at",
               "from_text"):
        m[f"poly.{fn}.calls"] = calls(f"poly.{fn}", 0)
    m["poly.self_s"] = layer_self_s(summary, "poly")
    m["linalg.rref_mod.calls"] = calls("linalg.rref_mod", 0)
    m["linalg.rref_mod.cells"] = summary["counters"]["linalg.rref_mod.cells"]
    m["linalg.FpSpan.add.calls"] = calls("linalg.FpSpan.add", 0)
    m["linalg.FpSpan.contains.calls"] = calls("linalg.FpSpan.contains", 0)
    m["linalg.self_s"] = layer_self_s(summary, "linalg")
    kernel = calls("linearized.kernel", 0)
    m["linearized.kernel.calls"] = kernel
    m["linearized.kernel.per_op"] = kernel / n_ops
    for fn in ("is_star", "tau_left_divide", "apply_poly"):
        m[f"linearized.{fn}.calls"] = calls(f"linearized.{fn}", 0)
    m["linearized.self_s"] = layer_self_s(summary, "linearized")
    checks = summary["mills_checks"]
    m["mvsp.mills_check.calls"] = checks
    m["mvsp.mills_check.composed_frac"] = summary["mills_composed"] / checks if checks else 0.0
    m["mvsp.validate_value_poly.calls"] = calls("mvsp.validate_value_poly", 0)
    m["mvsp.validate_value_poly.miss"] = summary["vvp_miss"]
    m["mvsp.validate_value_poly.miss_s"] = summary["vvp_miss_s"]
    m["mvsp.self_s"] = layer_self_s(summary, "mvsp")
    m["wspace.lift_pipeline.calls"] = calls("wspace.lift_pipeline", 0)
    m["wspace.build_basis.calls"] = calls("wspace.build_basis", 0)
    m["wspace.self_s"] = layer_self_s(summary, "wspace")
    m["oracle.linear_dim_w.calls"] = calls("oracle.linear_dim_w", 0)
    m["oracle.linear_dim_w.self_s"] = summary["self_s"].get("oracle.linear_dim_w", 0.0)
    m["oracle.self_s"] = layer_self_s(summary, "oracle")
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return m
