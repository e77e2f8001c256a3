"""Outside-in per-layer tracing of valmono, installed by the benchmark.

``Tracer.install`` wraps the public callables of every valmono module: its
module-level functions, and the public methods and arithmetic operators of
the classes it defines.  Modules import names from each other directly
(``orchestrator`` holds its own reference to ``blowup_engine.transport``),
so every ``valmono.*`` module attribute that holds a wrapped function is
rebound as well; methods are patched on their class.  ``uninstall`` puts
every original back.

Each wrapped call adds to its callable's count, total time and self time.
A recursive call counts once toward total time; self time is the call's
duration minus the time of the wrapped calls it made.  Kernels (the
modules in ``AGGREGATE_ONLY``, called up to ~10^6 times per pass) only
feed these counters.  Calls into the other layers also record a span
(name, start, end, parent span, op id), kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

MODULES = (
    "ordered_value",
    "exact_algebra",
    "valuation_core",
    "successors",
    "blowup_engine",
    "puiseux",
    "orchestrator",
    "trace",
    "serde",
    "cli",
)
AGGREGATE_ONLY = frozenset({"ordered_value", "exact_algebra", "valuation_core"})
ARITHMETIC = frozenset(
    {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__truediv__", "__rtruediv__", "__pow__", "__neg__"}
)
MAX_SPANS = 200_000
# In exact_algebra only the module functions and the arithmetic operators are
# wrapped, without the ev_* exponent helpers: those and the constructors and
# predicates run millions of times per pass, each cheaper than a wrapper, and
# their time stays in the caller's self time.
SKIPPED_PREFIXES = ("exact_algebra.ev_",)
OPERATORS_ONLY = frozenset({"exact_algebra"})

# callable -> which of calls/total_s/self_s are reported
_TIMED = ("calls", "total_s", "self_s")
REPORTED = {
    "ordered_value.Scalar.sign": ("calls", "self_s"),
    "exact_algebra.MultiPoly.__mul__": _TIMED,
    "exact_algebra.RationalFunction.__add__": _TIMED,
    "exact_algebra.euclid_div": _TIMED,
    "exact_algebra.q_expansion": _TIMED,
    "valuation_core.Monomial.value": _TIMED,
    "valuation_core.Composite.value": _TIMED,
    "valuation_core.Augmented.value": _TIMED,
    "valuation_core.epsilon": _TIMED,
    "valuation_core.truncated_value": _TIMED,
    "successors.lattice_multiplier": _TIMED,
    "successors.next_successor": _TIMED,
    "blowup_engine.framed_blowup": ("calls",),
    "blowup_engine.Frame.pullback_of": _TIMED,
    "blowup_engine.transport": _TIMED,
    "blowup_engine.monomialize_nondegenerate": _TIMED,
    "blowup_engine.divide_monomials": _TIMED,
    "blowup_engine.principalize": _TIMED,
    "blowup_engine.verify_forward": _TIMED,
    "puiseux.puiseux_package": _TIMED,
    "puiseux.prepare_successor": _TIMED,
    "puiseux.residue_of_unit": _TIMED,
    "orchestrator.advance": ("calls",),
    "orchestrator.monomialize": _TIMED,
    "orchestrator.embedded_uniformize": _TIMED,
    "orchestrator.save_state": _TIMED,
    "trace.trace_records": _TIMED,
    "trace.replay_trace": _TIMED,
    "serde.load_problem": _TIMED,
    "serde.parse_unipoly": _TIMED,
    "cli.main": _TIMED,
}
COUNTERS = (
    ("ordered_value.max_refine_level", "count"),
    ("exact_algebra.mul_term_products", "count"),
    ("exact_algebra.max_poly_terms", "count"),
    ("exact_algebra.max_den_terms", "count"),
    ("blowup_engine.steps_monomial", "count"),
    ("blowup_engine.steps_equal_value", "count"),
    ("blowup_engine.nondegenerate_useful_ratio", "ratio"),
)
# Added by run.py from the untraced passes and the anchors of a traced run.
HARNESS_METRICS = (
    ("untraced.op_ms_p50_wall", "ms"),
    ("untraced.op_ms_p50_scaled", "ms"),
    ("host.reference_kernel_ms", "ms"),
    ("anchor_alloc_peak_kib", "KiB"),
)
_MAXIMA = {"ordered_value.max_refine_level", "exact_algebra.max_poly_terms", "exact_algebra.max_den_terms"}
_UNITS = {"calls": "count", "total_s": "s", "self_s": "s"}


def metric_names() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name, fields in REPORTED.items():
        out.extend((f"{name}.{f}", _UNITS[f]) for f in fields)
    out.extend(COUNTERS)
    out.extend((f"{m}.self_s", "s") for m in MODULES)
    out.extend([("tracing_overhead", "ratio"), ("spans_recorded", "count")])
    out.extend(HARNESS_METRICS)
    return out


class Tracer:
    def __init__(self, vm):
        self.vm = vm
        self.stats = {}  # qualified name -> [calls, total_s, self_s, active depth]
        self.counters = {name: 0 for name, _ in COUNTERS}
        self.nondegenerate_returns = 0
        self.spans = []  # [name, start, end, parent index, op id]
        self.spans_dropped = 0
        self.op_id = None
        self.enabled = [False]  # wrappers pass straight through while False
        self._stack = []  # [child time] per open wrapped call
        self._open_spans = []
        self._patches = []  # (owner, attribute, original)

    # -- counters fed from wrapped results ---------------------------------------

    def _hooks(self):
        ea = self.vm.exact_algebra
        c = self.counters
        MultiPoly, RationalFunction, UniPoly = ea.MultiPoly, ea.RationalFunction, ea.UniPoly

        def track_size(result):
            if isinstance(result, MultiPoly):
                n = len(result.terms)
                if n > c["exact_algebra.max_poly_terms"]:
                    c["exact_algebra.max_poly_terms"] = n
            elif isinstance(result, RationalFunction):
                track_size(result.num)
                n = len(result.den.terms)
                if n > c["exact_algebra.max_den_terms"]:
                    c["exact_algebra.max_den_terms"] = n
            elif isinstance(result, UniPoly):
                for coeff in result.coeffs:
                    track_size(coeff)

        def mul(args, result):
            if len(args) == 2 and isinstance(args[1], MultiPoly):
                c["exact_algebra.mul_term_products"] += len(args[0].terms) * len(args[1].terms)
            track_size(result)

        def enclosure(args, result):
            if len(args) > 1 and args[1] > c["ordered_value.max_refine_level"]:
                c["ordered_value.max_refine_level"] = args[1]

        def blowup(args, result):
            key = "steps_monomial" if result.history[-1].monomial else "steps_equal_value"
            c["blowup_engine." + key] += 1

        def nondegenerate(args, result):
            self.nondegenerate_returns += 1

        return {
            "exact_algebra": lambda args, result: track_size(result),
            "exact_algebra.MultiPoly.__mul__": mul,
            "ordered_value.IndependentGenerator.enclosure": enclosure,
            "blowup_engine.framed_blowup": blowup,
            "blowup_engine.monomialize_nondegenerate": nondegenerate,
        }

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, span, hook):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans
        open_spans = self._open_spans
        clock = time.perf_counter
        tracer = self
        enabled = self.enabled

        def wrapper(*args, **kwargs):
            if not enabled[0]:
                return fn(*args, **kwargs)
            st[0] += 1
            st[3] += 1
            child = [0.0]
            stack.append(child)
            index = None
            if span:
                if len(spans) < MAX_SPANS:
                    index = len(spans)
                    parent = open_spans[-1] if open_spans else None
                    spans.append([name, 0.0, 0.0, parent, tracer.op_id])
                    open_spans.append(index)
                else:
                    tracer.spans_dropped += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                stack.pop()
                st[3] -= 1
                st[2] += dt - child[0]
                if st[3] == 0:
                    st[1] += dt
                if stack:
                    stack[-1][0] += dt
                if index is not None:
                    spans[index][1] = t0
                    spans[index][2] = t1
                    open_spans.pop()
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._hooks()
        replaced = {}  # id(original function) -> wrapper
        for mod_name in MODULES:
            module = getattr(self.vm, mod_name)
            span = mod_name not in AGGREGATE_ONLY
            module_hook = hooks.get(mod_name)
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = f"{mod_name}.{obj.__qualname__}"
                    if name.startswith(SKIPPED_PREFIXES):
                        continue
                    replaced[id(obj)] = self._wrap(name, obj, span, hooks.get(name, module_hook))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._patch_class(mod_name, obj, span, hooks, module_hook)
        for module in [self.vm.package] + [getattr(self.vm, m) for m in MODULES]:
            for attr, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _patch_class(self, mod_name, cls, span, hooks, module_hook):
        if issubclass(cls, BaseException):
            return
        wrapped = {}  # one wrapper per function object, shared by aliases
        for attr, raw in list(vars(cls).items()):
            if attr not in ARITHMETIC and (attr.startswith("_") or mod_name in OPERATORS_ONLY):
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if not inspect.isfunction(fn):
                continue
            name = f"{mod_name}.{fn.__qualname__}"
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn, span, hooks.get(name, module_hook))
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, kind(wrapped[id(fn)]) if kind else wrapped[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def reset_stack(self) -> None:
        """Forget calls left open by an op interrupted at its cap."""
        for st in self.stats.values():
            st[3] = 0
        self._stack.clear()
        self._open_spans.clear()

    # -- report ------------------------------------------------------------------

    def metrics(self, passes: int, overhead: float) -> dict:
        """Per-layer metrics, counts and times per traced pass."""
        out = {}
        for name, fields in REPORTED.items():
            calls, total, self_s, _ = self.stats.get(name, (0, 0.0, 0.0, 0))
            values = {"calls": calls / passes, "total_s": total / passes, "self_s": self_s / passes}
            for f in fields:
                out[f"{name}.{f}"] = {"value": values[f], "unit": _UNITS[f]}
        for name, unit in COUNTERS:
            value = self.counters[name]
            if name == "blowup_engine.nondegenerate_useful_ratio":
                attempts = self.stats.get("blowup_engine.monomialize_nondegenerate", [0])[0]
                value = self.nondegenerate_returns / attempts if attempts else 1.0
            elif name not in _MAXIMA:
                value = value / passes
            out[name] = {"value": value, "unit": unit}
        for m in MODULES:
            total = sum(st[2] for n, st in self.stats.items() if n.startswith(m + "."))
            out[f"{m}.self_s"] = {"value": total / passes, "unit": "s"}
        out["tracing_overhead"] = {"value": overhead, "unit": "ratio"}
        out["spans_recorded"] = {"value": len(self.spans), "unit": "count"}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
