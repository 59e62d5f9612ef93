"""Span tracing around the public functions of each vexleb layer.

``install`` replaces every public function of the traced modules with a
wrapper that records one span per call (name, start, end, parent span and
run id) in memory.  The wrapper replaces the function in every vexleb
namespace that imported it, so ``vexleb.verify.luxemburg_norm`` and
``vexleb.scenario.empirical_ratio`` are traced too.  Nothing in the package
is edited on disk; a traced process is used for one pass and then exits.

``summarize`` turns the spans into the per-layer metrics named in
``spec.PER_LAYER``; ``wrapper_cost_ns`` measures what one span costs, so
that the tracer's own share of a traced pass can be reported.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter

from spec import CONDITION_FUNCTIONALS, LAYERS, TIMED

# Per-value formatters run once per number written, from inside write_json
# and write_csv; a span for each would time the tracer, not the layer.
_NOT_WRAPPED = {"report.fmt_float", "report.to_json_text"}

# Classes whose public methods are traced as scenario spans.
_TRACED_CLASSES = {"scenario": ("Scenario", "Materialized")}

_OPERATORS = ("hardy_transform", "hardy_tail_transform", "maximal_function",
              "ball_potential", "distance_potential", "singular_integral")
# Functionals that compute a (ball, tail) pair of conditions; the rest compute one.
_PAIR_RESULT = ("potential_conditions", "distance_potential_conditions",
                "variable_order_conditions", "maximal_singular_conditions")


def _bytes_written(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"report.bytes": os.path.getsize(path)}


# Counts read from a call's result, keyed by the traced name.
_COUNTS = {
    "norms.luxemburg_norm": lambda r, a, k: {
        "norms.bisection_iters": r.bisection_iters, "norms.unconverged": int(not r.converged)},
    "verify.empirical_ratio": lambda r, a, k: {
        "verify.probes": r.trials, "verify.discarded": r.discarded},
    "report.write_json": _bytes_written,
    "report.write_csv": _bytes_written,
    "scenario.Materialized.evaluate_conditions": lambda r, a, k: {"scenario.tags": len(r)},
    **{f"operators.{fn}": (lambda r, a, k: {"operators.skipped": r.skipped})
       for fn in _OPERATORS},
    **{f"conditions.{fn}": (lambda r, a, k, h=2 if fn in _PAIR_RESULT else 1:
                            {"conditions.halves": h})
       for fn in CONDITION_FUNCTIONALS},
}


class Tracer:
    """In-memory span recorder.  Spans are lists
    ``[id, parent, name, start_ns, end_ns, run_id, counts]``; ids are list
    positions, so a parent always precedes its children."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, name, 0, 0, self.run_id, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                span[6] = count(result, args, kwargs)
            return result

        return traced

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one per span."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "run_id", "counts")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _noop():
    return None


def wrapper_cost_ns(calls: int = 20000, repeats: int = 7) -> float:
    """Time one span adds to a call, in ns: the median over ``repeats`` of
    the difference between ``calls`` traced and untraced calls of a no-op,
    per call.  Multiplied by the span count, it gives ``trace.overhead_s``
    without comparing two passes whose times differ by more than that."""
    tracer = Tracer()
    traced = tracer.wrap("cli.noop", _noop)
    costs = []
    for _ in range(repeats):
        tracer.spans.clear()
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            _noop()
        t1 = time.perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer module and of the scenario
    classes, in every vexleb namespace that holds them."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"vexleb.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            name = f"{layer}.{attr}"
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                    and name not in _NOT_WRAPPED:
                wrapped[id(fn)] = (fn, tracer.wrap(name, fn))
        for cls_name in _TRACED_CLASSES.get(layer, ()):
            cls = getattr(mod, cls_name)
            for attr, fn in list(vars(cls).items()):
                if inspect.isfunction(fn) and not attr.startswith("_"):
                    setattr(cls, attr, tracer.wrap(f"{layer}.{cls_name}.{attr}", fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "vexleb" and not mod_name.startswith("vexleb."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans) -> dict:
    """Per-layer metrics from one traced pass.

    ``<layer>.self_s`` sums, over the layer's spans, each span's duration
    minus the durations of its direct child spans.  ``<key>_s`` and
    ``<key>_calls`` (see ``spec.TIMED``) cover the outermost calls of the
    key's functions, so a call nested in another of the same key is not
    counted twice.  Counters sum what the wrappers read from results.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] += span[4] - span[3]
    self_ns = Counter()
    counts = Counter()
    for span in spans:
        self_ns[_layer(span[2])] += span[4] - span[3] - child_ns[span[0]]
        if span[6]:
            counts.update(span[6])
    out = {f"{layer}.self_s": self_ns[layer] / 1e9 for layer in LAYERS}

    key_of = {fn: key for key, fns in TIMED.items() for fn in fns}
    timed_ns, calls = Counter(), Counter()
    for span in spans:
        key = key_of.get(span[2])
        if key is None:
            continue
        parent = span[1]
        while parent is not None and key_of.get(spans[parent][2]) != key:
            parent = spans[parent][1]
        if parent is None:
            timed_ns[key] += span[4] - span[3]
            calls[key] += 1
    for key in TIMED:
        out[f"{key}_s"] = timed_ns[key] / 1e9
        out[f"{key}_calls"] = calls[key]

    for name in ("operators.skipped", "norms.bisection_iters", "norms.unconverged",
                 "verify.probes", "verify.discarded", "report.bytes"):
        out[name] = counts[name]
    halves = counts["conditions.halves"]
    out["conditions.useful_frac"] = counts["scenario.tags"] / halves if halves else 0.0
    out["trace.spans"] = len(spans)
    return out
