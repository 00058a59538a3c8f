"""Span recording around the public functions of each kernsense module.

The tracer replaces every public function of the traced modules with a
wrapper that records one span per call: name, start, end, parent span and
the phase of the benchmark it ran in.  The wrapper is installed into every
loaded kernsense module that holds a reference to the original (modules
import each other's functions by name), so calls between layers are seen
too.  Spans stay in memory; the caller writes them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

LAYERS = ("model", "losses", "optimize", "empirics", "bounds", "cli")


def _solve_info(res):
    return {"iterations": res.iterations_run,
            "converged": res.termination == "grad_tol"}


def _lambda_min_info(res):
    return {"iterations": res.iterations, "converged": bool(res.converged)}


# Outcome fields read from the return value of these calls.
_RESULT_INFO = {
    "optimize.gradient_descent": _solve_info,
    "losses.lambda_min_hessian": _lambda_min_info,
}


class Tracer:
    """Records spans while installed; install/uninstall may alternate."""

    def __init__(self):
        self.spans = []    # [name, start, end, parent, phase, info]
        self._stack = []
        self.phase = ("build", 0)
        self._originals = {}   # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"kernsense.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    self._originals[obj] = self._wrap(f"{layer}.{attr}", obj)
        self._wrappers = {w: f for f, w in self._originals.items()}

    def _wrap(self, name, fn):
        info_fn = _RESULT_INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.phase, None]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if info_fn is not None:
                span[5] = info_fn(out)
            return out

        return wrapper

    def _swap(self, mapping):
        for modname, mod in list(sys.modules.items()):
            if modname != "kernsense" and not modname.startswith("kernsense."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in mapping:
                    setattr(mod, attr, mapping[obj])

    def install(self):
        self._swap(self._originals)

    def uninstall(self):
        self._swap(self._wrappers)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, phase, info) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "phase": f"{phase[0]}:{phase[1]}",
                                     "info": info}) + "\n")


class LayerStats:
    """Per-function totals of one phase kind, averaged over its phases.

    Every build of a workload does the same work, and so does every task,
    so the average over phases is exact for counts and a mean for times.
    """

    def __init__(self, spans, kind):
        child = [0.0] * len(spans)
        for name, t0, t1, parent, phase, info in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        phases = set()
        self.calls = defaultdict(float)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.iterations = defaultdict(float)
        self.converged = defaultdict(float)
        self.durations = defaultdict(list)
        for i, (name, t0, t1, parent, phase, info) in enumerate(spans):
            if phase[0] != kind:
                continue
            phases.add(phase)
            self.calls[name] += 1
            self.total_s[name] += t1 - t0
            self.self_s[name] += t1 - t0 - child[i]
            self.durations[name].append(t1 - t0)
            if info is not None:
                self.iterations[name] += info["iterations"]
                self.converged[name] += info["converged"]
        self.phases = len(phases)
        for table in (self.calls, self.total_s, self.self_s, self.iterations,
                      self.converged):
            for name in table:
                table[name] /= max(self.phases, 1)
        self.span_count = sum(self.calls.values())


def layer_metrics(spans, m, n):
    """Per-layer metrics for one build plus one task (see README.md)."""
    parts = [LayerStats(spans, "build"), LayerStats(spans, "task")]

    def total(table, name):
        return sum(getattr(p, table).get(name, 0.0) for p in parts)

    def self_s_of(prefix):
        return sum((v for p in parts for k, v in p.self_s.items()
                    if k.startswith(prefix)), 0.0)

    out = {}
    for fn in ("model.apply_op", "model.adjoint_op",
               "losses.loss_and_grad_residual", "losses.loss_value",
               "losses.grad_residual", "losses.grad_M", "losses.hessian_vector_product",
               "losses.hessian_quadratic_form", "optimize.gradient_descent"):
        out[f"{fn}.calls"] = (total("calls", fn), "count")
        out[f"{fn}.self_s"] = (total("self_s", fn), "s")
    op_calls = total("calls", "model.apply_op") + total("calls", "model.adjoint_op")
    op_s = total("self_s", "model.apply_op") + total("self_s", "model.adjoint_op")
    out["model.op_gb_per_s_computed"] = (
        op_calls * m * n * n * 8 / op_s / 1e9 if op_s > 0 else 0.0, "GB/s")
    for fn in ("model.make_instance", "model.estimate_rip",
               "losses.lambda_min_hessian", "optimize.gradient_descent",
               "optimize.auto_step_size", "empirics.estimate_rho",
               "empirics.estimate_lambda12", "empirics.estimate_zeta1",
               "empirics.estimate_zeta2", "empirics.residual_constants",
               "empirics.estimate_constants"):
        out[f"{fn}.s"] = (total("total_s", fn), "s")
    for fn, key in (("losses.lambda_min_hessian", "losses.lambda_min_hessian"),
                    ("optimize.gradient_descent", "optimize")):
        calls = total("calls", fn)
        out[f"{fn}.iterations"] = (total("iterations", fn), "count")
        out[f"{key}.converged_frac"] = (
            total("converged", fn) / calls if calls else 0.0, "ratio")
    out["bounds.s"] = (self_s_of("bounds."), "s")
    out["cli.run_sweep.self_s"] = (total("self_s", "cli.run_sweep"), "s")
    out["trace.spans"] = (sum(p.span_count for p in parts), "count")
    return out


def tail_summary(durations):
    """Median, sample count and the highest percentile with at least ten
    samples beyond it (None when there are too few samples)."""
    xs = sorted(durations)
    k = len(xs)
    med = xs[k // 2] if k % 2 else 0.5 * (xs[k // 2 - 1] + xs[k // 2])
    tail = None
    if k > 20:
        # Highest whole percentile p with at least ten samples above it.
        p = math.floor(100.0 * (k - 10) / k)
        tail = {"p": p, "value": xs[min(k - 1, math.ceil(p / 100.0 * k) - 1)]}
    return {"median": med, "samples": k, "tail": tail}


def per_call_tails(spans):
    """tail_summary of the per-call durations of each traced task span name."""
    stats = LayerStats(spans, "task")
    return {name: tail_summary(d) for name, d in sorted(stats.durations.items())}
