"""Spans around the calls into each trigconv module, recorded from outside.

``Tracer.install`` rebinds every public function and public method of the
package's modules to a wrapper that records a span: layer, name, start, end,
parent span and op id.  Names that one module imports from another with
``from ... import`` are rebound in the importing module as well, so a call
such as ``conditions.suffix_sums`` is seen as a ``summation`` span.
``uninstall`` puts the original objects back.  Spans stay in memory and are
written once, at the end of the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans; the benchmark's own op span (layer ``bench``) is the root
of every op, so the self times of all layers add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

LAYERS = ("sequences", "summation", "conditions", "series", "harness",
          "cli", "manifest")

# span record fields
_ID, _PARENT, _OP, _LAYER, _NAME, _START, _END, _ARG = range(8)

CHECKERS = ("check_group_bv", "check_rest_bv", "check_weighted_rest_bv",
            "check_quasimonotone", "check_orvqm")
SERIES_TIMED = ("convergence_curve", "testpoint_block_probe",
                "truncation_slack", "abel_tail_bound")
# public series functions that run one pass of the partial-sum row engine
ROW_PASSES = ("convergence_curve", "tail_sup_norm", "testpoint_block_probe")


def _length(values) -> int:
    return len(values) if hasattr(values, "__len__") else 0


def _row_pass_args(name: str, a: dict) -> tuple:
    """What kernel_terms_points needs from a row-pass call's bound
    arguments, without keeping the coefficient objects alive."""
    two_sided = type(next(iter(a.values()))).__name__ == "TwoSidedSequence"
    if name == "convergence_curve":
        return ("curve", two_sided, max(int(v) for v in a["n_list"]),
                a.get("N_ref"), a.get("grid"))
    if name == "tail_sup_norm":
        return ("tail", two_sided, int(a["n"]), a.get("N_ref"), a.get("grid"))
    return ("probe", two_sided, int(a["n"]), None, a.get("grid"))


# per-call argument summaries kept on the span: (module, name) -> function
_ARG_SUMMARY = {
    ("sequences", "CoefficientSequence.prefix"): lambda a, k: int(a[1] if len(a) > 1 else k["N"]),
    ("summation", "suffix_sums"): lambda a, k: _length(a[0] if a else k["values"]),
    ("summation", "exact_sum"): lambda a, k: _length(a[0] if a else k["values"]),
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self._stack: list = []
        self.op = -1
        self._outcomes: dict = {}   # root harness span id -> gates failed
        self._rebind = self._plan()

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        summary = _ARG_SUMMARY.get((layer, name))
        if layer == "series" and name in ROW_PASSES:
            sig = inspect.signature(fn)

            def summary(a, k):
                return _row_pass_args(name, sig.bind(*a, **k).arguments)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, tracer.op, layer,
                   name, 0.0, 0.0, None]
            if summary is not None:
                rec[_ARG] = summary(args, kwargs)
            spans.append(rec)
            stack.append(rec[_ID])
            rec[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = perf_counter()
                stack.pop()
            if layer == "harness" and hasattr(result, "records") and not any(
                    spans[s][_LAYER] == "harness" for s in stack):
                tracer._outcomes[rec[_ID]] = sum(
                    1 for r in result.records if not r.passed)
            return result

        return wrapper

    def _targets(self):
        """(layer, display name, owner, attribute, original) for every
        public function and public method defined in each module."""
        for layer in LAYERS:
            mod = getattr(self.package, layer)
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, attr, mod, attr, obj
                elif inspect.isclass(obj):
                    for mname, member in sorted(vars(obj).items()):
                        if mname.startswith("_"):
                            continue
                        if isinstance(member, (classmethod, staticmethod)) or inspect.isfunction(member):
                            yield layer, f"{attr}.{mname}", obj, mname, member

    def _plan(self) -> list:
        """(owner, attribute, original, wrapper) for every rebinding."""
        plan = []
        wrapped = {}
        for layer, name, owner, attr, original in self._targets():
            if isinstance(original, (classmethod, staticmethod)):
                wrapper = type(original)(self._wrap(layer, name, original.__func__))
            else:
                wrapper = self._wrap(layer, name, original)
                wrapped[id(original)] = (original, wrapper)
            plan.append((owner, attr, original, wrapper))
        # names imported with ``from ... import`` into another module
        for mod in [self.package] + [getattr(self.package, m) for m in LAYERS]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj and obj.__module__ != mod.__name__:
                    plan.append((mod, attr, obj, hit[1]))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._rebind:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._rebind:
            setattr(owner, attr, original)

    # -- the op root span ---------------------------------------------------

    def open_op(self, op_id: int, key: str) -> list:
        self.op = op_id
        rec = [len(self.spans), -1, op_id, "bench", key, 0.0, 0.0, None]
        self.spans.append(rec)
        self._stack.append(rec[_ID])
        return rec

    def close_op(self, rec: list, start: float, end: float, output_bytes: int) -> None:
        self._stack.pop()
        rec[_START], rec[_END], rec[_ARG] = start, end, output_bytes

    # -- output -------------------------------------------------------------

    def dump(self, path: str, op_keys: dict) -> None:
        """Write the spans as gzipped JSON lines."""
        fields = ("id", "parent", "op", "layer", "name", "start", "end")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                row = dict(zip(fields, rec[:_ARG]))
                row["op_key"] = op_keys.get(rec[_OP], "")
                fh.write(json.dumps(row) + "\n")

    # -- metrics ------------------------------------------------------------

    def pass_metrics(self, first: int, kernel_points) -> dict:
        """Per-layer metrics over the spans recorded since span ``first``
        (one pass)."""
        spans = self.spans[first:]
        child = defaultdict(float)
        for r in spans:
            if r[_PARENT] >= 0:
                child[r[_PARENT]] += r[_END] - r[_START]
        self_s = defaultdict(float)
        total = defaultdict(float)
        calls = defaultdict(int)
        values = defaultdict(int)
        wall = 0.0
        terms_points = 0
        gates_failed = 0
        output_bytes = 0
        for r in spans:
            dur = r[_END] - r[_START]
            self_s[r[_LAYER]] += dur - child[r[_ID]]
            key = f"{r[_LAYER]}.{r[_NAME]}"
            total[key] += dur
            calls[key] += 1
            if r[_LAYER] == "bench":
                wall += dur
                output_bytes += r[_ARG] or 0
            elif isinstance(r[_ARG], int):
                values[key] += r[_ARG]
            elif isinstance(r[_ARG], tuple):
                terms_points += kernel_points(r[_ARG])
            gates_failed += self._outcomes.get(r[_ID], 0)
        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + ("bench",)}
        for name in SERIES_TIMED:
            m[f"series.{name}_s"] = total[f"series.{name}"]
        m["series.kernel_terms_points"] = terms_points
        m["series.kernel_rate"] = (terms_points / m["series.self_s"]
                                   if m["series.self_s"] > 0 else 0.0)
        m["conditions.checker_calls"] = sum(
            n for k, n in calls.items() if k.startswith("conditions.check_"))
        for name in CHECKERS:
            m[f"conditions.{name}_s"] = total[f"conditions.{name}"]
        m["summation.suffix_sums_calls"] = calls["summation.suffix_sums"]
        m["summation.suffix_sums_values"] = values["summation.suffix_sums"]
        m["summation.exact_sum_values"] = values["summation.exact_sum"]
        m["sequences.prefix_calls"] = calls["sequences.CoefficientSequence.prefix"]
        m["sequences.prefix_values"] = values["sequences.CoefficientSequence.prefix"]
        m["harness.corpus_member_s"] = total["harness.corpus_member"]
        m["harness.members"] = calls["harness.corpus_member"]
        m["harness.gates_failed"] = gates_failed
        m["cli.output_bytes"] = output_bytes
        m["trace.wall_s"] = wall
        return m


def kernel_points_counter(series_module):
    """Computed, not measured: the largest checkpoint times the number of
    evaluation points of each row pass; a two-sided grid counts mirrored."""
    default_nref = getattr(series_module, "_default_nref",
                           lambda n: max(1 << 16, 64 * n))
    cache: dict = {}

    def points(grid, two_sided: bool) -> int:
        key = (grid, two_sided)
        if key not in cache:
            import numpy as np

            xs = grid.points()
            if two_sided:
                xs = np.unique(np.concatenate([-xs[xs < math.pi], [0.0], xs]))
            cache[key] = int(xs.shape[0])
        return cache[key]

    def count(arg) -> int:
        kind, two_sided, n, n_ref, grid = arg
        grid = grid or series_module.GridSpec(n_ref=max(1, n))
        if kind == "probe":
            top = 4 * n
        else:
            top = default_nref(n) if n_ref is None else int(n_ref)
        return top * points(grid, two_sided)

    return count


def median_metrics(per_pass: list) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
