"""Spans around adaptpw's layer boundaries, recorded from outside the package.

`install` wraps the public functions of each module. Modules bind each
other's functions with `from .x import f`, so a wrapper replaces every
module-level binding of the original in the `adaptpw` package: the
importing modules (adapt, estimator, verify, cli) and the defining ones
(operator, spectral), whose attributes are looked up by the call-time
imports in `cli.uniform_sweep`, cli's source branch and
`verify.source_errors`. Methods are wrapped on their class.

A span is (name, start, end, parent index). Spans stay in memory and are
written out once, when the traced run ends. Counters are computed from the
wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """In-memory span and counter store for one traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"run_id": self.run_id, "spans": self.spans, "counters": dict(self.counters)},
                fh,
            )


# -- counters from call arguments and results ---------------------------------


def _bump_max(c, key, value):
    c[key] = max(c[key], value)


def _count_positions(c, args, result):
    c["frequency.positions.rows"] += len(result)


def _count_index_rows(c, args, result):
    self = args[0]
    entries = args[2] if len(args) > 2 else None
    if entries is not None and hasattr(entries, "shape"):
        c["frequency.IndexSet.rows"] += entries.size // self.dim
    else:
        c["frequency.IndexSet.rows"] += len(entries) if entries is not None else 0


def _count_multiply(c, args, result):
    v, u = args[0], args[1]
    c["spectral.multiply.pairs"] += len(v.support) * len(u.support)
    c["spectral.multiply.out_size"] += len(result.support)


def _count_assemble(c, args, result):
    n = len(args[0])
    _bump_max(c, "operator.assemble.max_n", n)
    _bump_max(c, "operator.dense_bytes_peak", 16 * n * n)  # complex128 n x n


def _count_solve_eigen(c, args, result):
    _bump_max(c, "operator.solve_eigen.max_n", len(args[0].basis))


def _count_truncation(c, args, result):
    radius, residuals = result
    if radius < args[2].support_radius():
        c["estimator.truncated_residual.returned"] += len(residuals)


def _count_marking(c, args, result):
    c["marking.pairs_considered"] += result.pairs_considered
    c["marking.pairs_marked"] += result.pairs_marked


def _count_iterations(c, args, result):
    c["adapt.iterations"] += len(result.records)


def _count_reference(c, args, result):
    _bump_max(c, "verify.reference_dof", len(result.basis))


#: (span name, module, attribute, counter); "Class.method" wraps on the class
BOUNDARIES = (
    ("frequency.positions", "frequency", "IndexSet.positions", _count_positions),
    ("frequency.IndexSet", "frequency", "IndexSet.__init__", _count_index_rows),
    ("frequency.union", "frequency", "union", None),
    ("spectral.multiply", "spectral", "multiply", _count_multiply),
    ("spectral.a_norm", "spectral", "a_norm", None),
    ("operator.assemble", "operator", "assemble", _count_assemble),
    ("operator.solve_eigen", "operator", "solve_eigen", _count_solve_eigen),
    ("operator.solve_source", "operator", "solve_source", None),
    ("estimator.residual", "estimator", "residual", None),
    ("estimator.truncated_residual", "estimator", "truncated_residual", None),
    ("estimator.choose_truncation", "estimator", "choose_truncation", _count_truncation),
    ("estimator.source_residual", "estimator", "source_residual", None),
    ("estimator.cluster_estimate", "estimator", "cluster_estimate", None),
    ("estimator.onset_offset_maxima", "estimator", "onset_offset_maxima", None),
    ("marking.dorfler_mark", "marking", "dorfler_mark", _count_marking),
    ("adapt.loop", "adapt", "run_eigen", _count_iterations),
    ("adapt.loop", "adapt", "run_source", _count_iterations),
    ("verify.reference_solve", "verify", "reference_solve", _count_reference),
    ("verify.run_distances", "verify", "run_distances", None),
    ("verify.source_errors", "verify", "source_errors", None),
    ("verify.fit_rates", "verify", "fit_rates", None),
    ("cli.build_potential", "cli", "build_potential", None),
    ("cli.uniform_sweep", "cli", "uniform_sweep", None),
    ("cli.write_outputs", "cli", "write_iterations_csv", None),
    ("cli.write_outputs", "cli", "write_marked_sets", None),
    ("cli.write_outputs", "cli", "write_uniform_csv", None),
    ("cli.write_outputs", "cli", "write_comparison_csv", None),
    ("cli.write_outputs", "cli", "RunSummary.write", None),
    ("cli.main", "cli", "main", None),
)

LAYERS = ("frequency", "spectral", "operator", "estimator", "marking", "adapt", "verify", "cli")

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))


def install(tracer: Tracer) -> None:
    """Replace every boundary function of `adaptpw` with a traced wrapper."""
    importlib.import_module("adaptpw")
    modules = [m for k, m in sys.modules.items() if k == "adaptpw" or k.startswith("adaptpw.")]
    for name, module, attr, count in BOUNDARIES:
        owner = sys.modules[f"adaptpw.{module}"]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, tracer.wrap(name, cls.__dict__[method], count))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


# -- aggregation --------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(spans, counters) -> dict[str, float]:
    """Per-boundary calls, inclusive and self seconds, layer self time, counters.

    Inclusive time counts only the outermost span of a name, so a boundary
    reached again below itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += selfs[i]
        out[f"{name.split('.')[0]}.self_s"] += selfs[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{name}.s"] += end - start
    for key in (
        "frequency.positions.rows", "frequency.IndexSet.rows", "spectral.multiply.pairs",
        "spectral.multiply.out_size", "operator.assemble.max_n", "operator.solve_eigen.max_n",
        "operator.dense_bytes_peak", "marking.pairs_considered", "marking.pairs_marked",
        "adapt.iterations", "verify.reference_dof",
    ):
        out[key] = counters.get(key, 0)
    computed = out["estimator.truncated_residual.calls"]
    returned = counters.get("estimator.truncated_residual.returned", 0)
    out["estimator.truncation_kept_ratio"] = returned / computed if computed else 0.0
    return out
