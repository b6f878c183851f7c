"""Span tracing of gvikit from outside the program.

``Tracer.install`` replaces the public functions and methods of each
gvikit layer module with wrappers that record one span per call: name,
start, end, parent span and problem id.  A function that another module
imports by name is replaced in every layer module that holds it, because
callers look it up in their own namespace.  Spans stay in memory, in
compact arrays, until ``save`` writes them out after the run.

Expression evaluation (``OperatorExpr.__call__``) is not wrapped: it runs
in the innermost loops, and its time is charged to the calling span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "schema", "operators", "geometry", "gvi", "vi", "coincidence", "oracle")

# dunder methods that carry layer work of their own
_DUNDERS = {("GviProblem", "__init__"), ("ReducedOperator", "__call__")}

OPERATOR_CHECKS = (
    "check_monotone_relative",
    "check_ql",
    "check_fiber_condition",
    "check_range_inclusion",
    "check_g_pseudocontractive",
    "check_g_nonexpansive",
    "affine_relative_monotone",
)
SET_TYPES = ("Box", "Ball", "Simplex", "HPolytope", "PolyhedralCone")
VERDICTS = ("proven", "holds_on_samples", "violated")


def _count_verdict(counts, report):
    counts[f"operators.verdict.{report.verdict}"] += 1


def _count_solve(counts, report):
    counts["vi.iterations"] += report.iterations
    counts["vi.converged"] += int(bool(report.converged))


def _count_points(counts, points):
    counts["oracle.grid_points.points"] += len(points)


_RESULT_HOOKS = {f"operators.{name}": _count_verdict for name in OPERATOR_CHECKS}
_RESULT_HOOKS["vi.solve_extragradient"] = _count_solve
_RESULT_HOOKS["oracle.grid_points"] = _count_points


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.problem = array("i")
        self.counts = Counter()
        self._stack = [-1]
        self._problem = -1
        self._patches = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.problem.append(self._problem)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        on_result = _RESULT_HOOKS.get(name)
        raised = f"{name}.raised"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[raised] += 1
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    @contextlib.contextmanager
    def problem_span(self, pid):
        """Root span of one benchmark problem; spans opened inside carry ``pid``."""
        self._problem = pid
        idx = self._open(self._name_id("bench.problem"))
        try:
            yield
        finally:
            self._close(idx)
            self._problem = -1

    def install(self):
        """Wrap every public gvikit function and method in the layer modules."""
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gvikit.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("gvikit."):
                    if obj not in wrapped:
                        owner = obj.__module__.rsplit(".", 1)[1]
                        wrapped[obj] = self.wrap(f"{owner}.{obj.__name__}", obj)
                    self._patch(module, attr, wrapped[obj])
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or (attr, meth) in _DUNDERS
                        if public and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "problem": np.frombuffer(self.problem, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_totals(self):
        """Per span name: (calls, total ms, self ms).

        Self time is a span's duration minus the time its child spans
        cover; spans of one thread nest, so children never overlap and
        that cover is the sum of their durations.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_time, minlength=k)
        return {
            name: (int(calls[i]), 1e3 * float(total[i]), 1e3 * float(own[i]))
            for i, name in enumerate(self.names)
        }

    def child_calls(self, child, parent):
        """How many ``child`` spans were opened directly inside ``parent`` spans."""
        if child not in self._ids or parent not in self._ids:
            return 0
        a = self.arrays()
        mask = a["name"] == self._ids[child]
        parents = a["parent"][mask]
        parents = parents[parents >= 0]
        return int(np.sum(a["name"][parents] == self._ids[parent]))


def layer_metrics(tracer):
    """The per-layer metrics of the benchmark, from one traced run."""
    totals = tracer.layer_totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def total_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    m = {}
    for check in OPERATOR_CHECKS:
        m[f"operators.{check}.self_ms"] = (self_ms(f"operators.{check}"), "ms")
        m[f"operators.{check}.calls"] = (calls(f"operators.{check}"), "count")
    for verdict in VERDICTS:
        m[f"operators.verdict.{verdict}"] = (counts[f"operators.verdict.{verdict}"], "count")
    samplers = [n for n in totals if n.startswith("geometry.") and n.endswith(".sample")]
    m["geometry.sample.calls"] = (sum(calls(n) for n in samplers), "count")
    m["geometry.sample.self_ms"] = (sum(self_ms(n) for n in samplers), "ms")

    m["gvi.select_preimage.calls"] = (calls("gvi.select_preimage"), "count")
    m["gvi.select_preimage.self_ms"] = (self_ms("gvi.select_preimage"), "ms")
    m["gvi.select_preimage.failed"] = (counts["gvi.select_preimage.raised"], "count")
    m["gvi.preimage_candidates.calls"] = (calls("gvi.preimage_candidates"), "count")
    m["gvi.preimage_candidates.self_ms"] = (self_ms("gvi.preimage_candidates"), "ms")
    m["operators.jacobian_fd.calls"] = (calls("operators.jacobian_fd"), "count")
    m["operators.jacobian_fd.self_ms"] = (self_ms("operators.jacobian_fd"), "ms")
    representative = "gvi.ReducedOperator.representative"
    rep_calls = calls(representative)
    m["gvi.representative.calls"] = (rep_calls, "count")
    inversions = tracer.child_calls("gvi.select_preimage", representative)
    hit_ratio = 1.0 - inversions / rep_calls if rep_calls else 0.0
    m["gvi.reduced_cache.hit_ratio"] = (hit_ratio, "ratio")

    solves = calls("vi.solve_extragradient")
    iterations = counts["vi.iterations"]
    m["vi.solve_extragradient.self_ms"] = (self_ms("vi.solve_extragradient"), "ms")
    m["vi.iterations"] = (iterations, "count")
    m["vi.ms_per_iteration"] = (
        total_ms("vi.solve_extragradient") / iterations if iterations else 0.0,
        "ms",
    )
    m["vi.converged_frac"] = (counts["vi.converged"] / solves if solves else 0.0, "ratio")
    m["gvi.reduced_operator.calls"] = (calls("gvi.ReducedOperator.__call__"), "count")

    for kind in SET_TYPES:
        m[f"geometry.{kind}.project.calls"] = (calls(f"geometry.{kind}.project"), "count")
        m[f"geometry.{kind}.project.self_ms"] = (self_ms(f"geometry.{kind}.project"), "ms")

    m["oracle.grid_points.self_ms"] = (self_ms("oracle.grid_points"), "ms")
    m["oracle.grid_points.points"] = (counts["oracle.grid_points.points"], "count")
    m["oracle.brute_gap.self_ms"] = (self_ms("oracle.brute_gap"), "ms")
    m["oracle.brute_coincidence.self_ms"] = (self_ms("oracle.brute_coincidence"), "ms")
    m["schema.parse_problem.self_ms"] = (self_ms("schema.parse_problem"), "ms")
    m["geometry.affine_image_polytope.self_ms"] = (self_ms("geometry.affine_image_polytope"), "ms")
    m["coincidence.find_coincidence.self_ms"] = (self_ms("coincidence.find_coincidence"), "ms")
    m["coincidence.precheck.calls"] = (calls("coincidence.precheck"), "count")
    m["coincidence.precheck.self_ms"] = (self_ms("coincidence.precheck"), "ms")
    m["gvi.gvi_gap.calls"] = (calls("gvi.gvi_gap"), "count")
    m["gvi.gvi_gap.self_ms"] = (self_ms("gvi.gvi_gap"), "ms")
    m["gvi.GviProblem.self_ms"] = (self_ms("gvi.GviProblem.__init__"), "ms")
    m["gvi.check_selection_independence.self_ms"] = (
        self_ms("gvi.check_selection_independence"),
        "ms",
    )
    m["gvi.solve_gvi.self_ms"] = (self_ms("gvi.solve_gvi"), "ms")
    m["cli.run_problem.self_ms"] = (self_ms("cli.run_problem"), "ms")
    m["cli.main.self_ms"] = (self_ms("cli.main"), "ms")
    return m
