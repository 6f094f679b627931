"""Spans around calls into the library's layers, recorded from outside.

The tracer replaces each public function of the layer modules (the
names in their ``__all__``) with a timing wrapper, in every ``ifipm``
module namespace that holds it, so calls between modules and within a
module are both seen. Nothing in the library changes: the originals are
put back on exit. A span records its name, duration and the span that
was open when it started; spans are aggregated in memory per name and
per (parent, child) pair and written out once, when the run ends.

Solves of the Newton system go through :class:`Probe`, a wrapper around
the solver handle the loop is given. Untraced, it only counts calls (one
per Newton step); under a tracer it also records the span and the
handle's :class:`~ifipm.solvers.SolveReport`.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("generator", "problem", "newton", "solvers", "ipm", "cli", "io")
SOLVE = "solvers.solve"  # the solver-handle span


class SpanStats:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict = {}
        self.edges: Counter = Counter()
        self._stack: list = []  # open spans: [name, time covered by children]
        self._patched: list = []
        # observations the per-layer metrics need beyond span times
        self.basis_calls = 0
        self.basis_unchanged = 0
        self.basis_changed_columns = 0
        self._last_basis = None
        self.inner_iterations: list = []
        self.residual_over_target: list = []
        self.last_exact_system = None

    # --- spans ------------------------------------------------------------

    def _stat(self, name) -> SpanStats:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = SpanStats()
        return stat

    def call(self, name, fn, *args, **kwargs):
        stack = self._stack
        if not stack:  # a new top-level solve: basis changes restart here
            self._last_basis = None
        self.edges[(stack[-1][0] if stack else None, name)] += 1
        frame = [name, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][1] += dt
            stat = self._stat(name)
            stat.calls += 1
            stat.total += dt
            stat.self_time += dt - frame[1]

    def _wrap(self, name, fn):
        observe = {
            "newton.select_basis_mwb": self._observe_basis,
            "solvers.solve_exact": self._observe_exact,
        }.get(name)

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_basis(self, args, kwargs, basis):
        current = frozenset(basis)
        if self._last_basis is not None:
            changed = len(current - self._last_basis)
            self.basis_calls += 1
            self.basis_unchanged += changed == 0
            self.basis_changed_columns += changed
        self._last_basis = current

    def _observe_exact(self, args, kwargs, report):
        matrix = kwargs.get("matrix", args[0] if args else None)
        rhs = kwargs.get("rhs", args[1] if len(args) > 1 else None)
        self.last_exact_system = (matrix, rhs)

    def solve(self, handle, matrix, rhs, target):
        report = self.call(SOLVE, handle, matrix, rhs, target)
        self.inner_iterations.append(report.iterations)
        self.residual_over_target.append(report.achieved_residual / target)
        return report

    # --- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every public layer function for the duration of the block."""
        replacements = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ifipm.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    replacements[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        namespaces = [mod for name, mod in sys.modules.items()
                      if name == "ifipm" or name.startswith("ifipm.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None and wrapped.__wrapped__ is value:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in reversed(self._patched):
                setattr(module, attr, value)
            self._patched.clear()

    # --- reporting --------------------------------------------------------

    def summary(self) -> dict:
        """Aggregated spans, for writing out when the run ends."""
        return {
            "spans": {name: {"calls": st.calls, "total_s": st.total,
                             "self_s": st.self_time}
                      for name, st in sorted(self.stats.items())},
            "edges": [{"parent": p, "child": c, "calls": k}
                      for (p, c), k in sorted(self.edges.items(), key=str)],
        }

    def calls(self, *names) -> int:
        return sum(self.stats[n].calls for n in names if n in self.stats)

    def self_time(self, *names) -> float:
        return sum(self.stats[n].self_time for n in names if n in self.stats)

    def total_time(self, *names) -> float:
        return sum(self.stats[n].total for n in names if n in self.stats)

    def names(self, prefix) -> list:
        return [n for n in self.stats if n.startswith(prefix)]


class Probe:
    """Counts Newton-system solves; records them when a tracer is attached."""

    def __init__(self):
        self.calls = 0
        self.tracer = None

    def wrap(self, handle):
        return ProbedHandle(self, handle)


class ProbedHandle:
    __slots__ = ("probe", "inner")

    def __init__(self, probe, inner):
        self.probe = probe
        self.inner = inner

    def __call__(self, matrix, rhs, target_residual):
        probe = self.probe
        probe.calls += 1
        if probe.tracer is None:
            return self.inner(matrix, rhs, target_residual)
        return probe.tracer.solve(self.inner, matrix, rhs, target_residual)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, iterations: int, wall_s: float, passes: int) -> dict:
    """Per-layer numbers of traced passes: ``iterations`` Newton steps in ``wall_s``."""
    ms = 1e3
    t = tracer
    recover = t.names("newton.recover_direction_")
    solves = t.calls(SOLVE)
    out = {}
    for key, names, time_of in (
            ("newton.condition_number", ["newton.condition_number"], t.self_time),
            ("newton.select_basis_mwb", ["newton.select_basis_mwb"], t.self_time),
            ("newton.assemble", ["newton.assemble"], t.self_time),
            ("newton.recover", recover, t.self_time),
            ("solvers.solve", [SOLVE], t.total_time)):
        calls = t.calls(*names)
        spent = time_of(*names)
        out[f"{key}.ms_per_call"] = _ratio(spent * ms, calls)
        out[f"{key}.share"] = _ratio(spent, wall_s)
    out["newton.condition_number.calls_per_iter"] = _ratio(
        t.calls("newton.condition_number"), iterations)
    out["newton.basis_unchanged_share"] = _ratio(t.basis_unchanged, t.basis_calls)
    out["newton.basis_changes_per_iter"] = _ratio(t.basis_changed_columns, iterations)
    out["solvers.inner_iterations_per_solve"] = _ratio(sum(t.inner_iterations), solves)
    out["solvers.solve_exact.calls_per_solve"] = _ratio(
        t.calls("solvers.solve_exact"), solves)
    out["solvers.residual_over_target.p50"] = (
        statistics.median(t.residual_over_target) if t.residual_over_target else 0.0)
    out["ipm.self_ms_per_iter"] = _ratio(
        t.self_time("ipm.if_ipm", "ipm.ir_if_ipm") * ms, iterations)
    out["ipm.ir_loops_per_solve"] = _ratio(
        t.edges[("ipm.ir_if_ipm", "ipm.if_ipm")], t.calls("ipm.ir_if_ipm"))
    for name in ("residuals", "in_neighborhood", "preprocess"):
        out[f"problem.{name}.share"] = _ratio(t.self_time(f"problem.{name}"), wall_s)
    out["cli.main.self_ms"] = t.self_time("cli.main") * ms / passes
    out["io.load_instance.ms"] = t.total_time("io.load_instance") * ms / passes
    out["cli.write_condition_trace.ms"] = (
        t.total_time("cli.write_condition_trace") * ms / passes)
    return out
