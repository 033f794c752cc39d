"""Outside-in tracing: nested spans around the program's public functions.

Every span is installed from here, by replacing a module attribute with a
timing wrapper *at the name each caller looks up*.  ``solver`` and
``norming`` bind ``lp_min``/``lp_max`` at import, so their LPs are wrapped
as ``coapprox.solver.lp_min`` (lex-extreme LPs) and
``coapprox.norming.lp_max`` (cell margin LPs); ``exact.solve_minimax_lp``
imports ``lp_min`` at call time, so ``coapprox.lp.lp_min`` carries the
minimax LPs.  An LP span entered inside another LP span (``lp_max`` calling
``lp_min``) is the same solve and opens no second span.

Spans nest on one stack, so each span knows its parent (``edges``) and
its self time (duration minus the time of its child spans).  Nothing is
written while a pass runs; the aggregates are read when it ends.
"""
from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Several attributes may share a span
# name when callers bind the same function under different names.
SPANS = (
    ("coapprox.cli", "main", "cli.main"),
    ("coapprox.cli", "build_parser", "cli.build_parser"),
    ("coapprox.cli", "load_problem", "cli.load_problem"),
    ("coapprox.cli", "cmd_norming_set", "cli.cmd_norming_set"),
    ("coapprox.cli", "cmd_solve", "cli.cmd_solve"),
    ("coapprox.cli", "cmd_classify", "cli.cmd_classify"),
    ("coapprox.cli", "validate_basis", "subspace.validate_basis"),
    ("coapprox.cli", "classify", "classify.classify"),
    ("coapprox.cli", "solve_general", "solver.solve_general"),
    ("coapprox", "solve_general", "solver.solve_general"),
    ("coapprox", "existence_threshold", "solver.existence_threshold"),
    ("coapprox.cli", "projection_map", "solver.projection_map"),
    ("coapprox.cli", "verify_best_coapprox", "oracle.verify_best_coapprox"),
    ("coapprox.cli", "brute_force_existence", "oracle.brute_force_existence"),
    ("coapprox.solver", "build_profile", "subspace.build_profile"),
    ("coapprox.solver", "reduce_sigma", "subspace.reduce_sigma"),
    ("coapprox.solver", "build_arrangement", "norming.build_arrangement"),
    # cli._arrangement and cli._cells import these from norming lazily.
    ("coapprox.norming", "build_arrangement", "norming.build_arrangement"),
    ("coapprox.solver", "enumerate_cells", "norming.enumerate_cells"),
    ("coapprox.norming", "enumerate_cells", "norming.enumerate_cells"),
    ("coapprox.solver", "minimal_norming_set", "norming.minimal_norming_set"),
    ("coapprox.solver", "solve_empty_zero_set", "solver.solve_empty_zero_set"),
    ("coapprox.solver", "lex_extreme_alpha", "solver.lex_extreme_alpha"),
    ("coapprox.solver", "solve_minimax_lp", "exact.solve_minimax_lp"),
    ("coapprox.solver", "solve_linear", "exact.solve_linear"),
    ("coapprox.oracle", "solve_linear", "exact.solve_linear"),
    ("coapprox.solver", "rank", "exact.rank"),
    ("coapprox.norming", "rank", "exact.rank"),
    ("coapprox.subspace", "rank", "exact.rank"),
    ("coapprox.norming", "lp_max", "lp.margin"),
    ("coapprox.solver", "lp_min", "lp.lex"),
    ("coapprox.lp", "lp_min", "lp.minimax"),
)

# Call-only counters: functions too small and too frequent to time.
COUNTERS = (("coapprox.oracle", "bj_orthogonal_l1", "oracle.bj_checks"),)

LP_SPANS = ("lp.margin", "lp.lex", "lp.minimax")

# Entry points: their self time is whatever their unwrapped callees do
# (argument parsing, JSON output, small helpers), so it is not counted as
# covered by a layer span.
ENTRY_SPANS = ("cli.main", "cli.cmd_norming_set", "cli.cmd_solve", "cli.cmd_classify",
               "solver.solve_general", "solver.existence_threshold")


def _lp_size(cost, a_ub, b_ub, a_eq=(), b_eq=()) -> int:
    """Constraint-matrix size of an LP call: rows x columns."""
    return (len(a_ub) + len(a_eq)) * len(cost)


def _count_lp(counts, args, kwargs):
    counts["lp.tableau_entries"] += _lp_size(*args, **kwargs)


def _count_cells(counts, cells):
    counts["norming.cells"] += len(cells)


def _count_outcome(counts, outcome):
    counts["solver.outcome." + outcome.kind.value.replace("-", "_")] += 1


def _count_grid(counts, result):
    counts["oracle.grid_points"] += result.grid_points


ON_CALL = {name: _count_lp for name in LP_SPANS}
ON_RESULT = {
    "norming.enumerate_cells": _count_cells,
    "solver.solve_general": _count_outcome,
    "oracle.brute_force_existence": _count_grid,
}


class Tracer:
    """Span stack plus per-name aggregates: calls, total and self time."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # open spans: [name, child seconds]
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.edges: Counter = Counter()  # (parent, child) -> calls
        self.counts: Counter = Counter()
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        stack = self.stack
        on_call = ON_CALL.get(name)
        on_result = ON_RESULT.get(name)
        is_lp = name in LP_SPANS

        def traced(*args, **kwargs):
            if is_lp and stack and stack[-1][0] in LP_SPANS:
                return fn(*args, **kwargs)
            self.edges[(stack[-1][0] if stack else None, name)] += 1
            if on_call is not None:
                on_call(self.counts, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        for module, attr, name in SPANS:
            self._replace(module, attr, self.wrap(name, getattr(importlib.import_module(module), attr)))
        for module, attr, name in COUNTERS:
            self._replace(module, attr, self.count(name, getattr(importlib.import_module(module), attr)))

    def _replace(self, module: str, attr: str, wrapper) -> None:
        mod = importlib.import_module(module)
        self._restore.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            mod, attr, original = self._restore.pop()
            setattr(mod, attr, original)


def layer_metrics(tr: Tracer, root: str, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``root`` is the span the benchmark opens around each op.  The
    coverage is the share of op time spent in the self time of layer
    spans, that is of spans other than ``root`` and ``ENTRY_SPANS``.
    """
    calls, total, self_s, counts = tr.calls, tr.total, tr.self_time, tr.counts
    lp_calls = sum(calls[n] for n in LP_SPANS)
    lp_time = sum(total[n] for n in LP_SPANS)
    op_time = total[root]
    covered = sum(v for k, v in self_s.items() if k != root and k not in ENTRY_SPANS)
    out = {
        "trace.ops": (calls[root], "count"),
        "trace.coverage": (covered / op_time if op_time else 0.0, "ratio"),
        "trace_overhead": (traced_s / untraced_s if untraced_s else 0.0, "ratio"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "cli.build_parser.self_s": (self_s["cli.build_parser"], "s"),
        "cli.load_problem.self_s": (self_s["cli.load_problem"], "s"),
        "cli.report.self_s": (
            sum(v for k, v in self_s.items() if k.startswith("cli.cmd_")), "s"),
        "norming.cells": (counts["norming.cells"], "count"),
        "norming.cell_yield": (
            counts["norming.cells"] / calls["lp.margin"] if calls["lp.margin"] else 0.0,
            "ratio"),
        "lp.tableau_entries": (counts["lp.tableau_entries"], "count"),
        "lp.time_per_call_ms": (1000 * lp_time / lp_calls if lp_calls else 0.0, "ms"),
        "oracle.grid_points": (counts["oracle.grid_points"], "count"),
        "oracle.bj_checks": (counts["oracle.bj_checks"], "count"),
    }
    for kind in ("unique", "polytope", "not_exists"):
        out[f"solver.outcome.{kind}"] = (counts[f"solver.outcome.{kind}"], "count")
    for name in ("lp.margin", "lp.lex", "lp.minimax", "norming.enumerate_cells",
                 "solver.lex_extreme_alpha", "exact.solve_minimax_lp",
                 "exact.solve_linear", "exact.rank"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("lp.margin", "lp.lex", "lp.minimax", "norming.enumerate_cells",
                 "solver.lex_extreme_alpha", "solver.existence_threshold",
                 "solver.solve_general", "oracle.brute_force_existence",
                 "oracle.verify_best_coapprox"):
        out[f"{name}.time_s"] = (total[name], "s")
    for name in ("norming.minimal_norming_set", "subspace.build_profile",
                 "classify.classify", "exact.solve_linear",
                 "oracle.brute_force_existence"):
        out[f"{name}.self_s"] = (self_s[name], "s")
    return out
