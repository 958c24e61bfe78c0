"""Span recorder for the traced benchmark run.

The recorder wraps public vofie names where their callers look them up
(module globals and class attributes), so spans come from the benchmark's
own files and no program file changes. Hooks are installed only around
traced ops; untraced ops run on the untouched modules.

Each span is [name, start, end, parent, n] with perf_counter times, the
index of the enclosing span (-1 for an op's root) and, for solve spans,
the mesh size N. Spans stay in memory until `write`.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
import tracemalloc
from collections import Counter

import numpy as np

# Per-layer metric names fed by each hooked name. When a name no longer
# exists, its metrics are reported as absent rather than as zero.
HOOK_METRICS = {
    "vofie.solver:assemble": (
        "assembly.moments_s", "assembly.table_mb", "assembly.peak_alloc_mb"),
    "vofie.assembly:history_weights": (
        "assembly.history_s", "assembly.history_rows"),
    "vofie.assembly:kernel_Ks": (
        "kernel.Ks_points", "kernel.Ks_s", "kernel.Ks_calls"),
    "vofie.analysis:solve": (
        "analysis.ref_solve_s", "analysis.coarse_solves_s", "analysis.cost_exponent"),
    "vofie.cli:solve": (),
    "vofie.cli:build_run": ("cli.config_s",),
    "vofie.solver:Solution.to_csv": ("cli.write_s", "cli.bytes_written"),
    "vofie.solver:Solution.to_json": ("cli.write_s", "cli.bytes_written"),
}
SOLVER_METRICS = ("solver.march_s", "solver.newton_iters")
INSTRUMENT_METRICS = ("order.alpha_points", "solver.f_evals")

MB = 1024.0 * 1024.0


def _resolve(target):
    """(owner, attribute) for 'module:Attr.attr', or None if it is gone."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.table_mb = 0.0
        self.peak_alloc_mb = 0.0
        self.track_memory = False
        self.absent = set()
        self.missing = set()
        self._hooks = []
        for target, metrics in HOOK_METRICS.items():
            found = _resolve(target)
            if found is None:
                self.missing.add(target)
                self.absent.update(metrics)
                continue
            owner, attr = found
            original = getattr(owner, attr)
            self._hooks.append((owner, attr, original, self._hook(attr, original)))

    def require_solve_hook(self, target):
        """The workload's solves run through `target`; without it the
        solver metrics cannot be attributed."""
        if target in self.missing:
            self.absent.update(SOLVER_METRICS)

    # --- spans ---------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """fn recorded as a span `name`; after(span, args, kwargs, result)."""

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, 0]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return traced

    def _hook(self, attr, fn):
        if attr == "assemble":
            return self.wrap("assembly.assemble", self._with_memory(fn), self._after_assemble)
        if attr == "history_weights":
            return self.wrap("assembly.history_weights", fn)
        if attr == "kernel_Ks":
            return self.wrap("kernel.Ks", fn, self._after_kernel)
        if attr == "solve":
            return self.wrap("solver.solve", fn, self.after_solve)
        if attr == "build_run":
            return self.wrap("cli.build_run", self._instrumented_run(fn))
        return self.wrap("cli.write", fn, self._after_write)

    def install(self):
        for owner, attr, _, wrapped in self._hooks:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, original, _ in self._hooks:
            setattr(owner, attr, original)

    # --- counters at the hooked boundaries ------------------------------------

    def _with_memory(self, fn):
        def assemble(*args, **kwargs):
            if not self.track_memory:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peak_alloc_mb = max(self.peak_alloc_mb, peak)

        return assemble

    def _after_assemble(self, span, args, kwargs, table):
        arrays = [v for v in getattr(table, "__dict__", {}).values()
                  if isinstance(v, np.ndarray)]
        if not arrays:
            self.absent.add("assembly.table_mb")
        self.table_mb = max(self.table_mb, sum(a.nbytes for a in arrays) / MB)

    def _after_kernel(self, span, args, kwargs, result):
        s = args[2] if len(args) > 2 else kwargs.get("s")
        self.counts["kernel.Ks_points"] += int(np.size(s))

    def after_solve(self, span, args, kwargs, solution):
        try:
            span[4] = int(solution.mesh.N)
            self.counts["solver.newton_iters"] += int(np.sum(solution.newton_stats))
        except AttributeError:
            self.absent.update(SOLVER_METRICS)

    def _instrumented_run(self, fn):
        # the CLI builds its own order and right-hand side; count them too
        def build_run(*args, **kwargs):
            run = fn(*args, **kwargs)
            try:
                return (self.instrument(run[0]), *run[1:])
            except (TypeError, IndexError, KeyError):
                self.absent.update(INSTRUMENT_METRICS)
                return run

        return build_run

    def _after_write(self, span, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs.get("path")
        self.counts["cli.bytes_written"] += os.path.getsize(path)

    def instrument(self, problem):
        """Copy of `problem` whose f, df_du, alpha and dalpha are counted."""
        counts = self.counts

        def points(fn):
            def counted(t):
                counts["order.alpha_points"] += int(np.size(t))
                return fn(t)
            return counted

        def calls(fn):
            def counted(u, t):
                counts["solver.f_evals"] += 1
                return fn(u, t)
            return counted

        try:
            order = dataclasses.replace(
                problem.order, alpha=points(problem.order.alpha),
                dalpha=points(problem.order.dalpha))
            return dataclasses.replace(
                problem, f=calls(problem.f), df_du=calls(problem.df_du), order=order)
        except (AttributeError, TypeError):
            self.absent.update(INSTRUMENT_METRICS)
            return problem

    # --- per-op summary ----------------------------------------------------------

    def begin_op(self):
        self.counts.clear()
        self.table_mb = 0.0
        return len(self.spans)

    def op_metrics(self, first):
        """Per-layer figures of the op whose spans start at index `first`."""
        spans = self.spans[first:]
        child = Counter()
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent] += end - start
        incl, self_time, calls = Counter(), Counter(), Counter()
        solves = []  # (N, seconds) of the solves run_convergence makes
        for k, (name, start, end, parent, n) in enumerate(spans, start=first):
            incl[name] += end - start
            self_time[name] += end - start - child[k]
            calls[name] += 1
            if name == "solver.solve" and parent >= 0 and \
                    self.spans[parent][0] == "analysis.run_convergence":
                solves.append((n, end - start))
        m = {
            "order.alpha_points": self.counts["order.alpha_points"],
            "kernel.Ks_points": self.counts["kernel.Ks_points"],
            "kernel.Ks_calls": calls["kernel.Ks"],
            "kernel.Ks_s": incl["kernel.Ks"],
            "assembly.history_rows": calls["assembly.history_weights"],
            "assembly.history_s": incl["assembly.history_weights"],
            "assembly.moments_s": self_time["assembly.assemble"],
            "assembly.table_mb": self.table_mb,
            "solver.march_s": self_time["solver.solve"],
            "solver.newton_iters": self.counts["solver.newton_iters"],
            "solver.f_evals": self.counts["solver.f_evals"],
            "analysis.ref_solve_s": 0.0,
            "analysis.coarse_solves_s": 0.0,
            "analysis.cost_exponent": 0.0,
            "cli.config_s": incl["cli.build_run"],
            "cli.write_s": incl["cli.write"],
            "cli.bytes_written": self.counts["cli.bytes_written"],
        }
        if solves:
            ref_n = max(n for n, _ in solves)
            m["analysis.ref_solve_s"] = sum(s for n, s in solves if n == ref_n)
            m["analysis.coarse_solves_s"] = sum(s for n, s in solves if n != ref_n)
            if len({n for n, _ in solves}) > 1:
                x, y = np.log([n for n, _ in solves]), np.log([s for _, s in solves])
                m["analysis.cost_exponent"] = float(np.polyfit(x, y, 1)[0])
        return m

    def write(self, path):
        """Write every span as CSV; `op` is the index of the op's root span."""
        root = []
        with open(path, "w") as fh:
            fh.write("index,op,parent,name,start,end,N\n")
            for k, (name, start, end, parent, n) in enumerate(self.spans):
                root.append(k if parent < 0 else root[parent])
                fh.write(f"{k},{root[k]},{parent},{name},{start!r},{end!r},{n}\n")
