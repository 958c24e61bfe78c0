"""Where a solve's time and memory go, layer by layer, written to
BENCH_<label>.json.

    python3 bench/layers.py --label after [--src SRC] [--before SRC] [--out DIR] [--quick]

Each case is f = 0.5 sin^4(u), u0 = 1, T = 1, solved in a fresh worker
process (so ru_maxrss is the case's own) with one BLAS thread: graded sine
(0.6, 0.4) at r = 1/0.6 and affine (0.9, 0.4) on a uniform mesh, the gap
rows. --quick runs two small cases once each, as a smoke test of the
harness. --src names the source tree to import vofie from (default: this
checkout's src/); --out is the directory of the file (default: bench/),
made first if it is missing.

--before SRC measures a second source tree in the same run, case by case:
its workers and those of --src alternate (before, after, after, before,
twice over), so host drift between them reads as spread, not as a layer
change. It writes BENCH_before.json beside BENCH_<label>.json, each side
taken over its own four workers, and prints every count (below) that
differs between the two sides: host noise moves the times of one tree by
about 10 % per layer, but it cannot move a count.

The harness wraps vofie's layer functions at run time, so nothing under
src/ knows of it:

* stream: time spent inside the coefficient_rows generator, and march: the
  rest of solve, which is the Newton march;
* cell_averages, moments: assembly._cell_averages and assembly._moments;
* kernel: assembly._kernel_minus_one, the K - 1 arithmetic, summed over
  the layers that call it (cell averages, panels_check, far_sums);
* panels_make, panels_check, far_sums: the _Panels methods of the same
  names (panels_make includes panels_check).

The same wrappers count a solve's work (COUNTS): kernel points (the size
of each _kernel_minus_one result), moment points (of each _moments and
_far_weight result, as the tests' count_points counts them), the blocks
the stream yields, and the panels _Panels._check checks and fails.

Per case it records the median of each layer over the timed solves of
its workers (one untimed solve first in each), and each worker's own
median; the counts per solve, which every solve of one tree must repeat;
the minor page faults per timed solve (the mean over workers), the
largest worker ru_maxrss after them and the largest tracemalloc peak of
one more solve; and once per file the host line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# (order, N, timed solves)
CASES = [("sine", 96, 51), ("sine", 1440, 9), ("sine", 5760, 5),
         ("affine", 4000, 9), ("affine", 20000, 3)]
QUICK_CASES = [("sine", 96, 1), ("affine", 1000, 1)]
LAYERS = ("stream", "march", "cell_averages", "moments", "kernel", "panels_make", "panels_check",
          "far_sums")
COUNTS = ("kernel_points", "moment_points", "blocks", "panels_checked", "panels_failed")


def host() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def instrument(spent: dict, counts: dict):
    """Wrap the layer functions; spent[layer] accumulates seconds and
    counts[name] the COUNTS."""
    from vofie import assembly, solver

    def wrap(owner, name, layer=None, tally=None):
        """owner.name, its time added to spent[layer] and tally(result)'s
        counts to counts."""
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            if layer:
                spent[layer] += time.perf_counter() - t0
            if tally:
                for key, n in tally(out).items():
                    counts[key] += int(n)
            return out
        setattr(owner, name, wrapper)

    wrap(assembly, "_cell_averages", "cell_averages")
    wrap(assembly, "_moments", "moments", lambda out: {"moment_points": out[0].size})
    wrap(assembly, "_far_weight", tally=lambda out: {"moment_points": out.size})
    wrap(assembly, "_kernel_minus_one", "kernel", lambda out: {"kernel_points": out.size})
    wrap(assembly._Panels, "_make", "panels_make")
    wrap(assembly._Panels, "_check", "panels_check",
         lambda passed: {"panels_checked": passed.size, "panels_failed": passed.size - passed.sum()})
    wrap(assembly._Panels, "far_sums", "far_sums")
    stream = solver.coefficient_rows

    def rows(*args):
        it = stream(*args)
        while True:
            t0 = time.perf_counter()
            block = next(it, None)
            spent["stream"] += time.perf_counter() - t0
            if block is None:
                return
            counts["blocks"] += 1
            yield block
            # dropped before the next block is built, as the march drops it
            del block
    solver.coefficient_rows = rows


def worker(kind: str, N: int, repeats: int) -> dict:
    import numpy as np
    from vofie import Problem, make_linear_order, make_mesh, make_sine_order, solve

    order = make_sine_order(0.6, 0.4) if kind == "sine" else make_linear_order(0.9, 0.4)
    problem = Problem(f=lambda u, t: 0.5 * np.sin(u) ** 4,
                      df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
                      u0=1.0, T=1.0, order=order)
    mesh = make_mesh(1.0, N, 1.0 / 0.6 if kind == "sine" else 1.0)
    spent, counts = defaultdict(float), defaultdict(int)
    instrument(spent, counts)
    solve(problem, mesh)
    samples, per_solve = defaultdict(list), []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        spent.clear()
        counts.clear()
        t0 = time.perf_counter()
        solve(problem, mesh)
        spent["solve"] = time.perf_counter() - t0
        spent["march"] = spent["solve"] - spent["stream"]
        for layer in ("solve", *LAYERS):
            samples[layer].append(spent[layer])
        per_solve.append({name: counts[name] for name in COUNTS})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # the peak before tracemalloc, whose own bookkeeping would add to it
    faults, maxrss = usage.ru_minflt - faults, usage.ru_maxrss / 1024
    assert all(c == per_solve[0] for c in per_solve), f"the solves of one worker disagree on counts: {per_solve}"
    tracemalloc.start()
    solve(problem, mesh)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"samples_s": samples, "counts_per_solve": per_solve[0],
            "minor_faults_per_solve": faults / repeats,
            "tracemalloc_peak_mb": peak / 2**20,
            "ru_maxrss_mb": maxrss}


def measure(src: str, kind: str, N: int, repeats: int) -> dict:
    """One worker process's results for a case, with vofie from src."""
    proc = subprocess.run([sys.executable, __file__, "--worker", kind, str(N), str(repeats)],
                          stdout=subprocess.PIPE, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
    return json.loads(proc.stdout)


def case_record(kind: str, N: int, repeats: int, runs: list[dict]) -> dict:
    """A case's record from the workers of one source tree."""
    counts = runs[0]["counts_per_solve"]
    assert all(run["counts_per_solve"] == counts for run in runs), \
        f"the workers of one tree disagree on counts per solve: {[run['counts_per_solve'] for run in runs]}"
    layers = runs[0]["samples_s"]
    return {"order": kind, "N": N, "repeats": repeats, "workers": len(runs),
            "median_s": {layer: statistics.median(s for run in runs for s in run["samples_s"][layer])
                         for layer in layers},
            "worker_median_s": {layer: [statistics.median(run["samples_s"][layer]) for run in runs]
                                for layer in layers},
            "counts_per_solve": counts,
            "minor_faults_per_solve": statistics.mean(run["minor_faults_per_solve"] for run in runs),
            "tracemalloc_peak_mb": max(run["tracemalloc_peak_mb"] for run in runs),
            "ru_maxrss_mb": max(run["ru_maxrss_mb"] for run in runs)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="layers", help="writes BENCH_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import vofie from")
    parser.add_argument("--before", metavar="SRC",
                        help="a second source tree, alternated with --src and written to BENCH_before.json")
    parser.add_argument("--out", default=str(Path(__file__).parent), help="directory of the JSON files")
    parser.add_argument("--quick", action="store_true", help="two small cases, one solve each")
    parser.add_argument("--worker", nargs=3, metavar=("ORDER", "N", "REPEATS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        kind, N, repeats = args.worker
        print(json.dumps(worker(kind, int(N), int(repeats))))
        return
    if args.before is not None and args.label == "before":
        parser.error("--before writes BENCH_before.json, so --label must be another name")
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    # made before any case runs, so a missing directory cannot fail a finished run
    Path(args.out).mkdir(parents=True, exist_ok=True)
    srcs = {args.label: args.src} if args.before is None else {"before": args.before, args.label: args.src}
    # each tree's workers, in the order they run
    turns = [args.label] if args.before is None else ["before", args.label, args.label, "before"] * 2
    cases = {label: [] for label in srcs}
    for kind, N, repeats in QUICK_CASES if args.quick else CASES:
        runs = {label: [] for label in srcs}
        for label in turns:
            runs[label].append(measure(srcs[label], kind, N, repeats))
        for label in srcs:
            case = case_record(kind, N, repeats, runs[label])
            cases[label].append(case)
            layers = case["median_s"]
            print(f"{label:8} {kind:6} N={N:<6} solve {1e3 * layers['solve']:9.3f} ms  stream "
                  f"{1e3 * layers['stream']:9.3f} ms  march {1e3 * layers['march']:8.3f} ms  "
                  f"blocks {case['counts_per_solve']['blocks']:5}  maxrss {case['ru_maxrss_mb']:.1f} MB")
        if args.before is not None:
            before, after = (cases[label][-1]["counts_per_solve"] for label in srcs)
            for name in COUNTS:
                if before[name] != after[name]:
                    print(f"count differs: {kind} N={N} {name} before {before[name]} {args.label} {after[name]}")
    for label in srcs:
        path = Path(args.out) / f"BENCH_{label}.json"
        path.write_text(json.dumps({"label": label, "host": host(), "cases": cases[label]}, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
