"""Where a solve's time and memory go, layer by layer, written to
BENCH_<label>.json.

    python3 bench/layers.py --label after [--src SRC] [--out DIR] [--quick]

Each case is f = 0.5 sin^4(u), u0 = 1, T = 1, solved in a fresh worker
process (so ru_maxrss is the case's own) with one BLAS thread: graded sine
(0.6, 0.4) at r = 1/0.6 and affine (0.9, 0.4) on a uniform mesh, the gap
rows. --quick runs two small cases once each, as a smoke test of the
harness. --src names the source tree to import vofie from (default: this
checkout's src/), so one harness measures two checkouts; --out is the
directory of the file (default: bench/).

The harness wraps vofie's layer functions at run time, so nothing under
src/ knows of it:

* stream: time spent inside the coefficient_rows generator, and march: the
  rest of solve, which is the Newton march;
* cell_averages, moments: assembly._cell_averages and assembly._moments;
* kernel: assembly._kernel_minus_one, the K - 1 arithmetic, summed over
  the layers that call it (cell averages, panels_check, far_sums);
* panels_make, panels_check, far_sums: the _Panels methods of the same
  names (panels_make includes panels_check).

Per case it records the median of each layer over the timed solves (one
untimed solve first), the blocks the stream yields per solve, the minor
page faults per timed solve, the worker's ru_maxrss after them, the
tracemalloc peak of one more solve, and once per file the host line.
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


def instrument(spent: dict, blocks: list):
    """Wrap the layer functions; spent[layer] accumulates seconds and
    blocks[0] counts the blocks the stream yields."""
    from vofie import assembly, solver

    def timed(owner, name, layer):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0
        setattr(owner, name, wrapper)

    timed(assembly, "_cell_averages", "cell_averages")
    timed(assembly, "_moments", "moments")
    timed(assembly, "_kernel_minus_one", "kernel")
    timed(assembly._Panels, "_make", "panels_make")
    timed(assembly._Panels, "_check", "panels_check")
    timed(assembly._Panels, "far_sums", "far_sums")
    stream = solver.coefficient_rows

    def rows(*args):
        it = stream(*args)
        while True:
            t0 = time.perf_counter()
            block = next(it, None)
            spent["stream"] += time.perf_counter() - t0
            if block is None:
                return
            blocks[0] += 1
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
    spent, blocks = defaultdict(float), [0]
    instrument(spent, blocks)
    solve(problem, mesh)
    samples = defaultdict(list)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        spent.clear()
        blocks[0] = 0
        t0 = time.perf_counter()
        solve(problem, mesh)
        spent["solve"] = time.perf_counter() - t0
        spent["march"] = spent["solve"] - spent["stream"]
        for layer in ("solve", *LAYERS):
            samples[layer].append(spent[layer])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # the peak before tracemalloc, whose own bookkeeping would add to it
    faults, maxrss, per_solve = usage.ru_minflt - faults, usage.ru_maxrss / 1024, blocks[0]
    tracemalloc.start()
    solve(problem, mesh)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"order": kind, "N": N, "repeats": repeats,
            "median_s": {layer: statistics.median(s) for layer, s in samples.items()},
            "blocks_per_solve": per_solve,
            "minor_faults_per_solve": faults / repeats,
            "tracemalloc_peak_mb": peak / 2**20,
            "ru_maxrss_mb": maxrss}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="layers", help="writes BENCH_<label>.json")
    parser.add_argument("--src", default=str(ROOT / "src"), help="source tree to import vofie from")
    parser.add_argument("--out", default=str(Path(__file__).parent), help="directory of the JSON file")
    parser.add_argument("--quick", action="store_true", help="two small cases, one solve each")
    parser.add_argument("--worker", nargs=3, metavar=("ORDER", "N", "REPEATS"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        kind, N, repeats = args.worker
        print(json.dumps(worker(kind, int(N), int(repeats))))
        return
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS}, PYTHONPATH=os.path.abspath(args.src))
    cases = []
    for kind, N, repeats in QUICK_CASES if args.quick else CASES:
        proc = subprocess.run([sys.executable, __file__, "--worker", kind, str(N), str(repeats)],
                              stdout=subprocess.PIPE, text=True, check=True)
        case = json.loads(proc.stdout)
        cases.append(case)
        layers = case["median_s"]
        print(f"{kind:6} N={N:<6} solve {1e3 * layers['solve']:9.3f} ms  stream "
              f"{1e3 * layers['stream']:9.3f} ms  march {1e3 * layers['march']:8.3f} ms  "
              f"blocks {case['blocks_per_solve']:5}  maxrss {case['ru_maxrss_mb']:.1f} MB")
    path = Path(args.out) / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({"label": args.label, "host": host(), "cases": cases}, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
