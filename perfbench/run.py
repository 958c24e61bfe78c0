"""vofie benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; vofie is imported from its src/. Each
measured run is a fresh worker process (bench.py) with the BLAS thread
counts pinned to 1. With --trace 0 the result holds the end-to-end
metrics, with --trace 1 the per-layer ones. The line before it records
the environment. Exits non-zero, printing no result, when the checkout
holds no vofie sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# set-up is measured this many times (fresh processes) and reported as the median
SETUPS = 3
TIME_LIMIT_S = 170.0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def worker(args, extra, deadline):
    """Run bench.py in a fresh process; return its JSON result."""
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: perturb the expected outputs so every op fails")
    args = parser.parse_args()

    if not (ROOT / "src" / "vofie" / "__init__.py").is_file():
        print(f"no vofie sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    extra = ["--corrupt"] if args.corrupt else []
    try:
        runs = [worker(args, extra, deadline)]
        if not args.trace:
            runs += [worker(args, extra + ["--setup-only"], deadline)
                     for _ in range(SETUPS - 1)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    main_run = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics = dict(main_run["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(r["setup_s"] for r in runs),
                              "unit": "s"}
        # the success share, as a metric that is never 0
        metrics["ok_ratio"] = {"value": (attempted - failed) / attempted, "unit": "ratio"}
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), **main_run["versions"],
        "blas_threads": {var: "1" for var in BLAS_THREAD_VARS},
        "setup_s_samples": [r["setup_s"] for r in runs],
        "fail_ratio": failed / attempted, **main_run["info"],
    }
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
