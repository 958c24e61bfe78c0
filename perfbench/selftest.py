"""Self-test of the benchmark harness, from the checkout root:

    python3 perfbench/selftest.py

Checks that every workload prints exactly the metrics BENCHMARK.json
names, with their units, in both modes; that perturbed expected outputs
(--corrupt) fail every op; that a directory holding only the benchmark
exits non-zero without a result; and that a missing hook is reported as
absent. Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metric_names():
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = result(run(w["name"], trace))
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{w['name']} trace {trace}: {got} != {want}"
            if trace == 0:
                assert all(m["value"] > 0 for m in res["metrics"].values()), res
            print(f"ok   {w['name']} --trace {trace}: {len(got)} metrics")


def check_corruption_is_counted():
    for w in SPEC["workloads"]:
        res = result(run(w["name"], 0, "--corrupt"))
        assert not res["correct"] and res["failed"] == res["attempted"] > 0, res
        assert res["metrics"]["ok_ratio"]["value"] == 0.0, res
        print(f"ok   {w['name']} --corrupt: {res['failed']}/{res['attempted']} ops failed")


def check_bare_directory():
    bare = ROOT / ".perfbench_run" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print(f"ok   bare directory: exit code {proc.returncode}, no result")


def check_missing_hook():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import vofie.assembly
    from tracing import Tracer

    saved = vofie.assembly.history_weights
    del vofie.assembly.history_weights
    try:
        tracer = Tracer()
    finally:
        vofie.assembly.history_weights = saved
    assert {"assembly.history_s", "assembly.history_rows"} <= tracer.absent, tracer.absent
    print(f"ok   missing hook: absent {sorted(tracer.absent)}")


if __name__ == "__main__":
    check_missing_hook()
    check_bare_directory()
    check_metric_names()
    check_corruption_is_counted()
    print("selftest passed")
