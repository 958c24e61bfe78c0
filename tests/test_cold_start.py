"""Import budget: what a fresh process loads to import vofie and solve.

A solve needs numpy and scipy.special only. Importing scipy.integrate
also loads the scipy subpackages below, which add about half again to
what a process pays to start; only the diagnostic inversion_identity_check
reads one of them, and loads it on its first call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from vofie import inversion_identity_check, make_sine_order

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED = ("scipy.integrate", "scipy.optimize", "scipy.sparse", "scipy.linalg", "scipy.fft",
          "scipy.spatial")

SCRIPT = """
import json, sys
import vofie, vofie.cli

unused = {unused!r}


def loaded():
    return sorted(m for m in sys.modules if any(m == p or m.startswith(p + ".") for p in unused))


code = vofie.cli.main(["solve", "--preset", "table2_col1", "--out", sys.argv[1]])
after_solve = loaded()
check = vofie.inversion_identity_check(vofie.make_sine_order(0.6, 0.4), 0.7, 0.2)
print(json.dumps({{"code": code, "after_solve": after_solve, "check": check,
                  "integrate": "scipy.integrate" in sys.modules}}))
"""


def test_import_and_cli_solve_load_no_unused_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT.format(unused=UNUSED), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["code"] == 0
    assert (tmp_path / "out" / "solution.csv").stat().st_size > 0
    assert result["after_solve"] == []
    # the diagnostic loads scipy.integrate on its first call, and works
    assert result["integrate"]
    assert result["check"] == inversion_identity_check(make_sine_order(0.6, 0.4), 0.7, 0.2)
    assert result["check"] < 1e-10
