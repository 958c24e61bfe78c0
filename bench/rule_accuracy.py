"""How far the solve's quadrature rules leave its nodal values from a fine
reference, over random problems.

    PYTHONPATH=src python bench/rule_accuracy.py --seed 1

Each of PROBLEMS problems is f = 0.5 sin^4(u), u0 = 1, with an order drawn
in turn from one of three families, on a uniform mesh or one graded with
r = 1/alpha(0), with N log-uniform in 2..1000:

* sine: make_sine_order(a0, a1), a0 and a1 in [0.2, 1];
* affine: make_linear_order(start, end, T), T in {0.5, 1, 3};
* oscillating: a0 + A sin(c t), c in [5, 60], alpha inside [0.1, 1].

Every problem is solved twice: by `solve` as it is (7 nodes per cell and
the 20-node diagonal rule), and with 30 nodes per cell and a 40-node
diagonal rule. The script prints, per family, the median and the worst
largest nodal distance between the two, and the problem that gave the
worst. The same seed draws the same problems.
"""

from __future__ import annotations

import argparse
import contextlib
import math

import numpy as np

from vofie import assembly, solver
from vofie.mesh import make_mesh
from vofie.order import VariableOrder, make_linear_order, make_sine_order
from vofie.solver import Problem, solve

PROBLEMS = 90
REFERENCE_CELL_NODES = 30
REFERENCE_DIAG_NODES = 40


def draw_order(rng, family):
    """(order, description) of one random order of the family."""
    if family == "sine":
        a0, a1 = rng.uniform(0.2, 1.0, 2)
        return make_sine_order(a0, a1), f"sine({a0:.3f}, {a1:.3f})"
    if family == "affine":
        start, end = rng.uniform(0.2, 1.0, 2)
        T = float(rng.choice([0.5, 1.0, 3.0]))
        return make_linear_order(start, end, T), f"affine({start:.3f}, {end:.3f}, T={T:g})"
    a0 = rng.uniform(0.3, 0.8)
    amp = rng.uniform(0.0, min(a0 - 0.1, 1.0 - a0))
    c = rng.uniform(5.0, 60.0)
    order = VariableOrder(lambda t: a0 + amp * np.sin(c * np.asarray(t, dtype=float)),
                          lambda t: amp * c * np.cos(c * np.asarray(t, dtype=float)))
    return order, f"{a0:.3f} + {amp:.3f} sin({c:.1f} t)"


@contextlib.contextmanager
def reference_rules():
    """Solves inside read REFERENCE_CELL_NODES per cell and a
    REFERENCE_DIAG_NODES-node diagonal rule."""
    rows, diag = solver.coefficient_rows, (assembly.DIAG_NODES, assembly.DIAG_WEIGHTS)
    rule = assembly.gauss_nodes(REFERENCE_CELL_NODES)
    solver.coefficient_rows = lambda order, mesh, _, *arrays: rows(order, mesh, rule, *arrays)
    assembly.DIAG_NODES, assembly.DIAG_WEIGHTS = assembly._corner_rule(REFERENCE_DIAG_NODES)
    try:
        yield
    finally:
        solver.coefficient_rows = rows
        assembly.DIAG_NODES, assembly.DIAG_WEIGHTS = diag


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    families = ("sine", "affine", "oscillating")
    results = {family: [] for family in families}
    for k in range(PROBLEMS):
        family = families[k % len(families)]
        order, name = draw_order(rng, family)
        N = int(round(math.exp(rng.uniform(math.log(2), math.log(1000)))))
        r = 1.0 / float(order.alpha(0.0)) if rng.random() < 0.5 else 1.0
        problem = Problem(f=lambda u, t: 0.5 * np.sin(u) ** 4,
                          df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
                          u0=1.0, T=order.T, order=order)
        mesh = make_mesh(order.T, N, r)
        values = solve(problem, mesh).values
        with reference_rules():
            reference = solve(problem, mesh).values
        results[family].append((float(np.max(np.abs(values - reference))), f"{name}, N = {N}, r = {r:.3g}"))

    print(f"seed {args.seed}: largest nodal distance to {REFERENCE_CELL_NODES} nodes per cell "
          f"and a {REFERENCE_DIAG_NODES}-node diagonal rule")
    print(f"{'family':<12} {'problems':>8} {'median':>9} {'worst':>9}  worst problem")
    for family, found in results.items():
        distances = [d for d, _ in found]
        worst = max(found)
        print(f"{family:<12} {len(found):>8} {np.median(distances):9.2e} {worst[0]:9.2e}  {worst[1]}")


if __name__ == "__main__":
    main()
