"""Nonlinear time march for the collocation equations.

Each node t_n yields one scalar implicit equation in U(t_n); the history and
right-hand-side sums over earlier nodes are known, so the march is a sequence
of scalar Newton solves seeded with the previous nodal value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special

from .assembly import QuadratureRule, WeightTable, assemble, gauss_nodes, _diag_edges
from .kernel import initial_coefficient, kernel_Ks
from .mesh import Mesh
from .order import VariableOrder


class NewtonDivergedError(RuntimeError):
    """Newton failed at a node; carries the node index and last residual."""

    def __init__(self, node: int, residual: float, message: str = ""):
        self.node = node
        self.residual = residual
        super().__init__(
            message or f"Newton diverged at node {node} (last residual {residual:.3e})"
        )


class SingularJacobianError(RuntimeError):
    """The scalar Jacobian g'(x) vanished during a Newton solve."""


@dataclass(frozen=True)
class Problem:
    """Right-hand side f(u, t) with its u-derivative, data, and order."""

    f: Callable
    df_du: Callable
    u0: float
    T: float
    order: VariableOrder

    def check_derivative(self, n_samples: int = 25, tol: float = 1e-5) -> float:
        """Max discrepancy between df_du and central differences (advisory)."""
        rng = np.random.default_rng(0)
        us = rng.uniform(-2, 2, n_samples)
        ts = rng.uniform(0, self.T, n_samples)
        h = 1e-6
        worst = 0.0
        for u, t in zip(us, ts):
            fd = (self.f(u + h, t) - self.f(u - h, t)) / (2 * h)
            worst = max(worst, abs(fd - self.df_du(u, t)))
        return worst


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 50
    damping: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("Newton tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class Solution:
    """Nodal values with piecewise-linear evaluation between nodes."""

    mesh: Mesh
    values: np.ndarray
    newton_stats: np.ndarray  # iteration count per node, index 0 unused

    def __call__(self, t):
        return np.interp(t, self.mesh.nodes, self.values)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("t,U\n")
            for t, u in zip(self.mesh.nodes, self.values):
                fh.write(f"{t:.17g},{u:.17g}\n")

    def summary(self) -> dict:
        stats = self.newton_stats[1:]
        return {
            "N": self.mesh.N,
            "r": self.mesh.r,
            "T": self.mesh.T,
            "newton_iterations": {
                "max": int(stats.max()) if len(stats) else 0,
                "mean": float(stats.mean()) if len(stats) else 0.0,
                "total": int(stats.sum()),
            },
            "u_final": float(self.values[-1]),
            "u_max_abs": float(np.max(np.abs(self.values))),
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.summary(), fh, indent=2)
            fh.write("\n")


def solve_node(
    problem: Problem,
    weights: WeightTable,
    mesh: Mesh,
    values: np.ndarray,
    fvals: np.ndarray,
    n: int,
    init: float,
    cfg: NewtonConfig,
):
    """Solve the implicit collocation equation at node n.

    values[0..n-1] and fvals[0..n-1] (nodal f evaluations) must be fixed;
    init is the initial-data term initial_coefficient(order, t_n, u0).
    Returns (U(t_n), newton_iterations).
    """
    tn = mesh.nodes[n]
    row = weights.history_row(n)
    hist = float(row[1:n] @ values[1:n]) + weights.h0[n] * problem.u0
    hnn = row[n]

    # known part of the product-integrated f term: coefficient of f_j is
    # wR[n, j] (+ wL[n, j+1] for j < n); the j = n piece stays implicit
    wl = weights.wL[n, 1 : n + 1]
    wr = weights.wR[n, 1 : n + 1]
    known_f = float(wl @ fvals[:n]) + float(wr[: n - 1] @ fvals[1:n])
    wrnn = wr[n - 1]

    const = hist + known_f + init

    x = values[n - 1] if n > 1 else problem.u0
    iters = 0
    for _ in range(cfg.max_iter):
        iters += 1
        g = x - hnn * x - wrnn * problem.f(x, tn) - const
        gp = 1.0 - hnn - wrnn * problem.df_du(x, tn)
        if not np.isfinite(g) or not np.isfinite(gp):
            raise NewtonDivergedError(n, float(g) if np.isfinite(g) else np.inf)
        if abs(gp) < 1e-14:
            raise SingularJacobianError(f"|g'(x)| < 1e-14 at node {n}")
        step = g / gp
        if cfg.damping:
            lam = 1.0
            while lam > 2**-20:
                xn = x - lam * step
                gn = xn - hnn * xn - wrnn * problem.f(xn, tn) - const
                if abs(gn) <= abs(g):
                    break
                lam *= 0.5
            x_new = x - lam * step
        else:
            x_new = x - step
        if abs(x_new - x) <= cfg.tol * (1.0 + abs(x_new)):
            return float(x_new), iters
        x = x_new
    raise NewtonDivergedError(n, abs(g), f"no convergence in {cfg.max_iter} iterations at node {n}")


def solve(
    problem: Problem,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    cfg: NewtonConfig | None = None,
    weights: WeightTable | None = None,
    fast_path: bool = False,
    f_term: str = "moments",
) -> Solution:
    """March the collocation scheme over the whole mesh.

    U(t_0) = u0 by definition; each later node is a scalar Newton solve.
    A prebuilt WeightTable can be passed to amortize assembly across solves.
    The mesh, the problem and its order must share one horizon T.
    """
    if not (mesh.T == problem.T == problem.order.T):
        raise ValueError(
            f"horizon mismatch: mesh T = {mesh.T}, problem T = {problem.T}, "
            f"order T = {problem.order.T}"
        )
    if rule is None:
        rule = gauss_nodes()
    if cfg is None:
        cfg = NewtonConfig()
    if weights is None:
        weights = assemble(problem.order, mesh, rule, fast_path=fast_path, f_term=f_term)

    N = mesh.N
    values = np.empty(N + 1)
    fvals = np.empty(N + 1)
    stats = np.zeros(N + 1, dtype=int)
    init = initial_coefficient(problem.order, mesh.nodes, problem.u0)
    values[0] = problem.u0
    fvals[0] = problem.f(problem.u0, 0.0)
    for n in range(1, N + 1):
        values[n], stats[n] = solve_node(
            problem, weights, mesh, values, fvals, n, init[n], cfg
        )
        fvals[n] = problem.f(values[n], mesh.nodes[n])
    return Solution(mesh=mesh, values=values, newton_stats=stats)


def vie_residual(
    problem: Problem,
    solution: Solution,
    t: float,
    fine_rule: QuadratureRule | None = None,
) -> float:
    """Residual of the integral equation at t for the piecewise-linear solution.

    Integrates K_s(t, .) U(.) and the weakly singular f term with cell-split
    high-resolution quadrature (geometric panels at the K_s log singularity,
    an exactness substitution for the algebraic f weight). Diagnostic only.
    """
    if not (0 < t <= solution.mesh.T):
        raise ValueError("residual point must lie in (0, T]")
    if fine_rule is None:
        fine_rule = gauss_nodes(60)
    order = problem.order
    nodes = solution.mesh.nodes
    x, w = fine_rule.nodes, fine_rule.weights

    # split [0, t] at solution nodes so the interpolant is smooth per panel
    cuts = np.concatenate((nodes[nodes < t], [t]))

    hist = 0.0
    for j in range(len(cuts) - 1):
        lo, hi = cuts[j], cuts[j + 1]
        if j == len(cuts) - 2:
            edges = _diag_edges(lo, hi)
        else:
            edges = np.array([lo, hi])
        for a_, b_ in zip(edges[:-1], edges[1:]):
            s = a_ + (b_ - a_) * x
            hist += (b_ - a_) * np.sum(w * kernel_Ks(order, t, s) * solution(s))

    alt = float(order.alpha(t))
    g = special.gamma(alt)
    fterm = 0.0
    for j in range(len(cuts) - 1):
        lo, hi = cuts[j], cuts[j + 1]
        if j == len(cuts) - 2:
            # v = (t - s)^alt removes the endpoint singularity exactly
            vmax = (t - lo) ** alt
            v = vmax * x
            s = t - v ** (1.0 / alt)
            fterm += vmax * np.sum(w * problem.f(solution(s), s)) / (alt * g)
        else:
            s = lo + (hi - lo) * x
            fterm += (hi - lo) * np.sum(
                w * problem.f(solution(s), s) * (t - s) ** (alt - 1.0)
            ) / g

    lhs = float(solution(t))
    rhs = hist + fterm + initial_coefficient(order, t, problem.u0)
    return abs(lhs - rhs)
