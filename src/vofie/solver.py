"""Nonlinear time march for the collocation equations.

Summation by parts turns collocation row n into the increment form

    U_n - u0 + sum_{j<=n} B[n][j] (U_j - U_{j-1}) = sum_j (wL, wR) . f,

with B[n][j] the cell-j average of K(t_n, .) minus 1 (see assembly). Every
term but the node's own increment and f(U_n) is known once the earlier nodes
are, so the march is a sequence of scalar Newton solves for the increment
U_n - U_{n-1}, started from zero. The initial-data term and the u0 history
coefficient cancel out of this form, and f = 0 gives zero increments, so
u = u0 is kept exactly.

The march reads row n only while it solves node n, so it consumes the rows
as `assembly.coefficient_rows` streams them, one block at a time, and never
holds an (N+1)^2 table: memory is O(N) for every solve. The inputs alone
pick the rows (`assembly.translation_invariant`). Each row holds its near
cells far+1..n and one number for the far cells 1..far, whose f values and
increments were solved before its row group began: the stream reads them
from read-only views of the march's arrays, whose unsolved entries are NaN,
so a read past the solved prefix cannot pass unnoticed. The far cells are
read as tree panels that widen with distance (`assembly._Panels`), so a row
costs O(1) near cells plus O(log N) panels, and a solve O(N log N).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

# assemble is not called here any more; the name stays importable from this
# module because perfbench's traced run hooks it.
from .assembly import assemble  # noqa: F401
from .assembly import QuadratureRule, coefficient_rows, gauss_nodes, _diag_edges
from .kernel import initial_coefficient, kernel_Ks
from .mesh import Mesh
from .order import VariableOrder


def _finite_or_none(x: float) -> float | None:
    return float(x) if math.isfinite(x) else None


class NewtonError(RuntimeError):
    """Newton failed at a node. Carries the node index, the last residual
    |g|, the residual history (|g| at each iterate of the failing node, in
    order) and, when raised by `solve`, the partial Solution: nodal values
    and Newton counts up to node - 1, NaN and 0 from the failing node on."""

    def __init__(self, node: int, residual: float, message: str, residuals=()):
        self.node = node
        self.residual = residual
        self.residuals = [float(r) for r in residuals]
        self.partial: Solution | None = None
        super().__init__(message)

    def summary(self) -> dict:
        """Failure record: the error class, the failing node, the last
        residual, the residual history (non-finite entries as None) and
        t_reached, the time of the last solved node (None without a partial
        Solution)."""
        t_reached = None
        if self.partial is not None:
            t_reached = float(self.partial.mesh.nodes[self.node - 1])
        return {
            "error": type(self).__name__,
            "failed_node": self.node,
            "last_residual": _finite_or_none(self.residual),
            "residuals": [_finite_or_none(r) for r in self.residuals],
            "t_reached": t_reached,
        }


class NewtonDivergedError(NewtonError):
    """Newton produced a non-finite value or ran out of iterations."""

    def __init__(self, node: int, residual: float, message: str = "", residuals=()):
        super().__init__(
            node, residual,
            message or f"Newton diverged at node {node} (last residual {residual:.3e})",
            residuals,
        )


class SingularJacobianError(NewtonError):
    """The scalar Jacobian g'(x) vanished during a Newton solve."""

    def __init__(self, node: int, residual: float, residuals=()):
        super().__init__(node, residual, f"|g'(x)| < 1e-14 at node {node}", residuals)


@dataclass(frozen=True)
class Problem:
    """Right-hand side f(u, t) with its u-derivative, data, and order."""

    f: Callable
    df_du: Callable
    u0: float
    T: float
    order: VariableOrder

    def check_derivative(self, n_samples: int = 25) -> float:
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


def _newton_increment(problem: Problem, u_prev: float, tn: float, diag: float,
                      wrnn: float, known: float, cfg: NewtonConfig, n: int):
    """Root d of diag * d - wrnn * f(u_prev + d, t_n) = known, from d = 0.

    Returns (d, newton_iterations). The step test is relative to the nodal
    value u_prev + d. A NewtonError carries |g| at each iterate.
    """

    def g(d):
        return diag * d - wrnn * problem.f(u_prev + d, tn) - known

    d = 0.0
    residuals = []
    for it in range(1, cfg.max_iter + 1):
        gd = g(d)
        gp = diag - wrnn * problem.df_du(u_prev + d, tn)
        residuals.append(abs(gd))
        if not math.isfinite(gd) or not math.isfinite(gp):
            raise NewtonDivergedError(n, residuals[-1] if math.isfinite(gd) else math.inf,
                                      residuals=residuals)
        if abs(gp) < 1e-14:
            raise SingularJacobianError(n, abs(gd), residuals)
        step = gd / gp
        lam = 1.0
        if cfg.damping:
            while lam > 2**-20 and abs(g(d - lam * step)) > abs(gd):
                lam *= 0.5
        d_new = d - lam * step
        if abs(d_new - d) <= cfg.tol * (1.0 + abs(u_prev + d_new)):
            return float(d_new), it
        d = d_new
    raise NewtonDivergedError(n, abs(gd), f"no convergence in {cfg.max_iter} iterations at node {n}",
                              residuals)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def solve(
    problem: Problem,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    cfg: NewtonConfig | None = None,
) -> Solution:
    """March the collocation scheme over the whole mesh.

    U(t_0) = u0 by definition; each later node is a scalar Newton solve for
    its increment. The coefficient rows are streamed in blocks
    (`coefficient_rows`), so memory is O(N) on every input, and each row
    adds its far cells as one known sum. The mesh, the problem and its
    order must share one horizon T. A NewtonError carries the values solved
    so far.
    """
    if not (mesh.T == problem.T == problem.order.T):
        raise ValueError(
            f"horizon mismatch: mesh T = {mesh.T}, problem T = {problem.T}, "
            f"order T = {problem.order.T}"
        )
    if cfg is None:
        cfg = NewtonConfig()

    N, u0 = mesh.N, problem.u0
    values = np.full(N + 1, np.nan)
    fvals = np.full(N + 1, np.nan)
    incs = np.full(N + 1, np.nan)
    stats = np.zeros(N + 1, dtype=int)
    values[0] = u0
    fvals[0] = problem.f(u0, 0.0)
    rows = coefficient_rows(problem.order, mesh, rule, _read_only(fvals), _read_only(incs))
    for n, far, wl, wr, b, far_known in rows:
        # the far sum read fvals[:far + 1] and incs[1:far + 1], solved by now
        assert far < n, f"row {n} reads unsolved nodes up to {far}"
        tn = mesh.nodes[n]
        # coefficient of f_j is wR[n, j] (+ wL[n, j+1] for j < n); f_n stays implicit
        known = (
            far_known + float(wl @ fvals[far:n]) + float(wr[:-1] @ fvals[far + 1 : n])
            - (values[n - 1] - u0) - float(b[:-1] @ incs[far + 1 : n])
        )
        try:
            incs[n], stats[n] = _newton_increment(
                problem, values[n - 1], tn, 1.0 + b[-1], wr[-1], known, cfg, n
            )
        except NewtonError as exc:
            exc.partial = Solution(mesh=mesh, values=values, newton_stats=stats)
            raise
        values[n] = values[n - 1] + incs[n]
        fvals[n] = problem.f(values[n], tn)
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
