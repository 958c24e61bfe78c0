"""Nonlinear time march for the collocation equations.

Summation by parts turns collocation row n into the increment form

    U_n - u0 + sum_{j<=n} B[n][j] (U_j - U_{j-1}) = sum_j (wL, wR) . f,

with B[n][j] the cell-j average of K(t_n, .) minus 1 (see assembly). Every
term but the node's own increment and f(U_n) is known once the earlier nodes
are, so the march is a sequence of scalar Newton solves for the increment
U_n - U_{n-1}. Each starts from the increment the solved cells predict:
tau_n times the quadratic through the slopes (U_j - U_{j-1}) / tau_j of
the last three cells at their midpoints, taken at cell n's midpoint (a
line after two cells, a constant after one, zero at node 1). The slopes
vary smoothly from cell to cell (on a graded mesh because of the grading),
so on fine meshes the first Newton step from there is already within the
tolerance and a node takes one iteration, not two or three from zero. A
node whose start fails (a non-finite residual or Jacobian, a vanishing
Jacobian, or NEWTON_MAX_ITER iterations) is solved again from zero, and
only that attempt's failure is raised. The initial-data term and the u0
history coefficient cancel out of this form, and f = 0 gives zero
increments, whose extrapolation is zero, so u = u0 is kept exactly.

The march reads row n only while it solves node n, so it consumes the rows
as `assembly.coefficient_rows` streams them, one block of rows lo..hi at a
time, and never holds an (N+1)^2 table: memory is O(N) for every solve. The
inputs alone pick the rows (`assembly.translation_invariant`). Each row
holds its near cells far+1..n and one number for the far cells 1..far,
whose f values and increments were solved before its row group began: the
stream reads them from read-only views of the march's arrays, whose
unsolved entries are NaN, so a read past the solved prefix cannot pass
unnoticed. The far cells are read as tree panels that widen with distance
(`assembly._Panels`), so a row costs O(1) near cells plus O(log N) panels,
and a solve O(N log N).

Per block, the near cells far+1..lo-1 are solved before the block starts:
their sums for all its rows are three matrix-vector products (wL f, wR f
and B times the increments). Node n then adds the cells lo..n-1 of its
own block as one dot over the interleaved (f_j, U_j - U_{j-1}) solved so
far in the block, whose unsolved entries are NaN too, and solves for its
increment with scalar Newton on Python floats.

A solve reads the problem and the mesh and nothing else. The per-cell
Gauss rule is `gauss_nodes()`, 7 nodes, and the diagonal cell takes the
fixed 20-node rule graded into its v ln v corner (`assembly.DIAG_NODES`):
12 or 20 nodes per cell with a 40-node diagonal rule move the tested
solutions by at most 5.1e-15; 4 nodes per cell are off by up to 1.8e-12,
and with 6 a change of row blocks alone moves an affine N = 4000 solve by
1.3e-15. Newton's step tolerance NEWTON_TOL and iteration cap
NEWTON_MAX_ITER are module constants.

The reference residual `vie_residual` takes the same form on a fine rule,
so it reads neither K_s, alpha' nor the initial-data term.
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
from .assembly import coefficient_rows, gauss_nodes
from .kernel import kernel_K
from .mesh import Mesh
from .order import VariableOrder


# Newton's step tolerance, relative to the nodal value, and its iteration cap
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50
# vie_residual's panels on the last cell, where K has a v ln v corner at
# s = t: DIAG_PANELS of them, their edges closing in on t geometrically by
# DIAG_RATIO. They are not the solve's diagonal rule, so the residual checks
# the solve's quadrature rather than repeating it.
DIAG_PANELS = 6
DIAG_RATIO = 0.15


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
    """Right-hand side f(u, t) with its u-derivative, a finite u0, and the order on [0, T]."""

    f: Callable
    df_du: Callable
    u0: float
    T: float
    order: VariableOrder

    def __post_init__(self):
        if not math.isfinite(self.u0):
            raise ValueError(f"u0 must be finite, got {self.u0}")
        if self.T != self.order.T:
            raise ValueError(f"horizon mismatch: problem T = {self.T}, order T = {self.order.T}")


@dataclass
class Solution:
    """Nodal values with piecewise-linear evaluation between nodes."""

    mesh: Mesh
    values: np.ndarray
    newton_stats: np.ndarray  # iteration count per node, index 0 unused

    def __call__(self, t):
        return np.interp(t, self.mesh.nodes, self.values)

    def to_csv(self, path) -> None:
        # one %-format of Python floats: faster and smaller than a join of
        # per-row strings, and no numpy scalar is formatted
        pairs = tuple(np.column_stack((self.mesh.nodes, self.values)).ravel().tolist())
        with open(path, "w", newline="") as fh:
            fh.write(("t,U\n" + "%.17g,%.17g\n" * len(self.values)) % pairs)

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


def _newton_increment(problem: Problem, u_prev, tn, diag: float, wrnn: float,
                      known: float, n: int, d: float = 0.0):
    """Root d of diag * d - wrnn * f(u_prev + d, t_n) = known, from the given
    start d (zero by default).

    Returns (d, newton_iterations). The step test is NEWTON_TOL relative to
    the nodal value u_prev + d, and at most NEWTON_MAX_ITER iterates are
    tried; both are read at each call. A NewtonError carries |g| at each
    iterate. f and df_du are called at u_prev + d and tn as given (the
    march passes numpy floats, so an overflow in f is an inf, not an
    exception); the iteration itself runs on Python floats.
    """
    f, df, u_start = problem.f, problem.df_du, float(u_prev)
    tol, cap = NEWTON_TOL, NEWTON_MAX_ITER
    residuals = []
    for it in range(1, cap + 1):
        u = u_prev + d
        gd = diag * d - wrnn * float(f(u, tn)) - known
        gp = diag - wrnn * float(df(u, tn))
        residuals.append(abs(gd))
        if not math.isfinite(gd) or not math.isfinite(gp):
            raise NewtonDivergedError(n, residuals[-1] if math.isfinite(gd) else math.inf,
                                      residuals=residuals)
        if abs(gp) < 1e-14:
            raise SingularJacobianError(n, abs(gd), residuals)
        d_new = d - gd / gp
        if abs(d_new - d) <= tol * (1.0 + abs(u_start + d_new)):
            return d_new, it
        d = d_new
    raise NewtonDivergedError(n, abs(gd), f"no convergence in {cap} iterations at node {n}",
                              residuals)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


def solve(problem: Problem, mesh: Mesh) -> Solution:
    """March the collocation scheme over the whole mesh.

    U(t_0) = u0 by definition; each later node is a scalar Newton solve for
    its increment, started from the one the last three cells extrapolate to
    (see the module docstring). The coefficient rows are streamed in blocks
    (`coefficient_rows`), so memory is O(N) on every input, and each row
    adds its far cells as one known sum. The mesh must have the problem's
    horizon T. The quadrature rule and Newton's tolerance and cap are fixed
    (see the module docstring). A NewtonError carries the values solved so
    far.
    """
    if mesh.T != problem.T:
        raise ValueError(f"horizon mismatch: mesh T = {mesh.T}, problem T = {problem.T}")

    N, u0, nodes = mesh.N, float(problem.u0), mesh.nodes
    values = np.full(N + 1, np.nan)
    fvals = np.full(N + 1, np.nan)
    incs = np.full(N + 1, np.nan)
    stats = np.zeros(N + 1, dtype=int)
    values[0] = u0
    fvals[0] = problem.f(problem.u0, 0.0)
    rows = coefficient_rows(problem.order, mesh, None, _read_only(fvals), _read_only(incs))
    # Newton's start at each node: tau_n p(m_n), p the quadratic through the
    # slopes of the last three solved cells at their midpoints, in Newton
    # form y2 + (x - x2) (dd1 + (x - x1) dd2); zero at node 1
    x1 = x2 = y2 = dd1 = dd2 = 0.0
    for lo, hi, far, wl, wr, b, far_known in rows:
        # the far sums read fvals[:far + 1] and incs[1:far + 1], solved by now
        assert far < lo, f"rows from {lo} read unsolved nodes up to {far}"
        # column c is cell far + 1 + c; cells far+1..lo-1 are solved, and so
        # is f_{lo-1}, which wL of cell lo weighs: their sums for all rows
        c = lo - far - 1
        known = (far_known + wl[:, : c + 1] @ fvals[far:lo] + wr[:, :c] @ fvals[far + 1 : lo]
                 - b[:, :c] @ incs[far + 1 : lo]).tolist()
        # row k, node n = lo + k: coefficients of (f_j, U_j - U_{j-1}) for
        # j = lo..hi-1, interleaved, of which it reads the first 2k
        m = hi - lo + 1
        coef = np.empty((m, 2 * m - 2))
        np.add(wl[:, c + 1 :], wr[:, c:-1], out=coef[:, 0::2])
        np.negative(b[:, c:-1], out=coef[:, 1::2])
        solved = np.full(2 * m, np.nan)
        diag, wrnn = (1.0 + b.diagonal(c)).tolist(), wr.diagonal(c).tolist()
        edges = nodes[lo - 1 : hi + 1].tolist()
        u = values[lo - 1]
        for k in range(m):
            n = lo + k
            tn = nodes[n]
            rhs = known[k] + float(coef[k, : 2 * k].dot(solved[: 2 * k])) - (float(u) - u0)
            tau, mid = edges[k + 1] - edges[k], 0.5 * (edges[k] + edges[k + 1])
            start = tau * (y2 + (mid - x2) * (dd1 + (mid - x1) * dd2))
            try:
                try:
                    d, stats[n] = _newton_increment(problem, u, tn, diag[k], wrnn[k], rhs, n, start)
                except NewtonError as miss:
                    if not start:
                        raise
                    # again from zero, as without a start: a failure there is the node's
                    d, it = _newton_increment(problem, u, tn, diag[k], wrnn[k], rhs, n)
                    stats[n] = len(miss.residuals) + it
            except NewtonError as exc:
                exc.partial = Solution(mesh=mesh, values=values, newton_stats=stats)
                raise exc from None
            values[n] = u = u + d
            solved[2 * k] = problem.f(u, tn)
            solved[2 * k + 1] = d
            # divided differences of the last three cells' slopes d / tau at
            # their midpoints, fewer while fewer cells are solved
            y = d / tau
            if n > 1:
                slope = (y - y2) / (mid - x2)
                if n > 2:
                    dd2 = (slope - dd1) / (mid - x1)
                dd1 = slope
            x1, x2, y2 = x2, mid, y
        fvals[lo : hi + 1], incs[lo : hi + 1] = solved[0::2], solved[1::2]
        # freed before the stream builds the next block, at the peak
        del coef, wl, wr, b, far_known
    return Solution(mesh=mesh, values=values, newton_stats=stats)


def vie_residual(problem: Problem, solution: Solution, t: float) -> float:
    """Residual of the integral equation at t for the piecewise-linear solution.

    Summed by parts as in the march (u_h(0) = u0, K(t, t) = 1), the paper's
    |u_h(t) - RHS(t)| is, without K_s, alpha' or the initial-data term,

        |sum_j (dU_j / tau_j) int_{cell j, s < t} K(t, s) ds
         - int_0^t (t - s)^(alpha(t) - 1) f(u_h(s), s) ds / Gamma(alpha(t))|.

    One pass of a 60-node Gauss rule over all cells, with geometric panels
    toward s = t on the last one (K has a v ln v corner there), where
    v = (t - s)^alpha(t) removes the f weight exactly. At a node, for an f
    that does not read u, it is the scheme's own quadrature error.
    Diagnostic only.
    """
    if not (0 < t <= solution.mesh.T):
        raise ValueError("residual point must lie in (0, T]")
    mesh, order, rule = solution.mesh, problem.order, gauss_nodes(60)
    x, w = rule.nodes, rule.weights
    # cells 1..m meet [0, t): cells below m whole, cell m as panels up to t
    m = int(np.searchsorted(mesh.nodes, t))
    a = mesh.nodes[m - 1]
    inner = t - (t - a) * DIAG_RATIO ** np.arange(1, DIAG_PANELS, dtype=float)
    edges = np.concatenate(([a], inner, [t]))
    lo = np.concatenate((mesh.nodes[: m - 1], edges[:-1]))
    width = np.concatenate((mesh.steps[: m - 1], np.diff(edges)))
    s = lo[:, None] + width[:, None] * x
    # int_{cell j, s < t} K(t, s) ds, the panels of cell m summed
    kint = (kernel_K(order, t, s) @ w) * width
    kint = np.append(kint[: m - 1], kint[m - 1 :].sum())
    hist = kint @ (np.diff(solution.values[: m + 1]) / mesh.steps[:m])

    alt = float(order.alpha(t))
    vmax = (t - mesh.nodes[m - 1]) ** alt
    sf = np.concatenate((s[: m - 1].ravel(), t - (vmax * x) ** (1.0 / alt)))
    wf = np.concatenate((((t - s[: m - 1]) ** (alt - 1.0) * width[: m - 1, None] * w).ravel(),
                         vmax * w / alt))
    return abs(hist - np.sum(wf * problem.f(solution(sf), sf)) / special.gamma(alt))
