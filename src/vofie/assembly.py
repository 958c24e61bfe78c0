"""Collocation coefficient assembly.

Two coefficient families are built per collocation row n:

* history weights h[n][i]: integrals of K_s(t_n, .) against the piecewise
  linear hat functions. Integrating by parts against the hats (their slopes
  are constant per cell) leaves differences of cell averages of the bounded
  kernel K(t_n, .), which a short Gauss-Legendre rule per cell resolves; the
  diagonal cell gets geometric sub-panels toward s = t_n, where K has a
  v ln v corner. The dense triangle is filled in blocks of rows, each a few
  vectorised kernel sweeps, and every row sum telescopes to 1 - K(t_n, 0);
* singular moments wL/wR: integrals of the two hat pieces on each cell
  against the weakly singular weight (t_n - s)^{alpha(t_n)-1}/Gamma(alpha(t_n)),
  in closed form (product integration), with a quadrature-based variant
  behind a flag for comparison.

For an affine order on a uniform mesh the history weights are translation
invariant, h[n][i] = h[n+1][i+1]; the fast path stores just two O(N)
generating sequences, taken from the last row's cell averages, instead of
the dense lower triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

# kernel_Ks is not called here any more; the name stays importable from this
# module because perfbench's traced run hooks it.
from .kernel import kernel_Ks  # noqa: F401
from .mesh import Mesh
from .order import VariableOrder

# Geometric subdivision of the diagonal cell toward s = t_n: K(t_n, .) has a
# v ln v corner there (v = t_n - s), which one open panel resolves only to
# ~1e-7.
DIAG_PANELS = 6
DIAG_RATIO = 0.15
# Kernel evaluations per block of history rows: large enough that numpy call
# overhead is amortised, small enough that the block's temporaries stay in
# cache and add nothing measurable to peak memory.
HISTORY_BLOCK_POINTS = 2**14


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to the open unit interval."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.nodes)


def gauss_nodes(count: int = 8) -> QuadratureRule:
    """Gauss-Legendre rule on (0, 1); exact for degree <= 2*count - 1.

    The default is the per-cell rule of the history assembly: the cell
    averages of the bounded kernel K it integrates need few nodes.
    """
    if count < 1:
        raise ValueError(f"need at least one quadrature node, got {count}")
    x, w = np.polynomial.legendre.leggauss(count)
    return QuadratureRule(nodes=(x + 1.0) / 2.0, weights=w / 2.0)


def _diag_edges(lo, hi) -> np.ndarray:
    """Panel edges from lo to hi accumulating geometrically toward hi.

    Scalars give DIAG_PANELS + 1 edges; arrays of cells give one such row
    per cell.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    inner = hi - (hi - lo) * DIAG_RATIO ** np.arange(1, DIAG_PANELS, dtype=float)
    return np.concatenate((lo, inner, hi), axis=-1)


def _moment_row(order: VariableOrder, mesh: Mesh, n: int):
    """Closed-form hat moments for all cells i = 1..n of row n.

    Substituting v = t_n - s with a = t_n - t_i, b = t_n - t_{i-1} and
    writing al = alpha(t_n):

        wL = [(b^{al+1} - a^{al+1})/(al+1) - a (b^al - a^al)/al] / (tau_i G),
        wR = [b (b^al - a^al)/al - (b^{al+1} - a^{al+1})/(al+1)] / (tau_i G),

    with G = Gamma(al). wL multiplies the nodal value at t_{i-1}, wR the
    one at t_i; both are nonnegative and sum to the cell's singular mass.
    """
    tn = mesh.nodes[n]
    al = float(order.alpha(tn))
    a = tn - mesh.nodes[1 : n + 1]
    b = tn - mesh.nodes[:n]
    tau = mesh.steps[:n]
    pa = b**al - a**al
    pa1 = b ** (al + 1.0) - a ** (al + 1.0)
    g = special.gamma(al)
    wl = (pa1 / (al + 1.0) - a * pa / al) / (tau * g)
    wr = (b * pa / al - pa1 / (al + 1.0)) / (tau * g)
    return wl, wr


def singular_moments(order: VariableOrder, mesh: Mesh, n: int, i: int):
    """Closed-form (wL, wR) for cell i of row n; see _moment_row."""
    if not (1 <= i <= n <= mesh.N):
        raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}, N={mesh.N}")
    wl, wr = _moment_row(order, mesh, n)
    return float(wl[i - 1]), float(wr[i - 1])


def _moment_row_quadrature(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """Quadrature variant of the hat moments (comparison path).

    Applies the open rule to hat * weight on every smooth cell; the diagonal
    cell's algebraic singularity is removed first by the substitution
    v = (t_n - s), u = v^alpha, after which the rule sees a smooth integrand.
    """
    tn = mesh.nodes[n]
    al = float(order.alpha(tn))
    g = special.gamma(al)
    x, w = rule.nodes, rule.weights
    wl = np.empty(n)
    wr = np.empty(n)
    for i in range(1, n):
        lo, hi = mesh.nodes[i - 1], mesh.nodes[i]
        tau = hi - lo
        s = lo + tau * x
        wgt = (tn - s) ** (al - 1.0) / g
        wl[i - 1] = tau * np.sum(w * wgt * (hi - s)) / tau
        wr[i - 1] = tau * np.sum(w * wgt * (s - lo)) / tau
    # diagonal cell: v^{al-1} dv = du/al with u = v^al, integrand smooth in u
    tau = mesh.steps[n - 1]
    umax = tau**al
    v = (umax * x) ** (1.0 / al)
    wl[n - 1] = umax * np.sum(w * v / tau) / (al * g)
    wr[n - 1] = umax * np.sum(w * (1.0 - v / tau)) / (al * g)
    return wl, wr


def _kernel_minus_one(da, v):
    """K - 1 from the order gap da = alpha(t) - alpha(s) and v = t - s > 0.

    (t-s)^da / Gamma(1+da) - 1 written as (expm1(da ln v) - (G - 1)) / G,
    G = Gamma(1 + da): no cancellation against the leading 1, and exactly
    zero wherever da = 0 (constant order).
    """
    g = special.gamma(1.0 + da)
    return (np.expm1(da * np.log(v)) - (g - 1.0)) / g


@dataclass(frozen=True)
class _CellQuadrature:
    """Row-independent quadrature data of cells 1..n for the history rows.

    Cell j = [t_{j-1}, t_j] is row j-1 of `s`/`alpha_s`: the rule's points
    there and alpha at them, evaluated once per assembly. The diagonal cell
    of a row gets geometric panels instead, built per row block.
    """

    order: VariableOrder
    mesh: Mesh
    rule: QuadratureRule
    alpha_t: np.ndarray
    s: np.ndarray
    alpha_s: np.ndarray


def _cell_quadrature(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """_CellQuadrature for rows up to n (cells 1..n-1 off the diagonal)."""
    s = mesh.nodes[: n - 1, None] + mesh.steps[: n - 1, None] * rule.nodes
    return _CellQuadrature(
        order=order,
        mesh=mesh,
        rule=rule,
        alpha_t=np.asarray(order.alpha(mesh.nodes[: n + 1]), dtype=float),
        s=s,
        alpha_s=np.asarray(order.alpha(s), dtype=float),
    )


def _cell_averages(cq: _CellQuadrature, rows: np.ndarray) -> np.ndarray:
    """B[k, j] = (1/tau_j) int_{cell j} K(t_n, s) ds - 1 for n = rows[k].

    Columns j = 1..n hold the cell averages, column 0 holds K(t_n, 0) - 1
    and columns past n are zero, over a width of rows[-1] + 2. The
    off-diagonal cells of all rows are flattened into one sweep.
    """
    nodes, steps, x = cq.mesh.nodes, cq.mesh.steps, cq.rule.nodes
    tn, an = nodes[rows], cq.alpha_t[rows]
    out = np.zeros((len(rows), rows[-1] + 2))

    counts = rows - 1
    k = np.repeat(np.arange(len(rows)), counts)
    j = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    vals = _kernel_minus_one(an[k, None] - cq.alpha_s[j], tn[k, None] - cq.s[j])
    out[k, j + 1] = vals @ cq.rule.weights

    # diagonal cell: geometric panels toward the v ln v corner at s = t_n
    edges = _diag_edges(nodes[rows - 1], tn)
    width = np.diff(edges, axis=1)[:, :, None]
    s = (edges[:, :-1, None] + width * x).reshape(len(rows), -1)
    wgt = (width * cq.rule.weights / steps[rows - 1, None, None]).reshape(len(rows), -1)
    da = an[:, None] - np.asarray(cq.order.alpha(s), dtype=float)
    vals = _kernel_minus_one(da, tn[:, None] - s)
    out[np.arange(len(rows)), rows] = np.sum(vals * wgt, axis=1)

    out[:, 0] = _kernel_minus_one(an - cq.alpha_t[0], tn)
    return out


def _history_rows(cq: _CellQuadrature, rows: np.ndarray):
    """(h[rows, 0..rows[-1]], h0[rows]) by integration by parts.

    Hat slopes are constant per cell, so int K_s(t_n, s) hat_i(s) ds is
    A_{i+1} - A_i for i < n, 1 - A_n for i = n, and A_1 - K(t_n, 0) for
    the u0 hat, with A_j the cell-j average of K(t_n, .). Differencing the
    zero-padded averages gives all of them at once, and a row's sum plus
    h0 telescopes to 1 - K(t_n, 0) to rounding. Column 0 of h is zero.
    """
    h = np.diff(_cell_averages(cq, rows), axis=1)
    h0 = h[:, 0].copy()
    h[:, 0] = 0.0
    return h, h0


def _row_blocks(N: int, rule: QuadratureRule):
    """Consecutive row ranges of 1..N, each within HISTORY_BLOCK_POINTS
    kernel evaluations (a row larger than that is a block of its own)."""
    cost = np.cumsum((np.arange(N) + DIAG_PANELS) * rule.count)
    lo = 0
    while lo < N:
        base = cost[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cost, base + HISTORY_BLOCK_POINTS, "right")))
        yield np.arange(lo + 1, hi + 1)
        lo = hi


def history_weights(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """History row (h[n][1..n], h0[n]) of the K_s term.

    h[n][i] is the integral of K_s(t_n, .) against hat_i over its one or
    two supporting cells; h0[n] is the u0 coefficient from the descending
    hat on [t_0, t_1]. Both come from cell averages of K (_history_rows);
    `rule` is applied per cell and per diagonal panel. Returned as
    (row, h0) with row[0] unused (zero).
    """
    if not (1 <= n <= mesh.N):
        raise IndexError(f"need 1 <= n <= N, got n={n}, N={mesh.N}")
    h, h0 = _history_rows(_cell_quadrature(order, mesh, rule, n), np.array([n]))
    return h[0], float(h0[0])


@dataclass
class WeightTable:
    """All collocation coefficients for one (order, mesh, rule) triple.

    Dense mode stores the full lower-triangular history table h[n][i] plus
    h0[n]; invariant mode (fast path) stores the two generating sequences
    gen_left[k], gen_right[k] with

        h[n][i] = gen_right[n-i] + gen_left[n-i-1]  (1 <= i < n),
        h[n][n] = gen_right[0],      h0[n] = gen_left[n-1],

    valid because K_s depends on t - s only for affine order on a uniform
    mesh. Singular moments wL/wR are always dense (they depend on
    alpha(t_n) row by row).
    """

    N: int
    invariant_mode: bool
    wL: np.ndarray
    wR: np.ndarray
    h0: np.ndarray
    h: np.ndarray | None = None
    gen_left: np.ndarray | None = None
    gen_right: np.ndarray | None = None
    f_term: str = "moments"

    def history_row(self, n: int) -> np.ndarray:
        """Row h[n][0..n] (entry 0 is zero; the u0 hat lives in h0)."""
        if self.invariant_mode:
            row = np.zeros(n + 1)
            if n >= 1:
                k = n - np.arange(1, n)
                row[1:n] = self.gen_right[k] + self.gen_left[k - 1]
                row[n] = self.gen_right[0]
            return row
        return self.h[n, : n + 1].copy()

    def h_entry(self, n: int, i: int) -> float:
        if not (1 <= i <= n <= self.N):
            raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}")
        if self.invariant_mode:
            if i == n:
                return float(self.gen_right[0])
            return float(self.gen_right[n - i] + self.gen_left[n - i - 1])
        return float(self.h[n, i])

    def history_storage_entries(self) -> int:
        """Number of stored history coefficients (structural footprint)."""
        if self.invariant_mode:
            return len(self.gen_left) + len(self.gen_right)
        return self.N * (self.N + 1) // 2

    def dump_csv(self, path) -> None:
        """Row-major dump (n, i, h, wL, wR) at 17 significant digits."""
        with open(path, "w", newline="") as fh:
            fh.write("n,i,h,wL,wR\n")
            for n in range(1, self.N + 1):
                row = self.history_row(n)
                for i in range(1, n + 1):
                    fh.write(
                        f"{n},{i},{row[i]:.17g},"
                        f"{self.wL[n, i]:.17g},{self.wR[n, i]:.17g}\n"
                    )


def assemble(
    order: VariableOrder,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    fast_path: bool = False,
    f_term: str = "moments",
) -> WeightTable:
    """Build the full weight table.

    rule is the Gauss rule applied per mesh cell and per geometric panel of
    each row's diagonal cell; None means gauss_nodes(), 8 nodes. fast_path
    requires a uniform mesh and a declared-affine order; it computes the
    O(N) generating sequences of the translation-invariant history weights
    instead of the dense O(N^2) triangle. f_term selects
    closed-form singular moments ("moments", default) or the open-rule
    quadrature variant ("quadrature") for the right-hand-side weights.
    """
    if rule is None:
        rule = gauss_nodes()
    if f_term not in ("moments", "quadrature"):
        raise ValueError(f"f_term must be 'moments' or 'quadrature', got {f_term!r}")
    N = mesh.N

    wL = np.zeros((N + 1, N + 1))
    wR = np.zeros((N + 1, N + 1))
    for n in range(1, N + 1):
        if f_term == "moments":
            wl, wr = _moment_row(order, mesh, n)
        else:
            wl, wr = _moment_row_quadrature(order, mesh, rule, n)
        wL[n, 1 : n + 1] = wl
        wR[n, 1 : n + 1] = wr

    if fast_path:
        if not mesh.is_uniform:
            raise ValueError("fast_path requires a uniform mesh (r = 1)")
        if not order.is_linear:
            raise ValueError("fast_path requires a declared-linear order")
    cq = _cell_quadrature(order, mesh, rule, N)
    if fast_path:
        gen_left, gen_right = _generating_sequences(cq)
        return WeightTable(
            N=N,
            invariant_mode=True,
            wL=wL,
            wR=wR,
            h0=np.concatenate(([0.0], gen_left)),
            gen_left=gen_left,
            gen_right=gen_right,
            f_term=f_term,
        )

    h = np.zeros((N + 1, N + 1))
    h0 = np.zeros(N + 1)
    for rows in _row_blocks(N, rule):
        lo, hi = rows[0], rows[-1] + 1
        h[lo:hi, :hi], h0[lo:hi] = _history_rows(cq, rows)
    return WeightTable(
        N=N, invariant_mode=False, wL=wL, wR=wR, h0=h0, h=h, f_term=f_term
    )


def _generating_sequences(cq: _CellQuadrature):
    """gen_left, gen_right from row N's cell averages, indexed by gap k.

    For an affine order K(t, s) depends on t - s alone, so row N holds
    every gap: with A_k the average of K(T, .) over cell N - k and
    K_k = K(T, T - k tau),

        gen_right[k] = K_k - A_k,    gen_left[k] = A_k - K_{k+1},

    which reproduces the dense rows A_{i+1} - A_i, 1 - A_n and
    A_1 - K(t_n, 0) of _history_rows.
    """
    N = cq.mesh.N
    nodes = cq.mesh.nodes
    by_gap = _cell_averages(cq, np.array([N]))[0, N:0:-1]
    nodal = _kernel_minus_one(cq.alpha_t[N] - cq.alpha_t[:N], nodes[N] - nodes[:N])
    nodal_by_gap = np.append(nodal, 0.0)[::-1]  # K(T, T) - 1 = 0
    return by_gap - nodal_by_gap[1:], nodal_by_gap[:N] - by_gap
