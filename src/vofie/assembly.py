"""Collocation coefficient assembly.

Two coefficient families are built per collocation row n:

* cell averages B[n][j] = (1/tau_j) int_{cell j} K(t_n, s) ds - 1 of the
  bounded kernel K, with B[n][0] = K(t_n, 0) - 1. Summation by parts
  against the hats (their slopes are constant per cell) turns the K_s
  history term of row n into U_n - u0 + sum_j B[n][j] (U_j - U_{j-1}),
  which is the increment form the march solves. A short Gauss-Legendre
  rule per cell resolves the averages; the diagonal cell gets geometric
  sub-panels toward s = t_n, where K has a v ln v corner;
* singular moments wL/wR: integrals of the two hat pieces on each cell
  against the weakly singular weight (t_n - s)^{alpha(t_n)-1}/Gamma(alpha(t_n)),
  in closed form (product integration), with wL + wR equal to the cell's
  singular mass by construction.

`coefficient_rows` streams the rows: it builds both families for one block
of rows at a time in a few vectorised sweeps and drops the block once its
rows are consumed, so a solve holds O(N) memory. For an affine order on a
uniform mesh K depends on t - s alone; the fast path then keeps one
gap-indexed sequence of cell averages and skips the per-block kernel sweeps,
streaming only the moments.

`assemble` collects the same rows into a dense WeightTable, the cache that
coefficient dumps and the tests read. The hat-basis history weights
h[n][i] = B[n][i+1] - B[n][i], h[n][n] = -B[n][n] and the u0 coefficient
h0[n] = B[n][1] - B[n][0] are derived views of its averages.
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


def _moments(mesh: Mesh, rows: np.ndarray, al: np.ndarray):
    """Closed-form hat moments (wL, wR) of cells 1..rows[-1] for each row n
    in `rows`, with al = alpha(t_n) per row; columns past n are zero.

    Substituting v = t_n - s with a = t_n - t_i, b = t_n - t_{i-1} and
    writing G = Gamma(al), the cell's singular mass is

        m = (b^al - a^al) / (al G),

    taken as a difference of P_k = v_k^al (one power per point), so the
    masses of a row telescope to t_n^al / Gamma(al + 1). wL multiplies the
    nodal value at t_{i-1}, wR the one at t_i; wL = theta m and wR = m - wL,
    so both are nonnegative and wL + wR is m to one rounding. With
    q = (b - a)/b and D = 1 - (a/b)^al = -expm1(al log1p(-q)),

        theta = (al q - (1 - q) D) / ((al + 1) q D),

    which runs from 1/2 (q -> 0, far cells) to al/(al + 1) (q = 1, the
    diagonal cell). The direct form of wL, [(b^{al+1} - a^{al+1})/(al+1)
    - a (b^al - a^al)/al] / (tau G), has a relative error of about
    eps (b/tau)^2 and goes negative on far cells of a graded mesh; theta's
    is about eps b/tau, as m's, and theta is clipped to its range against
    rounding as q -> 0.
    """
    width = rows[-1] + 1
    v = np.maximum(mesh.nodes[rows, None] - mesh.nodes[:width], 0.0)
    al = al[:, None]
    m = v**al
    m = (m[:, :-1] - m[:, 1:]) / (al * special.gamma(al))
    b, a = v[:, :-1], v[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (b - a) / b
        e = np.expm1(al * np.log1p(-q))  # -D
        theta = (q * (al - e) + e) / (q * e) * (-1.0 / (al + 1.0))
    # fmax/fmin also map the NaN of the zero columns past n (q = 0/0)
    # into range, where m = 0
    wl = np.fmin(np.fmax(theta, al / (al + 1.0), out=theta), 0.5, out=theta) * m
    return wl, m - wl


def singular_moments(order: VariableOrder, mesh: Mesh, n: int, i: int):
    """Closed-form (wL, wR) for cell i of row n; see _moments."""
    if not (1 <= i <= n <= mesh.N):
        raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}, N={mesh.N}")
    wl, wr = _moments(mesh, np.array([n]), np.array([order.alpha(mesh.nodes[n])], dtype=float))
    return float(wl[0, i - 1]), float(wr[0, i - 1])


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
    and columns past n are zero, over a width of rows[-1] + 1. The
    off-diagonal cells of all rows are flattened into one sweep.
    """
    nodes, steps, x = cq.mesh.nodes, cq.mesh.steps, cq.rule.nodes
    tn, an = nodes[rows], cq.alpha_t[rows]
    out = np.zeros((len(rows), rows[-1] + 1))

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


def _hat_weights(averages: np.ndarray):
    """(h[n][0..n], h0[n]) from cell averages B[n][0..n] along the last axis.

    Hat slopes are constant per cell, so int K_s(t_n, s) hat_i(s) ds is
    B_{i+1} - B_i for i < n, -B_n for i = n, and B_1 - B_0 for the u0 hat.
    Entry 0 of h is zero; the row sum plus h0 telescopes to -B_0 =
    1 - K(t_n, 0) to rounding.
    """
    h = np.diff(averages, axis=-1, append=0.0)
    h0 = h[..., 0].copy()
    h[..., 0] = 0.0
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
    hat on [t_0, t_1]. Both are differences of the row's cell averages of
    K (_hat_weights); `rule` is applied per cell and per diagonal panel.
    Returned as (row, h0) with row[0] unused (zero).
    """
    if not (1 <= n <= mesh.N):
        raise IndexError(f"need 1 <= n <= N, got n={n}, N={mesh.N}")
    h, h0 = _hat_weights(_cell_averages(_cell_quadrature(order, mesh, rule, n), np.array([n]))[0])
    return h, float(h0)


@dataclass
class WeightTable:
    """All collocation coefficients for one (order, mesh, rule) triple.

    Dense mode stores the cell-average table B[n][j], j = 0..n (see the
    module docstring). Invariant mode (fast path) stores two sequences
    indexed by the gap k = n - j,

        B[n][j] = gap_avg[n-j]  (1 <= j <= n),   B[n][0] = gap_nodal[n-1],

    with gap_nodal[k-1] = K(t, t - k tau) - 1, valid because K depends on
    t - s only for affine order on a uniform mesh. Singular moments wL/wR
    are dense in both modes (they depend on alpha(t_n) row by row). The
    hat-basis history weights (h, h0, history_row, h_entry, gen_left,
    gen_right) are derived from these on request. `solve` does not build
    this table; it streams the same rows from `coefficient_rows`.
    """

    N: int
    invariant_mode: bool
    wL: np.ndarray
    wR: np.ndarray
    B: np.ndarray | None = None
    gap_avg: np.ndarray | None = None
    gap_nodal: np.ndarray | None = None

    def averages(self, n: int) -> np.ndarray:
        """B[n][1..n], the increment coefficients of row n, as a view."""
        if self.invariant_mode:
            return self.gap_avg[n - 1 :: -1]
        return self.B[n, 1 : n + 1]

    @property
    def h(self) -> np.ndarray | None:
        """Dense history table h[n][i], column 0 zero (None on the fast path)."""
        return None if self.invariant_mode else _hat_weights(self.B)[0]

    @property
    def h0(self) -> np.ndarray:
        """u0 coefficients h0[n] = B[n][1] - B[n][0]; entry 0 is zero."""
        if self.invariant_mode:
            diff = self.gap_avg - self.gap_nodal
        else:
            diff = self.B[1:, 1] - self.B[1:, 0]
        return np.concatenate(([0.0], diff))

    @property
    def gen_right(self) -> np.ndarray | None:
        """K_k - A_k by gap k, with A_k = gap_avg[k] + 1 the cell average and
        K_k the nodal kernel k steps back; h[n][n] = gen_right[0] and
        h[n][i] = gen_right[n-i] + gen_left[n-i-1]. Fast path only."""
        if not self.invariant_mode:
            return None
        return np.concatenate(([0.0], self.gap_nodal[:-1])) - self.gap_avg

    @property
    def gen_left(self) -> np.ndarray | None:
        """A_k - K_{k+1} by gap k (see gen_right); h0[n] = gen_left[n-1]."""
        if not self.invariant_mode:
            return None
        return self.gap_avg - self.gap_nodal

    def history_row(self, n: int) -> np.ndarray:
        """Row h[n][0..n] (entry 0 is zero; the u0 hat lives in h0)."""
        first = self.gap_nodal[n - 1 : n] if self.invariant_mode else self.B[n, :1]
        return _hat_weights(np.concatenate((first, self.averages(n))))[0]

    def h_entry(self, n: int, i: int) -> float:
        if not (1 <= i <= n <= self.N):
            raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}")
        b = self.averages(n)
        return float((b[i] if i < n else 0.0) - b[i - 1])

    def history_storage_entries(self) -> int:
        """Number of stored history coefficients (structural footprint)."""
        if self.invariant_mode:
            return len(self.gap_avg) + len(self.gap_nodal)
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


def coefficient_rows(
    order: VariableOrder,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    fast_path: bool = False,
):
    """Yield the collocation rows (n, wL[n][1..n], wR[n][1..n], B[n][1..n])
    for n = 1..N.

    Each block of _row_blocks gets its moments and, in dense mode, its cell
    averages in one go; both are dropped once its rows are consumed, so
    memory stays O(N) plus one block of HISTORY_BLOCK_POINTS kernel points,
    whatever N is. On the fast path the B rows are views of row N, which
    holds every gap. `rule` and `fast_path` are as for `assemble`; the
    fast-path preconditions are checked when iteration starts.
    """
    if fast_path:
        if not mesh.is_uniform:
            raise ValueError("fast_path requires a uniform mesh (r = 1)")
        if not order.is_linear:
            raise ValueError("fast_path requires a declared-linear order")
    N = mesh.N
    cq = _cell_quadrature(order, mesh, gauss_nodes() if rule is None else rule, N)
    # B[n][j] = B[N][N - n + j]: cell j lies n - j steps behind t_n
    last = _cell_averages(cq, np.array([N]))[0, 1:] if fast_path else None
    for rows in _row_blocks(N, cq.rule):
        wl, wr = _moments(mesh, rows, cq.alpha_t[rows])
        b = None if fast_path else _cell_averages(cq, rows)
        for k, n in enumerate(rows.tolist()):
            yield n, wl[k, :n], wr[k, :n], last[N - n :] if fast_path else b[k, 1 : n + 1]


def assemble(
    order: VariableOrder,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    fast_path: bool = False,
) -> WeightTable:
    """Build the full weight table from the rows of `coefficient_rows`.

    rule is the Gauss rule applied per mesh cell and per geometric panel of
    each row's diagonal cell; None means gauss_nodes(), 8 nodes. fast_path
    requires a uniform mesh and a declared-affine order; it stores the O(N)
    gap-indexed cell averages and nodal kernel values of the translation-
    invariant history instead of the dense O(N^2) table. The moments are
    dense in both modes: this table is a cache for inspection, not what a
    solve holds.
    """
    N = mesh.N
    wL = np.zeros((N + 1, N + 1))
    wR = np.zeros((N + 1, N + 1))
    B = None if fast_path else np.zeros((N + 1, N + 1))
    for n, wl, wr, b in coefficient_rows(order, mesh, rule, fast_path):
        wL[n, 1 : n + 1] = wl
        wR[n, 1 : n + 1] = wr
        if B is not None:
            B[n, 1 : n + 1] = b
    alpha_t = np.asarray(order.alpha(mesh.nodes), dtype=float)
    nodal = _kernel_minus_one(alpha_t[1:] - alpha_t[0], mesh.nodes[1:])  # K(t_n, 0) - 1
    if fast_path:
        # b is row N: gap k = N - j
        return WeightTable(N=N, invariant_mode=True, wL=wL, wR=wR,
                           gap_avg=b[::-1], gap_nodal=nodal)
    B[1:, 0] = nodal
    return WeightTable(N=N, invariant_mode=False, wL=wL, wR=wR, B=B)
