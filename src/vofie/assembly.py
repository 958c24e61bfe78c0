"""Collocation coefficient assembly.

Two coefficient families are built per collocation row n:

* cell averages B[n][j] = (1/tau_j) int_{cell j} K(t_n, s) ds - 1 of the
  bounded kernel K, with B[n][0] = K(t_n, 0) - 1. Summation by parts
  against the hats (their slopes are constant per cell) turns the K_s
  history term of row n into U_n - u0 + sum_j B[n][j] (U_j - U_{j-1}),
  which is the increment form the march solves. A short Gauss-Legendre
  rule per cell resolves the averages; the diagonal cell gets one fixed
  rule graded into s = t_n, where K has a v ln v corner;
* singular moments wL/wR: integrals of the two hat pieces on each cell
  against the weakly singular weight (t_n - s)^{alpha(t_n)-1}/Gamma(alpha(t_n)),
  in closed form (product integration), with wL + wR equal to the cell's
  singular mass by construction.

`coefficient_rows` streams the rows in blocks: it builds both families for
one block of rows lo..hi at a time in a few vectorised sweeps, yields them
as matrices over the block's near cells with exact zeros right of each
row's diagonal, and drops the block once it is consumed, so a solve holds
O(N) memory. For an affine order on a uniform mesh K depends on t - s
alone; coefficient_rows works that out from the mesh and alpha's values
(nothing is declared), and translation_invariant says why where it does
not hold. A solve on such inputs keeps one gap-indexed sequence of cell
averages, row N, and skips the per-block kernel sweeps: its B blocks are
read-only Toeplitz views of row N, and only the moments are computed.

Far field. Both far terms of row n are integrals of a kernel smooth in s
away from s = t_n against a density the march has solved:

    F(t_n) = sum_{j <= far} wL(t_n, j) f_{j-1} + wR(t_n, j) f_j
             - B(t_n, j) (U_j - U_{j-1})
           = int_0^{t_far} W(t_n - s) f_h(s) - (K(t_n, s) - 1) u_h'(s) ds,

with W the singular weight at alpha(t_n), f_h the hat interpolant of f and
u_h' the slope of U on each cell. The cells sit in a fixed binary tree of
panels (PANEL_LEAF_CELLS cells per leaf), split on index. Each panel
carries charges int L_d f_h ds and int L_d u_h' ds at PANEL_NODES
Chebyshev nodes s_d, made once, when the march reaches the first row that
may read the panel (it ends at least FAR_SEPARATION panel widths before
that row): a leaf's from its cells, a parent's from its two children's, on
a uniform mesh through two bases shared by all panels. Each is checked
once there against direct quadrature of its cells: where either term
misses by more than FAR_CHECK_TOL of its absolute contributions, which
happens where alpha varies on the scale of the panel, the panel fails. A
group of GROUP_ROWS rows walks the tree from its root (_Panels._read): a
panel that its first row may read and that passed is read, any other
splits into its two children, and a leaf that is not read ends the far
field. So panels widen with distance; cells 1..far of the
panels read are the group's far field, the cells far+1..n of each row are
near, and a row's far sum is sum over panels and d of
W(t_n - s_d) q_f,d - (K(t_n, s_d) - 1) q_B,d. Near cells cost O(1) per row
and far panels O(log N), so a solve costs O(N log N) points and O(N)
memory. The gap rows (above) take the far moment term from the panels in
the same groups of GROUP_ROWS rows and keep the far B term an exact dot of
row N. Groups with few far cells stay fully direct (FAR_MIN_SAVED_POINTS),
those whose first row finds too few leaves ready before any panel is built.
With f = 0 both terms are exactly zero.

`assemble` collects rows into a WeightTable, the cache that coefficient
dumps and the tests read, dense by default and gap-indexed with fast_path.
It has no far field: every cell of every row is direct, so the table is an
independent reference for the solve. Its hat-basis history row n
(history_row) holds B[n][i+1] - B[n][i] at i = 0..n, with B[n][n+1] = 0:
entries 1..n weigh the nodal values U_i, and entry 0 is the u0
coefficient.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

# kernel_Ks is not called here any more; the name stays importable from this
# module because perfbench's traced run hooks it.
from .kernel import kernel_Ks  # noqa: F401
from .mesh import Mesh
from .order import VariableOrder

# The most points of any one array a block of rows builds (_row_blocks):
# kernel points, moments or cell averages. The ceiling is one array of 2^14
# doubles, 128 KiB, glibc's default mmap threshold, not a cache size. On a
# 2-core Xeon, alternating solve by solve in one process, a cap of 2^15 (one
# block at graded N = 96, with a 31,920-point triangle) made N = 96 solves
# 9 % slower, and 2 % faster once the process raised glibc's mmap and trim
# thresholds. Under the old rule, which capped a block's total, 2^15 took
# 267 minor page faults per N = 96 solve, against none at 2^14.
HISTORY_BLOCK_POINTS = 2**14
# Far field. The cells sit in a binary tree of source panels (_Panels): a
# leaf holds PANEL_LEAF_CELLS cells and each parent its two children's. A
# row group reads a panel once the panel ends at least FAR_SEPARATION panel
# widths before the group's first row; both far kernels are then analytic in
# s over the panel, and each panel carries charges at PANEL_NODES first-kind
# Chebyshev nodes in s. At 1.5 widths the nearest row is 4 half-widths from
# the panel's centre, where 16 nodes converge like 7.9^-16 (5e-15).
PANEL_NODES = 16
PANEL_LEAF_CELLS = 8
FAR_SEPARATION = 1.5
# Rows per group: the cells between a group's far field and its first row
# are near for all its rows, while every group makes and checks the panels
# that became readable, at a cost mostly per call. On graded sine solves 64
# rows beat 32, 48, 96 and 128 from N = 1440 to 92160; on the gap rows 64,
# 96 and 128 are equal and 192 slower.
GROUP_ROWS = 64
# Kernel and moment points (rule.count + 1 per far cell and row) a group must
# save for its far field to be read: with the 7-node rule, 8 points per far
# cell and row, every solve with N <= 192 stays direct, on any grading. The
# closest is the N = 192 group at lo = 129 on a mesh with r >= 5.07, whose
# 64 rows find 120 cells in ready leaves and would save 120 * 512 = 61,440
# points, 6.3 % short; on a uniform mesh they find 112 cells, 12.5 % short.
FAR_MIN_SAVED_POINTS = 4 * HISTORY_BLOCK_POINTS
# Largest miss of each of a panel's far terms at the nearest row that reads
# it, relative to the sum of that term's absolute contributions there, for
# the panel to be used. The moments weigh f; the B term is the far part of
# the history sum of K (U_j - U_{j-1}), so its contributions are counted
# with K = 1 + B: alpha's own rounding leaves B with an absolute error of
# about eps, which a scale of B alone would read as a miss wherever alpha is
# flat.
FAR_CHECK_TOL = 1e-14
# Largest departure of alpha from its chord for the order to count as affine
# (translation_invariant): 8 ulp of 1. Affine orders in any algebraic form
# (start + slope t, end t/T + start (1 - t/T), ...) stay within 1.5 ulp;
# the sine and quadratic orders miss by 3e-2 or more.
AFFINE_TOL = 8 * np.finfo(float).eps


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes/weights mapped to the open unit interval."""

    nodes: np.ndarray
    weights: np.ndarray

    @property
    def count(self) -> int:
        return len(self.nodes)


def gauss_nodes(count: int = 7) -> QuadratureRule:
    """Gauss-Legendre rule on (0, 1); exact for degree <= 2*count - 1.

    The default is the per-cell rule of the history assembly: off the
    diagonal, the cell averages of the bounded kernel K it integrates need
    few nodes. Each rule is built once per count and shared, so its arrays
    are read-only.
    """
    if count < 1:
        raise ValueError(f"need at least one quadrature node, got {count}")
    return _gauss_rule(count)


@functools.cache
def _gauss_rule(count: int) -> QuadratureRule:
    x, w = np.polynomial.legendre.leggauss(count)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=nodes, weights=weights)


def _corner_rule(count: int) -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the diagonal cell's rule as fractions of the
    cell, nodes ascending: count-node Gauss-Legendre in w on (0, 1) with
    s = t_n - tau_n w^4, so nodes 1 - w^4 and weights 4 w^3 W, scaled to sum
    to one (unscaled, the nodes' rounding leaves them 1e-15 off)."""
    rule = gauss_nodes(count)
    w, W = rule.nodes[::-1], rule.weights[::-1]
    weights = 4.0 * w**3 * W
    nodes, weights = 1.0 - w**4, weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The diagonal cell's rule, the same for every row. With v = t_n - s,
# alpha(t_n) - alpha(s) = O(v), so K(t_n, .) - 1 there is smooth plus terms
# v^k (ln v)^m with k >= m >= 1; v = tau_n w^4 turns v ln v into
# 16 w^7 ln w, which 20 Gauss nodes in w integrate to rounding.
DIAG_NODES, DIAG_WEIGHTS = _corner_rule(20)


def _moments(t: np.ndarray, edges: np.ndarray, al: np.ndarray):
    """Closed-form hat moments (wL, wR) at the times t, with al = alpha(t)
    per time, of the cells between consecutive `edges`: one row per time,
    one column per cell. Columns of cells that start at or after t are zero.

    Substituting v = t - s with a = t - t_i, b = t - t_{i-1} and writing
    G = Gamma(al), the cell's singular mass is

        m = (b^al - a^al) / (al G),

    taken as a difference of P_k = v_k^al (one power per point), so the
    masses of a row telescope to (t - t_0)^al / Gamma(al + 1). wL multiplies
    the nodal value at t_{i-1}, wR the one at t_i; wL = theta m and wR =
    m - wL, so both are nonnegative and wL + wR is m to one rounding. With
    q = (b - a)/b and D = 1 - (a/b)^al = -expm1(al log1p(-q)),

        theta = (al q - (1 - q) D) / ((al + 1) q D),

    which runs from 1/2 (q -> 0, far cells) to al/(al + 1) (q = 1, the
    diagonal cell). The direct form of wL, [(b^{al+1} - a^{al+1})/(al+1)
    - a (b^al - a^al)/al] / (tau G), has a relative error of about
    eps (b/tau)^2 and goes negative on far cells of a graded mesh; theta's
    is about eps b/tau, as m's, and theta is clipped to its range against
    rounding as q -> 0.
    """
    v = np.subtract(t[:, None], edges)
    np.maximum(v, 0.0, out=v)
    al = al[:, None]
    m = v**al
    m = np.subtract(m[:, :-1], m[:, 1:])
    q = np.subtract(v[:, :-1], v[:, 1:])
    with np.errstate(invalid="ignore"):
        q /= v[:, :-1]  # 0/0 in the zero columns past t
    del v
    return _split_masses(q, m, al)


def _cell_moments(t: np.ndarray, left: np.ndarray, right: np.ndarray, al: np.ndarray):
    """(wL, wR) of _moments for one cell [left[k], right[k]] per time t[k],
    on flat arrays: the same operations, so the same values, without a
    two-column edge array per time. _moments on (cell, 2) edges gives the
    same values too, but made the panel check, the one caller, 5-10 %
    slower at graded N = 1440 and affine N = 4000, so both stay."""
    b, a = t - left, t - right
    np.maximum(b, 0.0, out=b)
    np.maximum(a, 0.0, out=a)
    m = b**al
    m -= a**al
    q = np.subtract(b, a)
    with np.errstate(invalid="ignore"):
        q /= b
    del b, a
    return _split_masses(q, m, al)


def _split_masses(q, m, al):
    """(wL, wR) of _moments from q = (b - a)/b and m = b^al - a^al, with
    b = t - t_{i-1} and a = t - t_i clipped at zero, both of one shape (al
    broadcast against them): m is divided by al G in place and returned as
    wR, and q is overwritten."""
    m /= al * special.gamma(al)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.negative(q)  # -D = expm1(al log1p(-q))
        np.log1p(e, out=e)
        e *= al
        np.expm1(e, out=e)
        # theta = (q (al - e) + e) / (q e) * (-1 / (al + 1))
        theta = np.subtract(al, e)
        theta *= q
        theta += e
        q *= e
        theta /= q
        theta *= -1.0 / (al + 1.0)
    # fmax/fmin also map the NaN of the zero columns past t (q = 0/0)
    # into range, where m = 0
    np.fmax(theta, al / (al + 1.0), out=theta)
    np.fmin(theta, 0.5, out=theta)
    theta *= m
    m -= theta
    return theta, m


def singular_moments(order: VariableOrder, mesh: Mesh, n: int, i: int):
    """Closed-form (wL, wR) for cell i of row n; see _moments."""
    if not (1 <= i <= n <= mesh.N):
        raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}, N={mesh.N}")
    t = mesh.nodes[n : n + 1]
    wl, wr = _moments(t, mesh.nodes[: n + 1], np.asarray(order.alpha(t), dtype=float))
    return float(wl[0, i - 1]), float(wr[0, i - 1])


def _kernel_minus_one(da, v):
    """K - 1 from the order gap da = alpha(t) - alpha(s) and v = t - s > 0.

    (t-s)^da / Gamma(1+da) - 1 written as (expm1(da ln v) - (G - 1)) / G,
    G = Gamma(1 + da): no cancellation against the leading 1, and exactly
    zero wherever da = 0 (constant order). The steps run in place in two
    arrays beside the inputs, which are left as they are. G - 1 is taken in
    G's array: it is exact for G in [1/2, 2^53), where G lies for da in
    (-1, 1), so adding the 1 back restores G bit for bit.
    """
    g = np.add(da, 1.0)
    special.gamma(g, out=g)
    out = np.log(v)
    out *= da
    np.expm1(out, out=out)
    g -= 1.0
    out -= g
    g += 1.0
    out /= g
    return out


@dataclass(frozen=True)
class _CellQuadrature:
    """Row-independent quadrature data of the mesh's cells for the history
    rows.

    Cell j = [t_{j-1}, t_j] is column j-1 of `s`/`alpha_s`, one row per rule
    point: the rule's points there and alpha at them, evaluated once per
    assembly. The diagonal cell of a row gets the fixed diagonal rule
    instead, whatever the rule: cell n of row n has its points at t_{n-1} +
    tau_n DIAG_NODES, and DIAG_WEIGHTS, which sum to one, give its average.
    """

    order: VariableOrder
    mesh: Mesh
    rule: QuadratureRule
    alpha_t: np.ndarray
    s: np.ndarray
    alpha_s: np.ndarray


def _cell_quadrature(order: VariableOrder, mesh: Mesh, rule: QuadratureRule):
    """_CellQuadrature for rows 1..N (cells 1..N-1 off the diagonal)."""
    cells = mesh.N - 1
    s = mesh.nodes[:cells] + mesh.steps[:cells] * rule.nodes[:, None]
    return _CellQuadrature(
        order=order,
        mesh=mesh,
        rule=rule,
        alpha_t=np.asarray(order.alpha(mesh.nodes), dtype=float),
        s=s,
        alpha_s=np.asarray(order.alpha(s), dtype=float),
    )


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


# (row k, cell c < k) pairs of _cell_averages' in-block triangles: R (C0 + R)
# moments within the cap keep R <= isqrt(cap), so each triangle is a prefix
_TRIANGLE = np.tril_indices(math.isqrt(HISTORY_BLOCK_POINTS), -1)
_TRIANGLE[0].flags.writeable = _TRIANGLE[1].flags.writeable = False


def _cell_averages(cq: _CellQuadrature, rows: np.ndarray, first: int = 0) -> np.ndarray:
    """B[k, c] = (1/tau_j) int_{cell j} K(t_n, s) ds - 1 for n = rows[k] and
    cell j = first + 1 + c, over the cells first+1..rows[-1]; columns past
    n are zero. The rows are a _row_blocks block. The cells first+1..rows[0]-1,
    off the diagonal of every row, are one (point, row, cell) broadcast of
    slices of s/alpha_s reduced by one product with the weights; the later
    off-diagonal cells, a triangle, are 1-D takes along the cell axis of a
    prefix of _TRIANGLE's pairs; the diagonal cell gets the fixed rule
    graded into the v ln v corner at s = t_n (DIAG_NODES), alpha sampled at
    its points row by row.
    """
    nodes, w = cq.mesh.nodes, cq.rule.weights
    tn, an = nodes[rows], cq.alpha_t[rows]
    R, c0 = len(rows), int(rows[0]) - 1 - first
    out = np.zeros((R, rows[-1] - first))

    near = slice(first, first + c0)
    rect = _kernel_minus_one(an[:, None] - cq.alpha_s[:, None, near], tn[:, None] - cq.s[:, None, near])
    out[:, :c0] = (w @ rect.reshape(len(w), -1)).reshape(R, c0)
    del rect  # each kernel array is freed once reduced, before the next

    k, c = (pattern[: R * (R - 1) // 2] for pattern in _TRIANGLE)
    j = c + (first + c0)
    out[:, c0:][k, c] = w @ _kernel_minus_one(an.take(k) - cq.alpha_s.take(j, 1), tn.take(k) - cq.s.take(j, 1))

    s = nodes[rows - 1, None] + cq.mesh.steps[rows - 1, None] * DIAG_NODES
    da = an[:, None] - np.asarray(cq.order.alpha(s), dtype=float)
    out[np.arange(R), rows - 1 - first] = _kernel_minus_one(da, tn[:, None] - s) @ DIAG_WEIGHTS
    return out


def _hat_weights(averages: np.ndarray) -> np.ndarray:
    """History row h[n][0..n] from the cell averages B[n][0..n].

    Hat slopes are constant per cell, so int K_s(t_n, s) hat_i(s) ds is
    B_{i+1} - B_i for 1 <= i < n and -B_n for i = n; entry 0, B_1 - B_0, is
    the u0 coefficient, from the descending hat on [t_0, t_1]. The row
    telescopes to -B_0 = 1 - K(t_n, 0) to rounding.
    """
    return np.diff(averages, append=0.0)


def _row_blocks(lo: int, hi: int, first: int, count: int):
    """Consecutive row ranges of lo..hi, each as long as every array its
    rows build stays within HISTORY_BLOCK_POINTS points; a row that alone
    exceeds it is a block of its own. A block of R rows from r0 shares the
    C0 = r0 - 1 - first cells first+1..r0-1 and builds R (C0 + R) moments
    and, with `count` kernel points per near cell (0 on the gap rows, which
    build no kernel points), the shared cells' rectangle R C0 count, the
    in-block triangle R (R - 1)/2 count and the diagonal R len(DIAG_NODES)
    (_cell_averages). Each bound on R is taken in closed form."""
    cap = HISTORY_BLOCK_POINTS
    r0 = lo
    while r0 <= hi:
        c0 = r0 - 1 - first
        # the largest R with R (C0 + R) <= cap, then R (R - 1)/2 <= cap // count
        R = (math.isqrt(c0 * c0 + 4 * cap) - c0) // 2
        if count:
            R = min(R, (1 + math.isqrt(1 + 8 * (cap // count))) // 2, cap // len(DIAG_NODES))
            if c0:
                R = min(R, cap // (c0 * count))
        stop = min(hi + 1, r0 + max(R, 1))
        yield np.arange(r0, stop)
        r0 = stop


# First-kind Chebyshev nodes of a panel, as fractions of its width, and their
# barycentric weights; the Gauss rule that makes leaf charges exact (the
# Lagrange basis has degree PANEL_NODES - 1, f_h one more)
_ANGLES = (2 * np.arange(PANEL_NODES) + 1) * np.pi / (2 * PANEL_NODES)
_CHEB = (1.0 + np.cos(_ANGLES)) / 2
_BARY = (-1.0) ** np.arange(PANEL_NODES) * np.sin(_ANGLES)
_CHARGE_RULE = gauss_nodes(PANEL_NODES // 2 + 1)


def _lagrange(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_d(x) of panel Chebyshev `nodes` at the points x, one row per point
    and one column per node, batched over leading axes (barycentric form);
    a point on a node takes that node's value."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _BARY / (x[..., :, None] - nodes[..., None, :])
        total = q.sum(axis=-1, keepdims=True)
        basis = q / total
    # only a point on a node has an infinite term, and so a sum that is not
    # finite: its row is that node's unit row
    on_node = ~np.isfinite(total[..., 0])
    if on_node.any():
        basis[on_node] = np.isinf(q[on_node])
    return basis


# L_d in coordinates relative to a panel, which on a uniform mesh are the
# same for every panel: at a leaf's charge rule points (k + x_q) /
# PANEL_LEAF_CELLS, cell by cell, and at a parent's two children's nodes
_LEAF_BASIS = _lagrange(_CHEB, ((np.arange(PANEL_LEAF_CELLS)[:, None] + _CHARGE_RULE.nodes)
                                / PANEL_LEAF_CELLS).ravel())
_PARENT_BASIS = _lagrange(_CHEB, np.concatenate((_CHEB, 1.0 + _CHEB)) / 2)


def _far_weight(v, al):
    """The singular weight v^{al-1}/Gamma(al) of the moments, v = t - s."""
    out = v ** (al - 1.0)
    out /= special.gamma(al)
    return out


def _ready_rows(nodes: np.ndarray, start: np.ndarray, size) -> np.ndarray:
    """The ready row of each panel of cells start+1..start+size: the first
    row n with t_n at least FAR_SEPARATION panel widths past its end."""
    t0, t1 = nodes[start], nodes[start + size]
    return np.searchsorted(nodes, t1 + FAR_SEPARATION * (t1 - t0), "left")


class _Panels:
    """The far field of a solve: the tree's panels with their charges, each
    made and checked once, and the far sums of a group from them.

    Panel (a, size), cells a+1..a+size, has nodes s_d at the Chebyshev
    points of [t_a, t_{a+size}] and charges q_f,d = int L_d f_h ds and
    q_B,d = int L_d u_h' ds over its cells, with f_h the hat interpolant of
    f and u_h' = (U_j - U_{j-1})/tau_j on cell j. A row's far sum over a
    panel is then sum_d W(t_n - s_d) q_f,d - (K(t_n, s_d) - 1) q_B,d, with
    W the _far_weight at alpha(t_n). Without incs there is no B term (the
    gap rows take it exactly). A leaf's charges are a Gauss sum per cell and
    a parent's are its two children's taken through the children's nodes;
    both are exact, as L_d is a polynomial of degree PANEL_NODES - 1, on
    each child too. Both sums weigh by L_d at points fixed in the panel's own
    coordinates, so on a uniform mesh all leaves share one basis
    (_LEAF_BASIS) and all parents another (_PARENT_BASIS); on a graded mesh
    each panel's is taken at its points in t, those of all the parents one
    _make adds in one _lagrange call.

    The panels that end by t_N are held level by level in flat arrays, O(N)
    in all; level l holds the panels of size PANEL_LEAF_CELLS 2^l, each
    starting at a multiple of its size. Each is made when the march reaches
    its `ready` row, the first that may read it (FAR_SEPARATION panel widths
    past its end): its cells are solved by then, and that row, the nearest
    the panel serves, is where it is checked. A level's panels are ready in
    order, so those one _make call adds to a level are a slice of ids, found
    by bisection of the level's ready rows, and so are their children.
    """

    def __init__(self, cq: _CellQuadrature, fvals: np.ndarray, incs: np.ndarray | None):
        self.cq, self.fvals, self.incs = cq, fvals, incs
        nodes, N = cq.mesh.nodes, cq.mesh.N
        sizes = PANEL_LEAF_CELLS << np.arange((N // PANEL_LEAF_CELLS).bit_length())
        counts = N // sizes
        # level l holds ids first[l] .. first[l] + counts[l] - 1, of which
        # the first made[l] are made: a level's panels are ready in order
        self.counts, self.first = counts, (np.cumsum(counts) - counts).tolist()
        self.made = [0] * len(sizes)
        self.size = np.repeat(sizes, counts)
        self.start = _runs(np.zeros_like(counts), counts) * self.size
        t0, t1 = nodes[self.start], nodes[self.start + self.size]
        self.ready = _ready_rows(nodes, self.start, self.size)
        self.level_ready = [self.ready[first : first + count].tolist()
                            for first, count in zip(self.first, counts)]
        self.s = t0[:, None] + (t1 - t0)[:, None] * _CHEB
        # alpha at the nodes, which only the B term reads
        self.alpha_s = None if incs is None else np.asarray(cq.order.alpha(self.s), dtype=float)
        self.q = np.zeros((len(self.size), PANEL_NODES, 1 if incs is None else 2))
        self.passed = np.zeros(len(self.size), dtype=bool)

    def _make(self, lo: int):
        """Make every panel whose ready row is lo or earlier: the new leaves'
        charges, then the new parents', level by level, then one check of
        them all."""
        new = []  # (level, ids) of each level with new panels
        for level, (first, made, ready) in enumerate(zip(self.first, self.made, self.level_ready)):
            stop = bisect.bisect_right(ready, lo, made)
            if stop > made:
                new.append((level, slice(first + made, first + stop)))
                self.made[level] = stop
        if not new:
            return
        if new[0][0] == 0:
            self._leaf_charges(new[0][1])
        if new[-1][0] > 0:
            self._parent_charges([(level, ids) for level, ids in new if level > 0])
        ids = np.concatenate([np.arange(ids.start, ids.stop) for _, ids in new])
        self.passed[ids] = self._check(ids)

    def _leaf_charges(self, ids: slice):
        """Charges (q_f[, q_B]) of the leaves ids: Gauss sums per cell,
        through the fixed _LEAF_BASIS on a uniform mesh."""
        x, w = _CHARGE_RULE.nodes, _CHARGE_RULE.weights
        mesh, n = self.cq.mesh, ids.stop - ids.start
        # leaf i holds cells j + 1 for PANEL_LEAF_CELLS i <= j < PANEL_LEAF_CELLS
        # (i + 1): one row of j per leaf
        j = slice(PANEL_LEAF_CELLS * ids.start, PANEL_LEAF_CELLS * ids.stop)
        j1 = slice(j.start + 1, j.stop + 1)
        shape = (n, PANEL_LEAF_CELLS, 1)
        tau = mesh.steps[j].reshape(shape)
        f0, f1 = self.fvals[j].reshape(shape), self.fvals[j1].reshape(shape)
        values = [tau * w * (f0 * (1.0 - x) + f1 * x)]
        if self.incs is not None:
            values.append(np.broadcast_to(w * self.incs[j1].reshape(shape), values[0].shape))
        values = np.stack(values, axis=-1).reshape(n, len(_LEAF_BASIS), len(values))
        if mesh.is_uniform:
            basis = _LEAF_BASIS.T
        else:
            points = (mesh.nodes[j].reshape(shape) + tau * x).reshape(n, len(_LEAF_BASIS))
            basis = np.swapaxes(_lagrange(self.s[ids], points), 1, 2)
        self.q[ids] = basis @ values

    def _parent_charges(self, new: list[tuple[int, slice]]):
        """Charges of the new parents, (level, ids) per level in increasing
        order, from their two children's, made earlier or one level before
        in this _make: q_d = sum over the children's nodes s_e of L_d(s_e)
        q_e, through the fixed _PARENT_BASIS on a uniform mesh, and on a
        graded mesh through the bases of every level from one _lagrange
        call."""
        counts, kids = [], []
        for level, ids in new:
            n = ids.stop - ids.start
            # children of panel first[l] + i are first[l - 1] + 2i and 2i + 1
            a = self.first[level - 1] + 2 * (ids.start - self.first[level])
            counts.append(n)
            kids.append(slice(a, a + 2 * n))
        if self.cq.mesh.is_uniform:
            bases = [_PARENT_BASIS.T] * len(new)
        else:
            nodes = np.concatenate([self.s[ids] for _, ids in new])
            points = np.concatenate([self.s[k] for k in kids]).reshape(len(nodes), 2 * PANEL_NODES)
            bases = np.split(np.swapaxes(_lagrange(nodes, points), 1, 2), np.cumsum(counts[:-1]))
        for (_, ids), k, n, basis in zip(new, kids, counts, bases):
            self.q[ids] = basis @ self.q[k].reshape(n, 2 * PANEL_NODES, self.q.shape[2])

    def _check(self, ids: np.ndarray) -> np.ndarray:
        """Whether each far term of each panel of ids at its ready row is
        within FAR_CHECK_TOL of direct quadrature (the moments and Gauss
        cell averages of its cells, in chunks of HISTORY_BLOCK_POINTS
        kernel points), relative to the sum of that term's absolute
        contributions there."""
        cq, nodes = self.cq, self.cq.mesh.nodes
        size, ready = self.size[ids], self.ready[ids]
        t, al = nodes[ready], cq.alpha_t[ready]
        owner, cells = np.repeat(np.arange(len(ids)), size), _runs(self.start[ids], size)  # cell j + 1
        # direct sums and their scales, term by term
        sums = np.zeros((2 if self.incs is None else 4, len(ids)))
        step = HISTORY_BLOCK_POINTS // cq.rule.count
        for k in range(0, len(cells), step):
            c, o = cells[k : k + step], owner[k : k + step]
            wl, wr = _cell_moments(t[o], nodes[c], nodes[c + 1], al[o])
            f0, f1 = self.fvals[c], self.fvals[c + 1]
            parts = [wl * f0 + wr * f1, wl * np.abs(f0) + wr * np.abs(f1)]
            if self.incs is not None:
                avg = cq.rule.weights @ _kernel_minus_one(al[o] - cq.alpha_s.take(c, 1), t[o] - cq.s.take(c, 1))
                d = self.incs[c + 1]
                parts += [avg * d, np.abs(1.0 + avg) * np.abs(d)]
            sums += [np.bincount(o, part, len(ids)) for part in parts]
        v = t[:, None] - self.s[ids]
        got = [np.sum(_far_weight(v, al[:, None]) * self.q[ids, :, 0], axis=1)]
        if self.incs is not None:
            kernel = _kernel_minus_one(al[:, None] - self.alpha_s[ids], v)
            got.append(np.sum(kernel * self.q[ids, :, 1], axis=1))
        # a NaN read past the solved prefix passes, and shows in the rows
        return ~np.any(np.abs(np.stack(got) - sums[::2]) > FAR_CHECK_TOL * sums[1::2], axis=0)

    def _read(self, lo: int) -> tuple[int, list[int]]:
        """(far, used): the panels row lo reads (used, in order of their
        cells, once those ready by row lo are made) and the last cell they
        cover (far). A walk of the tree from a root above its largest level
        reads a panel that exists, is ready by row lo and passed its check,
        splits any other into its two children, and ends at a leaf it does
        not read."""
        self._make(lo)
        N = self.cq.mesh.N
        used, stack = [], [(0, PANEL_LEAF_CELLS << len(self.counts))]
        while stack:
            a, size = stack.pop()
            # a panel exists if it ends by t_N; the root does not
            level = (size // PANEL_LEAF_CELLS).bit_length() - 1
            i = self.first[level] + a // size if a + size <= N else -1
            if i >= 0 and self.ready[i] <= lo and self.passed[i]:
                used.append(i)
            elif size > PANEL_LEAF_CELLS:
                stack += [(a + size // 2, size // 2), (a, size // 2)]
            else:
                break
        far = int(self.start[used[-1]] + self.size[used[-1]]) if used else 0
        assert self.size[used].sum() == far, "the panels read must tile cells 1..far"
        return far, used

    def far_sums(self, used: list[int], lo: int, hi: int) -> np.ndarray:
        """known[n - lo], row n's far sum for rows lo..hi over the panels
        `used` (from _read(lo)), in runs of rows whose far-weight and kernel
        arrays stay within HISTORY_BLOCK_POINTS points; a row that alone
        exceeds it is a run of its own, as in _row_blocks."""
        s, q = self.s[used].ravel(), self.q[used].reshape(-1, self.q.shape[2])
        t, al = self.cq.mesh.nodes[lo : hi + 1, None], self.cq.alpha_t[lo : hi + 1, None]
        known, step = np.empty(hi - lo + 1), max(1, HISTORY_BLOCK_POINTS // len(s))
        for rows in (slice(a, a + step) for a in range(0, len(known), step)):
            v = t[rows] - s
            known[rows] = _far_weight(v, al[rows]) @ q[:, 0]
            if self.incs is not None:
                known[rows] -= _kernel_minus_one(al[rows] - self.alpha_s[used].ravel(), v) @ q[:, 1]
        return known


def _groups(cq: _CellQuadrature, fvals, incs):
    """(lo, hi, far, known) for row groups covering rows 1..N in order:
    known[n - lo] is row n's far sum (_Panels.far_sums), and far is 0 (known
    zero) where the group is direct.

    Groups have GROUP_ROWS rows (the last may have fewer) and read their far
    field only if it saves at least FAR_MIN_SAVED_POINTS points. A walk from
    row lo (_Panels._read) reads only panels ready by row lo, so it ends by
    the end of the last leaf ready by then (reach, from the mesh alone): a
    group whose reach is too short is direct before any panel is built or
    made, and one whose walk ends too early is direct without evaluating its
    far sums. Consecutive direct groups are yielded as one, and without
    fvals the one group is 1..N.
    """
    N, panels = cq.mesh.N, None
    leaves = np.arange(0, N - PANEL_LEAF_CELLS + 1, PANEL_LEAF_CELLS)
    # reach(lo) = PANEL_LEAF_CELLS * #{i : ready[i] <= lo}. The leaves' ready
    # rows are nondecreasing, as _Panels._make's bisection also needs: a
    # leaf's end plus FAR_SEPARATION widths grows from leaf to leaf, because
    # a Mesh's steps do not shrink (r >= 1)
    ready = _ready_rows(cq.mesh.nodes, leaves, PANEL_LEAF_CELLS)
    start = 1  # first row not yet yielded
    for lo in range(1, N + 1, GROUP_ROWS) if fvals is not None else ():
        hi = min(lo + GROUP_ROWS - 1, N)
        saved = (hi - lo + 1) * (cq.rule.count + 1)
        reach = PANEL_LEAF_CELLS * int(np.searchsorted(ready, lo, "right"))
        if reach * saved < FAR_MIN_SAVED_POINTS:
            continue
        if start < lo:
            # before the panels are made: they read these rows' values
            yield start, lo - 1, 0, np.zeros(lo - start)
            start = lo
        if panels is None:
            panels = _Panels(cq, fvals, incs)
        far, used = panels._read(lo)
        if far * saved >= FAR_MIN_SAVED_POINTS:
            assert far < lo, "a group's far cells must end before its first row"
            yield lo, hi, far, panels.far_sums(used, lo, hi)
            start = hi + 1
    if start <= N:
        yield start, N, 0, np.zeros(N - start + 1)


def history_weights(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """History row h[n][0..n] of the K_s term, as WeightTable.history_row.

    h[n][i] is the integral of K_s(t_n, .) against hat_i over its one or
    two supporting cells, and h[n][0] the u0 coefficient from the
    descending hat on [t_0, t_1]: differences of the row's cell averages of
    K (_hat_weights), each by direct quadrature, with `rule` applied per
    cell off the diagonal and the fixed diagonal rule on it.
    """
    if not (1 <= n <= mesh.N):
        raise IndexError(f"need 1 <= n <= N, got n={n}, N={mesh.N}")
    cq = _cell_quadrature(order, mesh, rule)
    col0 = _kernel_minus_one(cq.alpha_t[n : n + 1] - cq.alpha_t[0], mesh.nodes[n : n + 1])
    return _hat_weights(np.concatenate((col0, _cell_averages(cq, np.array([n]))[0])))


@dataclass
class WeightTable:
    """All collocation coefficients for one (order, mesh, rule) triple.

    Dense mode stores the cell-average table B[n][j], j = 0..n (see the
    module docstring). Invariant mode (fast path) stores no B but two
    sequences indexed by the gap k = n - j,

        B[n][j] = gap_avg[n-j]  (1 <= j <= n),   B[n][0] = gap_nodal[n-1],

    with gap_nodal[k-1] = K(t, t - k tau) - 1, valid because K depends on
    t - s only for affine order on a uniform mesh. Singular moments wL/wR
    are dense in both modes (they depend on alpha(t_n) row by row). The
    hat-basis history weights (history_row, h_entry) are derived from these
    on request. `solve` does not build this table; it streams the same rows
    from `coefficient_rows`.
    """

    wL: np.ndarray
    wR: np.ndarray
    B: np.ndarray | None = None
    gap_avg: np.ndarray | None = None
    gap_nodal: np.ndarray | None = None

    @property
    def N(self) -> int:
        return len(self.wL) - 1

    @property
    def invariant_mode(self) -> bool:
        return self.B is None

    def history_row(self, n: int) -> np.ndarray:
        """Row h[n][0..n] (_hat_weights): entry i >= 1 weighs U_i, entry 0
        is the u0 coefficient."""
        if not (1 <= n <= self.N):
            raise IndexError(f"need 1 <= n <= N, got n={n}, N={self.N}")
        if self.invariant_mode:
            return _hat_weights(np.concatenate((self.gap_nodal[n - 1 : n], self.gap_avg[n - 1 :: -1])))
        return _hat_weights(self.B[n, : n + 1])

    def h_entry(self, n: int, i: int) -> float:
        if not (1 <= i <= n <= self.N):
            raise IndexError(f"need 1 <= i <= n <= N, got i={i}, n={n}")
        return float(self.history_row(n)[i])

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


def translation_invariant(order: VariableOrder, mesh: Mesh,
                          rule: QuadratureRule | None = None) -> None:
    """Check that K(t_n, s) depends on t_n - s alone at every point a solve
    reads it: the mesh is uniform and alpha is affine (_chord_gap within
    AFFINE_TOL) at the nodes and the off-diagonal points of `rule` (None:
    gauss_nodes()). Inputs that do not qualify raise ValueError naming why;
    a graded mesh is refused before alpha is sampled."""
    if not mesh.is_uniform:
        raise ValueError(f"the fast path needs a uniform mesh (r = 1), got r = {mesh.r:g}")
    rule = gauss_nodes() if rule is None else rule
    gap, where = _chord_gap(_cell_quadrature(order, mesh, rule))
    if gap > AFFINE_TOL:
        raise ValueError(
            f"the fast path needs an affine order: alpha departs from its chord "
            f"by {gap:.3g} at t = {where:.6g}"
        )


def _chord_gap(cq: _CellQuadrature) -> tuple[float, float]:
    """(gap, t): the largest departure of alpha from its chord
    alpha(0) + (alpha(T) - alpha(0)) t / T at the nodes of cq, and the first
    t with it; where the nodes stay within AFFINE_TOL, the same at the rule
    points. Most non-affine orders are thus refused on N + 1 values."""
    a, T = cq.alpha_t, cq.mesh.T
    worst, where = 0.0, 0.0
    for t, alpha in ((cq.mesh.nodes, a), (cq.s.T, cq.alpha_s.T)):
        if not t.size:
            continue
        gap = np.abs(alpha - (a[0] + (a[-1] - a[0]) * (t / T)))
        k = int(np.argmax(gap))
        worst, where = float(gap.flat[k]), float(t.flat[k])
        if worst > AFFINE_TOL:
            break
    return worst, where


def _gap_rows(cq: _CellQuadrature, fvals=None, incs=None):
    """coefficient_rows for translation-invariant inputs: the B blocks are
    read-only views of row N, which holds every gap; only the moments and
    the far sums are computed."""
    N, nodes = cq.mesh.N, cq.mesh.nodes
    # B[n][j] = B[N][N - n + j] = last[N - n + j - 1]: cell j lies n - j
    # steps behind t_n. Row N is padded with N zeros, the cells right of each
    # row's diagonal, so row n of a block from far cell far is window
    # N - n + far of `gaps`
    last = np.concatenate((_cell_averages(cq, np.array([N]))[0], np.zeros(N)))
    gaps = sliding_window_view(last, N)
    for lo, hi, far, known in _groups(cq, fvals, None):
        if far:
            # the far B term exactly: B[n][j] = last[N - n + j - 1]
            known -= np.correlate(last[N - hi : N - lo + far], incs[1 : far + 1], "valid")[::-1]
        for rows in _row_blocks(lo, hi, far, 0):
            r0, r1 = int(rows[0]), int(rows[-1])
            wl, wr = _moments(nodes[rows], nodes[far : r1 + 1], cq.alpha_t[rows])
            b = gaps[N - r1 + far : N - r0 + far + 1, : r1 - far][::-1]
            yield r0, r1, far, wl, wr, b, known[r0 - lo : r1 - lo + 1]
            del wl, wr, b  # freed before the next block, if the consumer drops them


def _direct_rows(cq: _CellQuadrature, fvals=None, incs=None):
    """coefficient_rows by quadrature of every near cell, on any inputs:
    each block of a row group gets the moments and cell averages of its
    near cells in one go."""
    nodes = cq.mesh.nodes
    for lo, hi, far, known in _groups(cq, fvals, incs):
        for rows in _row_blocks(lo, hi, far, cq.rule.count):
            r0, r1 = int(rows[0]), int(rows[-1])
            # the kernel arrays first, while the block holds nothing else
            b = _cell_averages(cq, rows, far)
            wl, wr = _moments(nodes[rows], nodes[far : r1 + 1], cq.alpha_t[rows])
            yield r0, r1, far, wl, wr, b, known[r0 - lo : r1 - lo + 1]
            del wl, wr, b  # freed before the next block, if the consumer drops them


def coefficient_rows(order: VariableOrder, mesh: Mesh, rule: QuadratureRule | None,
                     fvals: np.ndarray, incs: np.ndarray):
    """Yield the collocation rows 1..N in blocks of rows lo..hi, each as
    (lo, hi, far, wL, wR, B, far_known): wL, wR and B hold wL[n][j],
    wR[n][j] and B[n][j] at [n - lo, j - far - 1] for the near cells
    j = far+1..n of rows n = lo..hi, with exact zeros right of each row's
    diagonal (j > n), and far_known[n - lo] is row n's far sum over cells
    1..far,

        sum_{j <= far} wL[n][j] f_{j-1} + wR[n][j] f_j - B[n][j] (U_j - U_{j-1}),

    with f_j = fvals[j] and U_j - U_{j-1} = incs[j]. The blocks of a row
    group read fvals[:far + 1] and incs[1:far + 1], far < lo, when its first
    block is asked for, so a consumer that asks for the block from row lo
    must have made entries 0..lo-1 final, as the march does. Consumers only
    read the arrays: the gap rows' B blocks are read-only views of one row.

    Blocks are _row_blocks, none of whose arrays exceeds
    HISTORY_BLOCK_POINTS points unless one row's does, and are dropped once
    consumed, so memory stays O(N), whatever N is. Where
    translation_invariant holds (checked on the alpha values the rows are
    built from) they are _gap_rows, elsewhere _direct_rows. `rule` is as
    for `assemble`.
    """
    cq = _cell_quadrature(order, mesh, gauss_nodes() if rule is None else rule)
    affine = mesh.is_uniform and _chord_gap(cq)[0] <= AFFINE_TOL
    yield from (_gap_rows if affine else _direct_rows)(cq, fvals, incs)


def assemble(
    order: VariableOrder,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    fast_path: bool = False,
) -> WeightTable:
    """Build the full weight table from the collocation rows.

    rule is the Gauss rule applied per mesh cell off each row's diagonal;
    None means gauss_nodes(), 7 nodes. The diagonal cell always takes the
    fixed rule graded into its corner (DIAG_NODES). The default
    table is dense, from _direct_rows on every input (a reference for the
    gap-indexed rows). fast_path stores the O(N) gap-indexed cell averages
    and nodal kernel values a solve reads where translation_invariant holds,
    and raises ValueError elsewhere. Every cell of every row is direct (no
    far field), and the moments are dense in both modes: this table is a
    cache for inspection and a reference, not what a solve holds.
    """
    rule = gauss_nodes() if rule is None else rule
    if fast_path:
        translation_invariant(order, mesh, rule)
    N = mesh.N
    cq = _cell_quadrature(order, mesh, rule)
    wL = np.zeros((N + 1, N + 1))
    wR = np.zeros((N + 1, N + 1))
    B = None if fast_path else np.zeros((N + 1, N + 1))
    for lo, hi, _, wl, wr, b, _ in (_gap_rows if fast_path else _direct_rows)(cq):
        wL[lo : hi + 1, 1 : hi + 1] = wl
        wR[lo : hi + 1, 1 : hi + 1] = wr
        if B is not None:
            B[lo : hi + 1, 1 : hi + 1] = b
    a = cq.alpha_t
    nodal = _kernel_minus_one(a[1:] - a[0], mesh.nodes[1:])  # K(t_n, 0) - 1
    if fast_path:
        # b[-1] is row N: gap k = N - j
        return WeightTable(wL=wL, wR=wR, gap_avg=b[-1, ::-1], gap_nodal=nodal)
    B[1:, 0] = nodal
    return WeightTable(wL=wL, wR=wR, B=B)
