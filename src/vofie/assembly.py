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
uniform mesh K depends on t - s alone; translation_invariant works that out
from the mesh and alpha's values (nothing is declared). A solve on such
inputs keeps one gap-indexed sequence of cell averages and skips the
per-block kernel sweeps, streaming only the moments.

Far field. Both far terms of row n are integrals of a kernel smooth in s
away from s = t_n against a density the march has solved:

    F(t_n) = sum_{j <= far} wL(t_n, j) f_{j-1} + wR(t_n, j) f_j
             - B(t_n, j) (U_j - U_{j-1})
           = int_0^{t_far} W(t_n - s) f_h(s) - (K(t_n, s) - 1) u_h'(s) ds,

with W the singular weight at alpha(t_n), f_h the hat interpolant of f and
u_h' the slope of U on each cell. The cells sit in a fixed binary tree of
panels (PANEL_LEAF_CELLS cells per leaf), split on index. A group of
GROUP_ROWS rows reads the fewest tree panels that end at least
FAR_SEPARATION panel widths before its first row (_cover), so panels widen
with distance; cells 1..far of the cover are its far field, the cells
far+1..n of each row are near. Each panel carries charges
int L_d f_h ds and int L_d u_h' ds at PANEL_NODES Chebyshev nodes s_d,
made once, when the march reaches the first row that may read the panel
(_Panels), and a row's far sum is sum over panels and d of
W(t_n - s_d) q_f,d - (K(t_n, s_d) - 1) q_B,d. Near cells cost O(1) per row
and far panels O(log N), so a solve costs O(N log N) points and O(N)
memory. Each panel is checked once, against direct quadrature of its cells
at that first row: where either term misses by more than FAR_CHECK_TOL of
its absolute contributions, which happens where alpha varies on the scale
of the panel, the rows read its two children instead, and a failing leaf
ends the far field. The gap rows (above) take the far moment term from the
panels in groups of GAP_GROUP_ROWS rows and keep the far B term an exact dot
of row N. Groups that would save little stay fully direct (every solve with
N <= 192 and the 8-node rule). With f = 0 both terms are exactly zero.

`assemble` collects rows into a WeightTable, the cache that coefficient
dumps and the tests read, dense by default and gap-indexed with fast_path.
It has no far field: every cell of every row is direct, so the table is an
independent reference for the solve. Its hat-basis history weights
h[n][i] = B[n][i+1] - B[n][i], h[n][n] = -B[n][n] and u0 coefficient
h0[n] = B[n][1] - B[n][0] are derived views.
"""

from __future__ import annotations

import math
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
# Kernel evaluations per block of history rows, moments per block where no
# kernel points come with them (the gap rows), and basis values per chunk of
# parent charges: large enough that numpy call overhead is amortised, small
# enough that the temporaries stay in cache and add nothing measurable to
# peak memory.
HISTORY_BLOCK_POINTS = 2**14
# Far field. The cells sit in a binary tree of source panels (_cover): a
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
# that became readable. The gap rows' near cells cost one moment each (their
# B is a view), so their groups are longer.
GROUP_ROWS = 32
GAP_GROUP_ROWS = 128
# Kernel and moment points (rule.count + 1 per far cell and row) a group must
# save for its far field to be used: every solve with N <= 192 and the
# 8-node rule stays direct.
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
    v = np.maximum(t[:, None] - edges, 0.0)
    al = al[:, None]
    m = v**al
    m = (m[:, :-1] - m[:, 1:]) / (al * special.gamma(al))
    b, a = v[:, :-1], v[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        q = (b - a) / b
        e = np.expm1(al * np.log1p(-q))  # -D
        theta = (q * (al - e) + e) / (q * e) * (-1.0 / (al + 1.0))
    # fmax/fmin also map the NaN of the zero columns past t (q = 0/0)
    # into range, where m = 0
    wl = np.fmin(np.fmax(theta, al / (al + 1.0), out=theta), 0.5, out=theta) * m
    return wl, m - wl


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


# The _CellQuadrature of the last inputs translation_invariant passed, held
# for the next _cell_quadrature call only: the solve after a check on the
# same order, mesh and rule objects reads it, so alpha is sampled once.
# Orders are pure and meshes are not changed in place.
_checked: _CellQuadrature | None = None


def _cell_quadrature(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """_CellQuadrature for rows up to n (cells 1..n-1 off the diagonal)."""
    global _checked
    cq, _checked = _checked, None
    if (cq is not None and cq.order is order and cq.mesh is mesh and cq.rule is rule
            and len(cq.alpha_t) == n + 1):
        return cq
    s = mesh.nodes[: n - 1, None] + mesh.steps[: n - 1, None] * rule.nodes
    return _CellQuadrature(
        order=order,
        mesh=mesh,
        rule=rule,
        alpha_t=np.asarray(order.alpha(mesh.nodes[: n + 1]), dtype=float),
        s=s,
        alpha_s=np.asarray(order.alpha(s), dtype=float),
    )


def _runs(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges starts[k], ..., starts[k] + counts[k] - 1, concatenated."""
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def _cell_averages(cq: _CellQuadrature, rows: np.ndarray, first: int = 0) -> np.ndarray:
    """B[k, c] = (1/tau_j) int_{cell j} K(t_n, s) ds - 1 for n = rows[k] and
    cell j = first + 1 + c, over the cells first+1..rows[-1]; columns past
    n are zero. The off-diagonal cells are gathered point by point, the
    rule's points of all rows in one sweep; the diagonal cell gets
    geometric panels toward the v ln v corner at s = t_n.
    """
    nodes, x, w = cq.mesh.nodes, cq.rule.nodes, cq.rule.weights
    tn, an = nodes[rows], cq.alpha_t[rows]
    out = np.zeros((len(rows), rows[-1] - first))

    counts = rows - 1 - first
    k = np.repeat(np.arange(len(rows)), counts)
    c = _runs(np.zeros_like(counts), counts)
    j = first + c
    out[k, c] = _kernel_minus_one(an[k, None] - cq.alpha_s[j], tn[k, None] - cq.s[j]) @ w

    edges = _diag_edges(nodes[rows - 1], tn)
    width = np.diff(edges, axis=1)[:, :, None]
    s = (edges[:, :-1, None] + width * x).reshape(len(rows), -1)
    wgt = (width * w / cq.mesh.steps[rows - 1, None, None]).reshape(len(rows), -1)
    da = an[:, None] - np.asarray(cq.order.alpha(s), dtype=float)
    out[np.arange(len(rows)), counts] = np.sum(_kernel_minus_one(da, tn[:, None] - s) * wgt, axis=1)
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


def _row_blocks(lo: int, hi: int, first: int, cells: int):
    """Consecutive row ranges of lo..hi, each within `cells` near cells
    first+1..n and diagonal panels (a row with more is a block of its
    own)."""
    cost = np.cumsum(np.arange(lo, hi + 1) - first + DIAG_PANELS)
    start = 0
    while start < len(cost):
        base = cost[start - 1] if start else 0
        stop = max(start + 1, int(np.searchsorted(cost, base + cells, "right")))
        yield np.arange(lo + start, lo + stop)
        start = stop


def _reach(nodes: np.ndarray, a, size):
    """The earliest time that may read panel (a, size): FAR_SEPARATION panel
    widths past its end. Takes arrays."""
    b = a + size
    return nodes[b] + FAR_SEPARATION * (nodes[b] - nodes[a])


def _cover(nodes: np.ndarray, lo: int) -> list[tuple[int, int]]:
    """The fewest tree panels that row lo may read (_reach <= t_lo) and that
    cover cells 1..far, with far as large as leaves allow.

    Panel (a, size) holds cells a+1..a+size, size is PANEL_LEAF_CELLS 2^l
    and a is a multiple of size. From cell 1 on, each step takes the largest
    such panel that starts where the last one ended; sizes only shrink
    along the cover, so panels grow wider with distance from t_lo.
    """
    N, t_lo = len(nodes) - 1, nodes[lo]
    size = PANEL_LEAF_CELLS << ((N - 1) // PANEL_LEAF_CELLS).bit_length()
    cover, a = [], 0
    while True:
        while size >= PANEL_LEAF_CELLS and (a + size >= lo or _reach(nodes, a, size) > t_lo):
            size //= 2
        if size < PANEL_LEAF_CELLS:
            return cover
        cover.append((a, size))
        a += size


def _row_groups(mesh: Mesh, rule: QuadratureRule, size: int, far_field: bool = True):
    """Row groups (lo, hi, cover) covering rows 1..N in order.

    Groups have `size` rows (the last may have fewer), and cover is the
    _cover of row lo, or empty where every cell is near: a group's far field
    is used only if it saves at least FAR_MIN_SAVED_POINTS points.
    Consecutive groups with an empty cover are yielded as one, and without
    far_field the one group is 1..N.
    """
    N, nodes = mesh.N, mesh.nodes
    start = 1  # first row not yet yielded
    for lo in range(1, N + 1, size) if far_field else ():
        hi = min(lo + size - 1, N)
        saved = (hi - lo + 1) * (rule.count + 1)
        if (lo - 1) * saved < FAR_MIN_SAVED_POINTS:
            continue  # far < lo
        cover = _cover(nodes, lo)
        if cover and sum(cover[-1]) * saved >= FAR_MIN_SAVED_POINTS:
            if start < lo:
                yield start, lo - 1, []
            yield lo, hi, cover
            start = hi + 1
    if start <= N:
        yield start, N, []


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
    gap = x[..., :, None] - nodes[..., None, :]
    hit = gap == 0.0
    q = _BARY / np.where(hit, 1.0, gap)
    on_node = hit.any(axis=-1)
    q[on_node] = hit[on_node]
    return q / q.sum(axis=-1, keepdims=True)


def _far_weight(v, al):
    """The singular weight v^{al-1}/Gamma(al) of the moments, v = t - s."""
    return v ** (al - 1.0) / special.gamma(al)


class _Panels:
    """The far field of a solve: the tree's panels with their charges, each
    made and checked once, and the far sums of a group from them.

    Panel (a, size) of _cover has nodes s_d at the Chebyshev points of
    [t_a, t_{a+size}] and charges q_f,d = int L_d f_h ds and
    q_B,d = int L_d u_h' ds over its cells, with f_h the hat interpolant of
    f and u_h' = (U_j - U_{j-1})/tau_j on cell j. A row's far sum over a
    panel is then sum_d W(t_n - s_d) q_f,d - (K(t_n, s_d) - 1) q_B,d, with
    W the _far_weight at alpha(t_n). Without incs there is no B term (the
    gap rows take it exactly). A leaf's charges are a Gauss sum per cell and
    a parent's are its leaves' taken through the leaves' nodes; both are
    exact, as L_d is a polynomial of degree PANEL_NODES - 1.

    The panels that end by t_N are held level by level in flat arrays, O(N)
    in all. Each is made when the march reaches its `ready` row, the first
    that may read it: its cells are solved by then, and that row, the
    nearest the panel serves, is where it is checked.
    """

    def __init__(self, cq: _CellQuadrature, fvals: np.ndarray, incs: np.ndarray | None):
        self.cq, self.fvals, self.incs = cq, fvals, incs
        nodes, N = cq.mesh.nodes, cq.mesh.N
        sizes = PANEL_LEAF_CELLS << np.arange((N // PANEL_LEAF_CELLS).bit_length())
        counts = N // sizes
        # level l holds ids first[l] .. first[l] + counts[l] - 1, of which
        # the first made[l] are made: a level's panels are ready in order
        self.counts, self.first = counts, np.cumsum(counts) - counts
        self.made = np.zeros(len(sizes), dtype=int)
        self.size = np.repeat(sizes, counts)
        self.start = _runs(np.zeros_like(counts), counts) * self.size
        self.ready = np.searchsorted(nodes, _reach(nodes, self.start, self.size), "left")
        t0, t1 = nodes[self.start], nodes[self.start + self.size]
        self.s = t0[:, None] + (t1 - t0)[:, None] * _CHEB
        self.alpha_s = np.asarray(cq.order.alpha(self.s), dtype=float)
        self.q = np.zeros((len(self.size), PANEL_NODES, 1 if incs is None else 2))
        self.passed = np.zeros(len(self.size), dtype=bool)

    def _make(self, lo: int):
        """Make every panel whose ready row is lo or earlier: the new leaves'
        charges, then the new parents', then one check of them all."""
        new = []
        for level, (first, count, made) in enumerate(zip(self.first, self.counts, self.made)):
            stop = int(np.searchsorted(self.ready[first : first + count], lo, "right"))
            new.append(np.arange(first + made, first + stop))
            self.made[level] = stop
        leaves, ids = new[0], np.concatenate(new)
        if ids.size:
            self.q[leaves] = self._leaf_charges(leaves)
            self.q[ids[len(leaves) :]] = self._parent_charges(ids[len(leaves) :])
            self.passed[ids] = self._check(ids)

    def _leaf_charges(self, ids: np.ndarray) -> np.ndarray:
        """Charges (q_f[, q_B]) of leaves ids: Gauss sums per cell."""
        x, w = _CHARGE_RULE.nodes, _CHARGE_RULE.weights
        mesh = self.cq.mesh
        cells = self.start[ids, None] + np.arange(PANEL_LEAF_CELLS)  # cell j + 1
        tau = mesh.steps[cells][..., None]
        f0, f1 = self.fvals[cells][..., None], self.fvals[cells + 1][..., None]
        values = [tau * w * (f0 * (1.0 - x) + f1 * x)]
        if self.incs is not None:
            values.append(np.broadcast_to(w * self.incs[cells + 1][..., None], values[0].shape))
        basis = _lagrange(self.s[ids], (mesh.nodes[cells][..., None] + tau * x).reshape(len(ids), -1))
        return np.swapaxes(basis, 1, 2) @ np.stack(values, axis=-1).reshape(len(ids), -1, len(values))

    def _parent_charges(self, ids: np.ndarray) -> np.ndarray:
        """Charges of parents ids from those of their leaves (made by now):
        q_d = sum over leaves and their nodes s_e of L_d(s_e) q_e, in chunks
        of HISTORY_BLOCK_POINTS basis values."""
        count = self.size[ids] // PANEL_LEAF_CELLS
        owner = np.repeat(np.arange(len(ids)), count)
        leaves = _runs(self.start[ids] // PANEL_LEAF_CELLS, count)  # level 0 ids
        q = np.zeros((len(ids),) + self.q.shape[1:])
        step = HISTORY_BLOCK_POINTS // PANEL_NODES**2
        for k in range(0, len(leaves), step):
            part = slice(k, k + step)
            basis = _lagrange(self.s[ids[owner[part]]], self.s[leaves[part]])
            np.add.at(q, owner[part], np.swapaxes(basis, 1, 2) @ self.q[leaves[part]])
        return q

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
            wl, wr = (m[:, 0] for m in _moments(t[o], nodes[c[:, None] + np.arange(2)], al[o]))
            f0, f1 = self.fvals[c], self.fvals[c + 1]
            parts = [wl * f0 + wr * f1, wl * np.abs(f0) + wr * np.abs(f1)]
            if self.incs is not None:
                avg = _kernel_minus_one(al[o, None] - cq.alpha_s[c], t[o, None] - cq.s[c]) @ cq.rule.weights
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

    def far_sums(self, lo: int, hi: int, cover: list[tuple[int, int]]):
        """(far, known) of rows lo..hi: known[n - lo] is row n's far sum over
        cells 1..far. Each cover panel that failed its check gives way to
        its two children; a failing leaf ends the far cells."""
        self._make(lo)
        used, stack = [], cover[::-1]
        while stack:
            a, size = stack.pop()
            i = self.first[(size // PANEL_LEAF_CELLS).bit_length() - 1] + a // size
            if self.passed[i]:
                used.append(i)
            elif size > PANEL_LEAF_CELLS:
                stack += [(a + size // 2, size // 2), (a, size // 2)]
            else:
                break
        if not used:
            return 0, np.zeros(hi - lo + 1)
        far = int(self.start[used[-1]] + self.size[used[-1]])
        assert self.size[used].sum() == far, "the panels read must tile cells 1..far"
        rows = slice(lo, hi + 1)
        t, al = self.cq.mesh.nodes[rows, None], self.cq.alpha_t[rows, None]
        v, q = t - self.s[used].ravel(), self.q[used].reshape(-1, self.q.shape[2])
        known = _far_weight(v, al) @ q[:, 0]
        if self.incs is not None:
            known -= _kernel_minus_one(al - self.alpha_s[used].ravel(), v) @ q[:, 1]
        return far, known


def _groups(cq: _CellQuadrature, fvals, incs, size: int):
    """(lo, hi, far, known) for each _row_groups group of `size` rows:
    known[n - lo] is row n's far sum (_Panels), and far is 0 (known zero)
    where the group is direct. Without fvals every group is direct."""
    panels = None
    for lo, hi, cover in _row_groups(cq.mesh, cq.rule, size, fvals is not None):
        far, known = 0, np.zeros(hi - lo + 1)
        if cover:
            if panels is None:
                panels = _Panels(cq, fvals, incs)
            far, known = panels.far_sums(lo, hi, cover)
        assert far < lo, "a group's far cells must end before its first row"
        yield lo, hi, far, known


def history_weights(order: VariableOrder, mesh: Mesh, rule: QuadratureRule, n: int):
    """History row (h[n][1..n], h0[n]) of the K_s term.

    h[n][i] is the integral of K_s(t_n, .) against hat_i over its one or
    two supporting cells; h0[n] is the u0 coefficient from the descending
    hat on [t_0, t_1]. Both are differences of the row's cell averages of
    K (_hat_weights), each by direct quadrature: `rule` is applied per cell
    and per diagonal panel. Returned as (row, h0) with row[0] unused (zero).
    """
    if not (1 <= n <= mesh.N):
        raise IndexError(f"need 1 <= n <= N, got n={n}, N={mesh.N}")
    cq = _cell_quadrature(order, mesh, rule, n)
    col0 = _kernel_minus_one(cq.alpha_t[n:] - cq.alpha_t[0], mesh.nodes[n : n + 1])
    h, h0 = _hat_weights(np.concatenate((col0, _cell_averages(cq, np.array([n]))[0])))
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


def translation_invariant(order: VariableOrder, mesh: Mesh, rule: QuadratureRule | None = None,
                          require: bool = False) -> bool:
    """Whether K(t_n, s) depends on t_n - s alone at every point a solve
    reads it: the mesh is uniform and alpha is affine (_affine) at the nodes
    and the off-diagonal points of `rule` (None: gauss_nodes()). A graded
    mesh is refused before alpha is sampled. With require, inputs that do
    not qualify raise ValueError naming why."""
    global _checked
    if not mesh.is_uniform:
        if require:
            raise ValueError(f"the fast path needs a uniform mesh (r = 1), got r = {mesh.r:g}")
        return False
    cq = _cell_quadrature(order, mesh, gauss_nodes() if rule is None else rule, mesh.N)
    if not _affine(cq, require):
        return False
    _checked = cq
    return True


def _affine(cq: _CellQuadrature, require: bool = False) -> bool:
    """Whether alpha stays within AFFINE_TOL of its chord
    alpha(0) + (alpha(T) - alpha(0)) t / T at the nodes and the rule points
    of cq. The nodes are checked first, so most non-affine orders are
    refused on N + 1 values. With require, a departure raises ValueError
    naming its size and the t where it is largest."""
    a, T = cq.alpha_t, cq.mesh.T
    worst, where = 0.0, 0.0
    for t, alpha in ((cq.mesh.nodes, a), (cq.s, cq.alpha_s)):
        if not t.size:
            continue
        gap = np.abs(alpha - (a[0] + (a[-1] - a[0]) * (t / T)))
        k = int(np.argmax(gap))
        worst, where = float(gap.flat[k]), float(t.flat[k])
        if worst > AFFINE_TOL:
            break
    if require and worst > AFFINE_TOL:
        raise ValueError(
            f"the fast path needs an affine order: alpha departs from its chord "
            f"by {worst:.3g} at t = {where:.6g}"
        )
    return worst <= AFFINE_TOL


def _gap_rows(cq: _CellQuadrature, fvals=None, incs=None):
    """coefficient_rows for translation-invariant inputs: the B rows are
    views of row N, which holds every gap; only the moments and the far
    sums are streamed."""
    N, nodes = cq.mesh.N, cq.mesh.nodes
    # B[n][j] = B[N][N - n + j]: cell j lies n - j steps behind t_n
    last = _cell_averages(cq, np.array([N]))[0]
    for lo, hi, far, known in _groups(cq, fvals, None, GAP_GROUP_ROWS):
        if far:
            # the far B term exactly: B[n][j] = last[N - n + j - 1]
            known -= np.correlate(last[N - hi : N - lo + far], incs[1 : far + 1], "valid")[::-1]
        for rows in _row_blocks(lo, hi, far, HISTORY_BLOCK_POINTS):
            wl, wr = _moments(nodes[rows], nodes[far : rows[-1] + 1], cq.alpha_t[rows])
            for k, n in enumerate(rows.tolist()):
                yield n, far, wl[k, : n - far], wr[k, : n - far], last[N - n + far :], known[n - lo]


def _direct_rows(cq: _CellQuadrature, fvals=None, incs=None):
    """coefficient_rows by quadrature of every near cell, on any inputs:
    each block of a row group gets the moments and cell averages of its
    near cells in one go."""
    nodes = cq.mesh.nodes
    for lo, hi, far, known in _groups(cq, fvals, incs, GROUP_ROWS):
        for rows in _row_blocks(lo, hi, far, HISTORY_BLOCK_POINTS // cq.rule.count):
            wl, wr = _moments(nodes[rows], nodes[far : rows[-1] + 1], cq.alpha_t[rows])
            b = _cell_averages(cq, rows, far)
            for k, n in enumerate(rows.tolist()):
                yield n, far, wl[k, : n - far], wr[k, : n - far], b[k, : n - far], known[n - lo]


def coefficient_rows(order: VariableOrder, mesh: Mesh, rule: QuadratureRule | None = None,
                     fvals: np.ndarray | None = None, incs: np.ndarray | None = None):
    """Yield the collocation rows (n, far, wL, wR, B, far_known) for
    n = 1..N: wL[n][j], wR[n][j] and B[n][j] of the near cells
    j = far+1..n, and far_known, the far sum of cells 1..far,

        sum_{j <= far} wL[n][j] f_{j-1} + wR[n][j] f_j - B[n][j] (U_j - U_{j-1}),

    with f_j = fvals[j] and U_j - U_{j-1} = incs[j]. The rows of a group
    lo..hi read fvals[:far + 1] and incs[1:far + 1], far < lo, when row lo
    is asked for, so a consumer that asks for row n must have made entries
    0..n-1 final, as the march does. Without fvals and incs every cell is
    near (far = 0, far_known = 0).

    Rows are built a _row_blocks block at a time and dropped once consumed,
    so memory stays O(N) plus one block of HISTORY_BLOCK_POINTS kernel
    points, whatever N is. Where translation_invariant holds (checked on
    the alpha values the rows are built from) they are _gap_rows, elsewhere
    _direct_rows. `rule` is as for `assemble`.
    """
    cq = _cell_quadrature(order, mesh, gauss_nodes() if rule is None else rule, mesh.N)
    yield from (_gap_rows if mesh.is_uniform and _affine(cq) else _direct_rows)(cq, fvals, incs)


def assemble(
    order: VariableOrder,
    mesh: Mesh,
    rule: QuadratureRule | None = None,
    fast_path: bool = False,
) -> WeightTable:
    """Build the full weight table from the collocation rows.

    rule is the Gauss rule applied per mesh cell and per geometric panel of
    each row's diagonal cell; None means gauss_nodes(), 8 nodes. The default
    table is dense, from _direct_rows on every input (a reference for the
    gap-indexed rows). fast_path stores the O(N) gap-indexed cell averages
    and nodal kernel values a solve reads where translation_invariant holds,
    and raises ValueError elsewhere. Every cell of every row is direct (no
    far field), and the moments are dense in both modes: this table is a
    cache for inspection and a reference, not what a solve holds.
    """
    rule = gauss_nodes() if rule is None else rule
    if fast_path:
        translation_invariant(order, mesh, rule, require=True)
    N = mesh.N
    cq = _cell_quadrature(order, mesh, rule, N)
    wL = np.zeros((N + 1, N + 1))
    wR = np.zeros((N + 1, N + 1))
    B = None if fast_path else np.zeros((N + 1, N + 1))
    for n, _, wl, wr, b, _ in (_gap_rows if fast_path else _direct_rows)(cq):
        wL[n, 1 : n + 1] = wl
        wR[n, 1 : n + 1] = wr
        if B is not None:
            B[n, 1 : n + 1] = b
    a = cq.alpha_t
    nodal = _kernel_minus_one(a[1:] - a[0], mesh.nodes[1:])  # K(t_n, 0) - 1
    if fast_path:
        # b is row N: gap k = N - j
        return WeightTable(N=N, invariant_mode=True, wL=wL, wR=wR,
                           gap_avg=b[::-1], gap_nodal=nodal)
    B[1:, 0] = nodal
    return WeightTable(N=N, invariant_mode=False, wL=wL, wR=wR, B=B)
