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

Far field. Rows are grouped in runs t_lo..t_hi of about
sqrt(FAR_POINTS n / (1 + FAR_SEPARATION)) rows. Cells 1..far, which end
FAR_SEPARATION (t_hi - t_lo) or more before t_lo, are far from every row of
the group, and the march has solved every value they multiply before it
reaches row lo. Their whole contribution to row n is then one number,

    F(t_n) = sum_{j <= far} wL(t_n, j) f_{j-1} + wR(t_n, j) f_j
             - B(t_n, j) (U_j - U_{j-1}),

and F is analytic in t over the group. The group evaluates its moment term
(closed forms with alpha at each time) and its B term (the cells' Gauss
averages) at FAR_POINTS first-kind Chebyshev times, and each row takes the
barycentric interpolant at t_n: a row builds moments and averages of its
near cells far+1..n only. On the gap rows the B term stays an exact dot of
row N. A group keeps every cell near when its far field would save little
(every solve with N <= 192 and the 8-node rule) or when, at t_lo, either
interpolated term misses its direct value by more than FAR_CHECK_TOL times
the sum of that term's absolute contributions, which happens where alpha
varies on the scale of the group. With f = 0 both terms are exactly zero.

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
# Kernel evaluations per block of history rows, and moments per block where
# no kernel points come with them (the gap rows, the far sums): large enough
# that numpy call overhead is amortised, small enough that the block's
# temporaries stay in cache and add nothing measurable to peak memory.
HISTORY_BLOCK_POINTS = 2**14
# Far field of a row group t_lo..t_hi: the cells that end at least
# FAR_SEPARATION * (t_hi - t_lo) before t_lo. Their contribution to a row is
# analytic in t_n there and is interpolated from FAR_POINTS first-kind
# Chebyshev times. At 1.5 group widths the far cells end 4 half-widths from
# the group's centre, where 16 points converge like 7.9^-16 (5e-15); at one
# width (5.8^-16, 6e-13) far sums of sine orders missed direct quadrature by
# up to 7.9e-15.
FAR_POINTS = 16
FAR_SEPARATION = 1.5
# Kernel and moment points (rule.count + 1 per far cell and row) a group must
# save for its far field to be used: every solve with N <= 192 and the
# 8-node rule stays direct.
FAR_MIN_SAVED_POINTS = 2 * HISTORY_BLOCK_POINTS
# Largest miss of each of a group's interpolated far terms at its first row
# (the one nearest the far cells), relative to the sum of that term's
# absolute contributions there, for the far field to be used. The moments
# weigh f; the B term is the far part of the history sum of K (U_j -
# U_{j-1}), so its contributions are counted with K = 1 + B: alpha's own
# rounding leaves B with an absolute error of about eps, which a scale of
# B alone would read as a miss wherever alpha is flat.
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
    c = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
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


def _row_groups(mesh: Mesh, rule: QuadratureRule, far_field: bool = True):
    """Row groups (lo, hi, far) covering rows 1..N in order.

    A group from lo has the fewest rows s with s^2 (1 + FAR_SEPARATION) >=
    FAR_POINTS lo, and takes in a tail shorter than that; cells 1..far end
    at least FAR_SEPARATION (t_hi - t_lo) before t_lo. far is 0, so every
    cell is near, unless the group has more than FAR_POINTS rows and its
    far field saves at least FAR_MIN_SAVED_POINTS points.
    Consecutive groups with far = 0 are yielded as one, and without
    far_field the one group is 1..N.
    """
    N, nodes = mesh.N, mesh.nodes
    start = lo = 1  # first row not yet yielded
    while far_field and lo <= N:
        size = math.ceil(math.sqrt(FAR_POINTS * lo / (1 + FAR_SEPARATION)))
        hi = N if N - lo + 1 < 2 * size else lo + size - 1
        edge = nodes[lo] - FAR_SEPARATION * (nodes[hi] - nodes[lo])
        far = int(np.searchsorted(nodes, edge, "right")) - 1
        size = hi - lo + 1
        if size > FAR_POINTS and far * (size - FAR_POINTS) * (rule.count + 1) >= FAR_MIN_SAVED_POINTS:
            if start < lo:
                yield start, lo - 1, 0
            yield lo, hi, far
            start = hi + 1
        lo = hi + 1
    if start <= N:
        yield start, N, 0


def _far_known(cq: _CellQuadrature, lo: int, hi: int, far: int, fvals: np.ndarray,
               incs: np.ndarray, last: np.ndarray | None = None):
    """The far sums F(t_n) of rows lo..hi (module docstring) over cells
    1..far, from fvals[:far + 1] and incs[1:far + 1], or None where the
    group's far field fails its check. `last` is row N of the gap rows,
    B[n][j] = last[N - n + j - 1]: the B term is then an exact dot of it,
    and only the moment term is interpolated.

    Both terms are evaluated at FAR_POINTS first-kind Chebyshev times of
    [t_lo, t_hi], with alpha at those times, and at t_lo for the check, in
    chunks of at most HISTORY_BLOCK_POINTS moment or kernel points.
    """
    assert far < lo, "a group's far cells must end before its first row"
    nodes, w = cq.mesh.nodes, cq.rule.weights
    f, d = fvals[: far + 1], incs[1 : far + 1]
    angle = (2 * np.arange(FAR_POINTS) + 1) * np.pi / (2 * FAR_POINTS)
    tl, th = nodes[lo], nodes[hi]
    times = np.append((tl + th) / 2 + (th - tl) / 2 * np.cos(angle), tl)
    alpha = np.asarray(cq.order.alpha(times), dtype=float)

    # terms[0] is the moment term and terms[1] the B term at each time;
    # scale holds the sums of their absolute contributions at t_lo
    terms, scale = np.zeros((2, FAR_POINTS + 1)), np.zeros(2)
    step = HISTORY_BLOCK_POINTS // (FAR_POINTS + 1)
    for j in range(0, far, step):
        k = min(j + step, far)
        wl, wr = _moments(times, nodes[j : k + 1], alpha)
        terms[0] += wl @ f[j:k] + wr @ f[j + 1 : k + 1]
        scale[0] += wl[-1] @ np.abs(f[j:k]) + wr[-1] @ np.abs(f[j + 1 : k + 1])
    if last is None:
        step = max(1, HISTORY_BLOCK_POINTS // ((FAR_POINTS + 1) * cq.rule.count))
        for j in range(0, far, step):
            cells = slice(j, min(j + step, far))
            avg = _kernel_minus_one(alpha[:, None, None] - cq.alpha_s[cells],
                                    times[:, None, None] - cq.s[cells]) @ w
            terms[1] += avg @ d[cells]
            scale[1] += np.abs(1.0 + avg[-1]) @ np.abs(d[cells])

    # barycentric weights of first-kind Chebyshev points; a row on a point
    # takes that point's value
    gap = nodes[lo : hi + 1, None] - times[:-1]
    hit = gap == 0.0
    q = (-1.0) ** np.arange(FAR_POINTS) * np.sin(angle) / np.where(hit, 1.0, gap)
    on_point = hit.any(axis=1)
    q[on_point] = hit[on_point]
    rows = (q / q.sum(axis=1, keepdims=True)) @ terms[:, :-1].T
    if np.any(np.abs(rows[0] - terms[:, -1]) > FAR_CHECK_TOL * scale):
        return None
    known = rows[:, 0] - rows[:, 1]
    if last is not None:
        N = cq.mesh.N
        known -= np.correlate(last[N - hi : N - lo + far], d, "valid")[::-1]
    return known


def _groups(cq: _CellQuadrature, fvals, incs, last=None):
    """(lo, hi, far, known) for each _row_groups group: known[n - lo] is row
    n's far sum, and far is 0 (known zero) where the group is direct."""
    for lo, hi, far in _row_groups(cq.mesh, cq.rule, fvals is not None):
        known = _far_known(cq, lo, hi, far, fvals, incs, last) if far else None
        if known is None:
            far, known = 0, np.zeros(hi - lo + 1)
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
    for lo, hi, far, known in _groups(cq, fvals, incs, last):
        for rows in _row_blocks(lo, hi, far, HISTORY_BLOCK_POINTS):
            wl, wr = _moments(nodes[rows], nodes[far : rows[-1] + 1], cq.alpha_t[rows])
            for k, n in enumerate(rows.tolist()):
                yield n, far, wl[k, : n - far], wr[k, : n - far], last[N - n + far :], known[n - lo]


def _direct_rows(cq: _CellQuadrature, fvals=None, incs=None):
    """coefficient_rows by quadrature of every near cell, on any inputs:
    each block of a row group gets the moments and cell averages of its
    near cells in one go."""
    nodes = cq.mesh.nodes
    for lo, hi, far, known in _groups(cq, fvals, incs):
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
