import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vofie import assembly, solver
from vofie.assembly import _moments, gauss_nodes
from vofie.kernel import kernel_K, kernel_Ks
from vofie.mesh import make_mesh
from vofie.order import (
    VariableOrder,
    make_constant_order,
    make_linear_order,
    make_sine_order,
)
from vofie.solver import (
    NewtonDivergedError,
    NewtonError,
    Problem,
    SingularJacobianError,
    solve,
    vie_residual,
)
from vofie.specialfns import MLParams, mittag_leffler


def f_zero(u, t):
    return 0.0 * u


def f_one(u, t):
    return 1.0 + 0.0 * u


def df_zero(u, t):
    return 0.0 * u


def problem_zero(order):
    return Problem(f=f_zero, df_du=df_zero, u0=1.0, T=1.0, order=order)


def problem_one(order, u0=1.0):
    return Problem(f=f_one, df_du=df_zero, u0=u0, T=1.0, order=order)


def solve_on_direct_rows(problem, mesh):
    """solve on the direct rows whatever the inputs, by refusing every order
    as affine: the reference the gap rows are compared with."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly, "_chord_gap", lambda cq: (math.inf, 0.0))
        return solve(problem, mesh)


def solve_from_zero(problem, mesh):
    """solve with every node's Newton started from zero, by dropping the
    predicted start: the reference the extrapolated start is compared with."""
    newton = solver._newton_increment
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_newton_increment", lambda *args: newton(*args[:7]))
        return solve(problem, mesh)


class TestConstantPreservation:
    @pytest.mark.parametrize("N,r", [(16, 1.0), (64, 1.0), (100, 2.0), (256, 1.0 / 0.6)])
    def test_f_zero_stays_at_u0(self, N, r):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, N, r))
        assert np.max(np.abs(sol.values - 1.0)) <= 1e-7

    def test_values_start_at_u0_exactly(self):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        assert sol.values[0] == 1.0

    @pytest.mark.parametrize(
        "order,r,fast_path",
        [
            (make_sine_order(0.6, 0.1), 1.0, False),
            (make_sine_order(0.6, 0.1), 1.0 / 0.6, False),
            (make_linear_order(0.6, 0.1), 1.0, True),
            (make_linear_order(0.6, 0.1), 1.0, False),
        ],
    )
    def test_f_zero_keeps_u0_exactly(self, order, r, fast_path):
        # increment form: f = 0 gives zero increments, not rounding-sized ones
        problem = Problem(f=f_zero, df_du=df_zero, u0=1.3, T=1.0, order=order)
        sol = (solve if fast_path else solve_on_direct_rows)(problem, make_mesh(1.0, 512, r))
        assert np.all(sol.values == 1.3)


class TestFastPath:
    def test_fast_march_matches_dense(self):
        # one march loop reads the dense table or the gap sequences
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0, T=1.0, order=make_linear_order(0.9, 0.4),
        )
        mesh = make_mesh(1.0, 200, 1.0)
        dense = solve_on_direct_rows(problem, mesh)
        fast = solve(problem, mesh)
        np.testing.assert_allclose(fast.values, dense.values, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(fast.newton_stats, dense.newton_stats)

    @pytest.mark.parametrize(
        "order,r,gap_rows",
        [
            (make_linear_order(0.9, 0.4), 1.0, True),
            (make_constant_order(0.5), 1.0, True),
            (make_linear_order(0.9, 0.4), 2.0, False),
            # alpha on no line: reading gap rows moved the values by 1.5e-2
            (VariableOrder(lambda t: 0.6 - 0.3 * np.asarray(t) ** 2,
                           lambda t: -0.6 * np.asarray(t)), 1.0, False),
            (VariableOrder(lambda t: 0.9 - 0.5 * np.asarray(t),
                           lambda t: np.full_like(np.asarray(t, dtype=float), -0.5)),
             1.0, True),
        ],
    )
    def test_plain_solve_picks_rows_from_inputs(self, monkeypatch, order, r, gap_rows):
        calls = count_cell_averages(monkeypatch)
        solve(sin4_problem(order), make_mesh(1.0, 200, r))
        if gap_rows:
            assert calls == [[200]]
        else:
            assert len(calls) > 1


def sin4_problem(order):
    return Problem(
        f=lambda u, t: 0.5 * np.sin(u) ** 4,
        df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
        u0=1.0, T=order.T, order=order,
    )


def count_cell_averages(mp):
    """The rows of every _cell_averages call, patched in through mp. Gap
    rows are views of row N, so a solve that reads them makes one call, for
    row N."""
    calls = []
    cell_averages = assembly._cell_averages

    def counted(cq, rows, *first):
        calls.append(rows.tolist())
        return cell_averages(cq, rows, *first)

    mp.setattr(assembly, "_cell_averages", counted)
    return calls


@settings(max_examples=40, deadline=None)
@given(
    start=st.floats(0.3, 1.0),
    frac=st.floats(0.0, 1.0),
    N=st.integers(1, 200),
    grading=st.floats(0.0, 1.0),
)
@example(start=0.3, frac=0.0, N=174, grading=1.0)  # far-cell wL < 0 with a direct formula
@example(start=0.5, frac=1.0, N=174, grading=1.0)  # al = 0.5: numpy may take sqrt
def test_affine_orders_fast_equals_dense(start, frac, N, grading):
    order = make_linear_order(start, 0.1 + frac * (start - 0.1))
    problem = sin4_problem(order)
    mesh = make_mesh(1.0, N, 1.0)
    dense = solve_on_direct_rows(problem, mesh)
    fast = solve(problem, mesh)
    np.testing.assert_allclose(fast.values, dense.values, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(fast.newton_stats, dense.newton_stats)
    # block moments of every row: nonnegative, and each cell's pair sums to
    # its closed-form singular mass (b^al - a^al) / (al Gamma(al)). The
    # powers v^al are taken in one 2-D call, as the moments take them: the
    # difference amplifies a one-ulp change in a power by b / tau, and numpy
    # rounds some powers differently by call shape (a scalar exponent of 0.5
    # takes sqrt)
    mesh = make_mesh(1.0, N, 1.0 + grading * (1.0 / start - 1.0))
    rows = np.arange(1, N + 1)
    al = order.alpha(mesh.nodes[rows])
    wl, wr = _moments(mesh.nodes[rows], mesh.nodes, al)
    assert np.all(wl >= 0.0) and np.all(wr >= 0.0)
    t = mesh.nodes
    p = np.maximum(t[rows, None] - t, 0.0) ** al[:, None]
    for k, n in enumerate(rows):
        mass = (p[k, :n] - p[k, 1 : n + 1]) / (al[k] * math.gamma(al[k]))
        np.testing.assert_allclose(wl[k, :n] + wr[k, :n], mass, rtol=1e-14, atol=0)
        assert not wl[k, n:].any() and not wr[k, n:].any()


@settings(max_examples=30, deadline=None)
@given(
    start=st.floats(0.3, 1.0),
    frac=st.floats(0.0, 1.0),
    T=st.sampled_from([0.7, 1.0, 2.0]),
    N=st.integers(2, 200),
)
def test_custom_affine_orders_take_gap_rows(start, frac, T, N):
    # an affine order written as a user might, with nothing declared
    end = 0.1 + frac * (start - 0.1)
    order = VariableOrder(
        lambda t: end * np.asarray(t) / T + start * (1.0 - np.asarray(t) / T),
        lambda t: np.full_like(np.asarray(t, dtype=float), (end - start) / T),
        T=T,
    )
    problem, mesh = sin4_problem(order), make_mesh(T, N, 1.0)
    with pytest.MonkeyPatch.context() as mp:
        calls = count_cell_averages(mp)
        fast = solve(problem, mesh)
    assert calls == [[N]]
    dense = solve_on_direct_rows(problem, mesh)
    np.testing.assert_allclose(fast.values, dense.values, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(fast.newton_stats, dense.newton_stats)


class TestMemory:
    @pytest.mark.parametrize(
        "order,N,r,fast_path",
        [
            (make_linear_order(0.9, 0.4), 4000, 1.0, True),
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6, False),
        ],
    )
    def test_solve_peak_stays_linear(self, order, N, r, fast_path):
        # rows are streamed in blocks; an (N+1)^2 table would be 128 MB at
        # N = 4000 and 17 MB at N = 1440
        problem, mesh = sin4_problem(order), make_mesh(1.0, N, r)
        tracemalloc.start()
        try:
            (solve if fast_path else solve_on_direct_rows)(problem, mesh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20
        if N == 1440:
            # the far sums add one chunk of moments or kernel points
            assert peak <= 2.5 * 2**20

    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_linear_order(0.9, 0.4), 1000, 1.0),  # gap rows
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6),  # direct rows
        ],
    )
    def test_each_block_is_freed_before_the_next(self, monkeypatch, order, N, r):
        # neither the march nor the stream holds a block's wL, wR or B while
        # the next block's moments are computed, once per block
        alive, refs = [], []
        rows, moments = solver.coefficient_rows, assembly._moments

        def watched(*args):
            for block in rows(*args):
                refs[:] = [weakref.ref(a) for a in block[3:6]]
                yield block
                del block

        def counted(*args):
            alive.append(sum(ref() is not None for ref in refs))
            return moments(*args)

        monkeypatch.setattr(solver, "coefficient_rows", watched)
        monkeypatch.setattr(assembly, "_moments", counted)
        solve(sin4_problem(order), make_mesh(1.0, N, r))
        assert len(alive) > 2 and not any(alive)


class TestBlockMarch:
    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6),  # far field, direct rows
            (make_linear_order(0.9, 0.4), 4000, 1.0),  # gap rows with far moments
            (make_sine_order(0.6, 0.4), 96, 1.0 / 0.6),  # one direct group
        ],
    )
    def test_values_do_not_depend_on_block_size(self, order, N, r):
        # blocks of a few rows move only the split between each block's
        # history products and its in-block dots, so only rounding
        problem, mesh = sin4_problem(order), make_mesh(1.0, N, r)
        default = solve(problem, mesh)
        sizes, far = [], []
        row_blocks, far_sums, far_weight = assembly._row_blocks, assembly._Panels.far_sums, assembly._far_weight

        def watched_far_sums(*args):
            # the shape of each far-weight array, which the kernel array shares
            with pytest.MonkeyPatch.context() as inner:
                inner.setattr(assembly, "_far_weight", lambda v, al: far.append(v.shape) or far_weight(v, al))
                return far_sums(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "HISTORY_BLOCK_POINTS", 2**8)
            mp.setattr(assembly, "_row_blocks", lambda *args: (sizes.append(len(rows)) or rows
                                                               for rows in row_blocks(*args)))
            mp.setattr(assembly._Panels, "far_sums", watched_far_sums)
            small = solve(problem, mesh)
        assert len(sizes) > N / 8 and max(sizes) < 64
        # no far-sum array exceeds the cap, unless it is a single row
        assert all(rows == 1 or rows * cols <= 2**8 for rows, cols in far)
        assert (len(far) > 0) == (N > 96)
        np.testing.assert_allclose(small.values, default.values, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(small.newton_stats, default.newton_stats)


    def test_graded_n96_solve_takes_two_blocks(self, monkeypatch):
        # its one direct group: 68 rows from cell 1, whose triangle of
        # 68 * 67 / 2 * 7 = 15,946 kernel points is the largest array within
        # HISTORY_BLOCK_POINTS, then the last 28 rows over 68 shared cells
        sizes = []
        row_blocks = assembly._row_blocks
        monkeypatch.setattr(assembly, "_row_blocks", lambda *args: (sizes.append(len(rows)) or rows
                                                                    for rows in row_blocks(*args)))
        solve(sin4_problem(make_sine_order(0.6, 0.4)), make_mesh(1.0, 96, 1.0 / 0.6))
        assert sizes == [68, 28]


class TestFixedRule:
    @pytest.mark.parametrize(
        "make_order,N,r,atol",
        [
            (lambda: make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6, 1e-14),
            (lambda: make_sine_order(0.3, 0.9), 1440, 1.0 / 0.3, 1e-14),
            (lambda: make_linear_order(0.9, 0.4), 4000, 1.0, 1e-14),  # gap rows
            (lambda: oscillating_order(), 1440, 1.0, 1e-12),
        ],
        ids=["sine-0.6-0.4-graded", "sine-0.3-0.9-graded", "linear-0.9-0.4", "sin-40t"],
    )
    def test_more_nodes_per_cell_move_no_solution(self, make_order, N, r, atol):
        # a solve always reads the 7-node rule per cell and the 20-node
        # diagonal rule; 12 and 20 nodes per cell, with a 40-node diagonal
        # rule, leave its values where they are
        problem, mesh = sin4_problem(make_order()), make_mesh(1.0, N, r)
        default = solve(problem, mesh)
        rows = solver.coefficient_rows
        diag_nodes, diag_weights = assembly._corner_rule(40)
        for count in (12, 20):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(solver, "coefficient_rows", lambda order, mesh, rule, *arrays:
                           rows(order, mesh, gauss_nodes(count), *arrays))
                mp.setattr(assembly, "DIAG_NODES", diag_nodes)
                mp.setattr(assembly, "DIAG_WEIGHTS", diag_weights)
                finer = solve(problem, mesh)
            np.testing.assert_allclose(finer.values, default.values, rtol=0, atol=atol)


class TestFarField:
    def direct_solve(self, problem, mesh):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "FAR_MIN_SAVED_POINTS", math.inf)
            return solve(problem, mesh)

    def test_matches_direct_solve(self):
        problem, mesh = sin4_problem(make_sine_order(0.6, 0.4)), make_mesh(1.0, 1440, 1.0 / 0.6)
        far, direct = solve(problem, mesh), self.direct_solve(problem, mesh)
        np.testing.assert_allclose(far.values, direct.values, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(far.newton_stats, direct.newton_stats)

    def test_small_solve_is_bitwise_direct(self):
        problem, mesh = sin4_problem(make_sine_order(0.6, 0.4)), make_mesh(1.0, 96, 1.0 / 0.6)
        np.testing.assert_array_equal(solve(problem, mesh).values,
                                      self.direct_solve(problem, mesh).values)

    def test_gap_rows_match_direct_solve(self, monkeypatch):
        # affine order on a uniform mesh: far moment sums, exact far B dots
        problem, mesh = sin4_problem(make_linear_order(0.9, 0.4)), make_mesh(1.0, 4000, 1.0)
        calls = count_far_sums(monkeypatch)
        far = solve(problem, mesh)
        assert calls and all(calls)
        direct = self.direct_solve(problem, mesh)
        np.testing.assert_allclose(far.values, direct.values, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(far.newton_stats, direct.newton_stats)

    def test_fast_varying_order_matches_direct_solve(self, monkeypatch):
        # alpha = 0.5 + 0.3 sin(40 t) varies on the scale of the wide panels:
        # they fail their check and the rows read their children instead
        order = VariableOrder(lambda t: 0.5 + 0.3 * np.sin(40.0 * np.asarray(t)),
                              lambda t: 12.0 * np.cos(40.0 * np.asarray(t)))
        problem, mesh = sin4_problem(order), make_mesh(1.0, 1440, 1.0)
        passed = []
        check = assembly._Panels._check

        def counted(self, ids):
            result = check(self, ids)
            passed.extend(result.tolist())
            return result

        monkeypatch.setattr(assembly._Panels, "_check", counted)
        far = solve(problem, mesh)
        assert passed and not all(passed) and any(passed)
        direct = self.direct_solve(problem, mesh)
        np.testing.assert_allclose(far.values, direct.values, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(far.newton_stats, direct.newton_stats)

    def test_f_zero_keeps_u0_exactly_with_far_field(self, monkeypatch):
        # both far terms are exact zeros when every f value and increment is
        problem = Problem(f=f_zero, df_du=df_zero, u0=1.3, T=1.0, order=make_sine_order(0.6, 0.4))
        calls = count_far_sums(monkeypatch)
        sol = solve(problem, make_mesh(1.0, 1440, 1.0 / 0.6))
        assert calls and all(calls)
        assert np.all(sol.values == 1.3)


def count_far_sums(mp):
    """Whether each group whose far sums were evaluated read any panel
    (assembly's _Panels.far_sums was given panels that passed their
    check), patched in through mp."""
    calls = []
    far_sums = assembly._Panels.far_sums

    def counted(self, used, *args):
        calls.append(len(used) > 0)
        return far_sums(self, used, *args)

    mp.setattr(assembly._Panels, "far_sums", counted)
    return calls


def count_points(mp):
    """Kernel points (_kernel_minus_one) and moment points (_moments per
    cell and row, the panel check's one cell per time included, and
    _far_weight per panel node and row) of the patched calls, patched in
    through mp."""
    counts = {"kernel": 0, "moment": 0}
    kernel, moments, weight = assembly._kernel_minus_one, assembly._moments, assembly._far_weight

    def counted_kernel(da, v):
        out = kernel(da, v)
        counts["kernel"] += np.size(out)
        return out

    def counted_moments(t, edges, al):
        wl, wr = moments(t, edges, al)
        counts["moment"] += wl.size
        return wl, wr

    def counted_weight(v, al):
        out = weight(v, al)
        counts["moment"] += np.size(out)
        return out

    mp.setattr(assembly, "_kernel_minus_one", counted_kernel)
    mp.setattr(assembly, "_moments", counted_moments)
    mp.setattr(assembly, "_far_weight", counted_weight)
    return counts


class TestComplexity:
    def test_points_grow_like_n_log_n(self, monkeypatch):
        # graded sine (0.6, 0.4): near cells O(1) per row, far panels
        # O(log N); fully direct, N = 1440 takes 8.4e6 kernel points
        order = make_sine_order(0.6, 0.4)
        counts = count_points(monkeypatch)
        points = []
        for N in (1440, 5760):
            counts.update(kernel=0, moment=0)
            solve(sin4_problem(order), make_mesh(1.0, N, 1.0 / 0.6))
            points.append(dict(counts))
        assert points[0]["kernel"] <= 1.2e6
        # N log N would be 5.07 times with 8-cell leaves
        assert points[1]["kernel"] <= 5 * points[0]["kernel"]
        assert sum(points[1].values()) <= 5 * sum(points[0].values())

    @pytest.mark.parametrize(
        "make_order,N,r,kernel,moment,blocks",
        [
            (lambda: make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6, 825_024, 328_893, 28),
            (lambda: make_linear_order(0.9, 0.4), 4000, 1.0, 28_013, 1_160_800, 62),  # gap rows
        ],
        ids=["sine-0.6-0.4-graded", "linear-0.9-0.4"],
    )
    def test_work_per_solve_is_pinned(self, monkeypatch, make_order, N, r, kernel, moment, blocks):
        # the work a solve does, in numbers no host can move: a change to
        # the scheme's cost shows here, and updates these figures
        counts = count_points(monkeypatch)
        seen = []
        rows = solver.coefficient_rows
        monkeypatch.setattr(solver, "coefficient_rows",
                            lambda *args: (seen.append(None) or block for block in rows(*args)))
        solve(sin4_problem(make_order()), make_mesh(1.0, N, r))
        assert counts == {"kernel": kernel, "moment": moment}
        assert len(seen) == blocks


class TestAnalyticOracles:
    def test_constant_order_f_one(self):
        # u = u0 + t^alpha / Gamma(1 + alpha), reproduced exactly at nodes:
        # the history kernel vanishes and product integration is exact for
        # constant f
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 48, 2.0)
        sol = solve(problem_one(order), mesh)
        exact = 1.0 + mesh.nodes**0.5 / math.gamma(1.5)
        assert np.max(np.abs(sol.values - exact)) <= 1e-12

    def test_mittag_leffler_decay(self):
        # f = -u with alpha = 0.5: u(t) = E_{0.5,1}(-t^0.5)
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: -u, df_du=lambda u, t: -1.0 + 0.0 * u, u0=1.0, T=1.0, order=order
        )
        mesh = make_mesh(1.0, 480, 2.0)
        sol = solve(problem, mesh)
        params = MLParams(0.5, 1.0)
        exact = np.array([mittag_leffler(params, -t**0.5) for t in mesh.nodes])
        assert np.max(np.abs(sol.values - exact)) <= 1e-5

    def test_single_node_march(self):
        # N = 1: the value must be the root of the one-cell implicit equation
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: -(u**3), df_du=lambda u, t: -3.0 * u**2, u0=1.0, T=1.0, order=order
        )
        mesh = make_mesh(1.0, 1, 1.0)
        sol = solve(problem, mesh)
        wl, wr = (float(w[0, 0]) for w in _moments(mesh.nodes[1:], mesh.nodes, order.alpha(mesh.nodes[1:])))
        const = wl * problem.f(1.0, 0.0) + problem.u0 * kernel_K(order, 1.0, 0.0)

        def g(x):
            return x - wr * problem.f(x, 1.0) - const

        root = brentq(g, -10, 10, xtol=1e-13)
        assert sol.values[1] == pytest.approx(root, abs=1e-9)


class TestNewtonBehavior:
    def test_iteration_counts_stay_small(self):
        order = make_sine_order(0.6, 0.4)
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0,
            T=1.0,
            order=order,
        )
        sol = solve(problem, make_mesh(1.0, 96, 1.0))
        assert np.max(sol.newton_stats[1:]) <= 10

    def test_diverged_error_carries_node(self, monkeypatch):
        # one iterate per attempt: the cap is exhausted at the first node
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: np.sinh(5 * u), df_du=lambda u, t: 5 * np.cosh(5 * u),
            u0=1.0, T=1.0, order=order,
        )
        with pytest.raises(NewtonDivergedError, match="no convergence in 1 iterations") as err:
            solve(problem, make_mesh(1.0, 4, 1.0))
        assert err.value.node >= 1

    def test_diverged_error_carries_partial_solution(self):
        # u' ~ u^2 from u0 = 2 blows up before T = 1
        order = make_constant_order(0.8)
        problem = Problem(
            f=lambda u, t: u**2, df_du=lambda u, t: 2.0 * u, u0=2.0, T=1.0, order=order
        )
        mesh = make_mesh(1.0, 64, 1.0)
        with pytest.raises(NewtonDivergedError) as err:
            solve(problem, mesh)
        node, partial = err.value.node, err.value.partial
        assert node == 16
        assert np.all(np.isfinite(partial.values[:node]))
        assert np.all(np.isnan(partial.values[node:]))
        assert np.all(partial.newton_stats[1:node] >= 1) and not partial.newton_stats[node:].any()
        # the march is causal: a solve that stops at t_{node-1} gives the same values
        T = mesh.nodes[node - 1]
        short = Problem(f=problem.f, df_du=problem.df_du, u0=2.0, T=T,
                        order=make_constant_order(0.8, T=T))
        truncated = solve(short, make_mesh(T, node - 1, 1.0))
        np.testing.assert_allclose(partial.values[:node], truncated.values, rtol=1e-13, atol=0)
        np.testing.assert_array_equal(partial.newton_stats[:node], truncated.newton_stats)

    def test_singular_jacobian(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 1, 1.0)
        wr = float(_moments(mesh.nodes[1:], mesh.nodes, order.alpha(mesh.nodes[1:]))[1][0, 0])
        lam = 1.0 / wr  # makes g'(x) = 1 - wR * lam vanish identically
        problem = Problem(
            f=lambda u, t: lam * u, df_du=lambda u, t: lam + 0.0 * u,
            u0=1.0, T=1.0, order=order,
        )
        with pytest.raises(SingularJacobianError) as err:
            solve(problem, mesh)
        # like NewtonDivergedError: where the march stopped and what it solved
        assert err.value.node == 1
        assert err.value.partial.values[0] == problem.u0
        assert np.all(np.isnan(err.value.partial.values[1:]))

    def test_non_finite_residual_stops_at_its_node(self):
        # f turns NaN after t = 0.5: the first iterate of node 9 (t = 0.5625)
        # is not finite, which is a divergence there, not an exhausted max_iter
        problem = Problem(f=lambda u, t: math.nan if t > 0.5 else 0.0 * u, df_du=df_zero,
                          u0=1.0, T=1.0, order=make_sine_order(0.6, 0.4))
        with pytest.raises(NewtonDivergedError) as err:
            solve(problem, make_mesh(1.0, 16, 1.0))
        exc = err.value
        assert exc.node == 9 and exc.residual == math.inf
        summary = exc.summary()
        assert summary["residuals"] == [None] and summary["last_residual"] is None
        assert summary["t_reached"] == 0.5
        np.testing.assert_array_equal(exc.partial.values[:9], 1.0)


@settings(max_examples=20, deadline=None)
@given(
    u0=st.floats(1.5, 4.0),
    N=st.integers(8, 64),
    a0=st.floats(0.6, 1.0),
)
def test_blow_up_names_its_node(u0, N, a0):
    # u' ~ u^2 blows up before T = 1: the error names the node where Newton
    # failed, what was solved before it, and |g| at each of its iterates
    order = make_sine_order(a0, 0.5 * a0)
    problem = Problem(f=lambda u, t: u**2, df_du=lambda u, t: 2.0 * u, u0=u0, T=1.0, order=order)
    with pytest.raises(NewtonError) as err:
        solve(problem, make_mesh(1.0, N, 1.0))
    exc = err.value
    node, partial, residuals = exc.node, exc.partial, exc.residuals
    assert 1 <= node <= N and f"node {node}" in str(exc)
    assert np.all(np.isfinite(partial.values[:node])) and np.all(np.isnan(partial.values[node:]))
    assert 1 <= len(residuals) <= solver.NEWTON_MAX_ITER
    assert residuals[-1] == exc.residual or not math.isfinite(exc.residual)
    summary = exc.summary()
    assert summary["failed_node"] == node
    assert summary["residuals"] == [r if math.isfinite(r) else None for r in residuals]


class TestNewtonStart:
    @pytest.mark.parametrize(
        "order,N,r,mean",
        [
            (make_linear_order(0.9, 0.4), 4000, 1.0, 1.1),  # 2.21 from zero
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6, 1.3),  # 2.61 from zero
            (make_sine_order(0.6, 0.4), 96, 1.0 / 0.6, 2.5),  # 3.00 from zero
        ],
    )
    def test_extrapolated_start_takes_one_iteration(self, order, N, r, mean):
        # the first step from the predicted increment is within the
        # tolerance, so it lands where the march from zero does
        problem, mesh = sin4_problem(order), make_mesh(1.0, N, r)
        sol, zero = solve(problem, mesh), solve_from_zero(problem, mesh)
        assert sol.newton_stats[1:].mean() <= mean < zero.newton_stats[1:].mean()
        assert sol.newton_stats[1] == zero.newton_stats[1]  # node 1 starts from zero
        np.testing.assert_allclose(sol.values, zero.values, rtol=0, atol=1e-15)

    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_linear_order(0.9, 0.4), 4000, 1.0),  # gap rows, far moments
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6),  # far panels
        ],
    )
    def test_f_zero_starts_every_node_at_zero(self, monkeypatch, order, N, r):
        # zero increments extrapolate to an exact zero start: u0 is kept bit
        # for bit, in one iteration per node
        problem = Problem(f=f_zero, df_du=df_zero, u0=1.3, T=1.0, order=order)
        calls = count_far_sums(monkeypatch)
        sol = solve(problem, make_mesh(1.0, N, r))
        assert calls and all(calls)
        assert np.all(sol.values == 1.3)
        assert np.all(sol.newton_stats[1:] == 1)

    def test_failed_start_is_solved_again_from_zero(self):
        # f is +1 up to t = 0.5 and -1 after: u peaks at t_8 = 0.5 and turns
        # down at once, but the slopes before extrapolate further up, into u
        # where f is NaN. Node 9 fails from there and is solved from zero
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 16, 1.0)

        def step(u, t):
            return (1.0 if t <= 0.5 else -1.0) - 0.1 * u

        def df(u, t):
            return -0.1 + 0.0 * u

        zero = solve_from_zero(Problem(f=step, df_du=df, u0=1.0, T=1.0, order=order), mesh)
        peak = zero.values.max()
        assert peak == zero.values[8]
        misses = []

        def capped(u, t):
            if u > peak + 1e-3:
                misses.append(t)
                return math.nan
            return step(u, t)

        sol = solve(Problem(f=capped, df_du=df, u0=1.0, T=1.0, order=order), mesh)
        assert misses and set(misses) <= set(mesh.nodes[9:].tolist())
        np.testing.assert_allclose(sol.values, zero.values, rtol=0, atol=1e-15)
        assert sol.newton_stats[9] == 1 + zero.newton_stats[9]


class TestBoundedness:
    def test_uniform_in_n(self):
        # nodal sup norm stays bounded by a fixed multiple of |u0| + max|f(0,.)|
        order = make_sine_order(0.4, 0.2)
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0,
            T=1.0,
            order=order,
        )
        data = 1.0 + 0.5  # |u0| + max |f(0, t)| bound for sin4
        sups = []
        for N in (48, 96, 192):
            sol = solve(problem, make_mesh(1.0, N, 1.0))
            sups.append(np.max(np.abs(sol.values)))
        assert max(sups) <= 5.0 * data
        assert max(sups) - min(sups) <= 0.1 * max(sups)


class TestSolutionObject:
    def test_interpolation_hits_nodes(self):
        problem = problem_one(make_sine_order(0.6, 0.1))
        mesh = make_mesh(1.0, 16, 1.0)
        sol = solve(problem, mesh)
        np.testing.assert_array_equal(sol(mesh.nodes), sol.values)

    def test_csv_and_summary(self, tmp_path):
        problem = problem_one(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,U"
        assert len(lines) == 10
        summary = sol.summary()
        assert summary["N"] == 8
        assert summary["newton_iterations"]["max"] >= 1

    def test_csv_bytes_are_the_per_value_rendering(self, tmp_path):
        # one write of the joined lines: the bytes of one write per row of
        # the numpy scalars, with non-finite values, signed zeros and
        # 17-digit values included
        sol = solve(problem_one(make_sine_order(0.6, 0.1)), make_mesh(1.0, 64, 1.0 / 0.6))
        sol.values[[3, 5, 7, 9]] = np.nan, np.inf, -0.0, 1e-300
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        expected = "t,U\n" + "".join(f"{t:.17g},{u:.17g}\n" for t, u in zip(sol.mesh.nodes, sol.values))
        assert path.read_bytes() == expected.encode()


def oscillating_order():
    return VariableOrder(lambda t: 0.5 + 0.3 * np.sin(40.0 * np.asarray(t, dtype=float)),
                         lambda t: 12.0 * np.cos(40.0 * np.asarray(t, dtype=float)))


def paper_form_residual(problem, sol, t):
    """|u_h(t) - RHS(t)| in the paper's form u = int K_s u + int W f +
    u0 K(t, 0), on a refined rule: 200 Gauss nodes per cell or panel, ten
    panels of ratio 0.2 toward the log singularity of K_s at s = t on the
    last cell, and there the f weight removed by v = (t - s)^alpha(t)."""
    order, nodes, steps = problem.order, sol.mesh.nodes, sol.mesh.steps
    rule = gauss_nodes(200)
    x, w = rule.nodes, rule.weights
    m = int(np.searchsorted(nodes, t))
    edges = t - (t - nodes[m - 1]) * 0.2 ** np.arange(11.0)
    edges[-1] = t
    lo = np.concatenate((nodes[: m - 1], edges[:-1]))
    width = np.concatenate((steps[: m - 1], np.diff(edges)))
    s = lo[:, None] + width[:, None] * x
    hist = np.sum(kernel_Ks(order, t, s) * sol(s) * w * width[:, None])
    alt = float(order.alpha(t))
    sw = s[: m - 1]
    fterm = np.sum(problem.f(sol(sw), sw) * (t - sw) ** (alt - 1.0) * w * steps[: m - 1, None])
    vmax = (t - nodes[m - 1]) ** alt
    sv = t - (vmax * x) ** (1.0 / alt)
    fterm = (fterm + vmax * np.sum(w * problem.f(sol(sv), sv)) / alt) / math.gamma(alt)
    return abs(float(sol(t)) - hist - fterm - problem.u0 * kernel_K(order, t, 0.0))


class TestVieResidual:
    def test_constant_solution(self):
        # u = u0 solves the equation with f = 0 for any admissible order
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 64, 1.0))
        for t in (0.137, 0.52, 0.96):
            assert vie_residual(problem, sol, t) <= 1e-8

    def test_analytic_plug_in(self):
        # exact nodal values for constant order, f = 1; off-node residual is
        # only the piecewise-linear interpolation error
        order = make_constant_order(0.5)
        problem = problem_one(order)
        mesh = make_mesh(1.0, 960, 2.0)
        sol = solve(problem, mesh)
        assert vie_residual(problem, sol, 0.25) <= 1e-6

    def test_small_at_collocation_nodes(self):
        problem = problem_one(make_sine_order(0.6, 0.1))
        mesh = make_mesh(1.0, 64, 1.0)
        sol = solve(problem, mesh)
        for n in (13, 40, 64):
            assert vie_residual(problem, sol, mesh.nodes[n]) <= 1e-6

    def test_domain(self):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        with pytest.raises(ValueError):
            vie_residual(problem, sol, 0.0)

    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_sine_order(0.6, 0.4), 400, 1 / 0.6),
            (make_sine_order(0.6, 0.4), 1440, 1 / 0.6),
            (make_sine_order(0.3, 0.9), 401, 1 / 0.3),
            (make_linear_order(0.9, 0.4), 400, 1.0),  # gap rows
            (make_sine_order(1.0, 0.1), 1440, 1.0),
            (oscillating_order(), 1440, 1.0),
        ],
        ids=["graded-400", "graded-1440", "sine-0.3-0.9", "affine", "sine-1-0.1", "oscillating"],
    )
    def test_scheme_quadrature_error_at_nodes(self, order, N, r):
        # with f = 1 the scheme integrates f exactly, so at a node the
        # residual is the error of its K averages, moments and far-field
        # panels alone (measured at most 5.0e-15, and 9.3e-13 with the
        # diagonal cell in six geometric panels of the 8-node rule); far sums
        # or wL scaled by 1 + 1e-9 read 4.5e-10 or more
        problem = problem_one(order)
        mesh = make_mesh(1.0, N, r)
        sol = solve(problem, mesh)
        cells = np.linspace(1, N, 24).round().astype(int)
        for n in cells:
            assert vie_residual(problem, sol, mesh.nodes[n]) <= 1e-11, n
        # between nodes the interpolation error shows, so the residual is
        # not zero everywhere (largest midpoint measured 2.7e-7 to 6.2e-3)
        mids = 0.5 * (mesh.nodes[cells - 1] + mesh.nodes[cells])
        assert max(vie_residual(problem, sol, t) for t in mids) >= 1e-7

    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_sine_order(0.4, 0.2), 48, 2.5),
            (make_sine_order(0.6, 0.4), 96, 1 / 0.6),
            (make_sine_order(1.0, 0.8), 120, 1.0),
            (oscillating_order(), 96, 1.0),
            (oscillating_order(), 1440, 1.0),
        ],
        ids=["sine-0.4-0.2-graded-48", "sine-0.6-0.4-graded-96", "sine-1-0.8-uniform-120",
             "sin-40t-96", "sin-40t-1440"],
    )
    def test_quadrature_error_at_nodes_is_rounding(self, order, N, r):
        # with f = 1 the residual at a node is the scheme's own quadrature
        # error (see above): the diagonal rule graded into the v ln v corner
        # leaves only rounding (measured at most 5.0e-15, at sin 40t
        # N = 1440; six geometric panels of the 8-node rule read 1.5e-12,
        # 2.8e-13, 1.3e-13, 3.9e-11 and 9.3e-13)
        problem, mesh = problem_one(order), make_mesh(1.0, N, r)
        sol = solve(problem, mesh)
        for n in np.linspace(1, N, 24).round().astype(int):
            assert vie_residual(problem, sol, mesh.nodes[n]) <= 1e-14, n

    @pytest.mark.parametrize(
        "order,N,r",
        [
            (make_sine_order(0.6, 0.4), 96, 1 / 0.6),
            (make_linear_order(0.9, 0.4), 200, 1.0),
            (make_sine_order(1.0, 0.1), 64, 1.0),
        ],
        ids=["graded-sine", "affine", "sine-1-0.1"],
    )
    def test_equals_the_paper_form(self, order, N, r):
        # summation by parts turns int K_s u_h + u0 K(t, 0) into
        # u_h(t) - int K u_h'; measured agreement at most 6e-14
        problem = sin4_problem(order)
        mesh = make_mesh(1.0, N, r)
        sol = solve(problem, mesh)
        for t in (mesh.nodes[3], 0.25, 1.0):
            assert vie_residual(problem, sol, t) == pytest.approx(
                paper_form_residual(problem, sol, t), rel=0, abs=1e-11)


class TestHorizonContract:
    def test_mesh_beyond_order_horizon_raises(self):
        # the sine order is defined on [0, 1]; a T = 2 mesh used to return
        # u(2) from alpha evaluated outside its domain
        with pytest.raises(ValueError, match="horizon"):
            Problem(f=f_one, df_du=df_zero, u0=1.0, T=2.0, order=make_sine_order(0.6, 0.4))

    def test_mesh_and_problem_disagree(self):
        problem = problem_one(make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match="horizon"):
            solve(problem, make_mesh(2.0, 16, 1.0))

    @pytest.mark.parametrize("u0", [math.nan, math.inf])
    def test_non_finite_u0_is_refused(self, u0):
        # a NaN u0 used to read as a Newton divergence at node 1
        with pytest.raises(ValueError, match="u0 must be finite"):
            problem_one(make_sine_order(0.6, 0.4), u0=u0)

    def test_order_and_problem_disagree(self):
        with pytest.raises(ValueError, match="horizon"):
            problem_one(make_constant_order(0.5, T=2.0))


@settings(max_examples=40, deadline=None)
@given(
    a0=st.floats(0.1, 1.0),
    a1=st.floats(0.1, 0.9),
    N=st.integers(1, 200),
    grading=st.floats(0.0, 1.0),
    u0=st.floats(0.5, 2.0),
)
def test_f_zero_keeps_u0_to_rounding(a0, a1, N, grading, u0):
    # history rows telescope to 1 - K(t_n, 0), which the initial-data term
    # cancels, so constants are preserved to rounding on any admissible mesh
    order = make_sine_order(a0, a1)
    r = 1.0 + grading * (1.0 / a0 - 1.0)
    problem = Problem(f=f_zero, df_du=df_zero, u0=u0, T=1.0, order=order)
    sol = solve(problem, make_mesh(1.0, N, r))
    assert np.max(np.abs(sol.values - u0)) <= 1e-13
