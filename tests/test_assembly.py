import math
import pkgutil

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from vofie import assembly
from vofie.assembly import (
    QuadratureRule,
    _moments,
    _row_blocks,
    assemble,
    gauss_nodes,
    history_weights,
    translation_invariant,
)
from vofie.kernel import kernel_K, kernel_Ks
from vofie.mesh import make_mesh
from vofie.order import (
    VariableOrder,
    make_constant_order,
    make_linear_order,
    make_sine_order,
)
from vofie.solver import Problem, solve


class TestGaussNodes:
    def test_midpoint(self):
        rule = gauss_nodes(1)
        np.testing.assert_allclose(rule.nodes, [0.5])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_two_point(self):
        rule = gauss_nodes(2)
        np.testing.assert_allclose(
            rule.nodes, [(1 - 1 / math.sqrt(3)) / 2, (1 + 1 / math.sqrt(3)) / 2], rtol=1e-15
        )
        np.testing.assert_allclose(rule.weights, [0.5, 0.5], rtol=1e-15)

    def test_degree_seven_exactness(self):
        rule = gauss_nodes(4)
        got = float(np.sum(rule.weights * rule.nodes**6))
        assert got == pytest.approx(1.0 / 7.0, abs=1e-14)
        got7 = float(np.sum(rule.weights * rule.nodes**7))
        assert got7 == pytest.approx(1.0 / 8.0, abs=1e-14)

    def test_normalized(self):
        for count in (2, 20, 80):
            rule = gauss_nodes(count)
            assert float(np.sum(rule.weights)) == pytest.approx(1.0, abs=1e-13)
            assert np.all(np.diff(rule.nodes) > 0)
            assert rule.nodes[0] > 0 and rule.nodes[-1] < 1

    def test_count_validation(self):
        with pytest.raises(ValueError):
            gauss_nodes(0)

    def test_rules_are_shared_and_read_only(self):
        # each rule is built once per count, so no caller may write to it
        rule = gauss_nodes()
        assert gauss_nodes() is rule and gauss_nodes(7) is rule
        assert gauss_nodes(8) is not rule
        for values in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                values[0] = 0.0
            with pytest.raises(ValueError):
                values *= 2.0


def hat_moments(order, mesh, n, i):
    """Closed-form (wL, wR) of cell i of row n: entry i - 1 of _moments at
    t_n, one row rather than assemble's (N+1)^2 tables."""
    t = mesh.nodes[n : n + 1]
    wl, wr = _moments(t, mesh.nodes[: n + 1], np.asarray(order.alpha(t), dtype=float))
    return float(wl[0, i - 1]), float(wr[0, i - 1])


class TestSingularMoments:
    def test_classical_trapezoid(self):
        # alpha = 1 reduces the weight to 1, so the hat moments are tau/2
        order = make_constant_order(1.0)
        mesh = make_mesh(1.0, 5, 1.0)
        for n, i in [(1, 1), (3, 2), (5, 5)]:
            wl, wr = hat_moments(order, mesh, n, i)
            assert wl == pytest.approx(0.1, rel=1e-13)
            assert wr == pytest.approx(0.1, rel=1e-13)

    def test_beta_integral_cell(self):
        # single cell [0, 1], alpha = 0.5: total = 2/sqrt(pi),
        # ascending hat gets B(1/2, 2)/Gamma(1/2) = 4/(3 sqrt(pi))
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 1, 1.0)
        wl, wr = hat_moments(order, mesh, 1, 1)
        assert wl + wr == pytest.approx(2 / math.sqrt(math.pi), rel=1e-13)
        assert wr == pytest.approx(4 / (3 * math.sqrt(math.pi)), rel=1e-13)

    def test_partition_of_unity(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 12, 1.5)
        for n in (3, 8, 12):
            al = float(order.alpha(mesh.nodes[n]))
            for i in range(1, n + 1):
                wl, wr = hat_moments(order, mesh, n, i)
                a = mesh.nodes[n] - mesh.nodes[i]
                b = mesh.nodes[n] - mesh.nodes[i - 1]
                direct = (b**al - a**al) / (al * math.gamma(al))
                assert wl + wr == pytest.approx(direct, abs=1e-13)

    def test_positivity(self):
        order = make_sine_order(0.4, 0.2)
        mesh = make_mesh(1.0, 20, 2.5)
        for n in range(1, 21):
            for i in range(1, n + 1):
                wl, wr = hat_moments(order, mesh, n, i)
                assert wl > 0
                assert wr > 0

    def test_mpmath_oracle(self):
        # 30-digit quadrature of both hat pieces against the singular weight,
        # row N of a graded mesh: far cells near t = 0, mid cells, the diagonal
        order = make_sine_order(0.6, 0.4)
        mesh = make_mesh(1.0, 64, 1.0 / 0.6)
        n = mesh.N
        with mpmath.workdps(30):
            tn = mpmath.mpf(mesh.nodes[n])
            al = mpmath.mpf(float(order.alpha(mesh.nodes[n])))
            g = mpmath.gamma(al)
            for i in (1, 2, 3, n // 2, n - 1, n):
                lo, hi = mpmath.mpf(mesh.nodes[i - 1]), mpmath.mpf(mesh.nodes[i])
                tau = hi - lo
                oracle_l = mpmath.quad(lambda s: (hi - s) / tau * (tn - s) ** (al - 1) / g, [lo, hi])
                oracle_r = mpmath.quad(lambda s: (s - lo) / tau * (tn - s) ** (al - 1) / g, [lo, hi])
                wl, wr = hat_moments(order, mesh, n, i)
                assert abs(wl - float(oracle_l)) <= 1e-12, i
                assert abs(wr - float(oracle_r)) <= 1e-12, i

    def test_far_cells_keep_relative_accuracy(self):
        # far cells of a strongly graded row have tau_i / (t_n - t_i) down to
        # 1e-5; against 40-digit closed forms both pieces must stay accurate
        # relative to their own size (a direct wL formula is off by 1e-6)
        order = make_sine_order(0.6, 0.4)
        mesh = make_mesh(1.0, 1440, 1.0 / 0.6)
        n = mesh.N
        with mpmath.workdps(40):
            tn = mpmath.mpf(mesh.nodes[n])
            al = mpmath.mpf(float(order.alpha(mesh.nodes[n])))
            g = mpmath.gamma(al)
            for i in (1, 2, 3, 10, 100):
                a, b = tn - mpmath.mpf(mesh.nodes[i]), tn - mpmath.mpf(mesh.nodes[i - 1])
                mass = (b**al - a**al) / (al * g)
                oracle_l = ((b ** (al + 1) - a ** (al + 1)) / (al + 1) - a * mass * g) / ((b - a) * g)
                oracle_r = mass - oracle_l
                wl, wr = hat_moments(order, mesh, n, i)
                assert abs(wl / float(oracle_l) - 1.0) <= 1e-9, i
                assert abs(wr / float(oracle_r) - 1.0) <= 1e-9, i


class TestHistoryWeights:
    def test_constant_order_row_is_zero(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 8, 1.0)
        row = history_weights(order, mesh, gauss_nodes(20), 8)
        np.testing.assert_allclose(row, 0.0, atol=1e-15)
        assert row[0] == 0.0

    def test_against_adaptive_quadrature(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 8, 1.0)
        n = 8
        tn = mesh.nodes[n]
        row = history_weights(order, mesh, gauss_nodes(80), n)

        def hat_i(i, s):
            tl, tc = mesh.nodes[i - 1], mesh.nodes[i]
            tr = mesh.nodes[i + 1] if i < n else tc
            s = np.asarray(s, dtype=float)
            up = (s - tl) / (tc - tl)
            down = (tr - s) / (tr - tc) if i < n else 0.0
            return np.where(s <= tc, up, down)

        for i in range(1, n + 1):
            hi = mesh.nodes[min(i + 1, n)]
            kwargs = {"points": [mesh.nodes[i]]} if i < n else {}
            oracle, _ = quad(
                lambda s: kernel_Ks(order, tn, s) * hat_i(i, s),
                mesh.nodes[i - 1],
                hi,
                limit=400,
                epsabs=1e-9,
                **kwargs,
            )
            assert row[i] == pytest.approx(oracle, abs=1e-8)
        oracle0, _ = quad(
            lambda s: kernel_Ks(order, tn, s) * (mesh.nodes[1] - s) / mesh.steps[0],
            0.0,
            mesh.nodes[1],
            limit=400,
            epsabs=1e-9,
        )
        assert row[0] == pytest.approx(oracle0, abs=1e-8)

    def test_row_sum_identity(self):
        # sum_i h[n][i] = 1 - t_n^{da} / Gamma(1 + da), h[n][0] the u0 coefficient
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 16, 1.0)
        rule = gauss_nodes(80)
        for n in (4, 16):
            row = history_weights(order, mesh, rule, n)
            tn = mesh.nodes[n]
            da = float(order.alpha(tn)) - order.alpha0
            expected = 1.0 - tn**da / math.gamma(1.0 + da)
            assert float(np.sum(row)) == pytest.approx(expected, abs=1e-9)

    def test_refinement_convergence(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 8, 1.0)
        n = 8
        row40 = history_weights(order, mesh, gauss_nodes(40), n)
        row80 = history_weights(order, mesh, gauss_nodes(80), n)
        # entry 0 is the u0 coefficient
        np.testing.assert_allclose(row40[: n - 1], row80[: n - 1], atol=1e-10)
        # the diagonal cell carries the log singularity
        assert abs(row40[n] - row80[n]) <= 1e-6
        assert abs(row40[n - 1] - row80[n - 1]) <= 1e-6


class TestAssemble:
    def test_dense_vs_fast_path(self):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 16, 1.0)
        rule = gauss_nodes(80)
        dense = assemble(order, mesh, rule)
        fast = assemble(order, mesh, rule, fast_path=True)
        for n in range(1, 17):
            for i in range(1, n + 1):
                assert abs(dense.h_entry(n, i) - fast.h_entry(n, i)) <= 1e-12
            assert abs(dense.history_row(n)[0] - fast.history_row(n)[0]) <= 1e-12
        np.testing.assert_allclose(dense.wL, fast.wL)
        np.testing.assert_allclose(dense.wR, fast.wR)

    def test_translation_invariance_dense(self):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 16, 1.0)
        dense = assemble(order, mesh, gauss_nodes(80))
        worst = max(
            abs(dense.h_entry(n, i) - dense.h_entry(n + 1, i + 1))
            for n in range(1, 16)
            for i in range(1, n + 1)
        )
        assert worst <= 1e-12

    def test_storage_footprint(self):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 32, 1.0)
        dense = assemble(order, mesh, gauss_nodes(20))
        fast = assemble(order, mesh, gauss_nodes(20), fast_path=True)
        assert dense.history_storage_entries() == 32 * 33 // 2
        assert fast.history_storage_entries() == 2 * 32

    def test_constant_order_all_zero(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 8, 1.0)
        dense = assemble(order, mesh, gauss_nodes(20))
        fast = assemble(order, mesh, gauss_nodes(20), fast_path=True)
        for n in range(1, 9):
            np.testing.assert_allclose(dense.history_row(n), 0.0, atol=1e-15)
            np.testing.assert_allclose(fast.history_row(n), 0.0, atol=1e-15)

    @pytest.mark.parametrize("fast_path", [False, True])
    def test_history_row_index_errors(self, fast_path):
        table = assemble(make_linear_order(0.9, 0.4), make_mesh(1.0, 8, 1.0), fast_path=fast_path)
        assert len(table.history_row(8)) == 9
        for n in (0, -1, 9, 12):
            with pytest.raises(IndexError):
                table.history_row(n)

    def test_fast_path_preconditions(self):
        rule = gauss_nodes(10)
        with pytest.raises(ValueError):
            assemble(make_sine_order(0.6, 0.1), make_mesh(1.0, 8, 1.0), rule, fast_path=True)
        with pytest.raises(ValueError):
            assemble(make_linear_order(0.9, 0.4), make_mesh(1.0, 8, 2.0), rule, fast_path=True)

    def test_csv_dump(self, tmp_path):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 4, 1.0)
        table = assemble(order, mesh, gauss_nodes(10))
        path = tmp_path / "weights.csv"
        table.dump_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,i,h,wL,wR"
        assert len(lines) == 1 + 4 * 5 // 2


@pytest.mark.parametrize(
    "name", ["vofie.assembly:history_weights", "vofie.assembly:kernel_Ks", "vofie.solver:assemble"]
)
def test_names_the_benchmark_traces_resolve(name):
    # perfbench/tracing.py hooks these names: they stay until it no longer does
    assert callable(pkgutil.resolve_name(name))


class TestTranslationInvariant:
    """Gap rows follow from alpha's values; nothing is declared."""

    @pytest.mark.parametrize(
        "order",
        [
            make_linear_order(0.7, 0.3, T=2.0),
            VariableOrder(lambda t: 0.2 * np.asarray(t) / 0.7 + 0.8 * (1 - np.asarray(t) / 0.7),
                          lambda t: np.full_like(np.asarray(t, dtype=float), -0.6 / 0.7), T=0.7),
        ],
    )
    def test_affine_orders_qualify(self, order):
        mesh = make_mesh(order.T, 64, 1.0)
        # raises where the inputs do not qualify
        translation_invariant(order, mesh)
        translation_invariant(order, mesh, gauss_nodes(20))

    def test_quadratic_order_names_its_largest_departure(self):
        order = VariableOrder(lambda t: 0.6 - 0.3 * np.asarray(t) ** 2, lambda t: -0.6 * np.asarray(t))
        mesh = make_mesh(1.0, 8, 1.0)
        with pytest.raises(ValueError, match="chord"):
            translation_invariant(make_sine_order(0.6, 0.4), mesh)
        # 0.3 (t - t^2) from the chord 0.6 - 0.3 t, largest at the node t = 0.5
        with pytest.raises(ValueError, match=r"chord by 0\.075 at t = 0\.5$"):
            translation_invariant(order, mesh)

    def test_rule_points_are_checked_between_affine_nodes(self):
        # on the chord at every node of N = 16, off it inside each cell
        order = VariableOrder(lambda t: 0.6 - 0.3 * np.asarray(t) + 1e-3 * np.sin(32 * np.pi * np.asarray(t)),
                              lambda t: -0.3 + 32e-3 * np.pi * np.cos(32 * np.pi * np.asarray(t)))
        mesh = make_mesh(1.0, 16, 1.0)
        with pytest.raises(ValueError) as exc:
            translation_invariant(order, mesh)
        t = float(str(exc.value).split("at t = ")[1])
        assert np.min(np.abs(mesh.nodes - t)) > 1e-3

    def test_graded_mesh_is_refused_before_sampling(self):
        calls = []
        line = make_linear_order(0.9, 0.4)
        order = VariableOrder(lambda t: calls.append(1) or line.alpha(t), line.dalpha)
        calls.clear()
        with pytest.raises(ValueError, match="uniform"):
            translation_invariant(order, make_mesh(1.0, 16, 2.0))
        assert calls == []


class TestIntegrationByParts:
    """History weights as differences of cell averages of the bounded K."""

    @pytest.mark.parametrize(
        "order,r",
        [
            (make_sine_order(0.6, 0.1), 1.0),
            (make_sine_order(0.6, 0.1), 1.0 / 0.6),
            (make_sine_order(0.3, 0.1), 1.0 / 0.3),
            (make_linear_order(0.9, 0.4), 1.0),
        ],
    )
    def test_dense_row_sums_telescope(self, order, r):
        mesh = make_mesh(1.0, 64, r)
        table = assemble(order, mesh)
        for n in range(1, 65):
            expected = 1.0 - kernel_K(order, mesh.nodes[n], 0.0)
            got = float(np.sum(table.history_row(n)))
            assert abs(got - expected) <= 1e-14

    @pytest.mark.parametrize("rule", [None, gauss_nodes(80)])
    def test_fast_row_sums_telescope(self, rule):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 64, 1.0)
        table = assemble(order, mesh, rule, fast_path=True)
        for n in range(1, 65):
            expected = 1.0 - kernel_K(order, mesh.nodes[n], 0.0)
            got = float(np.sum(table.history_row(n)))
            assert abs(got - expected) <= 1e-14

    def test_constant_order_gives_exact_zeros(self):
        order = make_constant_order(0.5)
        dense = assemble(order, make_mesh(1.0, 24, 2.0))
        fast = assemble(order, make_mesh(1.0, 24, 1.0), fast_path=True)
        for n in range(1, 25):
            assert np.all(dense.history_row(n) == 0.0) and np.all(fast.history_row(n) == 0.0)

    def test_default_rule_against_adaptive_quadrature(self):
        # oracle integrates K_s against the hat pieces directly, cell by cell
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 12, 1.0 / 0.6)
        table = assemble(order, mesh)
        t = mesh.nodes

        def piece(tn, lo, hi, shape):
            val, _ = quad(
                lambda s: kernel_Ks(order, tn, s) * shape(s),
                lo, hi, limit=500, epsabs=1e-14, epsrel=1e-13,
            )
            return val

        for n in (1, 2, 5, 12):
            tn, row = t[n], table.history_row(n)
            for i in range(1, n + 1):
                up = piece(tn, t[i - 1], t[i], lambda s: (s - t[i - 1]) / (t[i] - t[i - 1]))
                down = (
                    piece(tn, t[i], t[i + 1], lambda s: (t[i + 1] - s) / (t[i + 1] - t[i]))
                    if i < n else 0.0
                )
                assert row[i] == pytest.approx(up + down, abs=1e-9)
            oracle0 = piece(tn, 0.0, t[1], lambda s: (t[1] - s) / t[1])
            assert row[0] == pytest.approx(oracle0, abs=1e-9)

    @pytest.mark.parametrize("count", [8, 80])
    def test_row_blocks_match_single_rows(self, count):
        order = make_sine_order(0.6, 0.4)
        mesh = make_mesh(1.0, 260, 1.0 / 0.6)
        rule = gauss_nodes(count)
        blocks = list(_row_blocks(1, mesh.N, 0, count))
        assert len(blocks[0]) > 1
        if count == 80:
            # past 204 shared cells one row's rectangle alone exceeds the
            # cap: one row per block
            assert len(blocks[-1]) == 1
        table = assemble(order, mesh, rule)
        for n in range(1, mesh.N + 1):
            row = history_weights(order, mesh, rule, n)
            np.testing.assert_allclose(table.history_row(n), row, rtol=0, atol=1e-15)


def block_arrays(rows, first, count):
    """The points of each array a block of rows builds from cell first + 1:
    moments R (C0 + R) and, with count kernel points per near cell, the
    rectangle R C0 count, the triangle R (R - 1)/2 count and the diagonal
    R len(DIAG_NODES), with C0 = rows[0] - 1 - first."""
    R, c0 = len(rows), int(rows[0]) - 1 - first
    kernel = [R * c0 * count, R * (R - 1) // 2 * count, R * len(assembly.DIAG_NODES)] if count else []
    return [R * (c0 + R), *kernel]


@settings(max_examples=80, deadline=None)
@given(first=st.integers(0, 600), gap=st.integers(1, 200), span=st.integers(0, 400),
       count=st.sampled_from([0, 3, 7]))
def test_row_blocks_tile_and_bound_every_array(first, gap, span, count):
    # direct rows (count kernel points per near cell) and gap rows (count
    # 0): the blocks tile lo..hi, each array of each block stays within
    # HISTORY_BLOCK_POINTS unless the block is one row, and each block but
    # the last would exceed it with one row more
    lo = first + gap
    hi = lo + span
    cap = assembly.HISTORY_BLOCK_POINTS
    blocks = list(_row_blocks(lo, hi, first, count))
    np.testing.assert_array_equal(np.concatenate(blocks), np.arange(lo, hi + 1))
    for rows in blocks:
        assert len(rows) == 1 or max(block_arrays(rows, first, count)) <= cap
        if rows[-1] < hi:
            assert max(block_arrays(np.arange(rows[0], rows[-1] + 2), first, count)) > cap


@settings(max_examples=15, deadline=None)
@given(first=st.integers(0, 300), gap=st.integers(1, 100), span=st.integers(0, 200))
def test_blocks_build_the_arrays_they_are_sized_by(first, gap, span):
    # the kernel and moment arrays the direct rows build for each block are
    # those block_arrays counts
    lo, order = first + gap, make_sine_order(0.6, 0.4)
    hi = lo + span
    cq = assembly._cell_quadrature(order, make_mesh(1.0, hi, 1.0 / 0.6), gauss_nodes())
    kernel = assembly._kernel_minus_one
    for rows in _row_blocks(lo, hi, first, cq.rule.count):
        sizes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(assembly, "_kernel_minus_one", lambda da, v: sizes.append(v.size) or kernel(da, v))
            assembly._cell_averages(cq, rows, first)
        wl, _ = assembly._moments(cq.mesh.nodes[rows], cq.mesh.nodes[first : rows[-1] + 1], cq.alpha_t[rows])
        assert [wl.size, *sizes] == block_arrays(rows, first, cq.rule.count)


class TestInPlaceKernels:
    """The kernels compute in place; their values are those of the plain
    expressions, bit for bit (array_equal, and the same signs of zero)."""

    def assert_same_bits(self, got, expected):
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(expected))

    def test_kernel_minus_one(self):
        rng = np.random.default_rng(3)
        da, v = rng.uniform(-0.999, 0.999, (40, 7)), rng.uniform(1e-9, 2.0, (40, 7))
        da[::3] = 0.0
        # G = Gamma(1 + da) up to about 2^52 as da nears -1
        da[1] = [-1.0 + 2.0**-52, -1.0 + 1e-9, -0.9999, -0.5, 0.5, 0.9999, 1.0 - 1e-9]
        inputs = da.copy(), v.copy()
        got = assembly._kernel_minus_one(da, v)
        g = special.gamma(1.0 + da)
        self.assert_same_bits(got, (np.expm1(da * np.log(v)) - (g - 1.0)) / g)
        # da = 0 is an exact zero, and the inputs are left as they were
        assert not got[::3].any()
        np.testing.assert_array_equal(da, inputs[0])
        np.testing.assert_array_equal(v, inputs[1])

    def test_far_weight(self):
        rng = np.random.default_rng(4)
        v, al = rng.uniform(1e-6, 1.0, (30, 48)), rng.uniform(0.1, 1.0, (30, 1))
        self.assert_same_bits(assembly._far_weight(v, al), v ** (al - 1.0) / special.gamma(al))

    @pytest.mark.parametrize("r", [1.0, 1.0 / 0.3])
    def test_moments(self, r):
        # the textbook form over a block with zero columns past each t
        nodes = make_mesh(1.0, 60, r).nodes
        rows = np.arange(20, 61)
        t, al = nodes[rows], 0.3 + 0.6 * nodes[rows] ** 2
        wl, wr = assembly._moments(t, nodes, al)
        v = np.maximum(t[:, None] - nodes, 0.0)
        a2 = al[:, None]
        m = v**a2
        m = (m[:, :-1] - m[:, 1:]) / (a2 * special.gamma(a2))
        b, a = v[:, :-1], v[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            q = (b - a) / b
            e = np.expm1(a2 * np.log1p(-q))
            theta = (q * (a2 - e) + e) / (q * e) * (-1.0 / (a2 + 1.0))
        expected = np.fmin(np.fmax(theta, a2 / (a2 + 1.0)), 0.5) * m
        self.assert_same_bits(wl, expected)
        self.assert_same_bits(wr, m - expected)
        past = np.arange(60) >= rows[:, None]
        assert past.any() and not wl[past].any() and not wr[past].any()

    @pytest.mark.parametrize("r", [1.0, 1.0 / 0.6])
    def test_per_time_edges_give_the_block_moments(self, r):
        # the panel check's moments, one cell per time on (cell, 2) edges,
        # are those cells' columns of one row block over all the nodes
        rng = np.random.default_rng(5)
        nodes = make_mesh(1.0, 500, r).nodes
        c = rng.integers(0, 400, 3000)
        t = nodes[np.minimum(c + rng.integers(1, 200, c.size), 500)]
        al = 0.9 - 0.5 * t
        cells = assembly._moments(t, np.stack((nodes[c], nodes[c + 1]), axis=1), al)
        block = assembly._moments(t, nodes, al)
        for got, expected in zip(cells, block):
            assert got.shape == (c.size, 1)
            self.assert_same_bits(got[:, 0], expected[np.arange(c.size), c])


def per_row_diagonal_averages(cq, rows):
    """B[n][n] for n in rows from the diagonal rule taken in t, row by row:
    20-node Gauss-Legendre in w on (0, 1) at s = t_n - tau_n w^4, with
    weights 4 w^3 W. It is the average that DIAG_NODES and DIAG_WEIGHTS,
    fractions of the cell, stand for."""
    w, W = gauss_nodes(20).nodes, gauss_nodes(20).weights
    tn, v = cq.mesh.nodes[rows, None], cq.mesh.steps[rows - 1, None] * w**4
    da = cq.alpha_t[rows, None] - np.asarray(cq.order.alpha(tn - v), dtype=float)
    return assembly._kernel_minus_one(da, v) @ (4.0 * w**3 * W)


# a rule built by hand, not by gauss_nodes: exact for degree 1 only
SKEWED_RULE = QuadratureRule(nodes=np.array([0.2, 0.7]), weights=np.array([0.4, 0.6]))


class TestDiagonalRule:
    """The diagonal cell takes one fixed rule graded into its v ln v corner,
    whatever the per-cell rule the rows are built with: its points and
    weights are fractions of the cell, held once (DIAG_NODES,
    DIAG_WEIGHTS)."""

    @pytest.mark.parametrize("rule", [gauss_nodes(8), gauss_nodes(3), gauss_nodes(80), SKEWED_RULE],
                             ids=["gauss8", "gauss3", "gauss80", "by-hand"])
    def test_weights_sum_to_one(self, rule, monkeypatch):
        nodes, weights = assembly.DIAG_NODES, assembly.DIAG_WEIGHTS
        assert nodes.shape == weights.shape == (20,)
        assert abs(weights.sum() - 1.0) <= 4 * np.finfo(float).eps
        assert np.all(np.diff(nodes) > 0) and 0.0 < nodes[0] and nodes[-1] < 1.0
        # whatever the per-cell rule, the diagonal average of K - 1 = 1 is one
        # and its points are those fractions of the cell
        mesh = make_mesh(1.0, 16, 1.0 / 0.6)
        cq = assembly._cell_quadrature(make_sine_order(0.6, 0.4), mesh, rule)
        gaps = []
        monkeypatch.setattr(assembly, "_kernel_minus_one", lambda da, v: gaps.append(v) or np.ones_like(v))
        rows = np.arange(1, mesh.N + 1)
        diag = assembly._cell_averages(cq, rows)[rows - 1, rows - 1]
        assert np.all(np.abs(diag - 1.0) <= 4 * np.finfo(float).eps)
        tau = mesh.steps[rows - 1, None]
        np.testing.assert_allclose(gaps[-1], tau * (1.0 - nodes), rtol=0, atol=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("rule", [gauss_nodes(), SKEWED_RULE], ids=["gauss7", "by-hand"])
    def test_blocks_match_per_row_rule(self, rule):
        # every diagonal average the stream yields on a graded N = 1440 solve
        # agrees with each row's own rule in t to rounding, relative to
        # K = 1 + B (alpha's rounding leaves B an absolute error of about eps)
        order, mesh = make_sine_order(0.6, 0.4), make_mesh(1.0, 1440, 1.0 / 0.6)
        fvals, incs = march_values(order, mesh)
        cq = assembly._cell_quadrature(order, mesh, rule)
        rows = 0
        for lo, hi, far, _, _, b, _ in assembly.coefficient_rows(order, mesh, rule, fvals, incs):
            n = np.arange(lo, hi + 1)
            expected = per_row_diagonal_averages(cq, n)
            assert np.all(np.abs(b[n - lo, n - far - 1] - expected) <= 1e-15 * np.abs(1.0 + expected))
            rows += len(n)
        assert rows == mesh.N


def per_cell_averages(cq, rows, first):
    """B[k, c] of _cell_averages written plainly, row by row and cell by
    cell: the rule's weights against kernel_K at its points in t off the
    diagonal, DIAG_WEIGHTS at t_{n-1} + tau_n DIAG_NODES on it, minus one,
    and zero past the diagonal."""
    t, tau = cq.mesh.nodes, cq.mesh.steps
    out = np.zeros((len(rows), rows[-1] - first))
    for k, n in enumerate(rows):
        for j in range(first + 1, n + 1):
            x, w = (assembly.DIAG_NODES, assembly.DIAG_WEIGHTS) if j == n else (cq.rule.nodes, cq.rule.weights)
            out[k, j - first - 1] = kernel_K(cq.order, t[n], t[j - 1] + tau[j - 1] * x) @ w - 1.0
    return out


@settings(max_examples=25, deadline=None)
@given(first=st.integers(1, 60), gap=st.integers(1, 40), span=st.integers(0, 40),
       r=st.sampled_from([1.0, 1.0 / 0.6]),
       rule=st.sampled_from([gauss_nodes(1), gauss_nodes(3), gauss_nodes(), SKEWED_RULE]))
def test_cell_averages_match_the_scheme_cell_by_cell(first, gap, span, r, rule):
    # the first block the direct rows build from cell first + 1 on, against
    # the scheme's averages taken one cell at a time, within 4 eps of K = 1 + B
    lo = first + gap
    cq = assembly._cell_quadrature(make_sine_order(0.6, 0.4), make_mesh(1.0, lo + span, r), rule)
    rows = next(_row_blocks(lo, lo + span, first, rule.count))
    expected = per_cell_averages(cq, rows, first)
    got = assembly._cell_averages(cq, rows, first)
    assert got.shape == expected.shape
    assert np.all(np.abs(got - expected) <= 4 * np.finfo(float).eps * np.abs(1.0 + expected))


def sin4_problem(order):
    return Problem(f=lambda u, t: 0.5 * np.sin(u) ** 4,
                   df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
                   u0=1.0, T=1.0, order=order)


def march_values(order, mesh):
    """(fvals, incs) of a sin^4 solve: the f values and increments that the
    far sums weigh, incs[0] unused."""
    problem = sin4_problem(order)
    values = solve(problem, mesh).values
    return problem.f(values, mesh.nodes), np.diff(values, prepend=np.nan)


def far_sums(order, mesh, rule):
    """(far, known, direct) per row n of a sin^4 solve: the row's far cells
    1..far[n], its far sum as the stream yields it, and the same sum from
    assemble's table, where every cell is by direct quadrature."""
    fvals, incs = march_values(order, mesh)
    far, known, direct = np.zeros(mesh.N + 1, dtype=int), np.zeros(mesh.N + 1), np.zeros(mesh.N + 1)
    for lo, hi, j, *_, k in assembly.coefficient_rows(order, mesh, rule, fvals, incs):
        far[lo : hi + 1], known[lo : hi + 1] = j, k
    table = assemble(order, mesh, rule)
    for n in range(1, mesh.N + 1):
        j = far[n]
        direct[n] = (table.wL[n, 1 : j + 1] @ fvals[:j] + table.wR[n, 1 : j + 1] @ fvals[1 : j + 1]
                     - table.B[n, 1 : j + 1] @ incs[1 : j + 1])
    return far, known, direct


def far_fields(order, mesh, rule):
    """(walked, used): row groups that walked the panel tree, and those
    whose rows read far cells, in a sin^4 solve."""
    fvals, incs = march_values(order, mesh)
    walked, read = [], assembly._Panels._read
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(assembly._Panels, "_read", lambda self, lo: walked.append(lo) or read(self, lo))
        far = {n: j for lo, hi, j, *_ in assembly.coefficient_rows(order, mesh, rule, fvals, incs)
               for n in range(lo, hi + 1)}
    return len(walked), sum(far[lo] > 0 for lo in walked)


def panel_checks(mp):
    """(size, passed) of every panel check, patched in through mp."""
    checks = []
    check = assembly._Panels._check

    def counted(self, ids):
        passed = check(self, ids)
        checks.extend(zip(self.size[ids].tolist(), passed.tolist()))
        return passed

    mp.setattr(assembly._Panels, "_check", counted)
    return checks


def fast_order():
    """alpha = 0.5 + 0.3 sin(40 t): it varies on the scale of wide panels."""
    return VariableOrder(lambda t: 0.5 + 0.3 * np.sin(40.0 * np.asarray(t)),
                         lambda t: 12.0 * np.cos(40.0 * np.asarray(t)))


def bump_order(centre=0.25, width=0.05):
    """alpha = 0.5 + 0.3 sin(400 t) exp(-((t - centre)/width)^2): it varies
    on the scale of leaves near t = centre only."""
    def bump(t):
        return np.exp(-(((np.asarray(t) - centre) / width) ** 2))

    def alpha(t):
        return 0.5 + 0.3 * np.sin(400.0 * np.asarray(t)) * bump(t)

    def dalpha(t):
        t = np.asarray(t)
        return 0.3 * bump(t) * (400.0 * np.cos(400.0 * t) - np.sin(400.0 * t) * 2.0 * (t - centre) / width**2)

    return VariableOrder(alpha, dalpha)


class TestFarField:
    @pytest.mark.parametrize(
        "order,N,r,count",
        [
            (make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6, 8),
            (make_sine_order(1.0, 0.1), 1440, 1.0, 8),
            (make_sine_order(0.6, 0.4), 400, 1.0 / 0.6, 80),
            # the last far group misses its check (2.7e-14 of its B term's
            # magnitude) and stays direct; interpolated, its rows were off
            # by 5.2e-15
            (make_sine_order(0.3, 0.9), 401, 1.0 / 0.3, 8),
        ],
    )
    def test_interpolated_rows_match_direct_quadrature(self, order, N, r, count):
        mesh, rule = make_mesh(1.0, N, r), gauss_nodes(count)
        far, known, direct = far_sums(order, mesh, rule)
        assert far.any()
        np.testing.assert_allclose(known, direct, rtol=0, atol=5e-15)

    def test_constant_order_stays_exactly_zero(self):
        # K = 1 exactly, so B and the far B term are exact zeros, and with
        # f = 0 so is the moment term, whatever the increments
        order, mesh, rule = make_constant_order(0.5), make_mesh(1.0, 400, 2.0), gauss_nodes()
        incs = np.random.default_rng(0).uniform(-1.0, 1.0, mesh.N + 1)
        blocks = list(assembly.coefficient_rows(order, mesh, rule, np.zeros(mesh.N + 1), incs))
        assert any(far for _, _, far, *_ in blocks)
        assert all(np.all(known == 0.0) and not b.any() for *_, b, known in blocks)
        dense = assemble(order, mesh, rule)
        assert np.all(dense.B == 0.0)
        assert all(np.all(dense.history_row(n) == 0.0) for n in range(1, mesh.N + 1))

    def test_small_solves_stay_direct(self):
        # the far field engages only where it saves enough points; a mesh
        # graded with r >= 5.07 readies the most leaves by row 129
        rule = gauss_nodes()
        for r in (1.0, 1.0 / 0.6, 1.0 / 0.3, 6.0):
            assert far_fields(make_sine_order(0.6, 0.4), make_mesh(1.0, 192, r), rule) == (0, 0)
        # the gap rows, in their longer groups, too
        fvals, incs = march_values(make_linear_order(0.9, 0.4), make_mesh(1.0, 192, 1.0))
        blocks = assembly.coefficient_rows(make_linear_order(0.9, 0.4), make_mesh(1.0, 192, 1.0), rule, fvals, incs)
        assert not any(far for _, _, far, *_ in blocks)

    def test_direct_gap_rows_evaluate_no_far_sum(self, monkeypatch):
        # affine (0.9, 0.4), uniform N = 192: the leaves ready by row 129 end
        # at cell 112, too few for the far field of group lo = 129 to pay,
        # so the group stays direct before any panel is built, made or walked
        built, walks, evaluated = [], [], []
        init, read, far_sums = assembly._Panels.__init__, assembly._Panels._read, assembly._Panels.far_sums
        monkeypatch.setattr(assembly._Panels, "__init__",
                            lambda self, *args: built.append(1) or init(self, *args))
        monkeypatch.setattr(assembly._Panels, "_read", lambda self, lo: walks.append(lo) or read(self, lo))
        monkeypatch.setattr(assembly._Panels, "far_sums",
                            lambda self, used, lo, hi: evaluated.append(lo) or far_sums(self, used, lo, hi))
        problem, mesh = sin4_problem(make_linear_order(0.9, 0.4)), make_mesh(1.0, 192, 1.0)
        values = solve(problem, mesh).values
        assert built == walks == evaluated == []
        # one direct group, as with the far field off
        monkeypatch.setattr(assembly, "FAR_MIN_SAVED_POINTS", math.inf)
        np.testing.assert_array_equal(values, solve(problem, mesh).values)

    def test_alpha_is_sampled_only_at_panels_with_a_b_term(self, monkeypatch):
        # the gap rows take the far B term exactly, so their panels carry
        # no alpha; the direct rows' panels sample it at every node
        built = []
        init = assembly._Panels.__init__
        monkeypatch.setattr(assembly._Panels, "__init__",
                            lambda self, *args: built.append(self) or init(self, *args))
        solve(sin4_problem(make_linear_order(0.9, 0.4)), make_mesh(1.0, 4000, 1.0))
        solve(sin4_problem(make_sine_order(0.6, 0.4)), make_mesh(1.0, 1440, 1.0 / 0.6))
        gap, direct = built
        assert gap.incs is None and gap.alpha_s is None
        assert direct.alpha_s.shape == direct.s.shape

    def test_short_walks_evaluate_no_far_sum(self, monkeypatch):
        # alpha varies fast near t = 0.03 only: the leaf there fails its
        # check, so every walk ends at cell 24, too few for the far field to
        # pay, and no far sum is evaluated
        walks, evaluated = [], []
        read, far_sums = assembly._Panels._read, assembly._Panels.far_sums

        def recorded(self, lo):
            far, used = read(self, lo)
            walks.append(far)
            return far, used

        monkeypatch.setattr(assembly._Panels, "_read", recorded)
        monkeypatch.setattr(assembly._Panels, "far_sums",
                            lambda self, used, lo, hi: evaluated.append(lo) or far_sums(self, used, lo, hi))
        march_values(bump_order(0.03, 0.01), make_mesh(1.0, 1440, 1.0))
        assert walks and set(walks) == {24}
        assert evaluated == []

    def test_unresolved_panels_split(self, monkeypatch):
        # the wide panels fail their check and give way to their children;
        # leaves pass, and the far sums still match direct quadrature
        checks = panel_checks(monkeypatch)
        far, known, direct = far_sums(fast_order(), make_mesh(1.0, 1440, 1.0), gauss_nodes())
        failed = [size for size, passed in checks if not passed]
        assert failed and min(failed) > assembly.PANEL_LEAF_CELLS
        assert far.any()
        np.testing.assert_allclose(known, direct, rtol=0, atol=5e-15)

    @pytest.mark.parametrize(
        "order,N,none_fail",
        [
            (make_linear_order(0.9, 0.4), 20_000, False),
            (make_sine_order(0.6, 0.4), 5760, True),
            (fast_order(), 5760, False),
        ],
        ids=["affine-0.9-0.4", "sine-0.6-0.4", "sin40t"],
    )
    def test_uniform_leaves_take_their_own_width(self, monkeypatch, order, N, none_fail):
        # _LEAF_BASIS places each cell at an exact eighth of its leaf, so on a
        # uniform mesh the cells weigh by an eighth of their leaf's width:
        # weighed by their float steps, 357, 21 and 44 leaves failed here.
        # Parents may still fail (their count moves with the BLAS threads),
        # but not on the sine order
        checks = panel_checks(monkeypatch)
        solve(sin4_problem(order), make_mesh(1.0, N, 1.0))
        failed = [size for size, passed in checks if not passed]
        assert len(checks) > 1000
        assert not failed if none_fail else assembly.PANEL_LEAF_CELLS not in failed

    def test_covers_are_the_fewest_readable_panels(self, monkeypatch):
        # the panels each group reads, as its walk of the tree found them
        walks, read = {}, assembly._Panels._read

        def recorded(self, lo):
            far, used = read(self, lo)
            walks[lo] = self, [(int(self.start[i]), int(self.size[i])) for i in used]
            return far, used

        monkeypatch.setattr(assembly._Panels, "_read", recorded)
        leaf = assembly.PANEL_LEAF_CELLS
        # the sine order reads each panel it may; alpha = 0.5 + 0.3 sin(40 t)
        # splits panels that are near enough but failed their check, and the
        # bump order also ends the far cells at leaves that failed theirs
        for order, r, splits, leaf_fails in ((make_sine_order(0.6, 0.4), 1.0 / 0.6, False, False),
                                             (fast_order(), 1.0, True, False),
                                             (bump_order(), 1.0, True, True)):
            mesh, rule = make_mesh(1.0, 1440, r), gauss_nodes()
            t, N = mesh.nodes, mesh.N
            fvals, incs = march_values(order, mesh)
            cq = assembly._cell_quadrature(order, mesh, rule)
            groups = list(assembly._groups(cq, fvals, incs))

            def near_enough(a, size, lo):
                return a + size <= N and t[a + size] <= t[lo] - assembly.FAR_SEPARATION * (t[a + size] - t[a])

            def readable(panels, a, size, lo):
                # a panel that exists, ends far enough before t_lo and passed its check
                level = (size // leaf).bit_length() - 1
                return near_enough(a, size, lo) and bool(panels.passed[panels.first[level] + a // size])

            assert [lo for lo, *_ in groups] == [1] + [hi + 1 for _, hi, *_ in groups[:-1]]
            assert groups[-1][1] == N
            # most groups read a far field
            assert sum(far > 0 for _, _, far, _ in groups) > -(-N // assembly.GROUP_ROWS) / 2
            split = ended = 0
            for lo, hi, far, _ in groups:
                if not far:
                    continue
                assert hi - lo + 1 <= assembly.GROUP_ROWS
                panels, cover = walks[lo]
                starts, sizes = zip(*cover)
                ends = [a + size for a, size in cover]
                # cells 1..far in order
                assert list(starts) == [0, *ends[:-1]] and ends[-1] == far < lo
                if not splits:
                    # panels only narrow toward t_lo
                    assert list(sizes) == sorted(sizes, reverse=True)
                for a, size in cover:
                    # a tree panel that row lo may read, whose parent it may not
                    assert size % leaf == 0 and (size // leaf).bit_count() == 1 and a % size == 0
                    assert readable(panels, a, size, lo)
                    parent = a - a % (2 * size)
                    assert not readable(panels, parent, 2 * size, lo)
                    split += near_enough(parent, 2 * size, lo)
                # far as large as leaves allow
                assert not readable(panels, far, leaf, lo)
                ended += near_enough(far, leaf, lo)
            assert (split > 0) == splits and (ended > 0) == leaf_fails

    @pytest.mark.parametrize("r", [1.0 / 0.6, 1.0], ids=["graded", "uniform"])
    def test_charges_are_the_integrals_against_the_panel_basis(self, r):
        # with f = 1 + 2t and u = 3t, f_h = f and u_h' = 3 on every cell, so
        # q_f,d = int L_d (1 + 2s) ds and q_B,d = 3 int L_d ds are integrals
        # of polynomials over the whole panel: one 20-point Gauss rule there
        # takes them, leaves and parents alike, from per-panel bases on the
        # graded mesh and from the two fixed bases on the uniform one. Node
        # and point positions are rounded in t, not in the panel, which
        # leaves narrow panels far from t = 0 a relative error of about 4e-14
        order, mesh = make_sine_order(0.6, 0.4), make_mesh(1.0, 256, r)
        t = mesh.nodes
        cq = assembly._cell_quadrature(order, mesh, gauss_nodes())
        panels = assembly._Panels(cq, 1.0 + 2.0 * t, np.diff(3.0 * t, prepend=np.nan))
        panels._make(mesh.N)
        made = np.flatnonzero(panels.ready <= mesh.N)
        assert len(made) > 20 and panels.size[made].max() >= 8 * assembly.PANEL_LEAF_CELLS
        x, w = gauss_nodes(20).nodes, gauss_nodes(20).weights
        for i in made:
            lo, hi = t[panels.start[i]], t[panels.start[i] + panels.size[i]]
            s = lo + (hi - lo) * x
            basis = assembly._lagrange(panels.s[i], s) * ((hi - lo) * w)[:, None]
            expected = basis.T @ np.stack((1.0 + 2.0 * s, np.full_like(s, 3.0)), axis=1)
            np.testing.assert_allclose(panels.q[i], expected, rtol=0, atol=1e-13 * np.abs(expected).max())

    def test_a_second_read_at_the_same_row_makes_nothing(self, monkeypatch):
        # every panel ready by row lo is made by the first _read(lo), so the
        # second finds none new: it computes no charges, runs no check and
        # walks to the same panels
        order, mesh = make_sine_order(0.6, 0.4), make_mesh(1.0, 256, 1.0)
        t = mesh.nodes
        cq = assembly._cell_quadrature(order, mesh, gauss_nodes())
        panels = assembly._Panels(cq, 1.0 + 2.0 * t, np.diff(3.0 * t, prepend=np.nan))
        first = panels._read(200)
        assert first[0] > 0 and sum(panels.made) > 0
        made, q, passed = list(panels.made), panels.q.copy(), panels.passed.copy()
        for name in ("_leaf_charges", "_parent_charges", "_check"):
            monkeypatch.setattr(panels, name, lambda *args, name=name: pytest.fail(f"{name} called"))
        assert panels._read(200) == first
        assert panels.made == made
        np.testing.assert_array_equal(panels.q, q)
        np.testing.assert_array_equal(panels.passed, passed)

    def test_lagrange_takes_the_unit_row_on_a_node(self):
        # one batch of two panels: a point of the first lies exactly on its
        # node 5, and no point of the second on any of its nodes. The hit
        # gets node 5's unit row; every other row is the barycentric formula,
        # bit for bit
        nodes = np.stack((assembly._CHEB, 0.3 + 0.5 * assembly._CHEB))
        x = np.stack((np.linspace(0.0, 1.0, 7), np.linspace(0.3, 0.8, 7)))
        x[0, 3] = nodes[0, 5]
        got = assembly._lagrange(nodes, x)
        np.testing.assert_array_equal(got[0, 3], np.eye(assembly.PANEL_NODES)[5])
        with np.errstate(divide="ignore", invalid="ignore"):
            q = assembly._BARY / (x[..., :, None] - nodes[..., None, :])
            expected = q / q.sum(axis=-1, keepdims=True)
        assert np.isnan(expected[0, 3]).any() and np.all(np.isfinite(expected[1]))
        expected[0, 3] = got[0, 3]
        np.testing.assert_array_equal(got, expected)

    def test_parent_charges_match_the_leaf_formula(self, monkeypatch):
        # a parent's charges come from its two children's; taken instead
        # through all its leaves' nodes they agree to rounding, and every
        # panel check passes or fails as it did with them. The nodes are
        # placed as the code places them: in t on a graded mesh, and in the
        # panel's own coordinates on a uniform one, where a leaf's nodes sit
        # at (k + _CHEB) / leaves of its ancestor (positions rounded in t
        # instead move a 16-cell panel's charges by up to 3.3e-13 of their
        # scale at affine N = 4000)
        def leaf_formula(panels, ids):
            leaf, out = assembly.PANEL_LEAF_CELLS, []
            for i in ids:
                lv = np.arange(panels.start[i], panels.start[i] + panels.size[i], leaf) // leaf
                if panels.cq.mesh.is_uniform:
                    nodes = assembly._CHEB
                    points = ((np.arange(len(lv))[:, None] + assembly._CHEB) / len(lv)).ravel()
                else:
                    nodes, points = panels.s[i], panels.s[lv].ravel()
                out.append(assembly._lagrange(nodes, points).T @ panels.q[lv].reshape(-1, panels.q.shape[2]))
            return np.stack(out)

        def by_leaves(self, new):
            for _, ids in new:
                self.q[ids] = leaf_formula(self, np.arange(ids.start, ids.stop))

        made = []
        init = assembly._Panels.__init__
        monkeypatch.setattr(assembly._Panels, "__init__", lambda self, *args: made.append(self) or init(self, *args))
        for order, N, r in ((make_sine_order(0.6, 0.4), 1440, 1.0 / 0.6),
                            (make_sine_order(0.6, 0.4), 5760, 1.0 / 0.6),
                            (make_linear_order(0.9, 0.4), 4000, 1.0)):
            mesh = make_mesh(1.0, N, r)
            with pytest.MonkeyPatch.context() as mp:
                checks = panel_checks(mp)
                solve(sin4_problem(order), mesh)
                panels = made[-1]
                parents = np.concatenate([np.arange(first, first + count)
                                          for first, count in zip(panels.first[1:], panels.made[1:])])
                assert len(parents) > 100
                expected = leaf_formula(panels, parents)
                scale = np.abs(expected).max(axis=1, keepdims=True)
                assert np.all(np.abs(panels.q[parents] - expected) <= 1e-14 * scale)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(assembly._Panels, "_parent_charges", by_leaves)
                leaf_checks = panel_checks(mp)
                solve(sin4_problem(order), mesh)
            assert checks == leaf_checks

    def test_blocks_are_zero_right_of_the_diagonal(self):
        # wL, wR and B of rows lo..hi over cells far+1..hi: entry [n - lo,
        # j - far - 1] is row n's at cell j, an exact zero for j > n; the gap
        # rows' B is a read-only view of row N
        rule = gauss_nodes()
        for order, N, gap in ((make_sine_order(0.6, 0.4), 1440, False), (make_linear_order(0.9, 0.4), 4000, True)):
            mesh = make_mesh(1.0, N, 1.0 / 0.6 if not gap else 1.0)
            fvals, incs = march_values(order, mesh)
            rows, far_blocks = 0, 0
            for lo, hi, far, *blocks, known in assembly.coefficient_rows(order, mesh, rule, fvals, incs):
                n = np.arange(lo, hi + 1)[:, None]
                j = far + 1 + np.arange(hi - far)
                assert known.shape == (hi - lo + 1,)
                for block in blocks:
                    assert block.shape == (hi - lo + 1, hi - far)
                    assert np.all(block[j > n] == 0.0)
                    assert np.all(block[:, 0] != 0.0)
                b = blocks[2]
                assert b.flags.writeable != gap and (b.base is not None) == gap
                rows += hi - lo + 1
                far_blocks += far > 0
            assert rows == N and far_blocks > 10

    def test_far_sums_read_only_the_solved_prefix(self):
        # the stream is driven as the march drives it, with NaN in every
        # entry not yet solved: a far sum that read one would be NaN
        order, mesh, rule = make_sine_order(0.6, 0.4), make_mesh(1.0, 1440, 1.0 / 0.6), gauss_nodes()
        solved_f, solved_d = march_values(order, mesh)
        fvals, incs = np.full(mesh.N + 1, np.nan), np.full(mesh.N + 1, np.nan)
        fvals[0] = solved_f[0]
        used = 0
        for lo, hi, far, wl, wr, b, known in assembly.coefficient_rows(order, mesh, rule, fvals, incs):
            assert np.all(np.isfinite(known)) and np.all(np.isfinite(np.concatenate((wl, wr, b))))
            used += far > 0
            fvals[lo : hi + 1], incs[lo : hi + 1] = solved_f[lo : hi + 1], solved_d[lo : hi + 1]
        assert used


@settings(max_examples=15, deadline=None)
@given(
    a=st.floats(0.3, 1.0),
    b=st.floats(-0.25, 0.25),
    c=st.floats(0.5, 5.0),
    shape=st.sampled_from(["square", "saturating"]),
    grading=st.floats(0.0, 1.0),
    N=st.integers(400, 600),
)
def test_custom_orders_far_field_matches_direct(a, b, c, shape, grading, N):
    # non-affine orders as a user writes them: a + b t^2 and
    # a + b (1 - exp(-c t)), kept inside (0, 1]
    b = min(b, 1.0 - a)
    if shape == "square":
        order = VariableOrder(lambda t: a + b * np.asarray(t) ** 2,
                              lambda t: 2.0 * b * np.asarray(t))
    else:
        order = VariableOrder(lambda t: a + b * -np.expm1(-c * np.asarray(t)),
                              lambda t: b * c * np.exp(-c * np.asarray(t)))
    mesh, rule = make_mesh(1.0, N, 1.0 + grading * (1.0 / a - 1.0)), gauss_nodes()
    far, known, direct = far_sums(order, mesh, rule)
    assert far.any()
    np.testing.assert_allclose(known, direct, rtol=0, atol=5e-15)


@settings(max_examples=15, deadline=None)
@given(
    a0=st.floats(0.3, 1.0),
    a1=st.floats(0.1, 0.9),
    grading=st.floats(0.0, 1.0),
    N=st.integers(400, 600),
)
def test_sine_orders_far_field_matches_direct(a0, a1, grading, N):
    order = make_sine_order(a0, a1)
    mesh, rule = make_mesh(1.0, N, 1.0 + grading * (1.0 / a0 - 1.0)), gauss_nodes()
    _, known, direct = far_sums(order, mesh, rule)
    np.testing.assert_allclose(known, direct, rtol=0, atol=5e-15)


@settings(max_examples=40, deadline=None)
@given(N=st.integers(8, 6000), r=st.floats(1.0, 10.0))
def test_panel_ready_rows_are_nondecreasing(N, r):
    # _groups counts the leaves ready by a row, and _Panels._make the panels
    # of each level, with searchsorted, which needs these rows in order
    nodes = make_mesh(1.0, N, r).nodes
    size = assembly.PANEL_LEAF_CELLS
    while size <= N:
        ready = assembly._ready_rows(nodes, np.arange(0, N - size + 1, size), size)
        assert np.all(np.diff(ready) >= 0), size
        size *= 2
