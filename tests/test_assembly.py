import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from vofie.assembly import (
    _row_blocks,
    assemble,
    gauss_nodes,
    history_weights,
    singular_moments,
)
from vofie.kernel import kernel_K, kernel_Ks
from vofie.mesh import make_mesh
from vofie.order import (
    make_constant_order,
    make_linear_order,
    make_sine_order,
)


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


class TestSingularMoments:
    def test_classical_trapezoid(self):
        # alpha = 1 reduces the weight to 1, so the hat moments are tau/2
        order = make_constant_order(1.0)
        mesh = make_mesh(1.0, 5, 1.0)
        for n, i in [(1, 1), (3, 2), (5, 5)]:
            wl, wr = singular_moments(order, mesh, n, i)
            assert wl == pytest.approx(0.1, rel=1e-13)
            assert wr == pytest.approx(0.1, rel=1e-13)

    def test_beta_integral_cell(self):
        # single cell [0, 1], alpha = 0.5: total = 2/sqrt(pi),
        # ascending hat gets B(1/2, 2)/Gamma(1/2) = 4/(3 sqrt(pi))
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 1, 1.0)
        wl, wr = singular_moments(order, mesh, 1, 1)
        assert wl + wr == pytest.approx(2 / math.sqrt(math.pi), rel=1e-13)
        assert wr == pytest.approx(4 / (3 * math.sqrt(math.pi)), rel=1e-13)

    def test_partition_of_unity(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 12, 1.5)
        for n in (3, 8, 12):
            al = float(order.alpha(mesh.nodes[n]))
            for i in range(1, n + 1):
                wl, wr = singular_moments(order, mesh, n, i)
                a = mesh.nodes[n] - mesh.nodes[i]
                b = mesh.nodes[n] - mesh.nodes[i - 1]
                direct = (b**al - a**al) / (al * math.gamma(al))
                assert wl + wr == pytest.approx(direct, abs=1e-13)

    def test_positivity(self):
        order = make_sine_order(0.4, 0.2)
        mesh = make_mesh(1.0, 20, 2.5)
        for n in range(1, 21):
            for i in range(1, n + 1):
                wl, wr = singular_moments(order, mesh, n, i)
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
                wl, wr = singular_moments(order, mesh, n, i)
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
                wl, wr = singular_moments(order, mesh, n, i)
                assert abs(wl / float(oracle_l) - 1.0) <= 1e-9, i
                assert abs(wr / float(oracle_r) - 1.0) <= 1e-9, i

    def test_index_errors(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 4, 1.0)
        with pytest.raises(IndexError):
            singular_moments(order, mesh, 2, 3)
        with pytest.raises(IndexError):
            singular_moments(order, mesh, 5, 1)


class TestHistoryWeights:
    def test_constant_order_row_is_zero(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 8, 1.0)
        row, h0 = history_weights(order, mesh, gauss_nodes(20), 8)
        np.testing.assert_allclose(row, 0.0, atol=1e-15)
        assert h0 == 0.0

    def test_against_adaptive_quadrature(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 8, 1.0)
        n = 8
        tn = mesh.nodes[n]
        row, h0 = history_weights(order, mesh, gauss_nodes(80), n)

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
        assert h0 == pytest.approx(oracle0, abs=1e-8)

    def test_row_sum_identity(self):
        # sum_i h[n][i] + h0[n] = 1 - t_n^{da} / Gamma(1 + da)
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 16, 1.0)
        rule = gauss_nodes(80)
        for n in (4, 16):
            row, h0 = history_weights(order, mesh, rule, n)
            tn = mesh.nodes[n]
            da = float(order.alpha(tn)) - order.alpha0
            expected = 1.0 - tn**da / math.gamma(1.0 + da)
            assert float(np.sum(row)) + h0 == pytest.approx(expected, abs=1e-9)

    def test_refinement_convergence(self):
        order = make_sine_order(0.6, 0.1)
        mesh = make_mesh(1.0, 8, 1.0)
        n = 8
        row40, h0_40 = history_weights(order, mesh, gauss_nodes(40), n)
        row80, h0_80 = history_weights(order, mesh, gauss_nodes(80), n)
        np.testing.assert_allclose(row40[1 : n - 1], row80[1 : n - 1], atol=1e-10)
        assert abs(h0_40 - h0_80) <= 1e-10
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
            assert abs(dense.h0[n] - fast.h0[n]) <= 1e-12
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
        np.testing.assert_allclose(dense.h, 0.0, atol=1e-15)
        np.testing.assert_allclose(fast.gen_left, 0.0, atol=1e-15)
        np.testing.assert_allclose(fast.gen_right, 0.0, atol=1e-15)

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
            got = float(np.sum(table.history_row(n))) + table.h0[n]
            assert abs(got - expected) <= 1e-14

    @pytest.mark.parametrize("rule", [None, gauss_nodes(80)])
    def test_fast_row_sums_telescope(self, rule):
        order = make_linear_order(0.9, 0.4)
        mesh = make_mesh(1.0, 64, 1.0)
        table = assemble(order, mesh, rule, fast_path=True)
        for n in range(1, 65):
            expected = 1.0 - kernel_K(order, mesh.nodes[n], 0.0)
            got = float(np.sum(table.history_row(n))) + table.h0[n]
            assert abs(got - expected) <= 1e-14

    def test_constant_order_gives_exact_zeros(self):
        order = make_constant_order(0.5)
        dense = assemble(order, make_mesh(1.0, 24, 2.0))
        fast = assemble(order, make_mesh(1.0, 24, 1.0), fast_path=True)
        assert np.all(dense.h == 0.0) and np.all(dense.h0 == 0.0)
        assert np.all(fast.gen_left == 0.0) and np.all(fast.gen_right == 0.0)

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
            tn = t[n]
            for i in range(1, n + 1):
                up = piece(tn, t[i - 1], t[i], lambda s: (s - t[i - 1]) / (t[i] - t[i - 1]))
                down = (
                    piece(tn, t[i], t[i + 1], lambda s: (t[i + 1] - s) / (t[i + 1] - t[i]))
                    if i < n else 0.0
                )
                assert table.h[n, i] == pytest.approx(up + down, abs=1e-9)
            oracle0 = piece(tn, 0.0, t[1], lambda s: (t[1] - s) / t[1])
            assert table.h0[n] == pytest.approx(oracle0, abs=1e-9)

    @pytest.mark.parametrize("count", [8, 80])
    def test_row_blocks_match_single_rows(self, count):
        order = make_sine_order(0.6, 0.4)
        mesh = make_mesh(1.0, 200, 1.0 / 0.6)
        rule = gauss_nodes(count)
        blocks = list(_row_blocks(mesh.N, rule))
        assert len(blocks[0]) > 1
        if count == 80:
            # the last rows exceed the point budget: one row per block
            assert len(blocks[-1]) == 1
        table = assemble(order, mesh, rule)
        for n in range(1, mesh.N + 1):
            row, h0 = history_weights(order, mesh, rule, n)
            np.testing.assert_allclose(table.h[n, : n + 1], row, rtol=0, atol=1e-15)
            assert abs(table.h0[n] - h0) <= 1e-15
