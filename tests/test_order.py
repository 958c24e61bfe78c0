import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vofie.assembly import translation_invariant
from vofie.mesh import make_mesh
from vofie.order import (
    ALPHA_SAMPLES,
    VariableOrder,
    make_constant_order,
    make_linear_order,
    make_sine_order,
)
from vofie.solver import Problem, solve


class TestSineFamily:
    def test_case_i_endpoints(self):
        order = make_sine_order(1.0, 0.1)
        assert float(order.alpha(0.0)) == pytest.approx(1.0, abs=1e-14)
        assert float(order.dalpha(0.0)) == pytest.approx(0.0, abs=1e-14)
        assert float(order.alpha(1.0)) == pytest.approx(0.1, abs=1e-14)
        assert float(order.dalpha(1.0)) == pytest.approx(0.0, abs=1e-14)

    def test_case_ii_value_at_one(self):
        order = make_sine_order(0.6, 0.1)
        assert float(order.alpha(1.0)) == pytest.approx(0.1, abs=1e-14)

    def test_constant_when_endpoints_match(self):
        order = make_sine_order(0.5, 0.5)
        ts = np.linspace(0, 1, 17)
        np.testing.assert_allclose(order.alpha(ts), 0.5, atol=1e-15)

    def test_alpha0_exact(self):
        for a0 in (0.3, 0.6, 1.0):
            assert make_sine_order(a0, 0.1).alpha0 == a0

    def test_monotone_between_endpoints(self):
        ts = np.linspace(0, 1, 1001)
        decreasing = make_sine_order(0.6, 0.1).alpha(ts)
        assert np.all(np.diff(decreasing) <= 1e-15)
        increasing = make_sine_order(0.1, 0.9).alpha(ts)
        assert np.all(np.diff(increasing) >= -1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            make_sine_order(1.2, 0.1)
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            make_sine_order(0.0, 0.5)


class TestOtherFamilies:
    def test_constant(self):
        order = make_constant_order(0.5)
        ts = np.linspace(0, 1, 11)
        np.testing.assert_allclose(order.alpha(ts), 0.5)
        np.testing.assert_allclose(order.dalpha(ts), 0.0)
        translation_invariant(order, make_mesh(1.0, 16, 1.0))  # raises where it fails

    @pytest.mark.parametrize(
        "make,args",
        [
            (make_constant_order, (0.0,)),
            (make_constant_order, (1.2,)),
            (make_linear_order, (0.0, 0.4)),
            (make_linear_order, (0.9, 1.1)),
        ],
    )
    def test_domain_errors(self, make, args):
        with pytest.raises(ValueError, match="must lie in"):
            make(*args)

    def test_custom_reads_alpha0_and_takes_T_by_keyword(self):
        order = VariableOrder(lambda t: 0.7 - 0.2 * np.asarray(t),
                              lambda t: -0.2 + 0.0 * np.asarray(t), T=2.0)
        assert order.alpha0 == 0.7 and order.T == 2.0
        with pytest.raises(TypeError):
            VariableOrder(order.alpha, order.dalpha, 0.7)

    @pytest.mark.parametrize("value,T", [(0.5, 1.0), (1.0, 2.0), (0.3, 0.7)])
    def test_constant_is_flat(self, value, T):
        order = make_constant_order(value, T)
        ts = np.linspace(0.0, T, 33)
        assert np.array_equal(order.alpha(ts), np.full(33, value))
        assert np.array_equal(order.dalpha(ts), np.zeros(33))
        assert order.alpha0 == value and order.T == T
        translation_invariant(order, make_mesh(T, 16, 1.0))  # raises where it fails

    def test_linear_refuses_a_horizon_it_cannot_divide_by(self):
        with pytest.raises(ValueError, match="horizon T must be positive"):
            make_linear_order(0.9, 0.4, 0.0)
        with pytest.raises(ValueError, match="horizon T must be positive"):
            make_constant_order(0.5, 0.0)

    def test_linear(self):
        order = make_linear_order(0.9, 0.4)
        assert float(order.alpha(0.0)) == pytest.approx(0.9)
        assert float(order.alpha(1.0)) == pytest.approx(0.4)
        assert float(order.dalpha(0.3)) == pytest.approx(-0.5)
        translation_invariant(order, make_mesh(1.0, 16, 1.0))  # raises where it fails


class TestVariableOrder:
    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(0, ALPHA_SAMPLES - 1),
        T=st.sampled_from([1.0, 0.3, 2.0]),
        bad=st.one_of(
            st.floats(-1.0, 0.0, exclude_min=True),
            st.floats(1.0 + 1e-9, 3.0, exclude_max=True),
            st.just(math.nan),
        ),
    )
    def test_one_bad_sample_is_refused_by_its_t(self, k, T, bad):
        # admissible everywhere but at the k-th of the sampled points
        ts = np.linspace(0.0, T, ALPHA_SAMPLES)
        line = make_linear_order(0.9, 0.4, T)

        def alpha(t):
            t = np.asarray(t, dtype=float)
            return np.where(t == ts[k], bad, line.alpha(t))

        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]") as refused:
            VariableOrder(alpha, line.dalpha, T=T)
        assert str(refused.value).endswith(f"at t = {float(ts[k])!r}")
        assert f"alpha(t) = {bad!r}" in str(refused.value)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_bad_horizon_is_refused_before_alpha_is_called(self, T):
        def alpha(t):
            raise AssertionError("alpha called")

        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            VariableOrder(alpha, alpha, T=T)
        with pytest.raises(ValueError, match="horizon T must be positive and finite"):
            make_linear_order(0.9, 0.4, T)

    @pytest.mark.parametrize(
        "make,args",
        [(make_constant_order, (1.0,)), (make_linear_order, (0.9, 1.0)),
         (make_sine_order, (1.0, 0.1)), (make_sine_order, (0.5, 1.0))],
        ids=["constant-1", "linear-0.9-1", "sine-1-0.1", "sine-0.5-1"],
    )
    def test_orders_that_reach_one_build_and_solve(self, make, args):
        order = make(*args)
        problem = Problem(f=lambda u, t: 0.5 * np.sin(u) ** 4,
                          df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
                          u0=1.0, T=1.0, order=order)
        values = solve(problem, make_mesh(1.0, 64, 1.0)).values
        assert np.all(np.isfinite(values)) and values[0] == 1.0 and values[-1] > 1.0

    def test_bound_violation(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\], got alpha\(t\) = 1.2 at t = 0.0"):
            VariableOrder(
                lambda t: 1.2 + 0.0 * np.asarray(t),
                lambda t: 0.0 * np.asarray(t),
            )

    def test_alpha0_is_read_from_alpha(self):
        order = VariableOrder(lambda t: 0.8 - 0.3 * np.asarray(t) ** 2,
                              lambda t: -0.6 * np.asarray(t))
        assert order.alpha0 == 0.8 and order.T == 1.0

    def test_alpha0_and_a_positional_T_are_refused(self):
        line = make_linear_order(0.6, 0.4)
        with pytest.raises(TypeError):
            VariableOrder(line.alpha, line.dalpha, 0.6)
        with pytest.raises(TypeError):
            VariableOrder(line.alpha, line.dalpha, alpha0=0.6)
