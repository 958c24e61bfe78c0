import numpy as np
import pytest

from vofie.assembly import translation_invariant
from vofie.mesh import make_mesh
from vofie.order import (
    VariableOrder,
    make_constant_order,
    make_custom_order,
    make_linear_order,
    make_sine_order,
    validate_assumption_a,
)


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
        with pytest.raises(ValueError):
            make_sine_order(1.2, 0.1)
        with pytest.raises(ValueError):
            make_sine_order(0.5, 1.0)
        with pytest.raises(ValueError):
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
        order = make_custom_order(lambda t: 0.7 - 0.2 * np.asarray(t),
                                  lambda t: -0.2 + 0.0 * np.asarray(t), T=2.0)
        assert order.alpha0 == 0.7 and order.T == 2.0
        with pytest.raises(TypeError):
            make_custom_order(order.alpha, order.dalpha, 0.7)

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


class TestValidation:
    def test_sine_case_i_eligible(self):
        report = validate_assumption_a(make_sine_order(1.0, 0.1))
        assert report.passed
        assert report.case_i_eligible
        assert not report.smoothness_warning

    def test_constant_half(self):
        report = validate_assumption_a(make_constant_order(0.5))
        assert report.passed
        assert report.alpha_min == pytest.approx(0.5)
        assert not report.case_i_eligible

    def test_bound_violation(self):
        bad = make_custom_order(
            lambda t: 1.2 + 0.0 * np.asarray(t),
            lambda t: 0.0 * np.asarray(t),
        )
        report = validate_assumption_a(bad)
        assert not report.bounds_ok
        assert not report.passed

    def test_derivative_discrepancy_detected(self):
        # declared derivative is wrong on purpose
        lying = make_custom_order(
            lambda t: 0.5 + 0.3 * np.asarray(t, float),
            lambda t: 0.0 * np.asarray(t),
        )
        report = validate_assumption_a(lying)
        assert not report.deriv_ok

    def test_derivative_finite_difference_bound(self):
        report = validate_assumption_a(make_sine_order(0.6, 0.1))
        assert report.max_deriv_discrepancy <= 1e-6
