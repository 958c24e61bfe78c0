import math

import numpy as np
import pytest
from scipy.integrate import quad

from vofie.kernel import (
    initial_coefficient,
    inversion_identity_check,
    kernel_K,
    kernel_Ks,
)
from vofie.order import VariableOrder, make_constant_order, make_sine_order


def ramp_order():
    # alpha(t) = (1 + t)/2 on [0, 1]; handy because alpha(t) - alpha(s) = (t - s)/2
    return VariableOrder(
        lambda t: (1.0 + np.asarray(t, dtype=float)) / 2,
        lambda t: np.full_like(np.asarray(t, dtype=float), 0.5),
    )


class TestKernelK:
    def test_constant_order_is_one(self):
        order = make_constant_order(0.5)
        for t, s in [(1.0, 0.0), (0.7, 0.3), (0.2, 0.1999)]:
            assert kernel_K(order, t, s) == pytest.approx(1.0, abs=1e-14)

    def test_ramp_order_value(self):
        # da = alpha(1) - alpha(0.5) = 0.25: 0.5^0.25 / Gamma(1.25)
        expected = 0.5**0.25 / math.gamma(1.25)
        assert expected == pytest.approx(0.927730, abs=1e-6)
        assert kernel_K(ramp_order(), 1.0, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_limit_toward_diagonal(self):
        order = make_sine_order(0.6, 0.1)
        for t in (0.3, 0.8, 1.0):
            assert abs(kernel_K(order, t, t - 1e-12) - 1.0) <= 1e-9

    def test_domain_error(self):
        order = make_constant_order(0.5)
        with pytest.raises(ValueError):
            kernel_K(order, 0.5, 0.5)
        with pytest.raises(ValueError):
            kernel_K(order, 0.5, 0.7)
        with pytest.raises(ValueError):
            kernel_Ks(order, 0.5, 0.6)


class TestKernelKs:
    def test_constant_order_is_zero(self):
        order = make_constant_order(0.3)
        for t, s in [(1.0, 0.0), (0.9, 0.45)]:
            assert kernel_Ks(order, t, s) == 0.0

    def test_ramp_order_value(self):
        got = kernel_Ks(ramp_order(), 1.0, 0.5)
        # K (alpha'(s) psi(1 + da) - alpha'(s) ln(t - s) - da/(t - s)) with
        # alpha' = 0.5, da = 0.25 and t - s = 0.5
        assert got == pytest.approx(-0.24785, abs=1e-4)
        h = 1e-6
        fd = (kernel_K(ramp_order(), 1.0, 0.5 + h) - kernel_K(ramp_order(), 1.0, 0.5 - h)) / (2 * h)
        assert got == pytest.approx(fd, abs=1e-5)

    def test_finite_difference_consistency(self):
        order = make_sine_order(0.6, 0.1)
        rng = np.random.default_rng(3)
        t = rng.uniform(0.05, 1.0, 500)
        s = rng.uniform(0.0, 1.0, 500) * (t - 1e-3)
        h = 1e-6
        for ti, si in zip(t, s):
            fd = (kernel_K(order, ti, si + h) - kernel_K(order, ti, si - h)) / (2 * h)
            assert abs(kernel_Ks(order, ti, si) - fd) <= 1e-5

    def test_log_bound(self):
        # |K_s| <= C (1 + |ln(t-s)|) with one constant over random points
        order = make_sine_order(0.6, 0.1)
        rng = np.random.default_rng(11)
        t = rng.uniform(1e-3, 1.0, 1000)
        s = rng.uniform(0.0, 1.0, 1000) * t * (1 - 1e-12)
        ratios = np.abs(np.array([kernel_Ks(order, ti, si) for ti, si in zip(t, s)]))
        bound = 1.0 + np.abs(np.log(t - s))
        fitted_c = float(np.max(ratios / bound))
        assert np.isfinite(fitted_c)
        assert np.all(ratios <= fitted_c * bound + 1e-15)
        assert fitted_c < 5.0

    def test_fundamental_theorem_identity(self):
        # int_0^t K_s(t, s) ds = 1 - t^{a(t)-a(0)} / Gamma(1 + a(t)-a(0))
        order = make_sine_order(0.6, 0.1)
        for t in (0.4, 0.9):
            integral, _ = quad(lambda s: kernel_Ks(order, t, s), 0.0, t, limit=500)
            da = float(order.alpha(t)) - order.alpha0
            expected = 1.0 - t**da / math.gamma(1.0 + da)
            assert integral == pytest.approx(expected, abs=1e-7)


class TestInitialCoefficient:
    def test_constant_order(self):
        order = make_constant_order(0.7)
        for t in (0.2, 1.0):
            assert initial_coefficient(order, t, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_zero_initial_value(self):
        order = make_sine_order(0.6, 0.1)
        assert initial_coefficient(order, 0.5, 0.0) == 0.0

    def test_sine_order_at_one(self):
        # alpha(1) - alpha(0) = -0.5, so the value is 1/Gamma(0.5) = 1/sqrt(pi)
        order = make_sine_order(0.6, 0.1)
        assert initial_coefficient(order, 1.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-12
        )
        assert 1.0 / math.sqrt(math.pi) == pytest.approx(0.564190, abs=1e-6)

    def test_degenerate_at_zero(self):
        order = make_sine_order(0.6, 0.1)
        assert initial_coefficient(order, 0.0, 3.5) == 3.5


class TestInversionIdentity:
    def test_constant_half_full_interval(self):
        # closed form is Gamma(1/2)^2 / Gamma(1) = pi (Beta-function identity)
        order = make_constant_order(0.5)
        closed = math.gamma(0.5) * math.gamma(0.5) / math.gamma(1.0)
        assert closed == pytest.approx(math.pi, rel=1e-14)
        assert inversion_identity_check(order, 1.0, 0.0) <= 1e-6

    def test_constant_half_exponent_zero(self):
        order = make_constant_order(0.5)
        assert inversion_identity_check(order, 0.5, 0.25) <= 1e-6

    def test_sine_order(self):
        order = make_sine_order(0.6, 0.1)
        assert inversion_identity_check(order, 0.8, 0.3) <= 1e-6
