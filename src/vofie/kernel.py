"""The integral-equation kernel K(t, s), its s-derivative, and related checks.

K(t, s) = (t-s)^{alpha(t)-alpha(s)} / Gamma(1 + alpha(t) - alpha(s)). The
power factor is evaluated as exp(da * ln(t-s)) so the s -> t limit (value 1)
falls out without 0^0 ambiguity. All functions are pure and vectorized in s.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from .order import VariableOrder


def _check_ts(t, s):
    if np.any(np.asarray(s) >= np.asarray(t)):
        raise ValueError("kernel requires s < t")
    if np.any(np.asarray(s) < 0):
        raise ValueError("kernel requires s >= 0")


def kernel_K(order: VariableOrder, t, s):
    """K(t, s) = exp(da ln(t-s)) / Gamma(1 + da), da = alpha(t) - alpha(s)."""
    _check_ts(t, s)
    s = np.asarray(s, dtype=float)
    da = order.alpha(t) - order.alpha(s)
    val = np.exp(da * np.log(t - s)) / special.gamma(1.0 + da)
    return float(val) if val.ndim == 0 else val


def kernel_Ks(order: VariableOrder, t, s):
    """Signed partial derivative of K with respect to s.

    K_s = K * (alpha'(s) psi(1 + da) - alpha'(s) ln(t-s) - da/(t-s)).
    Identically zero for constant order. Has a logarithmic singularity at
    s = t for genuinely variable order; callers place quadrature nodes in
    the open interval. It reads the order's dalpha, so it refuses an order
    built without one (ValueError).
    """
    if order.dalpha is None:
        raise ValueError("kernel_Ks needs alpha': build the VariableOrder with dalpha")
    _check_ts(t, s)
    s = np.asarray(s, dtype=float)
    da = order.alpha(t) - order.alpha(s)
    ds_alpha = np.asarray(order.dalpha(s), dtype=float)
    logterm = np.log(t - s)
    K = np.exp(da * logterm) / special.gamma(1.0 + da)
    val = K * (ds_alpha * special.psi(1.0 + da) - ds_alpha * logterm - da / (t - s))
    return float(val) if val.ndim == 0 else val


def inversion_identity_check(order: VariableOrder, t: float, s: float) -> float:
    """Residual of the Beta-type identity behind the approximate inversion.

    Compares adaptive quadrature of
        int_s^t (t-y)^{alpha(t)-1} (y-s)^{-alpha(s)} dy
    (with endpoint substitutions removing both algebraic singularities)
    against the closed form
        Gamma(alpha(t)) Gamma(1-alpha(s)) / Gamma(1+alpha(t)-alpha(s))
            * (t-s)^{alpha(t)-alpha(s)}.
    Diagnostic helper; returns the absolute difference. scipy.integrate is
    imported here, on first call, so that importing vofie does not load it.
    """
    from scipy.integrate import quad

    _check_ts(t, s)
    at = float(order.alpha(t))
    as_ = float(order.alpha(s))
    if as_ >= 1:
        raise ValueError("inversion identity requires alpha(s) < 1")
    m = 0.5 * (s + t)

    # y in [s, m]: substitute y = s + w^{1/(1-alpha(s))}; the (y-s)^{-alpha(s)}
    # factor and the Jacobian cancel to a constant.
    p = 1.0 - as_

    def left(w):
        y = s + w ** (1.0 / p)
        return (t - y) ** (at - 1.0) / p

    # y in [m, t]: substitute y = t - v^{1/alpha(t)}.
    def right(v):
        y = t - v ** (1.0 / at)
        return (y - s) ** (-as_) / at

    num_left, _ = quad(left, 0.0, (m - s) ** p, limit=200)
    num_right, _ = quad(right, 0.0, (t - m) ** at, limit=200)
    closed = (
        special.gamma(at)
        * special.gamma(1.0 - as_)
        / special.gamma(1.0 + at - as_)
        * (t - s) ** (at - as_)
    )
    return abs(num_left + num_right - closed)
