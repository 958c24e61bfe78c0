"""Variable fractional order alpha(t): the admissible type and its families.

An order carries alpha and, optionally, its derivative alpha'. A solve
reads alpha only: its history coefficients are cell averages of the kernel
K, not of K_s, and so does the reference residual solver.vie_residual.
alpha' is read only by kernel.kernel_Ks, the differentiated kernel that the
acceptance tests' kernel suite evaluates. Evaluation callables must be pure
and map a numpy array of times to an array of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# Assumption A's bounds, 0 < alpha(t) <= 1, are checked at ALPHA_SAMPLES
# equispaced points of [0, T], with ALPHA_SLACK of rounding allowed above 1.
ALPHA_SAMPLES, ALPHA_SLACK = 1001, 1e-12


@dataclass(frozen=True)
class VariableOrder:
    """The order function alpha(t) on [0, T], with its derivative dalpha if
    given.

    An order is admissible or is not built: T must be positive and finite,
    alpha must map an array of times to an array of that shape, and alpha
    must lie in (0, 1] at ALPHA_SAMPLES equispaced points of [0, T] (NaN
    fails), else a ValueError says what failed, naming the first t for a
    bound. alpha0 = alpha(0) is read from alpha, never given, so the
    grading r = 1/alpha(0) and the regime cannot disagree with alpha.
    Nothing is declared about the shape of alpha: whether a solve may read
    gap-indexed coefficient rows is worked out from alpha's values
    (assembly.translation_invariant). dalpha may be None, since no solve
    reads it; kernel.kernel_Ks refuses such an order.
    """

    alpha: Callable
    dalpha: Callable | None = None
    T: float = field(default=1.0, kw_only=True)
    alpha0: float = field(init=False)

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        ts = np.linspace(0.0, self.T, ALPHA_SAMPLES)
        contract = "alpha must take a numpy array of times and return an array of the same shape"
        try:
            vals = np.asarray(self.alpha(ts), dtype=float)
        except TypeError as err:
            raise ValueError(f"{contract}: {err}") from err
        if vals.shape != ts.shape:
            raise ValueError(f"{contract}, got shape {vals.shape} for times of shape {ts.shape}")
        bad = ~((vals > 0) & (vals <= 1 + ALPHA_SLACK))
        if np.any(bad):
            k = int(np.argmax(bad))
            raise ValueError(
                f"alpha must lie in (0, 1], got alpha(t) = {float(vals[k])!r} at t = {float(ts[k])!r}"
            )
        object.__setattr__(self, "alpha0", float(self.alpha(0.0)))


def make_sine_order(a0: float, a1: float) -> VariableOrder:
    """Order family alpha(t) = a1 + (a0-a1)((1-t) - sin(2 pi (1-t))/(2 pi)).

    Defined on [0, 1], so T = 1. Monotone between a0 = alpha(0) and
    a1 = alpha(1), with alpha'(0) = alpha'(1) = 0 analytically. Each of a0
    and a1 may be any value in (0, 1], 1 included. The order's alpha0 is
    alpha evaluated at 0, which equals a0 to one rounding.
    """

    def alpha(t):
        s = 1.0 - np.asarray(t, dtype=float)
        return a1 + (a0 - a1) * (s - np.sin(2 * np.pi * s) / (2 * np.pi))

    def dalpha(t):
        s = 1.0 - np.asarray(t, dtype=float)
        return (a0 - a1) * (-1.0 + np.cos(2 * np.pi * s))

    return VariableOrder(alpha, dalpha)


def make_constant_order(value: float, T: float = 1.0) -> VariableOrder:
    """Constant order alpha(t) = value, value in (0, 1]: the linear order
    from value to value."""
    return make_linear_order(value, value, T)


def make_linear_order(start: float, end: float, T: float = 1.0) -> VariableOrder:
    """Affine order alpha(t) = start + (end - start) t / T."""

    # the slope is worked out inside alpha, which VariableOrder calls only
    # once T has passed its check
    def alpha(t):
        return start + (end - start) / T * np.asarray(t, dtype=float)

    def dalpha(t):
        return np.full_like(np.asarray(t, dtype=float), (end - start) / T)

    return VariableOrder(alpha, dalpha, T=T)
