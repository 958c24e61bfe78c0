"""Variable fractional order alpha(t): representation, families, validation.

An order carries alpha and its derivative alpha'. A solve reads alpha only:
its history coefficients are cell averages of the kernel K, not of K_s,
and so does the reference residual solver.vie_residual. alpha' is read
only by kernel.kernel_Ks, the differentiated kernel that the acceptance
tests' kernel suite evaluates, and by validate_assumption_a, which
cross-checks it against differences of alpha. Evaluation callables must be
pure and accept numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class VariableOrder:
    """The order function alpha(t) on [0, T] with its derivative.

    alpha0 = alpha(0) is read from alpha, never given, so the grading
    r = 1/alpha(0) and the regime cannot disagree with alpha. Nothing is
    declared about the shape of alpha: whether a solve may read gap-indexed
    coefficient rows is worked out from alpha's values
    (assembly.translation_invariant).
    """

    alpha: Callable
    dalpha: Callable
    T: float = field(default=1.0, kw_only=True)
    alpha0: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha0", float(self.alpha(0.0)))


def make_sine_order(a0: float, a1: float) -> VariableOrder:
    """Order family alpha(t) = a1 + (a0-a1)((1-t) - sin(2 pi (1-t))/(2 pi)).

    Defined on [0, 1], so T = 1. Monotone between a0 = alpha(0) and
    a1 = alpha(1), with alpha'(0) = alpha'(1) = 0 analytically. The order's
    alpha0 is alpha evaluated at 0, which equals a0 to one rounding.
    """
    if not (0 < a0 <= 1):
        raise ValueError(f"a0 must lie in (0, 1], got {a0}")
    if not (0 < a1 < 1):
        raise ValueError(f"a1 must lie in (0, 1), got {a1}")

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
    if not (0 < value <= 1):
        raise ValueError(f"constant order must lie in (0, 1], got {value}")
    return make_linear_order(value, value, T)


def make_linear_order(start: float, end: float, T: float = 1.0) -> VariableOrder:
    """Affine order alpha(t) = start + (end - start) t / T."""
    if not (0 < start <= 1) or not (0 < end <= 1):
        raise ValueError(
            f"linear order endpoints must lie in (0, 1], got ({start}, {end})"
        )
    if not 0 < T < math.inf:
        raise ValueError(f"horizon T must be positive and finite, got {T}")
    slope = (end - start) / T

    def alpha(t):
        return start + slope * np.asarray(t, dtype=float)

    def dalpha(t):
        return np.full_like(np.asarray(t, dtype=float), slope)

    return VariableOrder(alpha, dalpha, T=T)


def make_custom_order(alpha: Callable, dalpha: Callable, *, T: float = 1.0) -> VariableOrder:
    """Wrap user-supplied (alpha, alpha') callables on [0, T].

    The derivative is required, but no solve reads it: only kernel_Ks and
    validate_assumption_a do (see the module docstring). alpha(0) is read
    from alpha. An
    affine alpha needs no declaration: on a uniform mesh a solve finds it
    from alpha's values and reads the gap-indexed rows.
    """
    return VariableOrder(alpha, dalpha, T=T)


@dataclass(frozen=True)
class OrderValidationReport:
    """Sampled check of the admissibility conditions on alpha."""

    samples: int
    alpha_min: float
    alpha_max: float
    max_deriv_discrepancy: float
    bounds_ok: bool
    deriv_ok: bool
    case_i_eligible: bool
    smoothness_warning: bool  # alpha(0)=1 with alpha'(0) != 0
    notes: tuple = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.bounds_ok and self.deriv_ok


def validate_assumption_a(order: VariableOrder) -> OrderValidationReport:
    """Sample-based admissibility report for a variable order.

    Checks, at 1001 equispaced samples of [0, T], 0 < alpha(t) <= 1 with
    alpha(t) < 1 required strictly for t > 0 (alpha(0) = 1 is permitted:
    that is the smooth-solution configuration), and cross-checks the
    declared derivative against central differences.
    Report-only; never raises on a failing order.
    """
    ts = np.linspace(0.0, order.T, 1001)
    vals = np.asarray(order.alpha(ts), dtype=float)
    amin, amax = float(np.min(vals)), float(np.max(vals))

    notes = []
    interior = vals[1:]
    bounds_ok = bool(amin > 0 and np.all(interior < 1.0 + 1e-12) and amax <= 1.0 + 1e-12)
    if np.any(interior >= 1.0 + 1e-12):
        notes.append("alpha(t) >= 1 at some sampled t > 0")
    if amin <= 0:
        notes.append("alpha(t) <= 0 at some sampled t")

    h = 1e-6 * order.T
    ti = np.linspace(h, order.T - h, 100)
    fd = (np.asarray(order.alpha(ti + h)) - np.asarray(order.alpha(ti - h))) / (2 * h)
    disc = float(np.max(np.abs(fd - np.asarray(order.dalpha(ti)))))
    deriv_ok = disc <= 1e-6

    d0 = float(order.dalpha(0.0))
    at0 = float(order.alpha(0.0))
    case_i = abs(at0 - 1.0) <= 1e-14 and abs(d0) <= 1e-12
    warn = abs(at0 - 1.0) <= 1e-14 and abs(d0) > 1e-12
    if warn:
        notes.append(
            "alpha(0)=1 with alpha'(0) != 0: outside both smooth-case regimes"
        )
    return OrderValidationReport(
        samples=len(ts),
        alpha_min=amin,
        alpha_max=amax,
        max_deriv_discrepancy=disc,
        bounds_ok=bounds_ok,
        deriv_ok=deriv_ok,
        case_i_eligible=case_i,
        smoothness_warning=warn,
        notes=tuple(notes),
    )
