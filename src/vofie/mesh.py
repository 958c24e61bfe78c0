"""Graded and uniform partitions of [0, T]."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .order import VariableOrder


@dataclass(frozen=True)
class Mesh:
    """Partition t_i = T (i/N)^r, i = 0..N, with step sizes tau_i.

    r = 1 is the uniform mesh; r > 1 clusters nodes near t = 0. Steps are
    nondecreasing for r >= 1 and max tau_i <= r T / N. T must be positive
    and finite, N an integer >= 1 (a bool is not one) and r >= 1 and
    finite. Nodes and steps are derived, from the closed form per index (no
    cumulative summation), so t_0 = 0 and t_N = T exactly.
    """

    T: float
    N: int
    r: float = 1.0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        T, N, r = self.T, self.N, self.r
        if not 0 < T < math.inf:
            raise ValueError(f"horizon T must be positive and finite, got {T}")
        if count_fault(N):
            raise ValueError(f"N must be an integer >= 1, got {N}")
        if not 1 <= r < math.inf:
            raise ValueError(f"grading exponent r must be >= 1 and finite, got {r}")
        nodes = T * (np.arange(N + 1, dtype=float) / N) ** r
        for name, value in (("T", float(T)), ("N", int(N)), ("r", float(r)),
                            ("nodes", nodes), ("steps", np.diff(nodes))):
            object.__setattr__(self, name, value)

    @property
    def is_uniform(self) -> bool:
        return self.r == 1.0


def make_mesh(T: float, N: int, r: float = 1.0) -> Mesh:
    """The graded mesh t_i = T (i/N)^r, i.e. Mesh(T, N, r)."""
    return Mesh(T, N, r)


def count_fault(value) -> str:
    """Why `value` is not a count, an integer >= 1 (a bool is not one): "is
    not an integer" or "must be >= 1"; empty if it is one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        return "is not an integer"
    return "must be >= 1" if value < 1 else ""


def grading_for_case(order: VariableOrder, case) -> float:
    """Mesh grading exponent r of a convergence study. `case` names one of
    the three regimes, or is r itself, a number >= 1 (finite, not a bool).

    (I)   alpha(0) = 1, uniform mesh, r = 1;
    (II)  alpha(0) < 1, graded mesh, r = 1/alpha(0);
    (III) alpha(0) < 1, uniform mesh, r = 1 (sub-optimal rate regime).
    """
    if isinstance(case, numbers.Real) and not isinstance(case, bool) and 1 <= case < math.inf:
        return float(case)
    if not isinstance(case, str) or case.upper() not in ("I", "II", "III"):
        raise ValueError(f"case must be I, II, III or a finite grading r >= 1, not a bool, got {case!r}")
    case, a0 = case.upper(), order.alpha0
    if case == "I":
        if a0 != 1.0:
            raise ValueError(f"case I requires alpha(0) = 1, got alpha(0) = {a0}")
        return 1.0
    if a0 >= 1.0:
        raise ValueError(f"case {case} requires alpha(0) < 1, got alpha(0) = {a0}")
    return 1.0 / a0 if case == "II" else 1.0
