"""Convergence studies, rate fitting, and initial-layer diagnostics."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .assembly import QuadratureRule
from .mesh import grading_for_case, make_mesh
from .solver import NewtonConfig, Problem, Solution, solve


class InsufficientDataError(RuntimeError):
    """Not enough resolved nodes near t = 0 to fit an exponent."""


@dataclass
class ConvergenceReport:
    """Errors against a fine reference and fitted rates between N levels."""

    config_id: str
    case: str
    Ns: list
    ref_N: int
    r: float
    errors: np.ndarray
    rates: np.ndarray
    predicted_rate: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("N,error,rate\n")
            for j, N in enumerate(self.Ns):
                rate = "" if j == 0 else f"{self.rates[j - 1]:.17g}"
                fh.write(f"{N},{self.errors[j]:.17g},{rate}\n")

    def format_table(self) -> str:
        lines = [
            f"config: {self.config_id}   case {self.case}, r = {self.r:g}, "
            f"reference N = {self.ref_N}, predicted rate = {self.predicted_rate:g}",
            f"{'1/N':>8} {'error':>12} {'rate':>8}",
        ]
        for j, N in enumerate(self.Ns):
            rate = "" if j == 0 else f"{self.rates[j - 1]:8.2f}"
            lines.append(f"{'1/' + str(N):>8} {self.errors[j]:12.3e} {rate}")
        return "\n".join(lines)


def fit_rate(errors, Ns) -> np.ndarray:
    """Pairwise rates kappa_j = ln(e_j / e_{j+1}) / ln(N_{j+1} / N_j)."""
    errors = np.asarray(errors, dtype=float)
    Ns = np.asarray(Ns, dtype=float)
    if len(errors) != len(Ns) or len(errors) < 2:
        raise ValueError("need equal-length arrays with at least two entries")
    if np.any(errors <= 0):
        raise ValueError("rate fitting requires positive errors")
    return np.log(errors[:-1] / errors[1:]) / np.log(Ns[1:] / Ns[:-1])


def run_convergence(
    problem: Problem,
    case: str,
    N_list=(48, 72, 96, 120),
    ref_N: int = 1440,
    rule: QuadratureRule | None = None,
    cfg: NewtonConfig | None = None,
    config_id: str = "",
) -> ConvergenceReport:
    """Solve at each N and at ref_N on the same grading; report nodal errors.

    N_list needs at least two entries (a rate compares two), ref_N must be
    an integer >= 1, and every N must be >= 1 and divide ref_N so each
    coarse node is shared with the reference mesh (errors are exact nodal
    comparisons, no interpolation). All of this is checked before any
    solve, and each error begins with the name of the argument it refuses.
    """
    N_list = list(N_list)
    if len(N_list) < 2:
        raise ValueError(f"N_list needs at least two entries to fit a rate, got {N_list}")
    if not isinstance(ref_N, numbers.Integral) or ref_N < 1:
        raise ValueError(f"ref_N must be an integer >= 1, got {ref_N!r}")
    for N in N_list:
        if N < 1:
            raise ValueError(f"N_list entry N = {N} must be >= 1")
        if ref_N % N != 0:
            raise ValueError(f"N_list entry N = {N} does not divide ref_N = {ref_N}")
    r = grading_for_case(problem.order, case)
    coarse = [solve(problem, make_mesh(problem.T, N, r), rule, cfg) for N in N_list]
    ref = solve(problem, make_mesh(problem.T, ref_N, r), rule, cfg)

    errors = np.empty(len(N_list))
    for j, (N, sol) in enumerate(zip(N_list, coarse)):
        m = ref_N // N
        errors[j] = np.max(np.abs(sol.values - ref.values[::m]))
    rates = fit_rate(errors, N_list)

    a0 = problem.order.alpha0
    predicted = 2.0 * a0 if case.upper() == "III" else 2.0
    return ConvergenceReport(
        config_id=config_id,
        case=case.upper(),
        Ns=N_list,
        ref_N=ref_N,
        r=r,
        errors=errors,
        rates=rates,
        predicted_rate=predicted,
    )


def singularity_exponent(solution: Solution) -> float:
    """Fitted power of the solution's derivative near t = 0.

    Least-squares slope of ln |difference quotient| against ln t over the
    early nodes (the first tenth of the mesh, at least 8 nodes, skipping the
    first cell).
    For a solution behaving like u' ~ t^beta this returns beta, which is
    alpha(0) - 1 for the singular regime and ~0 for the smooth one.
    """
    mesh = solution.mesh
    n_hi = max(8, int(mesh.N * 0.1))
    idx = np.arange(2, min(n_hi, mesh.N) + 1)
    dq = (solution.values[idx] - solution.values[idx - 1]) / mesh.steps[idx - 1]
    tm = 0.5 * (mesh.nodes[idx] + mesh.nodes[idx - 1])
    keep = np.abs(dq) > 0
    if np.count_nonzero(keep) < 8:
        raise InsufficientDataError(
            "need at least 8 nonzero difference quotients near t = 0"
        )
    slope = np.polyfit(np.log(tm[keep]), np.log(np.abs(dq[keep])), 1)[0]
    return float(slope)
