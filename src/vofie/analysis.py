"""Convergence studies, rate fitting, and initial-layer diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import count_fault, grading_for_case, make_mesh
from .solver import Problem, Solution, solve


class InsufficientDataError(RuntimeError):
    """Not enough resolved nodes near t = 0 to fit an exponent."""


@dataclass
class ConvergenceReport:
    """Errors against a fine reference and fitted rates between N levels;
    `case` names the regime, empty where the grading r was given as a number."""

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
        case = f"case {self.case}, " if self.case else ""
        lines = [
            f"config: {self.config_id}   {case}r = {self.r:g}, "
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
    case,
    N_list=(48, 72, 96, 120),
    ref_N: int = 1440,
    config_id: str = "",
) -> ConvergenceReport:
    """Solve at each N and at ref_N on the same grading; report nodal errors.

    Each solve is `solve(problem, mesh)`, so the study reads the problem,
    the grading and the N levels only. `case` names the regime I, II or III
    or is the grading exponent r itself (grading_for_case); the predicted
    rate is the paper's min(2, 2 r alpha(0)), for case II exactly 2.

    N_list needs at least two entries (a rate compares two), ref_N and
    every N must be integers >= 1 (a bool is not one), and every N must
    divide ref_N so each coarse node is shared with the reference mesh
    (errors are exact nodal comparisons, no interpolation), and none may
    repeat or equal ref_N (no rate would be a number). All of this is
    checked before any solve, and each error begins with the name of the
    argument it refuses.
    """
    N_list = list(N_list)
    if len(N_list) < 2:
        raise ValueError(f"N_list needs at least two entries to fit a rate, got {N_list}")
    if count_fault(ref_N):
        raise ValueError(f"ref_N must be an integer >= 1, got {ref_N!r}")
    for N in N_list:
        if fault := count_fault(N):
            raise ValueError(f"N_list entry N = {N!r} {fault}")
        if ref_N % N != 0:
            raise ValueError(f"N_list entry N = {N} does not divide ref_N = {ref_N}")
        if N == ref_N:
            raise ValueError(f"N_list entry N = {N} equals ref_N: its error would be zero")
        if N_list.count(N) > 1:
            raise ValueError(f"N_list entry N = {N} is repeated")
    r = grading_for_case(problem.order, case)
    case = case.upper() if isinstance(case, str) else ""
    coarse = [solve(problem, make_mesh(problem.T, N, r)) for N in N_list]
    ref = solve(problem, make_mesh(problem.T, ref_N, r))

    errors = np.array([np.max(np.abs(sol.values - ref.values[:: ref_N // N]))
                       for N, sol in zip(N_list, coarse)])
    rates = fit_rate(errors, N_list)

    # 2 r alpha(0) rounds below case II's 2 at some alpha(0): 0.36, 0.47, 0.72, ...
    predicted = 2.0 if case == "II" else min(2.0, 2.0 * r * problem.order.alpha0)
    return ConvergenceReport(
        config_id=config_id,
        case=case,
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
