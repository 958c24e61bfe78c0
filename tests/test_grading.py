"""The grading exponent r as the convergence study's input.

The paper's rate law: on t_i = T (i/N)^r, the nodal error of the sin^4
problem falls like N^-min(2, 2 r alpha(0)). Tables 1 and 2 sample it at
r = 1 and r = 1/alpha(0) only; these studies take r between and past them,
N = 48..120 against an N = 1440 reference, as the tables do.
"""

import functools

import numpy as np
import pytest

from vofie import analysis
from vofie.analysis import run_convergence
from vofie.mesh import grading_for_case
from vofie.order import make_sine_order
from vofie.solver import Problem


def sin4_problem(a0, a1):
    return Problem(
        f=lambda u, t: 0.5 * np.sin(u) ** 4,
        df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
        u0=1.0,
        T=1.0,
        order=make_sine_order(a0, a1),
    )


@functools.cache
def study(a0, a1, r):
    return run_convergence(sin4_problem(a0, a1), r)


@pytest.mark.parametrize(
    "a0,a1,r",
    [(0.6, 0.4, 1.25), (0.6, 0.4, 4 / 3), (0.4, 0.2, 1.75), (0.4, 0.2, 1.875)],
)
def test_rate_between_the_cases_follows_the_law(a0, a1, r):
    # measured: 1.521, 1.619, 1.430 and 1.527
    report = study(a0, a1, r)
    assert report.case == "" and report.r == r
    assert report.predicted_rate == min(2.0, 2.0 * r * a0) < 2.0
    assert abs(report.rates[-1] - report.predicted_rate) < 0.1


@pytest.mark.parametrize("a0,a1", [(0.6, 0.4), (0.4, 0.2)])
def test_grading_past_case_ii_keeps_the_rate_and_loses_accuracy(a0, a1):
    # measured: rates 1.979 and 1.974 (0.6), 1.928 and 1.918 (0.4); N = 120
    # errors 6.8e-6 < 1.16e-5 < 1.90e-5 (0.6), 8.8e-6 < 1.49e-5 < 2.33e-5
    # (0.4): past r = 1/alpha(0) a finer grading only coarsens the late cells
    reports = [study(a0, a1, k / a0) for k in (1.0, 1.5, 2.0)]
    for report in reports[1:]:
        assert report.predicted_rate == 2.0
        assert abs(report.rates[-1] - 2.0) < 0.1
    errors = [report.errors[-1] for report in reports]
    assert errors[0] < errors[1] < errors[2]


@pytest.mark.parametrize("a0", [0.36, 0.47, 0.6, 0.72])
def test_case_names_keep_their_grading_and_rate(a0):
    # 2 (1/alpha(0)) alpha(0) rounds to 1.9999999999999998 at 0.36, 0.47 and
    # 0.72: case II predicts 2 exactly, and the report names the case
    problem = sin4_problem(a0, 0.4)
    for case, r, rate in [("II", 1.0 / a0, 2.0), ("iii", 1.0, 2.0 * a0)]:
        report = run_convergence(problem, case, N_list=[1, 2], ref_N=4)
        assert (report.case, report.r, report.predicted_rate) == (case.upper(), r, rate)
    assert 2.0 * (1.0 / 0.36) * 0.36 < 2.0


@pytest.mark.parametrize("r", [0.5, float("nan"), float("inf"), True, "IV", None])
def test_bad_grading_is_refused_before_any_solve(monkeypatch, r):
    solves = []
    monkeypatch.setattr(analysis, "solve", lambda *args: solves.append(args))
    with pytest.raises(ValueError, match=r"^case must be I, II, III or a finite grading r >= 1, not a bool"):
        run_convergence(sin4_problem(0.6, 0.4), r)
    assert solves == []


def test_a_number_is_taken_as_given():
    order = make_sine_order(0.6, 0.4)
    assert grading_for_case(order, 1.25) == 1.25
    assert grading_for_case(order, np.float64(3.0)) == 3.0
    assert grading_for_case(order, 2) == 2.0 and isinstance(grading_for_case(order, 2), float)
