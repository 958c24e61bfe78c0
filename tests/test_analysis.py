import numpy as np
import pytest

from vofie import analysis
from vofie.analysis import (
    InsufficientDataError,
    fit_rate,
    run_convergence,
    singularity_exponent,
)
from vofie.mesh import make_mesh
from vofie.order import make_constant_order, make_sine_order
from vofie.solver import Problem, solve


def sin4_problem(order):
    return Problem(
        f=lambda u, t: 0.5 * np.sin(u) ** 4,
        df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
        u0=1.0,
        T=1.0,
        order=order,
    )


def f_one_problem(order):
    return Problem(
        f=lambda u, t: 1.0 + 0.0 * u,
        df_du=lambda u, t: 0.0 * u,
        u0=1.0,
        T=1.0,
        order=order,
    )


class TestFitRate:
    def test_exact_power_law(self):
        np.testing.assert_allclose(fit_rate([4.0, 1.0], [10, 20]), [2.0])

    def test_flat_errors(self):
        np.testing.assert_allclose(fit_rate([1.0, 1.0], [10, 80]), [0.0])

    def test_published_pair(self):
        # first rate entry of the uniform-mesh (1, 0.8) column
        rate = fit_rate([1.11e-5, 5.04e-6], [48, 72])[0]
        assert rate == pytest.approx(1.96, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rate([1.0], [10])
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.0], [10, 20])
        with pytest.raises(ValueError):
            fit_rate([1.0, 1.0, 1.0], [10, 20])


class TestRunConvergence:
    def test_divisibility_precondition(self):
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match="N = 50 does not divide ref_N = 120"):
            run_convergence(problem, "III", N_list=[40, 50], ref_N=120)

    @pytest.mark.parametrize(
        "N_list,ref_N,message",
        [
            ([48], 96, "N_list needs at least two entries"),
            ([], 96, "N_list needs at least two entries"),
            ([24, 48], 0, "ref_N must be an integer >= 1, got 0"),
            ([24, 48], 96.0, "ref_N must be an integer >= 1, got 96.0"),
            ([24, 24], 96, "N_list entry N = 24 is repeated"),
            ([24, 48, 24], 96, "N_list entry N = 24 is repeated"),
            ([24, 48], 48, "N_list entry N = 48 equals ref_N"),
            ([24, 48.0], 96, "N_list entry N = 48.0 is not an integer"),  # else one solve, then Mesh fails
            ([24, True], 96, "N_list entry N = True is not an integer"),  # else an N = 1 level
            ([24, 48], True, "ref_N must be an integer >= 1, got True"),
        ],
    )
    def test_arguments_are_checked_before_any_solve(self, monkeypatch, N_list, ref_N, message):
        solves = []
        monkeypatch.setattr(analysis, "solve", lambda *args: solves.append(args))
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match=message):
            run_convergence(problem, "II", N_list=N_list, ref_N=ref_N)
        assert solves == []

    def test_n_below_one_is_refused(self):
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match="N = 0 must be >= 1"):
            run_convergence(problem, "II", N_list=[0, 48], ref_N=96)

    def test_small_study_case_ii(self):
        # scaled-down version of the graded-mesh experiment
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        report = run_convergence(problem, "II", N_list=[24, 48], ref_N=480)
        assert report.r == pytest.approx(1 / 0.6)
        assert report.predicted_rate == 2.0
        assert report.rates[0] == pytest.approx(2.0, abs=0.25)

    def test_reference_stability(self):
        # doubling the reference barely moves the coarse-level error
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        e1 = run_convergence(problem, "II", N_list=[24, 48], ref_N=480).errors[0]
        e2 = run_convergence(problem, "II", N_list=[24, 48], ref_N=960).errors[0]
        assert abs(e1 - e2) <= 0.05 * e1

    def test_case_iii_predicted_rate(self):
        problem = sin4_problem(make_sine_order(0.4, 0.2))
        report = run_convergence(problem, "III", N_list=[24, 48], ref_N=480)
        assert report.predicted_rate == pytest.approx(0.8)

    def test_report_csv(self, tmp_path):
        problem = sin4_problem(make_sine_order(0.6, 0.4))
        report = run_convergence(problem, "III", N_list=[12, 24], ref_N=240)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "N,error,rate"
        assert len(lines) == 3
        assert report.format_table()  # renders without error


class TestSingularityExponent:
    def test_constant_order_oracle(self):
        # u = 1 + t^0.5/Gamma(1.5): u' ~ t^{-0.5}
        problem = f_one_problem(make_constant_order(0.5))
        sol = solve(problem, make_mesh(1.0, 720, 2.0))
        assert singularity_exponent(sol) == pytest.approx(-0.5, abs=0.05)

    def test_insufficient_data(self):
        problem = f_one_problem(make_constant_order(0.5))
        sol = solve(problem, make_mesh(1.0, 6, 2.0))
        with pytest.raises(InsufficientDataError):
            singularity_exponent(sol)

    def test_constant_solution_rejected(self):
        # f = 0 gives zero difference quotients everywhere
        problem = Problem(
            f=lambda u, t: 0.0 * u, df_du=lambda u, t: 0.0 * u,
            u0=1.0, T=1.0, order=make_constant_order(0.5),
        )
        sol = solve(problem, make_mesh(1.0, 128, 2.0))
        with pytest.raises(InsufficientDataError):
            singularity_exponent(sol)
