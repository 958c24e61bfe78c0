import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from vofie.assembly import assemble, gauss_nodes, singular_moments
from vofie.kernel import initial_coefficient
from vofie.mesh import make_mesh
from vofie.order import make_constant_order, make_sine_order
from vofie.solver import (
    NewtonConfig,
    NewtonDivergedError,
    Problem,
    SingularJacobianError,
    solve,
    vie_residual,
)
from vofie.specialfns import MLParams, mittag_leffler


def f_zero(u, t):
    return 0.0 * u


def f_one(u, t):
    return 1.0 + 0.0 * u


def df_zero(u, t):
    return 0.0 * u


def problem_zero(order):
    return Problem(f=f_zero, df_du=df_zero, u0=1.0, T=1.0, order=order)


def problem_one(order, u0=1.0):
    return Problem(f=f_one, df_du=df_zero, u0=u0, T=1.0, order=order)


class TestConstantPreservation:
    @pytest.mark.parametrize("N,r", [(16, 1.0), (64, 1.0), (100, 2.0), (256, 1.0 / 0.6)])
    def test_f_zero_stays_at_u0(self, N, r):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, N, r))
        assert np.max(np.abs(sol.values - 1.0)) <= 1e-7

    def test_values_start_at_u0_exactly(self):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        assert sol.values[0] == 1.0


class TestAnalyticOracles:
    def test_constant_order_f_one(self):
        # u = u0 + t^alpha / Gamma(1 + alpha), reproduced exactly at nodes:
        # the history kernel vanishes and product integration is exact for
        # constant f
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 48, 2.0)
        sol = solve(problem_one(order), mesh)
        exact = 1.0 + mesh.nodes**0.5 / math.gamma(1.5)
        assert np.max(np.abs(sol.values - exact)) <= 1e-12

    def test_mittag_leffler_decay(self):
        # f = -u with alpha = 0.5: u(t) = E_{0.5,1}(-t^0.5)
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: -u, df_du=lambda u, t: -1.0 + 0.0 * u, u0=1.0, T=1.0, order=order
        )
        mesh = make_mesh(1.0, 480, 2.0)
        sol = solve(problem, mesh)
        params = MLParams(0.5, 1.0)
        exact = np.array([mittag_leffler(params, -t**0.5) for t in mesh.nodes])
        assert np.max(np.abs(sol.values - exact)) <= 1e-5

    def test_single_node_march(self):
        # N = 1: the value must be the root of the one-cell implicit equation
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: -(u**3), df_du=lambda u, t: -3.0 * u**2, u0=1.0, T=1.0, order=order
        )
        mesh = make_mesh(1.0, 1, 1.0)
        sol = solve(problem, mesh)
        _, wr = singular_moments(order, mesh, 1, 1)
        wl, _ = singular_moments(order, mesh, 1, 1)
        const = wl * problem.f(1.0, 0.0) + initial_coefficient(order, 1.0, 1.0)

        def g(x):
            return x - wr * problem.f(x, 1.0) - const

        root = brentq(g, -10, 10, xtol=1e-13)
        assert sol.values[1] == pytest.approx(root, abs=1e-9)


class TestNewtonBehavior:
    def test_iteration_counts_stay_small(self):
        order = make_sine_order(0.6, 0.4)
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0,
            T=1.0,
            order=order,
        )
        sol = solve(problem, make_mesh(1.0, 96, 1.0))
        assert np.max(sol.newton_stats[1:]) <= 10

    def test_diverged_error_carries_node(self):
        order = make_constant_order(0.5)
        problem = Problem(
            f=lambda u, t: np.sinh(5 * u), df_du=lambda u, t: 5 * np.cosh(5 * u),
            u0=1.0, T=1.0, order=order,
        )
        with pytest.raises(NewtonDivergedError) as err:
            solve(problem, make_mesh(1.0, 4, 1.0), cfg=NewtonConfig(max_iter=1))
        assert err.value.node >= 1

    def test_singular_jacobian(self):
        order = make_constant_order(0.5)
        mesh = make_mesh(1.0, 1, 1.0)
        _, wr = singular_moments(order, mesh, 1, 1)
        lam = 1.0 / wr  # makes g'(x) = 1 - wR * lam vanish identically
        problem = Problem(
            f=lambda u, t: lam * u, df_du=lambda u, t: lam + 0.0 * u,
            u0=1.0, T=1.0, order=order,
        )
        with pytest.raises(SingularJacobianError):
            solve(problem, mesh)

    def test_damping_flag_still_converges(self):
        order = make_sine_order(0.6, 0.1)
        problem = problem_one(order)
        mesh = make_mesh(1.0, 32, 1.0)
        plain = solve(problem, mesh)
        damped = solve(problem, mesh, cfg=NewtonConfig(damping=True))
        np.testing.assert_allclose(damped.values, plain.values, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NewtonConfig(tol=0.0)
        with pytest.raises(ValueError):
            NewtonConfig(max_iter=0)


class TestBoundedness:
    def test_uniform_in_n(self):
        # nodal sup norm stays bounded by a fixed multiple of |u0| + max|f(0,.)|
        order = make_sine_order(0.4, 0.2)
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0,
            T=1.0,
            order=order,
        )
        data = 1.0 + 0.5  # |u0| + max |f(0, t)| bound for sin4
        sups = []
        for N in (48, 96, 192):
            sol = solve(problem, make_mesh(1.0, N, 1.0))
            sups.append(np.max(np.abs(sol.values)))
        assert max(sups) <= 5.0 * data
        assert max(sups) - min(sups) <= 0.1 * max(sups)


class TestSolutionObject:
    def test_interpolation_hits_nodes(self):
        problem = problem_one(make_sine_order(0.6, 0.1))
        mesh = make_mesh(1.0, 16, 1.0)
        sol = solve(problem, mesh)
        np.testing.assert_array_equal(sol(mesh.nodes), sol.values)

    def test_csv_and_summary(self, tmp_path):
        problem = problem_one(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        path = tmp_path / "solution.csv"
        sol.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,U"
        assert len(lines) == 10
        summary = sol.summary()
        assert summary["N"] == 8
        assert summary["newton_iterations"]["max"] >= 1

    def test_derivative_consistency_check(self):
        problem = Problem(
            f=lambda u, t: 0.5 * np.sin(u) ** 4,
            df_du=lambda u, t: 2.0 * np.sin(u) ** 3 * np.cos(u),
            u0=1.0,
            T=1.0,
            order=make_sine_order(0.6, 0.1),
        )
        assert problem.check_derivative() <= 1e-5


class TestVieResidual:
    def test_constant_solution(self):
        # u = u0 solves the equation with f = 0 for any admissible order
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 64, 1.0))
        for t in (0.137, 0.52, 0.96):
            assert vie_residual(problem, sol, t) <= 1e-8

    def test_analytic_plug_in(self):
        # exact nodal values for constant order, f = 1; off-node residual is
        # only the piecewise-linear interpolation error
        order = make_constant_order(0.5)
        problem = problem_one(order)
        mesh = make_mesh(1.0, 960, 2.0)
        sol = solve(problem, mesh)
        assert vie_residual(problem, sol, 0.25) <= 1e-6

    def test_small_at_collocation_nodes(self):
        problem = problem_one(make_sine_order(0.6, 0.1))
        mesh = make_mesh(1.0, 64, 1.0)
        sol = solve(problem, mesh)
        for n in (13, 40, 64):
            assert vie_residual(problem, sol, mesh.nodes[n]) <= 1e-6

    def test_domain(self):
        problem = problem_zero(make_sine_order(0.6, 0.1))
        sol = solve(problem, make_mesh(1.0, 8, 1.0))
        with pytest.raises(ValueError):
            vie_residual(problem, sol, 0.0)


class TestHorizonContract:
    def test_mesh_beyond_order_horizon_raises(self):
        # the sine order is defined on [0, 1]; a T = 2 mesh used to return
        # u(2) from alpha evaluated outside its domain
        problem = Problem(f=f_one, df_du=df_zero, u0=1.0, T=2.0, order=make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match="horizon"):
            solve(problem, make_mesh(2.0, 16, 1.0))

    def test_mesh_and_problem_disagree(self):
        problem = problem_one(make_sine_order(0.6, 0.4))
        with pytest.raises(ValueError, match="horizon"):
            solve(problem, make_mesh(2.0, 16, 1.0))

    def test_order_and_problem_disagree(self):
        problem = problem_one(make_constant_order(0.5, T=2.0))
        with pytest.raises(ValueError, match="horizon"):
            solve(problem, make_mesh(1.0, 16, 1.0))


@settings(max_examples=40, deadline=None)
@given(
    a0=st.floats(0.1, 1.0),
    a1=st.floats(0.1, 0.9),
    N=st.integers(1, 200),
    grading=st.floats(0.0, 1.0),
    u0=st.floats(0.5, 2.0),
)
def test_f_zero_keeps_u0_to_rounding(a0, a1, N, grading, u0):
    # history rows telescope to 1 - K(t_n, 0), which the initial-data term
    # cancels, so constants are preserved to rounding on any admissible mesh
    order = make_sine_order(a0, a1)
    r = 1.0 + grading * (1.0 / a0 - 1.0)
    problem = Problem(f=f_zero, df_du=df_zero, u0=u0, T=1.0, order=order)
    sol = solve(problem, make_mesh(1.0, N, r))
    assert np.max(np.abs(sol.values - u0)) <= 1e-13
