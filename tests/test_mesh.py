import numpy as np
import pytest

from vofie.mesh import Mesh, grading_for_case, make_mesh
from vofie.order import make_constant_order, make_sine_order


class TestMakeMesh:
    def test_uniform(self):
        mesh = make_mesh(1.0, 4, 1.0)
        np.testing.assert_allclose(mesh.nodes, [0, 0.25, 0.5, 0.75, 1.0], atol=0)
        assert mesh.is_uniform

    def test_graded_r2(self):
        mesh = make_mesh(1.0, 4, 2.0)
        np.testing.assert_allclose(mesh.nodes, [0, 1 / 16, 1 / 4, 9 / 16, 1.0], rtol=1e-15)

    def test_endpoints_exact(self):
        for r in (1.0, 1.7, 2.5):
            mesh = make_mesh(2.0, 7, r)
            assert mesh.nodes[0] == 0.0
            assert mesh.nodes[-1] == 2.0

    def test_max_step_bound(self):
        for N, r in [(4, 2.0), (48, 1.0), (120, 2.5), (33, 1.3)]:
            mesh = make_mesh(1.0, N, r)
            assert np.max(mesh.steps) <= r * 1.0 / N + 1e-15
        assert np.max(make_mesh(1.0, 4, 2.0).steps) == pytest.approx(7 / 16)

    def test_steps_nondecreasing(self):
        mesh = make_mesh(1.0, 50, 3.0)
        assert np.all(np.diff(mesh.steps) >= -1e-18)

    def test_strictly_increasing_nodes(self):
        mesh = make_mesh(1.0, 200, 4.0)
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            make_mesh(1.0, 4, 0.5)
        with pytest.raises(ValueError):
            make_mesh(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            make_mesh(-1.0, 4, 1.0)

    @pytest.mark.parametrize(
        "T,N,r,message",
        [
            (1.0, 16.5, 1.0, "N must be an integer"),  # else 18 nodes, t_N = 1.03 > T
            (1.0, True, 1.0, "N must be an integer"),  # else a one-cell mesh
            (1.0, 16, np.nan, "r must be >= 1 and finite"),  # else NaN nodes
            (1.0, 16, np.inf, "r must be >= 1 and finite"),  # else zero steps
            (np.inf, 16, 1.0, "T must be positive and finite"),  # else NaN, inf nodes
        ],
    )
    def test_non_finite_or_fractional_input_is_refused(self, T, N, r, message):
        with pytest.raises(ValueError, match=message):
            make_mesh(T, N, r)

    @pytest.mark.parametrize("N", [48, 72, 96, 120])
    def test_nested_in_reference(self, N):
        # used by the error measure: every coarse node is a reference node
        for r in (1.0, 1.0 / 0.6, 2.5):
            coarse = make_mesh(1.0, N, r)
            fine = make_mesh(1.0, 1440, r)
            m = 1440 // N
            np.testing.assert_allclose(coarse.nodes, fine.nodes[::m], atol=1e-14)


class TestMesh:
    def test_nodes_and_steps_are_derived(self):
        # graded nodes labelled r = 1 used to solve on the gap rows, 2.2e-2 off
        graded = make_mesh(1.0, 64, 2.0)
        with pytest.raises(TypeError):
            Mesh(T=1.0, N=64, r=1.0, nodes=graded.nodes, steps=graded.steps)
        mesh = Mesh(1.0, 64, 2.0)
        assert mesh == graded
        np.testing.assert_array_equal(mesh.nodes, graded.nodes)
        np.testing.assert_array_equal(mesh.steps, graded.steps)

    @pytest.mark.parametrize("args", [(1.0, 16.5), (1.0, 16, float("nan")), (0.0, 16)])
    def test_every_mesh_is_checked(self, args):
        with pytest.raises(ValueError):
            Mesh(*args)


class TestGradingForCase:
    def test_case_ii(self):
        assert grading_for_case(make_sine_order(0.6, 0.1), "II") == pytest.approx(1 / 0.6)

    def test_case_i(self):
        assert grading_for_case(make_sine_order(1.0, 0.1), "I") == 1.0

    def test_case_iii(self):
        assert grading_for_case(make_sine_order(0.4, 0.2), "III") == 1.0

    def test_mismatches(self):
        with pytest.raises(ValueError):
            grading_for_case(make_sine_order(0.6, 0.1), "I")
        with pytest.raises(ValueError):
            grading_for_case(make_sine_order(1.0, 0.1), "II")
        with pytest.raises(ValueError):
            grading_for_case(make_constant_order(1.0), "III")
        with pytest.raises(ValueError):
            grading_for_case(make_sine_order(0.6, 0.1), "IV")
