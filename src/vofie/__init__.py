"""Collocation solver for nonlinear variable-order fractional Cauchy problems.

The model D^{alpha(t)} u = f(u, t), u(0) = u0 is recast as a second-kind
Volterra integral equation with kernel K_s(t, s) and a weakly singular
right-hand-side weight, then discretized by piecewise-linear collocation on
uniform or graded meshes.
"""

from .analysis import (
    ConvergenceReport,
    InsufficientDataError,
    fit_rate,
    run_convergence,
    singularity_exponent,
)
from .assembly import (
    QuadratureRule,
    WeightTable,
    assemble,
    gauss_nodes,
    history_weights,
    singular_moments,
)
from .kernel import (
    initial_coefficient,
    inversion_identity_check,
    kernel_K,
    kernel_Ks,
)
from .mesh import Mesh, grading_for_case, make_mesh
from .order import (
    OrderValidationReport,
    VariableOrder,
    make_constant_order,
    make_custom_order,
    make_linear_order,
    make_sine_order,
    validate_assumption_a,
)
from .solver import (
    NewtonConfig,
    NewtonDivergedError,
    NewtonError,
    Problem,
    SingularJacobianError,
    Solution,
    solve,
    vie_residual,
)
from .specialfns import (
    MLParams,
    MittagLefflerConvergenceError,
    mittag_leffler,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceReport",
    "InsufficientDataError",
    "MLParams",
    "Mesh",
    "MittagLefflerConvergenceError",
    "NewtonConfig",
    "NewtonDivergedError",
    "NewtonError",
    "OrderValidationReport",
    "Problem",
    "QuadratureRule",
    "SingularJacobianError",
    "Solution",
    "VariableOrder",
    "WeightTable",
    "assemble",
    "fit_rate",
    "gauss_nodes",
    "grading_for_case",
    "history_weights",
    "initial_coefficient",
    "inversion_identity_check",
    "kernel_K",
    "kernel_Ks",
    "make_constant_order",
    "make_custom_order",
    "make_linear_order",
    "make_mesh",
    "make_sine_order",
    "mittag_leffler",
    "run_convergence",
    "singular_moments",
    "singularity_exponent",
    "solve",
    "validate_assumption_a",
    "vie_residual",
]
