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
)
from .kernel import (
    inversion_identity_check,
    kernel_K,
    kernel_Ks,
)
from .mesh import Mesh, grading_for_case, make_mesh
from .order import (
    VariableOrder,
    make_constant_order,
    make_linear_order,
    make_sine_order,
)
from .solver import (
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
    "NewtonDivergedError",
    "NewtonError",
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
    "inversion_identity_check",
    "kernel_K",
    "kernel_Ks",
    "make_constant_order",
    "make_linear_order",
    "make_mesh",
    "make_sine_order",
    "mittag_leffler",
    "run_convergence",
    "singularity_exponent",
    "solve",
    "vie_residual",
]
