"""hp-version Jacobi-Gauss collocation for nonlinear weakly singular
Volterra integral equations of the first kind (Abel type).

Typical use::

    from abelhp import ProblemSpec, uniform_mesh, solve, evaluate

    problem = ProblemSpec(alpha=0.5, T=1.0, kappa=..., psi=..., dpsi_du=..., f=...)
    solution = solve(problem, uniform_mesh(N=8, T=1.0, M=4))
    values = evaluate(solution, points)

The :mod:`abelhp.problems` module registers the standard benchmark problems,
:mod:`abelhp.bench` measures errors and produces convergence reports, and
``abel-hp`` is the command-line entry point.
"""

from .adaptive import (
    AdaptiveOptions,
    AdaptiveTrace,
    BudgetExceededError,
    adaptive_solve,
)
from .bench import (
    BenchReport,
    convergence_order,
    error_E1,
    error_E2,
    forward_apply,
    perturb_rhs,
    run_sweep,
)
from .discretization import ProblemAssumptionWarning, ProblemSpec
from .mesh import Mesh, locate, uniform_mesh
from .problems import BenchmarkProblem, make_benchmark
from .quadrature import QuadRule, RuleKind, gauss_rule
from .solver import (
    NewtonDivergedError,
    PiecewiseSolution,
    QuadratureConvergenceError,
    SingularJacobianError,
    SolverError,
    SolverOptions,
    evaluate,
    newton,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptiveOptions",
    "AdaptiveTrace",
    "BudgetExceededError",
    "adaptive_solve",
    "BenchmarkProblem",
    "BenchReport",
    "convergence_order",
    "error_E1",
    "error_E2",
    "make_benchmark",
    "perturb_rhs",
    "run_sweep",
    "ProblemAssumptionWarning",
    "ProblemSpec",
    "Mesh",
    "locate",
    "uniform_mesh",
    "QuadRule",
    "RuleKind",
    "gauss_rule",
    "NewtonDivergedError",
    "PiecewiseSolution",
    "QuadratureConvergenceError",
    "SingularJacobianError",
    "SolverError",
    "SolverOptions",
    "evaluate",
    "forward_apply",
    "newton",
    "solve",
    "__version__",
]
