"""vfsolve: nonlinear Volterra-Fredholm integral equations of the second kind.

Typical workflow::

    import vfsolve as vf

    prob = vf.benchmark_problem()                      # or from_expressions(...)
    scheme = vf.build_scheme(vf.make_grid(0.0, 1.0, 50), "midpoint")
    system = vf.build_system(prob, scheme)
    params = vf.prepare(system, eps=1e-3)              # a-priori parameter derivation
    sol = vf.solve(system, params)                     # hybrid continuation iteration
    check = vf.newton_solve(system)                    # independent Newton oracle

``sol.budget`` carries the a-priori error bounds and the measured operation
count; ``vf.cli.main`` is the console entry point (``vfsolve solve|bound|
table|convergence``).
"""

from .continuation import ContinuationConfig, SolverError, p_inverse
from .discrete import DiscreteSystem, build_system, fred, inner, norm, phi, residual
from .expr import EvalDomainError, ExprError, evaluate, parse_expression, to_string
from .hybrid import (
    ErrorBudget,
    Solution,
    SolverParams,
    derive_params,
    fixed_point_error,
    inner_bound,
    iteration_bound,
    iteration_bound_fine,
    op_budget,
    prepare,
    solve,
)
from .oracle import NewtonError, newton_solve
from .problem import (
    AssumptionReport,
    Problem,
    benchmark_problem,
    builtin_problem,
    check_assumptions,
    from_expressions,
)
from .quadrature import RULES, Grid, QuadScheme, build_scheme, make_grid

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # problems
    "Problem",
    "AssumptionReport",
    "benchmark_problem",
    "builtin_problem",
    "from_expressions",
    "check_assumptions",
    # quadrature
    "RULES",
    "Grid",
    "QuadScheme",
    "make_grid",
    "build_scheme",
    # discrete system
    "DiscreteSystem",
    "build_system",
    "phi",
    "fred",
    "inner",
    "norm",
    "residual",
    # continuation core
    "ContinuationConfig",
    "SolverError",
    "p_inverse",
    # hybrid solver and bounds
    "SolverParams",
    "ErrorBudget",
    "Solution",
    "derive_params",
    "prepare",
    "solve",
    "iteration_bound",
    "iteration_bound_fine",
    "inner_bound",
    "fixed_point_error",
    "op_budget",
    # Newton oracle
    "NewtonError",
    "newton_solve",
    # expressions
    "ExprError",
    "EvalDomainError",
    "parse_expression",
    "evaluate",
    "to_string",
]
