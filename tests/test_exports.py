import importlib
import pkgutil

import pytest

import vfsolve

MODULES = ["vfsolve"] + [
    f"vfsolve.{info.name}" for info in pkgutil.iter_modules(vfsolve.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_are_pinned():
    # adding or dropping an export is a deliberate edit of this list
    assert vfsolve.__all__ == [
        "__version__",
        "Problem",
        "AssumptionReport",
        "benchmark_problem",
        "builtin_problem",
        "from_expressions",
        "check_assumptions",
        "RULES",
        "Grid",
        "QuadScheme",
        "make_grid",
        "build_scheme",
        "DiscreteSystem",
        "build_system",
        "phi",
        "fred",
        "inner",
        "norm",
        "residual",
        "ContinuationConfig",
        "SolverError",
        "p_inverse",
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
        "NewtonError",
        "newton_solve",
        "ExprError",
        "EvalDomainError",
        "parse_expression",
        "evaluate",
        "to_string",
    ]
