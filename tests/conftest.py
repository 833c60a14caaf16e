import pytest

from vfsolve.discrete import build_system
from vfsolve.problem import benchmark_problem
from vfsolve.quadrature import build_scheme, make_grid


@pytest.fixture(scope="module")
def bench():
    """The builtin benchmark on 50 half-cell midpoint cells."""
    return build_system(benchmark_problem(), build_scheme(make_grid(0.0, 1.0, 50), "midpoint"))
