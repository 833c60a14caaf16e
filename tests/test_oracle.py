import dataclasses

import numpy as np
import pytest

from vfsolve.discrete import build_system, norm, residual
from vfsolve.expr import EvalDomainError
from vfsolve.oracle import NewtonConfig, NewtonError, jacobian_check, newton_solve
from vfsolve.problem import benchmark_problem, default_x_box, from_expressions
from vfsolve.quadrature import build_scheme, make_grid


@pytest.fixture(scope="module")
def bench():
    return build_system(
        benchmark_problem(), build_scheme(make_grid(0.0, 1.0, 50), "midpoint")
    )


SCHEMES = [
    pytest.param("midpoint", "full_cell", id="midpoint-full_cell"),
    pytest.param("midpoint", "half_cell", id="midpoint-half_cell"),
    pytest.param("trapezoid", "half_cell", id="trapezoid"),
    pytest.param("simpson", "half_cell", id="simpson"),
]


def _system(k1, k2, g="t", n=10, a=0.0, b=1.0, **kw):
    p = from_expressions(a, b, k1_src=k1, k2_src=k2, g_src=g, M=1.0, L=1.0, **kw)
    return build_system(p, build_scheme(make_grid(a, b, n), "midpoint"))


def _benchmark_system(n, rule="midpoint", rows="half_cell", prob=None):
    scheme = build_scheme(make_grid(0.0, 1.0, n), rule, midpoint_rows=rows)
    return build_system(prob or benchmark_problem(), scheme)


def _boundary_start(value, n=10):
    start = np.zeros(n)
    start[[3, 6]] = value
    return start


def test_zero_kernels_one_step():
    sys_ = _system("0", "0", g="t^2")
    out = newton_solve(sys_, NewtonConfig(max_iter=1), start=np.zeros(10))
    assert np.array_equal(out, sys_.g_vec)


def test_benchmark_converges_fast(bench):
    out = newton_solve(bench, NewtonConfig(max_iter=10), start=bench.g_vec)
    assert residual(bench, out) <= 1e-12


@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_newton_converges_on_every_scheme(rule, rows):
    sys_ = _benchmark_system(40, rule, rows)
    assert residual(sys_, newton_solve(sys_)) <= 1e-12


def test_benchmark_node_errors_small(bench):
    out = newton_solve(bench)
    assert residual(bench, out) <= 1e-12
    err = np.abs(out - bench.scheme.nodes)
    assert np.max(err) <= 2.3e-2


def test_uniqueness_from_random_starts(bench):
    box = default_x_box(benchmark_problem(), bench.scheme)
    rng = np.random.default_rng(12345)
    sols = [newton_solve(bench, start=rng.uniform(-box, box, bench.dim)) for _ in range(5)]
    worst = max(
        norm(bench, a - b) for i, a in enumerate(sols) for b in sols[i + 1:]
    )
    assert worst <= 1e-9


def test_dimension_cap():
    sys_ = _system("0", "0", n=1001)
    assert sys_.dim == 1001
    with pytest.raises(ValueError, match="cap 1000"):
        newton_solve(sys_)


def test_singular_system_reported():
    # xi - INT_0^1 xi ds has the integral operator's eigenvalue at exactly 1,
    # so the Jacobian I - ones*w is singular and Newton must fail loudly
    sys_ = _system("0", "-x", g="t")
    with pytest.raises(NewtonError):
        newton_solve(sys_)


def test_jacobian_failure_names_first_bumped_cell():
    # the error is the one the first failing column's system map raises
    prob = dataclasses.replace(
        benchmark_problem(), k2=lambda t, s, x: np.where(x > 0.5, np.inf, 0.1 * t * s * x)
    )
    sys_ = _benchmark_system(10, prob=prob)
    with pytest.raises(ValueError) as exc:
        newton_solve(sys_, start=_boundary_start(0.5))
    assert type(exc.value) is ValueError
    assert str(exc.value) == "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=3)"


def test_jacobian_domain_error_counts_one_column():
    sys_ = _system("0", "t*s*ln(0.5 - x)/10")
    with pytest.raises(EvalDomainError) as exc:
        newton_solve(sys_, start=_boundary_start(0.5 - 5e-8))
    assert str(exc.value) == (
        "ln of a non-positive value in 'ln((0.5 - x))': "
        "10 offending input point(s), first at index (0, 3)"
    )


def test_jacobian_calls_each_kernel_twice():
    # trapezoid row 0 (t = a) has zero Volterra weight, so its non-finite k1
    # values are discarded and must not force the column-by-column rebuild
    calls = {"k1": 0, "k2": 0}

    def counted(name, fn):
        def kernel(t, s, x):
            calls[name] += 1
            return fn(t, s, x)
        return kernel

    bp = benchmark_problem()
    k1 = lambda t, s, x: np.where(t == 0.0, np.inf, bp.k1(t, s, x))
    prob = dataclasses.replace(bp, k1=counted("k1", k1), k2=counted("k2", bp.k2))
    sys_ = _benchmark_system(10, "trapezoid", prob=prob)
    with pytest.raises(NewtonError, match="within 1 iterations"):
        newton_solve(sys_, NewtonConfig(max_iter=1, residual_tol=1e-300))
    # system map, Jacobian at xi and xi + step, system map after the loop
    assert calls == {"k1": 4, "k2": 4}


def test_no_convergence_reports_last_residual(bench):
    with pytest.raises(NewtonError, match="last residual"):
        newton_solve(bench, NewtonConfig(max_iter=1, residual_tol=1e-15))


def test_config_validation():
    with pytest.raises(ValueError, match="fd_step"):
        NewtonConfig(fd_step=0.0)
    with pytest.raises(ValueError, match="residual_tol"):
        NewtonConfig(residual_tol=-1.0)
    with pytest.raises(ValueError, match="max_iter"):
        NewtonConfig(max_iter=0)


def test_jacobian_check_linear_kernel_is_exact():
    # Fredholm kernel linear in x: entrywise and column differences agree
    sys_ = _system("0", "11/2*t^2*s^2*x", n=25)
    assert jacobian_check(sys_, np.zeros(25)) <= 1e-9


def test_jacobian_check_full_benchmark_dim25():
    sys_ = build_system(
        benchmark_problem(), build_scheme(make_grid(0.0, 1.0, 25), "midpoint")
    )
    assert jacobian_check(sys_, np.zeros(25)) <= 1e-6


def test_jacobian_check_rounded_away_bump_gives_zero_column():
    # at |xi_j| >= 2**53 * fd_step the bump rounds away: the column loop gives
    # an exactly zero column, and so must the entrywise build
    at = np.zeros(10)
    at[4] = 1e10
    assert jacobian_check(_system("0", "0"), at) == 0.0


@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_jacobian_check_every_scheme(rule, rows):
    sys_ = _benchmark_system(40, rule, rows)
    box = default_x_box(sys_.problem, sys_.scheme)
    at = np.random.default_rng(2024).uniform(-box, box, sys_.dim)
    assert jacobian_check(sys_, at) <= 1e-6


def test_jacobian_check_dim_cap(bench):
    sys_ = _system("0", "0", n=61)
    with pytest.raises(ValueError, match="dim <= 60"):
        jacobian_check(sys_, np.zeros(61))
