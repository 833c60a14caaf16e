import math

import numpy as np
import pytest

from vfsolve.continuation import SolverError
from vfsolve.discrete import build_system, norm, phi, residual
from vfsolve.hybrid import (
    ErrorBudget,
    SolverParams,
    derive_params,
    fixed_point_error,
    iteration_bound,
    iteration_bound_fine,
    op_budget,
    prepare,
    shift_parts,
    solve,
)
from vfsolve.problem import benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid

M_BENCH = math.sqrt(25.0 / 18.0)
L_BENCH = 1.1
G1_NORM = 1.026854158495861  # ||g - Phi(0) - F(0)|| on the h=1/50 midpoint grid


def _coeff(M, k):
    return M**k / math.sqrt(math.factorial(k - 1))


@pytest.fixture(scope="module")
def bench():
    scheme = build_scheme(make_grid(0.0, 1.0, 50), "midpoint")
    return build_system(benchmark_problem(), scheme)


# ---------------------------------------------------------------------------
# parameter derivation

def test_derive_params_benchmark_structure():
    p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3)
    assert (p.N, p.n_prime, p.m) == (2, 6, 8)
    assert p.q == pytest.approx(0.55, abs=0)
    assert p.gamma == pytest.approx(M_BENCH / math.sqrt(6), rel=1e-15)
    assert p.alpha == pytest.approx(_coeff(M_BENCH, 8), rel=1e-15)
    assert p.alpha == pytest.approx(0.0524148981280367, rel=1e-12)
    assert p.beta == p.alpha  # alpha > q^8 here
    # independent recomputation of the constants
    assert p.C_m == pytest.approx(sum(_coeff(M_BENCH, k) for k in range(1, 9)), rel=1e-15)
    want_cn = (
        p.gamma / (1 - p.gamma) * _coeff(M_BENCH, 6)
        + sum(_coeff(M_BENCH, k) for k in range(1, 7))
        + 1.0
    )
    assert p.C_nprime == pytest.approx(want_cn, rel=1e-15)
    growth = (math.exp(1.1) - 1) / (math.exp(0.55) - 1)
    want_c1 = (1 + M_BENCH) * (0.55 / 0.45) * growth * want_cn * G1_NORM
    assert p.C1 == pytest.approx(want_c1, rel=1e-14)
    assert p.C2 == pytest.approx(p.C_m / (1 - p.alpha) * G1_NORM, rel=1e-15)
    # the minimal-d rule: d is the first integer meeting the tolerance
    assert (p.C1 + p.C2) * p.beta**p.d <= 1e-3
    assert (p.C1 + p.C2) * p.beta ** (p.d - 1) > 1e-3
    assert p.h0 == p.m - 1
    assert p.n0 == p.m * p.d + p.h0


def test_derive_params_small_l():
    p = derive_params(0.3, 0.5, 1.0, 1e-3)
    assert p.N == 1
    assert p.q == 0.5


def test_derive_params_degenerate_m_zero():
    p = derive_params(0.0, 0.5, 1.0, 1e-3)
    assert (p.n_prime, p.gamma, p.alpha, p.C_m) == (1, 0.0, 0.0, 0.0)
    assert p.m == 2
    assert p.beta == 0.25  # q^2 survives the max
    assert p.C2 == 0.0


def test_derive_params_overrides():
    p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=55)
    assert (p.d, p.h0, p.n0) == (6, 7, 55)
    p3 = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, N=3)
    assert p3.N == 3 and p3.q == pytest.approx(1.1 / 3)
    p9 = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, m=9)
    assert p9.m == 9 and p9.alpha == pytest.approx(_coeff(M_BENCH, 9), rel=1e-15)
    assert p9.n0 == 9 * p9.d + 8


def test_derive_params_rejects_bad_split():
    with pytest.raises(ValueError, match="q=1.1 >= 1"):
        derive_params(M_BENCH, 1.1, 1.0, 1e-3, N=1)


def test_derive_params_input_validation():
    with pytest.raises(ValueError, match="finite and nonnegative"):
        derive_params(-1.0, 0.5, 1.0, 1e-3)
    with pytest.raises(ValueError, match="eps > 0"):
        derive_params(1.0, 0.5, 1.0, 0.0)
    with pytest.raises(ValueError, match="g_norm >= 0"):
        derive_params(1.0, 0.5, -1.0, 1e-3)


def test_derive_params_d_cap():
    # q extremely close to 1 makes the bound decay uselessly slowly
    with pytest.raises(ValueError, match="contraction blocks"):
        derive_params(0.0, 1.999998, 1.0, 1e-3)


def test_derive_params_large_M_raises_at_once():
    # the n_prime search alone would take about 4*M^2 = 4e12 steps
    with pytest.raises(ValueError, match=r"M=1000000.0 is too large.* at k=52"):
        derive_params(1e6, 0.5, 1.0, 1e-3)
    # the documented limit: a derived n_prime needs M^k/sqrt((k-1)!) up to k = 4*M^2
    limit = math.sqrt(171) / 2
    assert derive_params(limit, 0.5, 1.0, 1e-3).n_prime == 171
    with pytest.raises(ValueError, match="overflows a float at k=172"):
        derive_params(limit * (1 + 1e-12), 0.5, 1.0, 1e-3)


# ---------------------------------------------------------------------------
# bounds and budgets

def test_iteration_bound_meets_eps_by_construction():
    for eps in (1e-1, 1e-2, 1e-3, 1e-5):
        p = derive_params(M_BENCH, L_BENCH, G1_NORM, eps)
        assert iteration_bound(p) <= eps


def test_iteration_bound_frozen_values():
    p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3)
    assert iteration_bound(p) == pytest.approx(4.077782899118599e-4, rel=1e-12)
    p55 = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=55)
    assert iteration_bound(p55) == pytest.approx(1.1202980817731035e-6, rel=1e-12)


def test_iteration_bound_monotone_in_d():
    a = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=39)
    b = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=47)
    assert b.d == a.d + 1
    assert iteration_bound(b) < iteration_bound(a)


def test_iteration_bound_homogeneous_in_g():
    p = derive_params(M_BENCH, L_BENCH, 0.0, 1e-3)
    assert iteration_bound(p) == 0.0


def test_fine_bound_never_exceeds_coarse():
    for n0 in (16, 32, 39, 55):
        p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=n0)
        assert iteration_bound_fine(p) <= iteration_bound(p)


def test_op_budget_values():
    p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=55)
    assert op_budget(p) == 56**3 == 175616
    tiny = SolverParams(
        N=1, q=0.5, m=1, alpha=0.5, n_prime=1, gamma=0.5, d=1, h0=0, n0=1,
        C_nprime=1.0, C_m=1.0, C1=0.0, C2=0.0, beta=0.5, g_norm=1.0, eps=1.0,
    )
    assert op_budget(tiny) == 4


def test_fixed_point_error():
    p = SolverParams(
        N=1, q=0.5, m=1, alpha=0.5, n_prime=1, gamma=0.5, d=3, h0=0, n0=3,
        C_nprime=1.0, C_m=1.0, C1=0.0, C2=0.0, beta=0.5, g_norm=1.0, eps=1.0,
    )
    assert fixed_point_error(p, 3, 1.0) == pytest.approx(0.25)
    assert fixed_point_error(p, 3, 0.0) == 0.0
    assert fixed_point_error(p, 4, 1.0) < fixed_point_error(p, 3, 1.0)
    with pytest.raises(ValueError, match="k >= m"):
        fixed_point_error(p, 0, 1.0)


def test_solver_params_validation():
    with pytest.raises(ValueError, match="inconsistent split"):
        SolverParams(
            N=1, q=0.5, m=3, alpha=0.1, n_prime=1, gamma=0.5, d=2, h0=1, n0=9,
            C_nprime=1.0, C_m=1.0, C1=0.0, C2=0.0, beta=0.5, g_norm=1.0, eps=1.0,
        )
    with pytest.raises(ValueError, match="alpha"):
        SolverParams(
            N=1, q=0.5, m=2, alpha=1.2, n_prime=1, gamma=0.5, d=1, h0=1, n0=3,
            C_nprime=1.0, C_m=1.0, C1=0.0, C2=0.0, beta=0.5, g_norm=1.0, eps=1.0,
        )


def test_error_budget_enforces_op_bound():
    with pytest.raises(SolverError, match="exceeded budget"):
        ErrorBudget(
            iteration_bound=1.0, inner_bound_value=1.0,
            discretization_note="", op_count=5, op_bound=4,
        )


# ---------------------------------------------------------------------------
# the shift

def test_shift_parts_benchmark(bench):
    phi0, f0, g1 = shift_parts(bench)
    assert np.all(f0 == 0.0)  # Fredholm kernel is linear in x
    assert np.max(np.abs(phi0 - 2.5 * bench.scheme.nodes**3)) < 5 * bench.grid.h**2
    assert np.allclose(g1, bench.g_vec - phi0)
    assert norm(bench, g1) == pytest.approx(G1_NORM, rel=1e-12)


def test_prepare_uses_shifted_norm(bench):
    p = prepare(bench, 1e-3)
    q = derive_params(M_BENCH, L_BENCH, norm(bench, shift_parts(bench)[2]), 1e-3)
    assert p == q
    p55 = prepare(bench, 1e-3, n0=55)
    assert (p55.d, p55.n0) == (6, 55)


# ---------------------------------------------------------------------------
# the solver

def test_solve_zero_kernels_returns_g():
    prob = from_expressions(
        0.0, 1.0, k1_src="0", k2_src="0", g_src="t^2", M=0.0, L=0.0, exact_src="t^2"
    )
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 20), "midpoint"))
    sol = solve(sys_, prepare(sys_, 1e-3))
    assert np.array_equal(sol.xi, sys_.g_vec)
    assert sol.residual == 0.0
    assert np.all(sol.per_node_error == 0.0)


def test_solve_benchmark_small_run(bench):
    params = prepare(bench, 1e-3, n0=16)
    sol = solve(bench, params)
    assert sol.budget.op_count == 17**3 - 1
    assert sol.budget.op_count <= sol.budget.op_bound == 17**3
    assert sol.budget.iteration_bound == pytest.approx(iteration_bound(params))
    assert sol.per_node_error is not None
    assert np.max(sol.per_node_error) < 0.05  # discretization-level, not tight
    assert sol.residual < 1e-4
    assert "midpoint" in sol.budget.discretization_note


def test_solve_rejects_mismatched_params(bench):
    wrong = derive_params(M_BENCH, 0.9, G1_NORM, 1e-3)
    with pytest.raises(ValueError, match="do not match"):
        solve(bench, wrong)
    # same L, another M: alpha was certified for a different Volterra part
    wrong_m = derive_params(0.3, L_BENCH, G1_NORM, 1e-3, m=8)
    with pytest.raises(ValueError, match=r"do not match the system: alpha="):
        solve(bench, wrong_m)
    # same M and L, another forcing term: g_norm differs from ||g1||
    wrong_g = derive_params(M_BENCH, L_BENCH, 4.92, 1e-3)
    with pytest.raises(ValueError, match=r"do not match the system: g_norm="):
        solve(bench, wrong_g)


def test_solve_without_exact_has_no_per_node_error():
    prob = from_expressions(
        0.0, 1.0, k1_src="0", k2_src="x/2", g_src="t", M=0.0, L=0.5
    )
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    sol = solve(sys_, prepare(sys_, 1e-3))
    assert sol.per_node_error is None
    assert sol.residual < 1e-3  # params were derived for eps = 1e-3


def test_outer_contraction_witness(bench):
    # the m-fold outer map contracts by alpha (with inner-solve slack)
    params = prepare(bench, 1e-3, n0=24)
    zs = []
    solve(bench, params, outer_callback=lambda t, z: zs.append(z))
    assert len(zs) == params.n0 + 1
    m = params.m
    for t in range(m, params.n0 - m + 1):
        num = norm(bench, zs[t + m] - zs[t])
        den = norm(bench, zs[t] - zs[t - m])
        if den > 1e-14:
            assert num <= params.alpha * den * (1 + 1e-3)


def test_p_inverse_nonexpansive(bench):
    from vfsolve.continuation import ContinuationConfig, p_inverse

    _, f0, g1 = shift_parts(bench)

    def F1(v):
        from vfsolve.discrete import fred

        return fred(bench, v) - f0

    rng = np.random.default_rng(12345)
    for _ in range(5):
        cfg = ContinuationConfig.for_lipschitz(1.1, 2, 20)
        z1 = g1 + rng.uniform(-0.5, 0.5, bench.dim)
        z2 = g1 + rng.uniform(-0.5, 0.5, bench.dim)
        d_out = norm(bench, p_inverse(F1, z1, cfg) - p_inverse(F1, z2, cfg))
        assert d_out <= norm(bench, z1 - z2) * (1 + 1e-3)
