"""Acceptance gate: one test per shipped guarantee, at pinned tolerances.

End-to-end checks of the whole pipeline — quadrature, discrete system,
hybrid continuation solver, a-priori bounds, Newton oracle, parser — on the
builtin benchmark problem (exact solution x(t) = t on [0, 1]).  Heavy solves
are shared through module-scoped fixtures, so the file runs in about a
minute; the dominant cost is the doubled-budget continuation run.
"""

import math
import time

import numpy as np
import pytest

from vfsolve import reference
from vfsolve.discrete import build_system, fred, inner, norm, phi, residual
from vfsolve.expr import BinOp, Call, Const, Neg, Var, evaluate, parse_expression, to_string
from vfsolve.hybrid import (
    derive_params,
    iteration_bound,
    op_budget,
    prepare,
    shift_parts,
    solve,
)
from vfsolve.oracle import newton_solve
from vfsolve.problem import benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid


def _system(cells=50, rows="half_cell", rule="midpoint"):
    prob = benchmark_problem()
    grid = make_grid(prob.a, prob.b, cells)
    return build_system(prob, build_scheme(grid, rule, midpoint_rows=rows))


@pytest.fixture(scope="module")
def half_sys():
    """Benchmark on the default half-cell midpoint scheme, h = 1/50."""
    return _system()


@pytest.fixture(scope="module")
def newton_half(half_sys):
    return newton_solve(half_sys)


@pytest.fixture(scope="module")
def cont_half(half_sys):
    """Continuation runs on the half-cell system: {n0: (params, solution)}."""
    out = {}
    for n0 in (16, 32, 55, 110):
        params = prepare(half_sys, 1e-3, n0=n0)
        out[n0] = (params, solve(half_sys, params))
    return out


@pytest.fixture(scope="module")
def table_run():
    """The frozen reference configuration (full-cell rows, pinned n0 = 55)."""
    run = reference.REFERENCE_RUN["benchmark"]
    prob = benchmark_problem()
    grid = make_grid(prob.a, prob.b, run["cells"])
    scheme = build_scheme(grid, run["rule"], midpoint_rows=run["volterra_rows"])
    sys_obj = build_system(prob, scheme)
    t0 = time.perf_counter()
    params = prepare(sys_obj, run["eps"], **run["overrides"])
    sol = solve(sys_obj, params)
    elapsed = time.perf_counter() - t0
    return sys_obj, sol, elapsed


# -------------------------------------------------------------- criterion 1

def test_criterion_1_table_reproduction(table_run):
    """h = 1/50, n0 = 55 matches the embedded reference table node by node."""
    sys_obj, sol, elapsed = table_run
    ref_t, ref_vals = reference.reference_table("benchmark")
    nodes = sys_obj.scheme.nodes
    assert np.allclose(nodes, ref_t, atol=1e-12)

    worst_vs_ref = float(np.max(np.abs(sol.xi - ref_vals)))
    assert worst_vs_ref <= 5e-3, f"max deviation from reference table {worst_vs_ref:.3e}"

    exact = np.asarray(sys_obj.problem.exact(nodes), dtype=float)
    worst_vs_exact = float(np.max(np.abs(sol.xi - exact)))
    assert worst_vs_exact <= 2.3e-2, f"max error vs exact {worst_vs_exact:.3e}"

    assert elapsed <= 60.0, f"reference run took {elapsed:.1f} s"


# -------------------------------------------------------------- criterion 2

def test_criterion_2_parameter_derivation(half_sys):
    """Automatic derivation from (M, L, ||g1||, eps = 1e-3) gives the documented tuple.

    The documented rule (README "Derived parameters", ``derive_params``) is
    d = min{j : (C1 + C2) * beta^j <= eps} and n0 = m*d + (m - 1).  On the
    benchmark C1 + C2 ~ 54.0 and beta = alpha ~ 0.0524, so the bound is
    7.8e-3 at j = 3 and 4.08e-4 at j = 4: the derived tuple is
    (N, n', m, d, n0) = (2, 6, 8, 4, 39).  The constants are recomputed here
    from M, L and ||g1|| with the README formulas, and d is checked minimal
    from both sides.

    The reference run's (d, n0) = (6, 55) is not the minimum at eps = 1e-3
    (the rule derives it only for eps in [1.12e-6, 2.14e-5)); the reference
    config reaches it through its explicit n0 = 55 override.  The override
    is checked where it arises: it re-splits to (d, h0) = (6, 7), its bound
    meets eps, and it spends at least the budget the derivation certifies.
    """
    prob = half_sys.problem
    M, L, eps = prob.M, prob.L, 1e-3
    _, _, g1 = shift_parts(half_sys)
    g_norm = norm(half_sys, g1)
    params = derive_params(M, L, g_norm, eps)
    assert (params.N, params.n_prime, params.m) == (2, 6, 8)
    assert (params.d, params.n0) == (4, 39)

    def coeff(k):
        return M**k / math.sqrt(math.factorial(k - 1))

    N, n_prime, m = params.N, params.n_prime, params.m
    assert N == math.floor(L) + 1
    q = L / N
    gamma = M / math.sqrt(n_prime)
    assert gamma <= 0.5 < M / math.sqrt(n_prime - 1)
    alpha = coeff(m)
    assert alpha <= 0.1 < coeff(m - 1)
    C_nprime = (
        gamma / (1.0 - gamma) * coeff(n_prime)
        + sum(coeff(k) for k in range(1, n_prime + 1))
        + 1.0
    )
    growth = (math.exp(q * N) - 1.0) / (math.exp(q) - 1.0)
    C1 = (1.0 + M) * q / (1.0 - q) * growth * C_nprime * g_norm
    C2 = sum(coeff(k) for k in range(1, m + 1)) / (1.0 - alpha) * g_norm
    beta = max(q**m, alpha)

    def bound(j):
        return (C1 + C2) * beta**j

    d = params.d
    assert bound(d) <= eps < bound(d - 1), (
        f"C1 + C2 = {C1 + C2:.6g}, beta = {beta:.6g}: bound {bound(d):.3e} at "
        f"d = {d}, {bound(d - 1):.3e} at d - 1"
    )
    assert params.n0 == m * d + (m - 1)
    assert iteration_bound(params) == pytest.approx(bound(d), rel=1e-12)

    pinned = prepare(half_sys, eps, n0=55)
    assert (pinned.d, pinned.h0, pinned.n0) == (6, 7, 55)
    assert iteration_bound(pinned) <= eps
    assert params.n0 <= pinned.n0
    assert bound(6) <= 2e-5 < bound(5)
    assert derive_params(M, L, g_norm, 2e-5).n0 == 55


def test_criterion_2_operation_budget(table_run):
    """With n0 = 55, N = 2 the measured operation count stays within 56^3."""
    _, sol, _ = table_run
    params = sol.params
    assert (params.N, params.n0) == (2, 55)
    cap = op_budget(params)
    assert cap == 56**3 == 175616
    measured = sol.budget.op_count
    assert measured == 56**3 - 1, f"measured {measured} operations"
    assert measured <= cap
    # comparison figure: the same budget computed with n0 instead of n0 + 1
    # per level is 55^3 = 166375.  The measured count is
    # (n0+1)*((n0+1)^N - 1) + n0 = 56^3 - 1; the 9,240 operations above 55^3
    # come from each level paying n0 + 1 maps instead of n0.  The n0 outer
    # Volterra evaluations account for only 55 of the total.
    assert 55**3 == 166375 < measured <= cap


# -------------------------------------------------------------- criterion 3

def test_criterion_3_oracle_equivalence(half_sys, newton_half, cont_half):
    """Continuation and Newton agree on the identical discrete system."""
    assert residual(half_sys, newton_half) <= 1e-12

    _, sol55 = cont_half[55]
    gap55 = norm(half_sys, sol55.xi - newton_half)
    assert gap55 <= 1e-7, f"n0=55 gap {gap55:.3e}"

    _, sol110 = cont_half[110]
    gap110 = norm(half_sys, sol110.xi - newton_half)
    assert gap110 <= 1e-10, f"n0=110 gap {gap110:.3e}"


# -------------------------------------------------------------- criterion 4

def test_criterion_4_bound_validity(half_sys, newton_half, cont_half):
    """The a-priori iteration bound dominates the measured gap to Newton."""
    for n0 in (16, 32, 55):
        params, sol = cont_half[n0]
        measured = norm(half_sys, sol.xi - newton_half)
        bound = iteration_bound(params)
        assert measured <= bound, (
            f"n0={n0}: measured {measured:.3e} > bound {bound:.3e}"
        )


# -------------------------------------------------------------- criterion 5

def test_criterion_5_convergence_order():
    """Newton-oracle max errors drop ~4x per halving of h (midpoint rule)."""
    t0 = time.perf_counter()
    errs = []
    for cells in (25, 50, 100):
        sys_obj = _system(cells)
        xi = newton_solve(sys_obj)
        exact = np.asarray(sys_obj.problem.exact(sys_obj.scheme.nodes), dtype=float)
        errs.append(float(np.max(np.abs(xi - exact))))
    elapsed = time.perf_counter() - t0
    ratios = [errs[k] / errs[k + 1] for k in range(2)]
    assert all(3.0 <= r <= 5.0 for r in ratios), f"ratios {ratios}"
    assert elapsed <= 30.0, f"refinement study took {elapsed:.1f} s"


# -------------------------------------------------------------- criterion 6

def test_criterion_6_property_suites(half_sys):
    """Randomized suites, >= 200 cases each, fixed seed."""
    prob = half_sys.problem
    n = half_sys.dim
    ALPHA8 = prob.M**8 / math.sqrt(math.factorial(7))

    # Fredholm part: Lipschitz ratio, monotonicity; Volterra part: 8-fold
    # composition contracts with constant M^8 / sqrt(7!).
    rng = np.random.default_rng(2026_08_19)
    for _ in range(200):
        u = rng.uniform(-2.5, 2.5, n)
        v = rng.uniform(-2.5, 2.5, n)
        gap = norm(half_sys, u - v)
        df = fred(half_sys, u) - fred(half_sys, v)
        assert norm(half_sys, df) <= prob.L * (1.0 + 1e-9) * gap
        assert inner(half_sys, df, u - v) > 0.0
        pu, pv = u, v
        for _k in range(8):
            pu = phi(half_sys, pu)
            pv = phi(half_sys, pv)
        assert norm(half_sys, pu - pv) <= ALPHA8 * (1.0 + 1e-6) * gap

    # weighted-norm axioms
    rng = np.random.default_rng(2026_08_20)
    for _ in range(200):
        u = rng.normal(size=n)
        v = rng.normal(size=n)
        c = float(rng.normal()) * 10.0
        nu, nv = norm(half_sys, u), norm(half_sys, v)
        assert nu > 0.0
        assert norm(half_sys, u + v) <= nu + nv + 1e-12
        assert norm(half_sys, c * u) == pytest.approx(abs(c) * nu, rel=1e-12)
        assert abs(inner(half_sys, u, v)) <= nu * nv * (1.0 + 1e-12)
        assert inner(half_sys, u, v) == inner(half_sys, v, u)
    assert norm(half_sys, np.zeros(n)) == 0.0

    # weight-sum invariants on grids of 1..200 cells
    for cells in range(1, 201):
        grid = make_grid(0.0, 1.0, cells)
        for rule in ("midpoint", "trapezoid") + (("simpson",) if cells % 2 == 0 else ()):
            scheme = build_scheme(grid, rule)
            assert abs(float(np.sum(scheme.global_weights)) - 1.0) <= 1e-12
        for rows, offset in (("half_cell", 0.0), ("full_cell", grid.h / 2.0)):
            scheme = build_scheme(grid, "midpoint", midpoint_rows=rows)
            sums = scheme.volterra_weights.sum(axis=1)
            target = scheme.nodes - 0.0 + offset
            assert float(np.max(np.abs(sums - target))) <= 1e-12

    # shifting by the zero-state values leaves the residual unchanged
    phi0, f0, g1 = shift_parts(half_sys)
    rng = np.random.default_rng(2026_08_21)
    for _ in range(200):
        xi = rng.uniform(-2.5, 2.5, n)
        orig = xi + phi(half_sys, xi) + fred(half_sys, xi) - half_sys.g_vec
        shifted = xi + (phi(half_sys, xi) - phi0) + (fred(half_sys, xi) - f0) - g1
        assert norm(half_sys, orig - shifted) <= 1e-14


# -------------------------------------------------------------- criterion 7

# (source, independent hand-coded evaluator, domain low, domain high)
_CORPUS = [
    ("t + s*x", lambda t, s, x: t + s * x, -2.0, 2.0),
    ("2^t^2", lambda t, s, x: 2.0 ** (t**2), -2.0, 2.0),
    ("-t^2", lambda t, s, x: -(t**2), -2.0, 2.0),
    ("(1 - t)/(1 + s^2)", lambda t, s, x: (1 - t) / (1 + s**2), -2.0, 2.0),
    ("sin(t)*cos(s) + tan(x/4)", lambda t, s, x: np.sin(t) * np.cos(s) + np.tan(x / 4), -2.0, 2.0),
    ("exp(-t^2/2)", lambda t, s, x: np.exp(-(t**2) / 2), -2.0, 2.0),
    ("ln(t) + sqrt(s)", lambda t, s, x: np.log(t) + np.sqrt(s), 0.1, 3.0),
    ("abs(-3*t) + 2", lambda t, s, x: np.abs(-3 * t) + 2, -2.0, 2.0),
    ("pi*t - e", lambda t, s, x: np.pi * t - np.e, -2.0, 2.0),
    ("5*t*s*cos(x)", lambda t, s, x: 5 * t * s * np.cos(x), -2.0, 2.0),
    ("(11/2)*t^2*s^2*x", lambda t, s, x: 5.5 * t**2 * s**2 * x, -2.0, 2.0),
    (
        "(11/8)*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)",
        lambda t, s, x: 1.375 * t**2 - 4 * t + 5 * t * np.cos(t) + 5 * t**2 * np.sin(t),
        -2.0, 2.0,
    ),
    ("t^3 - 2*t^2 + t - 7", lambda t, s, x: t**3 - 2 * t**2 + t - 7, -2.0, 2.0),
    ("1/(1 + exp(-t))", lambda t, s, x: 1 / (1 + np.exp(-t)), -2.0, 2.0),
    ("sqrt(t^2 + s^2 + 1)", lambda t, s, x: np.sqrt(t**2 + s**2 + 1), -2.0, 2.0),
    ("cos(pi*t/2)^2", lambda t, s, x: np.cos(np.pi * t / 2) ** 2, -2.0, 2.0),
    ("t*(s - x)*(s + x)", lambda t, s, x: t * (s - x) * (s + x), -2.0, 2.0),
    ("2.5e-1*t + 1.5e1", lambda t, s, x: 0.25 * t + 15.0, -2.0, 2.0),
    ("-(t - s)^2/(2 + x^2)", lambda t, s, x: -((t - s) ** 2) / (2 + x**2), -2.0, 2.0),
    ("ln(exp(t))", lambda t, s, x: np.log(np.exp(t)), -2.0, 2.0),
]

_FUNCS = ("sin", "cos", "tan", "exp", "ln", "sqrt", "abs")


def _random_expr(rng, depth):
    roll = int(rng.integers(0, 6)) if depth > 0 else int(rng.integers(0, 2))
    if roll == 0:
        return Const(10.0 ** int(rng.integers(-3, 4)) * float(rng.integers(1, 100)))
    if roll == 1:
        return Var(("t", "s", "x")[int(rng.integers(0, 3))])
    if roll == 2:
        return Neg(_random_expr(rng, depth - 1))
    if roll == 3:
        return Call(_FUNCS[int(rng.integers(0, len(_FUNCS)))], _random_expr(rng, depth - 1))
    op = "+-*/^"[int(rng.integers(0, 5))]
    return BinOp(op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def test_criterion_7_parser():
    """Corpus vs hand evaluators, structural round-trip, builtin equivalence."""
    assert len(_CORPUS) == 20
    rng = np.random.default_rng(2026_08_22)
    for src, hand, lo, hi in _CORPUS:
        ast = parse_expression(src)
        t, s, x = (rng.uniform(lo, hi, 100) for _ in range(3))
        mine = evaluate(ast, t=t, s=s, x=x)
        ref = hand(t, s, x)
        scale = 1.0 + np.abs(ref)
        assert np.max(np.abs(mine - ref) / scale) <= 1e-12, src

    for _ in range(1000):
        ast = _random_expr(rng, depth=int(rng.integers(1, 6)))
        assert parse_expression(to_string(ast)) == ast

    built = from_expressions(
        a=0.0,
        b=1.0,
        k1_src="5*t*s*cos(x)",
        k2_src="(11/2)*t^2*s^2*x",
        g_src="(11/8)*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)",
        M=float(np.sqrt(25.0 / 18.0)),
        L=1.1,
        exact_src="t",
    )
    native = benchmark_problem()
    t, s, x = (rng.uniform(0.0, 1.0, 100) for _ in range(3))
    for mine, ref in (
        (built.k1(t, s, x), native.k1(t, s, x)),
        (built.k2(t, s, x), native.k2(t, s, x)),
        (built.g(t), native.g(t)),
        (built.exact(t), native.exact(t)),
    ):
        scale = 1.0 + np.abs(np.asarray(ref, dtype=float))
        assert np.max(np.abs(np.asarray(mine) - ref) / scale) <= 1e-12
