import dataclasses
import hashlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from vfsolve import cli, discrete
from vfsolve.continuation import ContinuationConfig, SolverError, p_inverse
from vfsolve.discrete import build_system, fred, norm, phi, residual
from vfsolve.hybrid import (
    ErrorBudget,
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
from vfsolve.expr import EvalDomainError
from vfsolve.problem import Problem, benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid

M_BENCH = math.sqrt(25.0 / 18.0)
L_BENCH = 1.1
G1_NORM = 1.026854158495861  # ||g - Phi(0) - F(0)|| on the h=1/50 midpoint grid
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _coeff(M, k):
    return M**k / math.sqrt(math.factorial(k - 1))


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


def test_solver_params_reject_infinite_g_norm_and_eps():
    # an infinite ||g1|| would run the d search to D_CAP and blame eps, or give
    # params whose bound is nan (C1 = 0*inf); nan keeps its own text
    for L in (0.5, 0.0):
        with pytest.raises(ValueError, match=r"^need finite g_norm >= 0, got inf$"):
            derive_params(0.3, L, math.inf, 1e-3)
    with pytest.raises(ValueError, match=r"^need finite eps > 0, got inf$"):
        derive_params(0.3, 0.5, 1.0, math.inf)
    with pytest.raises(ValueError, match=r"^need eps > 0, got nan$"):
        derive_params(0.3, 0.5, 1.0, math.nan)
    with pytest.raises(ValueError, match=r"^need g_norm >= 0, got nan$"):
        derive_params(0.3, 0.5, math.nan, 1e-3)


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
    # with n0 pinned nothing searches for d, and C_nprime still raises at once
    with pytest.raises(ValueError, match="overflows a float at k=172"):
        derive_params(limit * (1 + 1e-12), 0.5, 1.0, 1e-3, n0=55)


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
    tiny = SolverParams(M=0.5, L=0.5, g_norm=1.0, eps=1.0, N=1, m=1, n_prime=1, n0=1)
    assert op_budget(tiny) == 4


def test_fixed_point_error():
    p = SolverParams(M=0.5, L=0.5, g_norm=1.0, eps=1.0, N=1, m=1, n_prime=1, n0=3)
    assert (p.q, p.alpha, p.gamma, p.d, p.h0) == (0.5, 0.5, 0.5, 3, 0)
    assert fixed_point_error(p, 3, 1.0) == pytest.approx(0.25)
    assert fixed_point_error(p, 3, 0.0) == 0.0
    assert fixed_point_error(p, 4, 1.0) < fixed_point_error(p, 3, 1.0)
    with pytest.raises(ValueError, match="k >= m"):
        fixed_point_error(p, 0, 1.0)


def test_solver_params_validation():
    with pytest.raises(ValueError, match="alpha"):
        SolverParams(
            M=math.sqrt(1.2), L=0.5, g_norm=1.0, eps=1.0, N=1, m=2, n_prime=1, n0=3
        )


def test_pinned_n_prime_with_gamma_above_one_is_refused(bench):
    # M = sqrt(25/18) > 1, so n_prime = 1 gives gamma = M
    with pytest.raises(ValueError) as info:
        prepare(bench, 1e-3, n_prime=1)
    assert str(info.value) == "n_prime=1 gives gamma=1.1785113019775793 >= 1"


def test_solver_params_stores_eight_values_and_derives_ten():
    p = derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, n0=55)
    assert [f.name for f in dataclasses.fields(p)] == [
        "M", "L", "g_norm", "eps", "N", "m", "n_prime", "n0"
    ]
    for name in ("q", "alpha", "gamma", "beta", "d", "h0", "C_m", "C_nprime", "C1", "C2"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0.5)
    assert p.n0 == p.m * p.d + p.h0 and 0 <= p.h0 < p.m


@pytest.mark.parametrize("name", ["N", "m", "n_prime"])
@pytest.mark.parametrize("value", [0, -1])
def test_derive_params_rejects_a_count_below_one(name, value):
    with pytest.raises(ValueError, match=rf"^need {name} >= 1, got {value}$"):
        derive_params(M_BENCH, L_BENCH, G1_NORM, 1e-3, **{name: value})


def test_error_budget_enforces_op_bound():
    budget = ErrorBudget(
        iteration_bound=1.0, inner_bound_value=1.0,
        discretization_note="", maps_evaluated=3, op_bound=4,
    )
    assert budget.op_count == 3  # the paper's count, one below the budget
    with pytest.raises(SolverError, match=r"^maps evaluated 4 exceed operation count 3$"):
        ErrorBudget(
            iteration_bound=1.0, inner_bound_value=1.0,
            discretization_note="", maps_evaluated=4, op_bound=4,
        )


# ---------------------------------------------------------------------------
# the shift

def test_shift_parts_benchmark(bench):
    phi0, f0, g1 = bench.shift
    assert np.all(f0 == 0.0)  # Fredholm kernel is linear in x
    assert np.max(np.abs(phi0 - 2.5 * bench.scheme.nodes**3)) < 5 * bench.scheme.grid.h**2
    assert np.allclose(g1, bench.g_vec - phi0)
    assert norm(bench, g1) == pytest.approx(G1_NORM, rel=1e-12)


def _count_maps(monkeypatch, *names):
    """Count the calls of each ``discrete.<name>``, and for ``shifted_fred``
    the calls of the maps it builds; returns the live tally."""
    maps = dict.fromkeys(names, 0)

    def counted(name, fn):
        def mapped(*args):
            maps[name] += 1
            return fn(*args)
        return mapped

    def counted_builds(name, build):
        return lambda system, f0: counted(name, build(system, f0))

    for name in names:
        wrap = counted_builds if name == "shifted_fred" else counted
        monkeypatch.setattr(discrete, name, wrap(name, getattr(discrete, name)))
    return maps


def _first_repeat(zs):
    """(i, period) for the first z^(t) equal to an earlier z^(i), or None."""
    return next(((zs.index(z), t - zs.index(z)) for t, z in enumerate(zs) if zs.index(z) < t), None)


def test_shift_is_computed_once_per_system(monkeypatch):
    sys_ = build_system(benchmark_problem(), build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    parts = sys_.shift
    assert all(not part.flags.writeable for part in parts)
    maps = _count_maps(monkeypatch, "phi", "fred")
    params = prepare(sys_, 1e-1)
    assert sys_.shift is parts
    sol = solve(sys_, params)
    assert sys_.shift is parts
    got = dict(maps)
    zs = []
    _full_outer_loop(sys_, params, lambda t, z: zs.append(z.tobytes()))
    # the phi of each outer step up to the first repeated iterate, if any, and
    # the residual's phi and fred: no map at zero
    repeat = _first_repeat(zs)
    steps = sum(repeat) if repeat else params.n0
    assert got == {"phi": steps + 1, "fred": 1}
    assert sol.budget.op_count == (params.n0 + 1) ** (params.N + 1) - 1


def test_prepare_uses_shifted_norm(bench):
    p = prepare(bench, 1e-3)
    q = derive_params(M_BENCH, L_BENCH, norm(bench, bench.shift[2]), 1e-3)
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


def test_inner_bound_value_covers_every_inner_solve(bench):
    # the inner solves run on z^(0) = g1, ..., z^(n0), and the bound scales with
    # the target's norm, so the budget takes it at the largest of them
    params = prepare(bench, 1e-3, n0=16)
    zs = []
    _full_outer_loop(bench, params, lambda t, z: zs.append(z))
    sol = solve(bench, params)
    z_max = max(norm(bench, z) for z in zs)
    assert z_max > params.g_norm
    assert sol.budget.inner_bound_value == inner_bound(params, z_max)
    _, f0, _ = bench.shift

    def F1(v):
        return fred(bench, v) - f0

    xi = p_inverse(F1, zs[-1], ContinuationConfig(params.N, params.n0))
    assert np.array_equal(xi, sol.xi)
    assert norm(bench, xi + F1(xi) - zs[-1]) <= sol.budget.inner_bound_value


def _plain_p_inverse(F, z, N, n0):
    """The continuation inverse as the paper states it: every level runs all
    n0 steps, re-solving the levels below it from scratch at each step."""

    def level_solve(level, y):
        w = y
        for _ in range(n0):
            u = w
            for lower in range(level - 1, 0, -1):
                u = level_solve(lower, u)
            w = -(1.0 / N) * F(u) + y
        return w

    for level in range(N, 0, -1):
        z = level_solve(level, z)
    return z


def _full_outer_loop(sys, params, outer_callback):
    """The paper's iteration with no repeat exit: all n0 outer steps, each
    around :func:`_plain_p_inverse`.  ``outer_callback(t, z)`` sees each z^(t).

    Returns (xi, inner_bound_value, op_count, residual).
    """
    phi0, f0, g1 = sys.shift
    maps = 0

    def F1(v):
        nonlocal maps
        maps += 1
        return discrete.fred(sys, v) - f0

    z = g1.copy()
    z_norm = discrete.norm(sys, g1)  # the largest target norm; the inner bound scales with it
    outer_callback(0, z.copy())
    for t in range(1, params.n0 + 1):
        z = -(discrete.phi(sys, _plain_p_inverse(F1, z, params.N, params.n0)) - phi0) + g1
        maps += 1
        z_norm = max(z_norm, discrete.norm(sys, z))
        outer_callback(t, z.copy())
    xi = _plain_p_inverse(F1, z, params.N, params.n0)
    return xi, inner_bound(params, z_norm), maps, discrete.residual(sys, xi)


# name -> (rule, cells, n0, (i, period) of the first repeat of the full loop)
REPEAT_CASES = {
    "no repeat": ("midpoint", 10, 20, None),
    "period 1": ("midpoint", 10, 24, (22, 1)),
    "period 2": ("midpoint", 10, 28, (23, 2)),
    "period 3": ("trapezoid", 10, 30, (25, 3)),
    "repeat at z^(n0)": ("midpoint", 15, 26, (25, 1)),
}


@pytest.mark.parametrize("name", list(REPEAT_CASES))
def test_repeat_exit_is_bit_identical_to_the_full_loop(name, monkeypatch):
    rule, cells, n0, repeat = REPEAT_CASES[name]
    sys_ = build_system(benchmark_problem(), build_scheme(make_grid(0.0, 1.0, cells), rule))
    params = prepare(sys_, 1e-3, n0=n0)
    full = []
    xi, inner_value, op_count, res = _full_outer_loop(
        sys_, params, lambda t, z: full.append((t, z.tobytes()))
    )
    assert _first_repeat([z for _, z in full]) == repeat
    if name == "repeat at z^(n0)":
        assert sum(repeat) == n0

    maps = _count_maps(monkeypatch, "shifted_fred", "fred", "phi")
    sol = solve(sys_, params)
    assert sol.xi.tobytes() == xi.tobytes()
    budget = sol.budget
    assert (budget.op_count, budget.inner_bound_value, sol.residual) == (op_count, inner_value, res)
    assert budget.op_count == (n0 + 1) ** (params.N + 1) - 1
    # the residual makes one phi and one fred
    assert sum(maps.values()) == budget.maps_evaluated + 2
    if repeat is None:
        assert budget.maps_evaluated == budget.op_count
    else:  # steps 1 .. i + period ran, each one inverse and one phi; no
        # level 2 of these inverses repeats, so each makes (n0+1)^N - 1 maps
        assert budget.maps_evaluated == sum(repeat) * (n0 + 1) ** params.N


@pytest.mark.parametrize(
    "config, n0, maps, digest",
    [
        ("reference.ini", 80, 88317, "6bd0b4f241c64edf5bfc74abb95c7344f6454daf3d33bc3133521962ccd5e541"),
        ("default.ini", 55, 65045, "08e262848241fd017c7179926ddba4be3c0565e6272ccc9450ce9ff7e9c0e9c7"),
    ],
    ids=["reference.ini-n0=80", "default.ini-n0=55"],
)
def test_repeat_exit_keeps_the_pinned_solution(config, n0, maps, digest):
    # digests of the full loop's xi; these runs stop at a cycle, not a fixed point
    rc = cli.parse_config(str(CONFIGS / config))
    sys_ = cli._system(rc)
    params = prepare(sys_, rc.eps, n0=n0)
    sol = solve(sys_, params)
    # the outer loop stops after 27 (29) steps, each one inverse and one phi,
    # and each inverse's level 2 at its own first repeat, which hands back the
    # level-1 solve it already made (90,477 and 66,640 maps without that):
    # full inverses would make 27 * 81^2 = 177,147 (29 * 56^2 = 90,944) maps
    assert sol.budget.maps_evaluated == maps
    assert hashlib.sha256(sol.xi.tobytes()).hexdigest() == digest


def test_level_stops_in_a_chain_skip_the_lower_solve(monkeypatch):
    # N = 3 and a weak k2 (q = 1/300): the outer loop runs all 6 steps, and
    # the levels 2 and 3 repeat only at their last step, so without the
    # reuse every inverse would make its full 7^3 - 1 maps (2,400 in all).
    # A level-2 stop inside level 3's chain, and a level-3 stop in p_inverse,
    # hand back the lower inverse their step computed, and it is not redone.
    prob = from_expressions(
        0.0, 1.0, k1_src="t*s*cos(x)/2", k2_src="t*s/100*x", g_src="t", M=0.5, L=0.01
    )
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 6), "midpoint"))
    assert sys_.k2_split is not None
    params = prepare(sys_, 1e-3, n0=6, N=3)
    full = []
    xi, inner_value, op_count, res = _full_outer_loop(
        sys_, params, lambda t, z: full.append(z.tobytes())
    )
    assert _first_repeat(full) is None and op_count == 2400
    maps = _count_maps(monkeypatch, "shifted_fred", "fred", "phi")
    sol = solve(sys_, params)
    assert sol.xi.tobytes() == xi.tobytes()
    budget = sol.budget
    assert (budget.op_count, budget.inner_bound_value, sol.residual) == (op_count, inner_value, res)
    assert sum(maps.values()) == budget.maps_evaluated + 2
    assert budget.maps_evaluated == 1890


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
    # a small L: q differs by less than 1e-12 in absolute terms, 9x relatively
    small = build_system(dataclasses.replace(bench.problem, L=9e-13), bench.scheme)
    wrong_q = dataclasses.replace(prepare(small, 1e-3), L=1e-13)
    with pytest.raises(ValueError, match=r"do not match the system: q="):
        solve(small, wrong_q)


def _expression_system(k1, k2, g):
    prob = from_expressions(0.0, 1.0, k1_src=k1, k2_src=k2, g_src=g, M=0.5, L=0.5)
    return build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))


def test_solve_refuses_a_non_finite_shifted_forcing_term():
    # g and Phi(0) are finite, g - Phi(0) overflows; params from a sound system
    params = prepare(_expression_system("0", "0", "t"), 1e-3)
    sys_ = _expression_system("-1e308", "0", "1e308")
    with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
        solve(sys_, params)
    assert str(info.value) == "state vector contains non-finite entries"


def test_overflowing_outer_iterate_is_a_solver_error():
    # Phi(0) = +1e308 * (t - a) and Phi(xi) = -Phi(0) for xi != 0: their
    # difference overflows at step 1, while g = Phi(0) keeps ||g1|| finite
    scheme = build_scheme(make_grid(0.0, 1.0, 10), "midpoint")
    k1 = lambda t, s, x: np.where(x == 0.0, 1e308, -1e308) * (0.0 * t + 1.0)
    k2 = lambda t, s, x: 0.1 + 0.0 * (t * s * x)
    probe = Problem(a=0.0, b=1.0, k1=k1, k2=k2, g=lambda t: 0.0 * t, M=0.5, L=0.5)
    phi0 = phi(build_system(probe, scheme), np.zeros(scheme.dim))
    sys_ = build_system(dataclasses.replace(probe, g=lambda t: phi0.copy()), scheme)
    with np.errstate(over="ignore"), pytest.raises(SolverError) as info:
        solve(sys_, prepare(sys_, 1e-3))
    assert str(info.value) == "non-finite outer iterate at step 1"


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
    xi = _full_outer_loop(bench, params, lambda t, z: zs.append(z))[0]
    assert xi.tobytes() == solve(bench, params).xi.tobytes()
    assert len(zs) == params.n0 + 1
    m = params.m
    for t in range(m, params.n0 - m + 1):
        num = norm(bench, zs[t + m] - zs[t])
        den = norm(bench, zs[t] - zs[t - m])
        if den > 1e-14:
            assert num <= params.alpha * den * (1 + 1e-3)


def test_p_inverse_nonexpansive(bench):
    _, f0, g1 = bench.shift

    def F1(v):
        return fred(bench, v) - f0

    rng = np.random.default_rng(12345)
    for _ in range(5):
        cfg = ContinuationConfig(N=2, n0=20)
        z1 = g1 + rng.uniform(-0.5, 0.5, bench.dim)
        z2 = g1 + rng.uniform(-0.5, 0.5, bench.dim)
        d_out = norm(bench, p_inverse(F1, z1, cfg) - p_inverse(F1, z2, cfg))
        assert d_out <= norm(bench, z1 - z2) * (1 + 1e-3)


# ---------------------------------------------------------------------------
# how a failing inner map surfaces: exception type and text


def _c(t, s):
    return -0.1 * (1.0 + t * s)


def _failing(e, terms=True):
    # F < 0 pushes the iterates up from g1 = t <= 4 and past x = 5 at step 1
    return Problem(
        a=0.0, b=4.0, k1=lambda t, s, x: 0.0 * x, k2=lambda t, s, x: _c(t, s) * e(s, x),
        g=lambda t: 1.0 * t, M=0.0, L=1.2, k2_terms=((_c, e),) if terms else None,
    )


def _cell(j):
    return ValueError, f"fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j={j})"


def _ln(src, points, j):
    return EvalDomainError, (
        f"ln of a non-positive value in '{src}': {points} offending input point(s), "
        f"first at index (0, {j})"
    )


_E_INF = lambda s, x: np.where(x > 5.0, np.inf, x)
_BENCH = benchmark_problem()
_ITERATE = (
    SolverError,
    "non-finite iterate at level 1, step 1; "
    "the Lipschitz/monotonicity assumptions are likely violated",
)
# name -> (problem, {rule: (type, text)}); the same under both warning filters,
# except that "error" turns numpy's overflow warning into the exception
FAILING_MAPS = {
    "inf": (_failing(_E_INF), {"midpoint": _cell(11), "trapezoid": _cell(12)}),
    "inf, no terms": (
        _failing(_E_INF, terms=False), {"midpoint": _cell(11), "trapezoid": _cell(12)}
    ),
    "huge finite": (
        _failing(lambda s, x: np.where(x > 5.0, 1e308, x)),
        {"midpoint": _ITERATE, "trapezoid": _ITERATE},
    ),
    "mixed inf": (
        _failing(lambda s, x: np.where(x > 5.0, np.where(s > 2.0, np.inf, -np.inf), x)),
        {"midpoint": _cell(11), "trapezoid": _cell(12)},
    ),
    "ln(x)": (
        from_expressions(
            0.0, 1.0, "5*t*s*cos(x)", "(11/2)*t^2*s^2*ln(x)",
            "(11/8)*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)", _BENCH.M, _BENCH.L,
        ),
        {"midpoint": _ln("ln(x)", 400, 0), "trapezoid": _ln("ln(x)", 441, 0)},
    ),
    "ln(6 - x)": (
        from_expressions(0.0, 4.0, "0", "-(1/10)*t*s*ln(6 - x)", "t", 0.0, 1.2),
        {"midpoint": _ln("ln(6.0 - x)", 160, 12), "trapezoid": _ln("ln(6.0 - x)", 168, 13)},
    ),
}


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
@pytest.mark.parametrize("name", list(FAILING_MAPS))
def test_failing_inner_map_raises_its_exact_error(name, rule, action):
    prob, want = FAILING_MAPS[name]
    sys_ = build_system(prob, build_scheme(make_grid(prob.a, prob.b, 20), rule))
    if name == "huge finite" and action == "error":
        # numpy's text, naming the np.dot that sums the inner map's own table
        want = {rule: (RuntimeWarning, "overflow encountered in dot")}
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        # ln(x) fails already at F(0), in prepare's shift as in solve's
        params = derive_params(prob.M, prob.L, 1.0, 1e-3, n0=4)
        if name != "ln(x)":
            params = prepare(sys_, 1e-3, n0=4)
        with pytest.raises(Exception) as info:
            solve(sys_, params)
    assert (type(info.value), str(info.value)) == want[rule]


@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
@pytest.mark.parametrize("name", list(FAILING_MAPS))
def test_failing_inner_map_warns_from_its_own_sum_only(name, rule):
    # the replayed fred would print the overflow once more, as "matmul"
    prob, _ = FAILING_MAPS[name]
    sys_ = build_system(prob, build_scheme(make_grid(prob.a, prob.b, 20), rule))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        params = derive_params(prob.M, prob.L, 1.0, 1e-3, n0=4)
        if name != "ln(x)":
            params = prepare(sys_, 1e-3, n0=4)
        with pytest.raises(Exception):
            solve(sys_, params)
    seen = [(w.category, Path(w.filename).name, str(w.message)) for w in caught]
    if name == "huge finite":
        assert seen == [(RuntimeWarning, "discrete.py", "overflow encountered in dot")]
    else:
        assert seen == []
