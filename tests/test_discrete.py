import math

import numpy as np
import pytest

from vfsolve.discrete import build_system, fred, inner, norm, phi, residual
from vfsolve.expr import EvalDomainError
from vfsolve.problem import benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid


@pytest.fixture(scope="module")
def bench():
    scheme = build_scheme(make_grid(0.0, 1.0, 50), "midpoint")
    return build_system(benchmark_problem(), scheme)


def _system(k1="0", k2="0", g="t", n=10, rule="midpoint", **kw):
    p = from_expressions(0.0, 1.0, k1_src=k1, k2_src=k2, g_src=g, M=1.0, L=1.0, **kw)
    return build_system(p, build_scheme(make_grid(0.0, 1.0, n), rule))


def test_g_vec_sampled_at_nodes(bench):
    assert bench.dim == 50
    assert np.allclose(bench.g_vec, benchmark_problem().g(bench.scheme.nodes))


def test_phi_at_zero_matches_analytic_cubic(bench):
    # k1(t, s, 0) = 5ts, so phi_i(0) ~ 5 t_i * t_i^2/2 = 2.5 t_i^3 up to O(h^2)
    h = bench.grid.h
    got = phi(bench, np.zeros(50))
    want = 2.5 * bench.scheme.nodes**3
    assert np.max(np.abs(got - want)) < 5 * h**2


def test_phi_zero_kernel_is_zero():
    sys = _system(k1="0", k2="11/2*t^2*s^2*x")
    assert np.all(phi(sys, np.ones(10)) == 0.0)


def test_phi_dim_mismatch(bench):
    with pytest.raises(ValueError, match="dimension"):
        phi(bench, np.zeros(49))


def test_fred_at_zero_is_zero_for_linear_kernel(bench):
    assert np.all(fred(bench, np.zeros(50)) == 0.0)


def test_fred_at_ones_matches_analytic(bench):
    # k2(t, s, 1) = (11/2) t^2 s^2 integrates to 11 t^2 / 6 over [0, 1]
    h = bench.grid.h
    got = fred(bench, np.ones(50))
    want = 11.0 * bench.scheme.nodes**2 / 6.0
    assert np.max(np.abs(got - want)) < 5 * h**2


def test_fred_constant_kernel_gives_interval_length():
    sys = _system(k2="1")
    assert np.allclose(fred(sys, np.zeros(10)), 1.0, atol=1e-14)
    sys2 = build_system(
        from_expressions(2.0, 5.0, k1_src="0", k2_src="1", g_src="t", M=0, L=0),
        build_scheme(make_grid(2.0, 5.0, 9), "midpoint"),
    )
    assert np.allclose(fred(sys2, np.zeros(9)), 3.0, atol=1e-13)


def test_inner_and_norm_basics(bench):
    ones = np.ones(50)
    assert inner(bench, ones, ones) == pytest.approx(1.0, abs=1e-13)
    assert norm(bench, ones) == pytest.approx(1.0, abs=1e-13)
    assert norm(bench, np.zeros(50)) == 0.0
    # symmetric weights: an odd vector is orthogonal to an even one
    u = bench.scheme.nodes - 0.5
    v = np.ones(50)
    assert inner(bench, u, v) == pytest.approx(0.0, abs=1e-14)


def test_inner_commutative(bench):
    rng = np.random.default_rng(11)
    for _ in range(20):
        u, v = rng.standard_normal((2, 50))
        assert inner(bench, u, v) == inner(bench, v, u)


def test_norm_axioms(bench):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        u, v = rng.standard_normal((2, 50))
        nu, nv, ns = norm(bench, u), norm(bench, v), norm(bench, u + v)
        assert ns <= nu + nv + 1e-12
        assert norm(bench, 3.0 * u) == pytest.approx(3.0 * nu, rel=1e-12)
    assert norm(bench, rng.standard_normal(50)) > 0


def test_residual_zero_kernels_at_g():
    sys = _system(k1="0", k2="0", g="t^2")
    assert residual(sys, sys.g_vec) == 0.0


def test_residual_at_zero_state(bench):
    # with xi = 0 the defect is Phi(0) + F(0) - g
    z = np.zeros(50)
    want = norm(bench, phi(bench, z) + fred(bench, z) - bench.g_vec)
    assert residual(bench, z) == pytest.approx(want, rel=1e-15)
    assert residual(bench, z) > 0


def test_nonfinite_state_rejected(bench):
    bad = np.zeros(50)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        phi(bench, bad)


def test_kernel_domain_error_carries_location():
    sys = _system(k1="ln(x)", k2="0")
    with pytest.raises(Exception, match="ln"):
        phi(sys, np.zeros(10))  # ln(0) on every active cell


def test_nonfinite_lambda_kernel_names_cell():
    p = benchmark_problem()
    bad = type(p)(
        a=0.0, b=1.0,
        k1=lambda t, s, x: np.where(s > 0.5, np.inf, t),
        k2=p.k2, g=p.g, M=p.M, L=p.L, exact=p.exact, name="broken",
    )
    sys = build_system(bad, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    with pytest.raises(ValueError, match=r"k1 evaluated non-finite at mesh cell"):
        phi(sys, np.zeros(10))


@pytest.mark.parametrize(
    "rule, which, want",
    [
        ("midpoint", "phi", "volterra kernel k1 evaluated non-finite at mesh cell (i=5, j=5)"),
        ("midpoint", "fred", "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=5)"),
        # row 0 of a trapezoid table has zero weight, so its cells are discarded
        ("trapezoid", "phi", "volterra kernel k1 evaluated non-finite at mesh cell (i=6, j=6)"),
        ("trapezoid", "fred", "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=0)"),
    ],
)
def test_nonfinite_lambda_kernel_names_first_cell(rule, which, want):
    def bad(t, s, x):
        return np.where((t == 0.0) | (s > 0.5), np.nan, t)

    p = benchmark_problem()
    prob = type(p)(a=0.0, b=1.0, k1=bad, k2=bad, g=p.g, M=p.M, L=p.L)
    sys = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), rule))
    with pytest.raises(ValueError) as info:
        (phi if which == "phi" else fred)(sys, np.zeros(sys.dim))
    assert str(info.value) == want


@pytest.mark.parametrize(
    "kernel, table",
    [
        (lambda t, s, x: 0.0, lambda t, s: 0.0 * t * s),
        (lambda t, s, x: 2.5, lambda t, s: 2.5 + 0.0 * t * s),
        (lambda t, s, x: t * t, lambda t, s: t * t + 0.0 * s),
        (lambda t, s, x: 3.0 * s, lambda t, s: 3.0 * s + 0.0 * t),
    ],
    ids=["zero", "constant", "t-only", "s-only"],
)
@pytest.mark.parametrize("rule", ["midpoint", "trapezoid"])
def test_lower_rank_kernel_results_broadcast(kernel, table, rule):
    p = benchmark_problem()
    prob = type(p)(a=0.0, b=1.0, k1=kernel, k2=kernel, g=p.g, M=1.0, L=1.0)
    scheme = build_scheme(make_grid(0.0, 1.0, 8), rule)
    sys_ = build_system(prob, scheme)
    t = scheme.nodes[:, None]
    s = np.where(scheme.volterra_weights != 0.0, scheme.nodes[None, :], scheme.nodes[0])
    xi = np.linspace(-1.0, 1.0, sys_.dim)
    want_phi = (scheme.volterra_weights * table(t, s)).sum(axis=1)
    want_fred = (scheme.global_weights * table(t, scheme.nodes[None, :])).sum(axis=1)
    assert phi(sys_, xi) == pytest.approx(want_phi, rel=1e-14, abs=1e-15)
    assert fred(sys_, xi) == pytest.approx(want_fred, rel=1e-14, abs=1e-15)


def test_domain_error_text_t_only_kernel_through_fred():
    sys = _system(k2="ln(t)", rule="trapezoid")
    want = (
        "ln of a non-positive value in 'ln(t)': "
        "11 offending input point(s), first at index (0, 0)"
    )
    with pytest.raises(EvalDomainError) as info:
        fred(sys, np.zeros(11))
    assert str(info.value) == want


@pytest.mark.parametrize("which, count", [("fred", 55), ("phi", 100)])
def test_domain_error_text_s_only_kernel(which, count):
    src = "sqrt(s - 0.5)"
    kernels = {"k2": src} if which == "fred" else {"k1": src}
    sys = _system(rule="trapezoid", **kernels)
    want = (
        "sqrt of a negative value in 'sqrt((s - 0.5))': "
        f"{count} offending input point(s), first at index (0, 0)"
    )
    with pytest.raises(EvalDomainError) as info:
        (fred if which == "fred" else phi)(sys, np.zeros(11))
    assert str(info.value) == want


# ---------------------------------------------------------------------------
# operator property audits (fixed seed, weighted norm)

def test_fred_lipschitz_audit(bench):
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        u, v = rng.uniform(-4.0, 4.0, size=(2, 50))
        d = norm(bench, u - v)
        if d == 0:
            continue
        worst = max(worst, norm(bench, fred(bench, u) - fred(bench, v)) / d)
    assert worst <= 1.1 * (1 + 1e-9)


def test_fred_monotonicity_audit(bench):
    rng = np.random.default_rng(12345)
    smallest = np.inf
    for _ in range(1000):
        u, v = rng.uniform(-4.0, 4.0, size=(2, 50))
        if np.array_equal(u, v):
            continue
        smallest = min(
            smallest, inner(bench, fred(bench, u) - fred(bench, v), u - v)
        )
    assert smallest > 0.0


def test_phi_power_contraction_audit(bench):
    # m-fold composition contracts by M^m / sqrt((m-1)!) for m = 8
    m = 8
    M = benchmark_problem().M
    bound = M**m / math.sqrt(math.factorial(m - 1))
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(200):
        u, v = rng.uniform(-4.0, 4.0, size=(2, 50))
        pu, pv = u, v
        for _ in range(m):
            pu, pv = phi(bench, pu), phi(bench, pv)
        d = norm(bench, u - v)
        if d > 0:
            worst = max(worst, norm(bench, pu - pv) / d)
    assert worst <= bound * (1 + 1e-6)


def test_shift_identity(bench):
    # shifted system (Phi1, F1, g1) has the same residual as the original
    z = np.zeros(50)
    phi0, f0 = phi(bench, z), fred(bench, z)
    g1 = bench.g_vec - phi0 - f0
    rng = np.random.default_rng(8)
    for _ in range(25):
        xi = rng.uniform(-2.0, 2.0, 50)
        shifted = norm(
            bench,
            xi + (phi(bench, xi) - phi0) + (fred(bench, xi) - f0) - g1,
        )
        assert shifted == pytest.approx(residual(bench, xi), abs=1e-14)
