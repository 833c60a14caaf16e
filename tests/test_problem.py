import numpy as np
import pytest

from vfsolve.discrete import build_system
from vfsolve.expr import ParseError, TokenizeError
from vfsolve.problem import (
    benchmark_problem,
    builtin_problem,
    check_assumptions,
    from_expressions,
)
from vfsolve.quadrature import build_scheme, make_grid

BENCH_SOURCES = dict(
    k1_src="5*t*s*cos(x)",
    k2_src="11/2*t^2*s^2*x",
    g_src="11/8*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)",
    exact_src="t",
)


def test_benchmark_fields():
    p = benchmark_problem()
    assert (p.a, p.b) == (0.0, 1.0)
    assert p.M == pytest.approx(np.sqrt(25.0 / 18.0), abs=0)
    assert p.L == 1.1
    assert p.exact(0.51) == 0.51
    assert p.g(0.0) == 0.0
    assert p.k1(1.0, 1.0, 0.0) == pytest.approx(5.0)
    assert p.k2(1.0, 1.0, 2.0) == pytest.approx(11.0)


def test_benchmark_forcing_identity():
    # substituting the exact solution into the equation must reproduce g:
    # 5t(t sin t + cos t - 1) + (11/8)t^2 + t == g(t)
    p = benchmark_problem()
    t = np.linspace(0.0, 1.0, 50)
    lhs = 5 * t * (t * np.sin(t) + np.cos(t) - 1.0) + 1.375 * t**2 + t
    assert np.max(np.abs(lhs - p.g(t))) < 1e-10


def test_builtin_registry():
    assert builtin_problem("benchmark").name == "benchmark"
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_problem("nope")


def test_from_expressions_matches_builtin():
    built = from_expressions(0.0, 1.0, M=np.sqrt(25 / 18), L=1.1, **BENCH_SOURCES)
    ref = benchmark_problem()
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, size=(100, 3))
    for t, s, x in pts:
        assert built.k1(t, s, x) == pytest.approx(ref.k1(t, s, x), rel=1e-12, abs=1e-15)
        assert built.k2(t, s, x) == pytest.approx(ref.k2(t, s, x), rel=1e-12, abs=1e-15)
        assert built.g(t) == pytest.approx(ref.g(t), rel=1e-12, abs=1e-15)
        assert built.exact(t) == pytest.approx(t, rel=1e-12, abs=0)


def test_separable_forms_reproduce_the_kernels():
    # the builtin's hand-written forms and the split expression forms
    t, s, x = np.random.default_rng(4).uniform(-2.0, 2.0, size=(3, 60))
    built = from_expressions(0.0, 1.0, M=np.sqrt(25 / 18), L=1.1, **BENCH_SOURCES)
    for p in (benchmark_problem(), built):
        for kernel, terms in ((p.k1, p.k1_terms), (p.k2, p.k2_terms)):
            ((c, e),) = terms
            assert np.array_equal(c(t, s) * e(s, x), kernel(t, s, x))
    mixed = from_expressions(0.0, 1.0, "cos(t*x)", "t*x + s", "t", M=1.0, L=1.0)
    assert mixed.k1_terms is None and len(mixed.k2_terms) == 2


def test_from_expressions_parse_errors_carry_offsets():
    with pytest.raises(TokenizeError) as err:
        from_expressions(0, 1, k1_src="t*s", k2_src="x", g_src="t$", M=1, L=1)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        from_expressions(0, 1, k1_src="sin(t,s)", k2_src="x", g_src="t", M=1, L=1)


def test_from_expressions_g_must_be_t_only():
    with pytest.raises(ParseError, match="only use the variable t"):
        from_expressions(0, 1, k1_src="0", k2_src="0", g_src="t+s", M=1, L=1)
    with pytest.raises(ParseError, match="only use the variable t"):
        from_expressions(0, 1, k1_src="0", k2_src="0", g_src="t", exact_src="x", M=1, L=1)


def test_problem_validation():
    with pytest.raises(ValueError, match="a < b"):
        from_expressions(1, 0, k1_src="0", k2_src="0", g_src="t", M=1, L=1)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        from_expressions(0, 1, k1_src="0", k2_src="0", g_src="t", M=-2, L=1)


# ---------------------------------------------------------------------------
# assumption audit

@pytest.fixture(scope="module")
def scheme():
    return build_scheme(make_grid(0.0, 1.0, 50), "midpoint")


def test_check_assumptions_benchmark(scheme):
    rep = check_assumptions(benchmark_problem(), scheme, pairs=1000)
    assert rep.samples == 1000
    assert rep.lipschitz_F_ratio_max <= 1.1
    assert rep.monotonicity_min > 0.0
    assert rep.lipschitz_Phi_ratio_max <= np.sqrt(25 / 18)
    assert rep.violations(benchmark_problem()) == []


def test_check_assumptions_detects_anti_monotone_kernel(scheme):
    bad = from_expressions(
        0.0, 1.0, k1_src="0", k2_src="-(5*x)", g_src="t", M=0.0, L=5.0
    )
    rep = check_assumptions(bad, scheme, pairs=200)
    assert rep.monotonicity_min < 0.0
    msgs = rep.violations(bad)
    assert any("not monotone" in m for m in msgs)


def test_check_assumptions_detects_understated_lipschitz(scheme):
    lying = from_expressions(
        0.0, 1.0, k1_src="0", k2_src="5*x", g_src="t", M=0.0, L=0.1
    )
    rep = check_assumptions(lying, scheme, pairs=200)
    msgs = rep.violations(lying)
    assert any("Lipschitz" in m for m in msgs)


def test_check_assumptions_requires_enough_pairs(scheme):
    with pytest.raises(ValueError, match="at least 100"):
        check_assumptions(benchmark_problem(), scheme, pairs=10)


def test_check_assumptions_seed_reproducible(scheme):
    a = check_assumptions(benchmark_problem(), scheme, pairs=150, seed=7)
    b = check_assumptions(benchmark_problem(), scheme, pairs=150, seed=7)
    assert a == b


def test_check_assumptions_uses_a_given_system(scheme):
    p = benchmark_problem()
    system = build_system(p, scheme)
    assert check_assumptions(p, scheme, pairs=150, seed=7, system=system) == check_assumptions(
        p, scheme, pairs=150, seed=7
    )
    with pytest.raises(ValueError, match="another problem or scheme"):
        check_assumptions(benchmark_problem(), scheme, pairs=150, system=system)


def test_check_assumptions_nonfinite_kernel_raises(scheme):
    # 1/(t-s) blows up on the diagonal of the Fredholm mesh
    weird = from_expressions(
        0.0, 1.0, k1_src="0", k2_src="1/(t-s)", g_src="t", M=0.0, L=1.0
    )
    with pytest.raises(Exception):
        check_assumptions(weird, scheme, pairs=100)
