import dataclasses
import math
import warnings

import numpy as np
import pytest

from vfsolve.discrete import (
    build_system, fred, inner, k1_table, k2_table, norm, phi, residual, shifted_fred,
)
from vfsolve.expr import EvalDomainError, parse_expression, split_terms
from vfsolve.hybrid import prepare, solve
from vfsolve.problem import benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid


def _system(k1="0", k2="0", g="t", n=10, rule="midpoint", **kw):
    p = from_expressions(0.0, 1.0, k1_src=k1, k2_src=k2, g_src=g, M=1.0, L=1.0, **kw)
    return build_system(p, build_scheme(make_grid(0.0, 1.0, n), rule))


def test_g_vec_sampled_at_nodes(bench):
    assert bench.dim == 50
    assert np.allclose(bench.g_vec, benchmark_problem().g(bench.scheme.nodes))


def test_g_vec_shares_no_memory_with_the_nodes():
    # g = t hands its argument back: the system keeps a copy, so a write
    # into g_vec or the nodes leaves the other as it was
    p = from_expressions(0, 4, "0", "-(1/10)*t*s*ln(6 - x)", "t", 0.0, 1.2)
    scheme = build_scheme(make_grid(0, 4, 8), "midpoint")
    sys = build_system(p, scheme)
    assert not np.shares_memory(sys.g_vec, scheme.nodes)
    assert sys.g_vec.tobytes() == scheme.nodes.tobytes()
    sys.g_vec[0] = -1.0
    assert scheme.nodes[0] == 0.25


def test_phi_at_zero_matches_analytic_cubic(bench):
    # k1(t, s, 0) = 5ts, so phi_i(0) ~ 5 t_i * t_i^2/2 = 2.5 t_i^3 up to O(h^2)
    h = bench.scheme.grid.h
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
    h = bench.scheme.grid.h
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
    calls = []

    def bad(t, s, x):
        calls.append(t)
        return np.where((t == 0.0) | (s > 0.5), np.nan, t)

    p = benchmark_problem()
    prob = type(p)(a=0.0, b=1.0, k1=bad, k2=bad, g=p.g, M=p.M, L=p.L)
    sys = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), rule))
    calls.clear()
    with pytest.raises(ValueError) as info:
        (phi if which == "phi" else fred)(sys, np.zeros(sys.dim))
    assert str(info.value) == want
    assert len(calls) == 1  # a kernel without a form: its table is searched, not rebuilt


@pytest.mark.parametrize(
    "which, want",
    [
        ("phi", "volterra kernel k1 evaluated non-finite at mesh cell (i=0, j=0)"),
        ("fred", "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=0)"),
    ],
)
def test_mixed_infinite_kernel_names_cell_under_warnings_as_errors(which, want):
    # +inf and -inf in one row make numpy warn about the weighted sum; with
    # warnings turned into errors the caller still gets the cell, not the warning
    def bad(t, s, x):
        return np.where(s > 0.5, np.inf, -np.inf) * t

    p = benchmark_problem()
    prob = type(p)(a=0.0, b=1.0, k1=bad, k2=bad, g=p.g, M=p.M, L=p.L)
    sys = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
        "sqrt of a negative value in 'sqrt(s - 0.5)': "
        f"{count} offending input point(s), first at index (0, 0)"
    )
    with pytest.raises(EvalDomainError) as info:
        (fred if which == "fred" else phi)(sys, np.zeros(11))
    assert str(info.value) == want


# ---------------------------------------------------------------------------
# separable kernels: tables from c_r(t, s) * e_r(s, x), bit-identical

SCHEMES = [
    ("midpoint", "half_cell"), ("midpoint", "full_cell"), ("trapezoid", None), ("simpson", None)
]


def _scheme(rule, rows, a=0.0, b=1.0, n=10):
    return build_scheme(make_grid(a, b, n), rule, midpoint_rows=rows or "half_cell")


def _without_terms(problem):
    return dataclasses.replace(problem, k1_terms=None, k2_terms=None)


def _same_maps(problem, scheme, states):
    split, dense = build_system(problem, scheme), build_system(_without_terms(problem), scheme)
    assert split.k1_split is not None and split.k2_split is not None
    assert dense.k1_split is None and dense.k2_split is None
    mask = split.volterra_mask
    for xi in states:
        assert np.array_equal(phi(split, xi), phi(dense, xi))
        assert np.array_equal(fred(split, xi), fred(dense, xi))
        assert np.array_equal(k2_table(split, xi), k2_table(dense, xi))
        assert np.array_equal(k1_table(split, xi)[mask], k1_table(dense, xi)[mask])
    # a (P, dim) stack of states gives the stack of their tables, bit for bit
    for sys_ in (split, dense):
        for table in (k1_table, k2_table):
            stacked = table(sys_, states)
            assert stacked.shape == (len(states), sys_.dim, sys_.dim)
            for p, xi in enumerate(states):
                np.testing.assert_array_equal(stacked[p], table(sys_, xi))


@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_builtin_split_maps_are_bit_identical(rule, rows):
    scheme = _scheme(rule, rows)
    rng = np.random.default_rng(41)
    _same_maps(benchmark_problem(), scheme, rng.uniform(-4.0, 4.0, size=(5, scheme.dim)))


# corpus kernels that split, finite on [0.1, 2] for states in [0.1, 2]
SPLIT_KERNELS = [
    "t + s*x", "t - s - x", "t^2 + s^2", "-t*s + x", "sin(t)*cos(s) + tan(x/4)",
    "exp(-t) + ln(t)", "sqrt(t*s) + abs(-x)", "pi*t + e", "(t+s)*(t-s)",
    "5*t*s*cos(x)", "11/2*t^2*s^2*x", "t^0.5 * x^3", "abs(t-s)^2 + sqrt(abs(s-x))",
    "-(t/2)*sin(x)", "x*t", "-(t*x + s)", "2*pi - 1", "sqrt(t - s)*x", "t*x + s",
]


@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_expression_split_maps_are_bit_identical(rule, rows):
    scheme = _scheme(rule, rows, a=0.1, b=2.0)
    states = np.random.default_rng(42).uniform(0.1, 2.0, size=(3, scheme.dim))
    for src in SPLIT_KERNELS:
        assert split_terms(parse_expression(src)) is not None, src
        # sqrt(t - s) is real only for s <= t: k1's table never leaves the triangle
        k2 = "0" if src == "sqrt(t - s)*x" else src
        problem = from_expressions(0.1, 2.0, k1_src=src, k2_src=k2, g_src="t", M=1.0, L=1.0)
        _same_maps(problem, scheme, states)


def test_unsplit_expression_keeps_the_kernel():
    sys_ = _system(k1="cos(t*x)", k2="t*x*x")
    assert sys_.problem.k1_terms is None and sys_.problem.k2_terms is None
    assert sys_.k1_split is None and sys_.k2_split is None


def _split_problem(k2, e, g=lambda t: 0.0 * t):
    p = benchmark_problem()
    return type(p)(
        a=0.0, b=1.0, k1=p.k1, k2=k2, g=g, M=p.M, L=p.L,
        k1_terms=p.k1_terms, k2_terms=((lambda t, s: t, e),),
    )


def _error_text(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


def test_split_domain_error_is_the_kernels():
    # e = ln(x) raises on its row; the kernel's table names its own point
    sys_ = _system(k2="t*ln(x)", g="1 + t")
    assert sys_.k2_split is not None
    xi = np.linspace(-1.0, 1.0, 10)
    dense = build_system(_without_terms(sys_.problem), sys_.scheme)
    want = (
        EvalDomainError,
        "ln of a non-positive value in 'ln(x)': 50 offending input point(s), "
        "first at index (0, 0)",
    )
    assert _error_text(fred, sys_, xi) == want
    assert _error_text(fred, dense, xi) == want
    assert _error_text(shifted_fred(sys_, np.zeros(10)), xi) == want


@pytest.mark.parametrize("warnings_as_errors", [False, True])
def test_split_product_overflow_is_the_kernels_error(warnings_as_errors):
    # finite factors whose product overflows: the compiled kernel raises on it
    sys_ = _system(k2="exp(700*t)*exp(700*x)", g="0")
    assert sys_.k2_split is not None
    want = (
        EvalDomainError,
        "non-finite result (overflow) in 'exp(700.0 * t) * exp(700.0 * x)': "
        "49 offending input point(s), first at index (0, 9)",
    )
    xi = np.linspace(0.0, 1.0, 10)
    dense = build_system(_without_terms(sys_.problem), sys_.scheme)
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        if warnings_as_errors:
            warnings.simplefilter("error")
        assert _error_text(fred, sys_, xi) == want
        assert _error_text(fred, dense, xi) == want
    if warnings_as_errors:
        # the inner map returns an overflow unchecked, unless numpy's warning
        # about it is an error: then its factors give way to the kernel
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _error_text(shifted_fred(sys_, np.zeros(10)), xi) == want


def test_split_infinite_factor_names_the_kernels_cell():
    e = lambda s, x: np.where(x > 0.5, np.inf, x)
    prob = _split_problem(lambda t, s, x: t * np.where(x > 0.5, np.inf, x), e)
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    assert sys_.k2_split is not None
    xi = np.linspace(0.0, 1.0, 10)
    dense = build_system(_without_terms(prob), sys_.scheme)
    want = (ValueError, "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=5)")
    assert _error_text(fred, sys_, xi) == want
    assert _error_text(fred, dense, xi) == want


@pytest.mark.parametrize(
    "which, want",
    [
        ("phi", "volterra kernel k1 evaluated non-finite at mesh cell (i=0, j=0)"),
        ("fred", "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=0)"),
    ],
)
def test_split_mixed_infinite_factor_under_warnings_as_errors(which, want):
    def bad(t, s, x):
        return np.where(s > 0.5, np.inf, -np.inf) * t

    terms = ((lambda t, s: t, lambda s, x: np.where(s > 0.5, np.inf, -np.inf)),)
    p = benchmark_problem()
    prob = type(p)(
        a=0.0, b=1.0, k1=bad, k2=bad, g=p.g, M=p.M, L=p.L, k1_terms=terms, k2_terms=terms
    )
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    assert sys_.k1_split is not None and sys_.k2_split is not None
    zero = np.zeros(sys_.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [_error_text(phi if which == "phi" else fred, sys_, zero)]
        if which == "fred":
            got.append(_error_text(shifted_fred(sys_, zero), zero))
    assert set(got) == {(ValueError, want)}


def test_stale_terms_raise_at_build():
    stale = dataclasses.replace(benchmark_problem(), k2=lambda t, s, x: 0.1 * t * s * x)
    with pytest.raises(ValueError) as info:
        build_system(stale, build_scheme(make_grid(0.0, 1.0, 10), "midpoint"))
    # the first check point (t_0, s_0 = t_9, g(t_0))
    assert str(info.value) == (
        "k2_terms do not match k2 at (t, s, x) = (0.05, 0.9500000000000001, "
        "0.05374980471462505): 0.0006670014828805504 from the terms, "
        "0.0002553115723944691 from the kernel"
    )


def test_rounding_difference_is_accepted():
    # a form that rounds differently from its kernel, within 1e-12, is used
    p = benchmark_problem()
    terms = ((lambda t, s: 5.5 * (t * t), lambda s, x: (s * s) * x),)
    prob = dataclasses.replace(p, k2_terms=terms)
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 50), "midpoint"))
    xi = np.linspace(-1.0, 1.0, 50)
    want = fred(build_system(_without_terms(prob), sys_.scheme), xi)
    assert np.max(np.abs(fred(sys_, xi) - want)) <= 1e-14 * np.max(np.abs(want))


def test_raising_factor_keeps_the_kernel_and_its_first_error():
    # c = ln(t) raises at the trapezoid's t = 0: the kernel serves alone
    sys_ = _system(k2="ln(t)*x", rule="trapezoid")
    assert sys_.problem.k2_terms is not None and sys_.k2_terms is None and sys_.k2_split is None
    want = (
        EvalDomainError,
        "ln of a non-positive value in 'ln(t)': 11 offending input point(s), "
        "first at index (0, 0)",
    )
    assert _error_text(fred, sys_, np.zeros(11)) == want


def test_c_table_that_raises_keeps_the_kernel():
    # c passes the check on the anti-diagonal t + s = 1 but raises on the
    # whole (t, s) table, so k2's tables come from the kernel
    def c(t, s):
        if np.any(t + s > 1.5):
            raise ArithmeticError("c refuses t + s > 1.5")
        return 5.5 * (t * t) * (s * s)

    prob = dataclasses.replace(benchmark_problem(), k2_terms=((c, lambda s, x: x),))
    sys_ = build_system(prob, _scheme("midpoint", "half_cell"))
    assert sys_.k2_terms is not None and sys_.k2_split is None
    xi = np.linspace(-1.0, 1.0, 10)
    dense = build_system(_without_terms(prob), sys_.scheme)
    assert np.array_equal(fred(sys_, xi), fred(dense, xi))


def test_non_finite_split_map_names_the_kernels_error():
    # 1e300*t*x overflows in the split table and in the kernel; the kernel's
    # own evaluation names the error
    sys_ = _system(k1="1e300*t*x", k2="(11/2)*t^2*s^2*x")
    assert sys_.k1_split is not None
    with np.errstate(over="ignore"):
        got = _error_text(phi, sys_, np.full(10, 1e10))
    assert got == (
        EvalDomainError,
        "non-finite result (overflow) in '1e+300 * t * x': "
        "100 offending input point(s), first at index (0, 0)",
    )


def test_split_calls_the_kernels_only_to_check_them():
    calls = {"k1": 0, "k2": 0}

    def counted(name, fn):
        def kernel(t, s, x):
            calls[name] += 1
            return fn(t, s, x)
        return kernel

    bp = benchmark_problem()
    prob = dataclasses.replace(bp, k1=counted("k1", bp.k1), k2=counted("k2", bp.k2))
    sys_ = build_system(prob, build_scheme(make_grid(0.0, 1.0, 10), "trapezoid"))
    assert calls == {"k1": 1, "k2": 1}
    for xi in np.random.default_rng(43).uniform(-2.0, 2.0, size=(5, 11)):
        residual(sys_, xi)
        shifted_fred(sys_, sys_.shift[1])(xi)
    assert calls == {"k1": 1, "k2": 1}


# ---------------------------------------------------------------------------
# shifted_fred: the continuation's inner map fred(v) - f0, built once per solve

def _inner_map_system(k2, rule="midpoint", rows="half_cell", n=10):
    """The builtin, a two-term expression form, or the builtin's lambda k2
    without its terms."""
    scheme = _scheme(rule, rows, n=n)
    if k2 == "builtin":
        return build_system(benchmark_problem(), scheme)
    if k2 == "two terms":
        prob = from_expressions(
            0.0, 1.0, k1_src="0", k2_src="t*s*x + t*sin(x)", g_src="t", M=1.0, L=1.0
        )
        return build_system(prob, scheme)
    return build_system(_without_terms(benchmark_problem()), scheme)


@pytest.mark.parametrize("k2", ["builtin", "two terms", "no terms"])
@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_shifted_fred_is_fred_minus_f0(rule, rows, k2):
    sys_ = _inner_map_system(k2, rule, rows)
    terms = {"builtin": 1, "two terms": 2, "no terms": None}[k2]
    assert (sys_.k2_split and len(sys_.k2_split)) == terms
    rng = np.random.default_rng(44)
    states = rng.uniform(-2.0, 2.0, size=(3, sys_.dim))
    shifts = (np.zeros(sys_.dim), rng.uniform(-1.0, 1.0, sys_.dim), sys_.shift[1])
    for f0 in shifts:
        mapped = shifted_fred(sys_, f0)
        for v in states:
            assert mapped(v).tobytes() == (fred(sys_, v) - f0).tobytes()


# grid sizes from 1 to 401 nodes, on both sides of dim 50, where a BLAS gemv
# may split its sums differently
@pytest.mark.parametrize("cells", [1, 2, 3, 7, 16, 51, 64, 200, 400])
@pytest.mark.parametrize("rule, rows", [("midpoint", "half_cell"), ("trapezoid", None)])
@pytest.mark.parametrize("k2", ["builtin", "two terms"])
def test_shifted_fred_sums_like_fred_at_every_size(k2, rule, rows, cells):
    # the map sums its own buffer with np.dot, fred its table with @
    sys_ = _inner_map_system(k2, rule, rows, n=cells)
    assert sys_.k2_split is not None
    rng = np.random.default_rng(cells)
    f0 = sys_.shift[1]
    mapped = shifted_fred(sys_, f0)
    for v in rng.uniform(-2.0, 2.0, size=(2, sys_.dim)):
        assert mapped(v).tobytes() == (fred(sys_, v) - f0).tobytes()


def test_shifted_fred_keeps_each_result_and_shares_no_buffer():
    sys_ = _inner_map_system("two terms")
    f0 = sys_.shift[1]
    u, v = np.random.default_rng(45).uniform(-2.0, 2.0, size=(2, sys_.dim))
    first, second = shifted_fred(sys_, f0), shifted_fred(sys_, f0)
    at_u = first(u)
    kept = at_u.copy()
    at_v = first(v)
    assert at_u.tobytes() == kept.tobytes()
    assert not np.shares_memory(at_u, at_v)
    # two maps of one system, called alternately, give the same bytes
    want = {x.tobytes(): (fred(sys_, x) - f0).tobytes() for x in (u, v)}
    for x in (u, v, u, v):
        assert first(x).tobytes() == want[x.tobytes()]
        assert second(x).tobytes() == want[x.tobytes()]


def test_shifted_fred_subtracts_an_f0_holding_negative_zero():
    # x - (-0.0) differs from x only at x = -0.0, which a weighted sum does
    # not return, so the subtraction is watched on f0 itself
    seen = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            seen.append(ufunc.__name__)
            inputs = [np.asarray(a) for a in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    sys_ = _inner_map_system("builtin")
    v = np.linspace(-1.0, 1.0, sys_.dim)
    for zeros, subtracts in (([0.0], False), ([0.0, -0.0], True), ([-0.0], True)):
        f0 = np.resize(np.array(zeros), sys_.dim).view(Watched)
        mapped = shifted_fred(sys_, f0)
        seen.clear()
        out = mapped(v)
        assert ("subtract" in seen) == subtracts
        assert type(out) is np.ndarray
        assert out.tobytes() == (fred(sys_, v) - np.asarray(f0)).tobytes()


# ---------------------------------------------------------------------------
# the separable-table writer: every row a factor may return, every state shape


def _kernel_of(terms):
    """The kernel sum_r c_r(t, s) * e_r(s, x), summed from the left."""
    def kernel(t, s, x):
        vals = None
        for c, e in terms:
            term = c(t, s) * e(s, x)
            vals = term if vals is None else vals + term
        return vals
    return kernel


def test_inner_maps_of_one_system_share_no_buffer():
    # the second factor runs the other map of the same system while the first
    # map's table holds its first term: a shared buffer would lose that term
    pending = []

    def e2(s, x):
        if pending and x.ndim == 1:
            pending.pop()(1.0 - x)
        return np.sin(x)

    terms = ((lambda t, s: t * s, lambda s, x: x), (lambda t, s: t + s, e2))
    prob = dataclasses.replace(benchmark_problem(), k2=_kernel_of(terms), k2_terms=terms)
    sys_ = build_system(prob, _scheme("trapezoid", None))
    assert sys_.k2_split is not None
    f0 = sys_.shift[1]
    first, second = shifted_fred(sys_, f0), shifted_fred(sys_, f0)
    v = np.random.default_rng(47).uniform(-2.0, 2.0, sys_.dim)
    want = (fred(sys_, v) - f0).tobytes()
    for mapped, other in ((first, second), (second, first)):
        pending.append(other)
        assert mapped(v).tobytes() == want
        assert not pending


def _c(t, s):
    return 5.5 * (t * t) * (s * s)


WRITER_DIM = 11  # trapezoid on 10 cells

# forms whose kernel repeats their operations, so the tables agree bit for bit;
# each e_r result is a kind the writer copies into its table
WRITER_FORMS = {
    "state itself": ((_c, lambda s, x: x),),
    "row": ((_c, lambda s, x: np.sin(s) * x),),
    "python scalar": ((_c, lambda s, x: 2.5),),
    "0-d array": ((_c, lambda s, x: np.array(-1.25)),),
    "table": (
        (_c, lambda s, x: np.array(np.broadcast_to(x, x.shape[:-2] + (WRITER_DIM,) * 2))),
    ),
    "int64": ((_c, lambda s, x: np.round(4.0 * x).astype(np.int64)),),
    "float32": ((_c, lambda s, x: np.asarray(x, dtype=np.float32)),),
    "two terms": ((_c, lambda s, x: x), (lambda t, s: t + s, lambda s, x: np.cos(x))),
    "x-free first term": ((_c, lambda s, x: 2.5), (lambda t, s: t - s, lambda s, x: x)),
    "x-free second term": ((_c, lambda s, x: x), (lambda t, s: t - s, lambda s, x: 2.5)),
}
X_FREE = {"python scalar", "0-d array"}


def _product(sys_, terms, v):
    """The form's table as numpy's broadcast multiply gives it: c_r * e_r
    term by term, summed from the left, for a state or a stack of them."""
    nodes = sys_.scheme.nodes
    t, s = nodes[:, None], nodes[None, :]
    vals = None
    for c, e in terms:
        term = np.broadcast_to(c(t, s), (sys_.dim,) * 2) * e(s, v[..., None, :])
        vals = term if vals is None else vals + term
    return np.broadcast_to(vals, v.shape[:-1] + (sys_.dim,) * 2)


@pytest.mark.parametrize("form", list(WRITER_FORMS))
def test_writer_tables_are_the_products_and_the_kernels(form):
    terms = WRITER_FORMS[form]
    kernel, calls = _kernel_of(terms), []

    def counted(t, s, x):
        calls.append(x.shape)
        return kernel(t, s, x)

    prob = dataclasses.replace(
        benchmark_problem(), k1=counted, k2=counted, k1_terms=terms, k2_terms=terms
    )
    sys_ = build_system(prob, _scheme("trapezoid", None))
    plain = dataclasses.replace(_without_terms(prob), k1=kernel, k2=kernel)
    dense = build_system(plain, sys_.scheme)
    assert sys_.dim == WRITER_DIM
    assert sys_.k1_split is not None and sys_.k2_split is not None
    # once each to check the form, and never after: the writer served every table
    assert len(calls) == 2
    mask = sys_.volterra_mask
    rng = np.random.default_rng(46)
    # a state, a (P, dim) stack and a (P1, P2, dim) stack
    for v in (rng.uniform(-2.0, 2.0, shape + (WRITER_DIM,)) for shape in ((), (3,), (2, 3))):
        kept = v.copy()
        got = k2_table(sys_, v)
        assert got.shape == v.shape[:-1] + (WRITER_DIM,) * 2
        assert got.tobytes() == _product(sys_, terms, v).tobytes()
        assert got.tobytes() == k2_table(dense, v).tobytes()
        got1 = k1_table(sys_, v)
        assert got1.shape == got.shape
        assert got1[..., mask].tobytes() == k1_table(dense, v)[..., mask].tobytes()
        if v.ndim > 1 and form in X_FREE:
            # terms free of x give one table, broadcast to the stack
            assert got.strides[: v.ndim - 1] == (0,) * (v.ndim - 1)
        assert not np.shares_memory(got, v) and not np.shares_memory(got1, v)
        assert v.tobytes() == kept.tobytes()
    # the inner map writes the same table into its own buffer
    f0 = sys_.shift[1]
    mapped = shifted_fred(sys_, f0)
    for v in rng.uniform(-2.0, 2.0, size=(2, WRITER_DIM)):
        kept = v.copy()
        assert mapped(v).tobytes() == (fred(dense, v) - f0).tobytes()
        assert v.tobytes() == kept.tobytes()
    assert len(calls) == 2


def _refuse(row):
    raise ArithmeticError("this factor refuses large states")


# e = (s*s)*x for states up to 10, else a raise, a row that does not
# broadcast to the table, or a complex row that does not cast to float
FALLBACK_ROWS = {
    "raises": _refuse,
    "shape": lambda row: np.append(row, 0.0),
    "complex": lambda row: row + 0j,
}


@pytest.mark.parametrize("bad", list(FALLBACK_ROWS))
def test_unusable_factor_result_gets_the_kernels_table(bad):
    def e(s, x):
        row = (s * s) * x
        return FALLBACK_ROWS[bad](row) if np.max(x) > 10.0 else row

    # 5.5*t^2 * (s^2*x) rounds apart from the kernel's 5.5*t^2*s^2*x in some
    # cells, so the two tables tell which one served
    prob = dataclasses.replace(benchmark_problem(), k2_terms=((lambda t, s: 5.5 * (t * t), e),))
    sys_ = build_system(prob, _scheme("trapezoid", None))
    dense = build_system(_without_terms(prob), sys_.scheme)
    assert sys_.k2_split is not None
    rng = np.random.default_rng(48)
    small = rng.uniform(-2.0, 2.0, (3, sys_.dim))
    large = small.copy()
    large[:, 4] = 20.0
    for states, served in ((small, sys_), (large, dense)):
        for v in (states[0], states):
            assert k2_table(sys_, v).tobytes() == k2_table(served, v).tobytes()
    assert k2_table(sys_, small).tobytes() != k2_table(dense, small).tobytes()
    f0 = sys_.shift[1]
    mapped = shifted_fred(sys_, f0)
    assert mapped(large[0]).tobytes() == (fred(dense, large[0]) - f0).tobytes()


@pytest.mark.parametrize("warnings_as_errors", [False, True])
def test_split_multiply_overflow_names_the_kernels_cell(warnings_as_errors):
    # finite factors whose product overflows in the writer's multiply; the
    # kernel gives the same inf without a warning, and names its cell
    def kernel(t, s, x):
        with np.errstate(over="ignore"):
            return (1e200 * t) * (1e150 * x)

    terms = ((lambda t, s: 1e200 * t, lambda s, x: 1e150 * x),)
    prob = dataclasses.replace(
        benchmark_problem(), k1=kernel, k2=kernel, g=lambda t: 0.0 * t,
        k1_terms=terms, k2_terms=terms,
    )
    sys_ = build_system(prob, _scheme("midpoint", "half_cell"))
    dense = build_system(_without_terms(prob), sys_.scheme)
    assert sys_.k1_split is not None and sys_.k2_split is not None
    xi = np.linspace(0.0, 1e10, sys_.dim)
    zero = np.zeros(sys_.dim)
    with warnings.catch_warnings():
        warnings.simplefilter("error" if warnings_as_errors else "ignore")
        for fn, want in (
            (phi, "volterra kernel k1 evaluated non-finite at mesh cell (i=1, j=1)"),
            (fred, "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=1)"),
        ):
            assert _error_text(fn, sys_, xi) == _error_text(fn, dense, xi) == (ValueError, want)
        got = shifted_fred(sys_, zero)(xi)
        assert got.tobytes() == shifted_fred(dense, zero)(xi).tobytes()
    assert np.isinf(got).all()


def test_complex_form_is_not_used():
    # np.equal calls x + 0j equal to x, so the check alone passes this form,
    # whose tables would be complex
    terms = ((lambda t, s: 5.5 * (t * t) * (s * s), lambda s, x: x + 0j),)
    prob = dataclasses.replace(benchmark_problem(), k2_terms=terms)
    termless = dataclasses.replace(prob, k2_terms=None)
    scheme = build_scheme(make_grid(0.0, 1.0, 10), "midpoint")
    sys_, plain = build_system(prob, scheme), build_system(termless, scheme)
    assert sys_.problem.k2_terms is not None and sys_.k2_terms is None and sys_.k2_split is None
    assert sys_.k1_split is not None
    xi = np.linspace(-1.0, 1.0, 10)
    got = fred(sys_, xi)
    assert got.dtype == np.float64 and got.tobytes() == fred(plain, xi).tobytes()
    want = solve(plain, prepare(plain, 1e-1)).xi
    assert solve(sys_, prepare(sys_, 1e-1)).xi.tobytes() == want.tobytes()


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
