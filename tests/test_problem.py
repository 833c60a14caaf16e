import dataclasses
import warnings

import numpy as np
import pytest

from vfsolve.discrete import build_system, fred, inner, norm, phi
from vfsolve.expr import EvalDomainError, ParseError, TokenizeError
from vfsolve.problem import (
    DEFAULT_SEED,
    AssumptionReport,
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


@pytest.mark.parametrize("box", [0.0, -1.0, np.inf])
def test_check_assumptions_rejects_a_bad_box(scheme, box):
    with pytest.raises(ValueError) as info:
        check_assumptions(benchmark_problem(), scheme, pairs=100, x_box=box)
    assert str(info.value) == f"x_box must be positive and finite, got {box}"


def test_forcing_term_of_the_wrong_shape_is_refused(scheme):
    prob = dataclasses.replace(benchmark_problem(), g=lambda t: np.zeros(3))
    with pytest.raises(ValueError) as info:
        build_system(prob, scheme)
    assert str(info.value) == "g returned shape (3,) for (50,) nodes"


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
    with pytest.raises(EvalDomainError) as err:
        check_assumptions(weird, scheme, pairs=100)
    assert str(err.value) == (
        "division by zero in '1.0 / (t - s)': 50 offending input point(s), "
        "first at index (0, 0)"
    )


def test_check_assumptions_names_a_nonfinite_forcing_term(scheme):
    # the box comes from the system's g on the nodes, so build_system names g
    bad_g = dataclasses.replace(benchmark_problem(), g=lambda t: np.where(t > 0.5, np.inf, t))
    with pytest.raises(ValueError) as err:
        check_assumptions(bad_g, scheme, pairs=100)
    assert str(err.value) == "g is non-finite at node 25 (t = 0.51)"


def _pair_loop_audit(problem, scheme, pairs, seed=DEFAULT_SEED):
    """The audit one pair at a time through the checked maps: the reference."""
    system = build_system(problem, scheme)
    box = 2.0 * float(np.max(np.abs(system.g_vec)))  # g is nonzero on every grid here
    rng = np.random.default_rng(seed)
    f_ratio, mono, phi_ratio, used = 0.0, np.inf, 0.0, 0
    for _ in range(pairs):
        u = rng.uniform(-box, box, system.dim)
        v = rng.uniform(-box, box, system.dim)
        dn = norm(system, u - v)
        if dn == 0.0:
            continue
        df = fred(system, u) - fred(system, v)
        dp = phi(system, u) - phi(system, v)
        f_ratio = max(f_ratio, norm(system, df) / dn)
        mono = min(mono, inner(system, df, u - v) / dn**2)
        phi_ratio = max(phi_ratio, norm(system, dp) / dn)
        used += 1
    return AssumptionReport(f_ratio, float(mono), phi_ratio, used, box)


def _bits(report):
    """Every report field, floats by float.hex so that the sign of zero counts."""
    return tuple(
        value.hex() if isinstance(value, float) else value
        for value in dataclasses.astuple(report)
    )


BENCH_G = BENCH_SOURCES["g_src"]
M_BENCH = float(np.sqrt(25 / 18))
AUDITED = {
    "builtin": benchmark_problem,
    "builtin_unsplit": lambda: dataclasses.replace(
        benchmark_problem(), k1_terms=None, k2_terms=None
    ),
    "expressions": lambda: from_expressions(0.0, 1.0, M=M_BENCH, L=1.1, **BENCH_SOURCES),
    "mixed_unsplit": lambda: from_expressions(
        0.0, 1.0, "sin(t*x) + s", "t*s*x/(1+s)", BENCH_G, M=2.0, L=2.0
    ),
    # <F(u)-F(v), u-v> is a sum of signed zeros
    "zero_fredholm": lambda: from_expressions(
        0.0, 1.0, "5*t*s*cos(x)", "0", BENCH_G, M=M_BENCH, L=1.1
    ),
}
SCHEMES = [("midpoint", "half_cell"), ("midpoint", "full_cell"), ("trapezoid", "half_cell"),
           ("simpson", "half_cell")]


@pytest.mark.parametrize("name", sorted(AUDITED))
@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_blocked_audit_is_bit_identical_to_the_pair_loop(name, rule, rows):
    problem = AUDITED[name]()
    # blocks hold 82-100, 3-4 and 1 pair(s) at these sizes: 1001 and 150 pairs
    # end on a partial block, except at 51 nodes (3 x 50)
    for cells, pairs in ((10, 1001), (50, 150), (100, 100)):
        scheme = build_scheme(make_grid(0.0, 1.0, cells), rule, midpoint_rows=rows)
        seed = cells + pairs
        expected = _pair_loop_audit(problem, scheme, pairs, seed)
        assert _bits(check_assumptions(problem, scheme, pairs, seed=seed)) == _bits(expected)


def _k2_inf_past(t, s, x):
    # 8.37 is first exceeded by the 6th pair of seed 0: the failure is mid-block
    return np.where(x > 8.37, np.inf, 5.5 * (t * t) * (s * s) * x)


def _k2_refuses_stacks(t, s, x):
    if np.ndim(x) != 2:
        raise TypeError("this kernel takes a 2-d x only")
    return 5.5 * (t * t) * (s * s) * x


def _k2_warns_unselected(t, s, x):
    # sqrt warns for x < 0, in cells np.where does not select
    return t * s * np.where(x > 0.0, np.sqrt(x), x)


def _audit_case(k2=None, source=None):
    if source is not None:
        return from_expressions(0.0, 1.0, "0", source, "t", M=0.5, L=0.5)
    return dataclasses.replace(benchmark_problem(), k2=k2, k2_terms=None)


INF_PAST = ValueError, "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=30)"
LN = EvalDomainError, (
    "ln of a non-positive value in 'ln(x)': 1050 offending input point(s), "
    "first at index (0, 1)"
)
SQRT = RuntimeWarning, "invalid value encountered in sqrt"


# the outcome under the default warning filter and under "error" (None: the
# audit completes), and the warnings seen under the default filter, as the
# pair-by-pair audit gives them
REPLAY_CASES = {
    "inf_past": (lambda: _audit_case(_k2_inf_past), INF_PAST, INF_PAST, set()),
    "ln": (lambda: _audit_case(source="ln(x)"), LN, LN, set()),
    "refuses_stacks": (lambda: _audit_case(_k2_refuses_stacks), None, None, set()),
    "warns_unselected": (lambda: _audit_case(_k2_warns_unselected), None, SQRT, {SQRT[1]}),
}


@pytest.mark.parametrize("filt", ["default", "error"])
@pytest.mark.parametrize("case", sorted(REPLAY_CASES))
def test_failing_audit_blocks_replay_exactly(scheme, case, filt):
    make, on_default, on_error, default_warnings = REPLAY_CASES[case]
    expected = on_error if filt == "error" else on_default
    problem = make()
    if expected is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reference = _pair_loop_audit(problem, scheme, 100, seed=0)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(filt)
        if expected is None:
            assert _bits(check_assumptions(problem, scheme, pairs=100, seed=0)) == _bits(reference)
        else:
            with pytest.raises(expected[0]) as err:
                check_assumptions(problem, scheme, pairs=100, seed=0)
            assert type(err.value) is expected[0] and str(err.value) == expected[1]
    assert {str(w.message) for w in seen} == (default_warnings if filt == "default" else set())
