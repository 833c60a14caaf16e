import dataclasses
import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from vfsolve import discrete, oracle
from vfsolve.discrete import build_system, k1_table, k2_table, norm, residual
from vfsolve.expr import EvalDomainError
from vfsolve.oracle import NewtonError, newton_solve
from vfsolve.problem import benchmark_problem, from_expressions
from vfsolve.quadrature import build_scheme, make_grid


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


def _jacobian_gap(sys_, at):
    """Max entrywise gap between the Jacobian newton_solve forms from kernel
    tables a row block at a time and the column-by-column one from system
    maps, both at oracle.FD_STEP."""
    at = np.asarray(at, dtype=float)
    work = oracle._Workspace(sys_)
    base = work.map(at)
    entrywise = work.jacobian(at, oracle.FD_STEP, base)
    columns = oracle._column_jacobian(sys_, at, oracle.FD_STEP, base)
    return float(np.max(np.abs(entrywise - columns)))


def _boundary_start(value, n=10):
    start = np.zeros(n)
    start[[3, 6]] = value
    return start


def test_zero_kernels_one_step(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_ITER", 1)
    sys_ = _system("0", "0", g="t^2")
    out = newton_solve(sys_, start=np.zeros(10))
    assert np.array_equal(out, sys_.g_vec)


def test_benchmark_converges_fast(monkeypatch, bench):
    monkeypatch.setattr(oracle, "MAX_ITER", 10)
    out = newton_solve(bench, start=bench.g_vec)
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
    box = 2 * np.max(np.abs(bench.g_vec))
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
        "ln of a non-positive value in 'ln(0.5 - x)': "
        "10 offending input point(s), first at index (0, 3)"
    )


def test_jacobian_calls_each_kernel_twice(monkeypatch):
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
    # new kernels, so no separable forms: the kernels build every table
    prob = dataclasses.replace(
        bp, k1=counted("k1", k1), k2=counted("k2", bp.k2), k1_terms=None, k2_terms=None
    )
    sys_ = _benchmark_system(10, "trapezoid", prob=prob)
    monkeypatch.setattr(oracle, "MAX_ITER", 1)
    monkeypatch.setattr(oracle, "RESIDUAL_TOL", 1e-300)
    with pytest.raises(NewtonError, match="within 1 iterations"):
        newton_solve(sys_)
    # system map (its tables at xi serve the Jacobian too), Jacobian at
    # xi + step, system map after the loop
    assert calls == {"k1": 3, "k2": 3}


def test_no_convergence_reports_last_residual(monkeypatch, bench):
    monkeypatch.setattr(oracle, "MAX_ITER", 1)
    monkeypatch.setattr(oracle, "RESIDUAL_TOL", 1e-15)
    with pytest.raises(NewtonError, match="last residual"):
        newton_solve(bench)


def test_start_is_keyword_only(bench):
    # a second positional argument is refused, not taken as the start
    with pytest.raises(TypeError):
        newton_solve(bench, bench.g_vec)


def test_jacobian_check_linear_kernel_is_exact():
    # Fredholm kernel linear in x: entrywise and column differences agree
    sys_ = _system("0", "11/2*t^2*s^2*x", n=25)
    assert _jacobian_gap(sys_, np.zeros(25)) <= 1e-9


def test_jacobian_check_full_benchmark_dim25():
    sys_ = build_system(
        benchmark_problem(), build_scheme(make_grid(0.0, 1.0, 25), "midpoint")
    )
    assert _jacobian_gap(sys_, np.zeros(25)) <= 1e-6


def test_jacobian_check_rounded_away_bump_gives_zero_column():
    # at |xi_j| >= 2**53 * FD_STEP the bump rounds away: the column loop gives
    # an exactly zero column, and so must the entrywise build
    at = np.zeros(10)
    at[4] = 1e10
    assert _jacobian_gap(_system("0", "0"), at) == 0.0


@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_jacobian_check_every_scheme(rule, rows):
    sys_ = _benchmark_system(40, rule, rows)
    box = 2 * np.max(np.abs(sys_.g_vec))
    at = np.random.default_rng(2024).uniform(-box, box, sys_.dim)
    assert _jacobian_gap(sys_, at) <= 1e-6


# --- Newton's bytes: xi, its Jacobians and its errors ------------------------

def _sha(xi):
    return hashlib.sha256(xi.tobytes()).hexdigest()


# the refinement grids of ``vfsolve convergence benchmark`` (midpoint, half-cell rows)
REFINEMENT_DIGESTS = {
    25: "f17e5dd3126d11f1859866d2af8b490c98e85296bb7e96e442d4f9aaab7ea5b5",
    50: "3ea9c3a1e4e721de21fa7060c1518a55f1c40c1c26fc74b713c3a04ee6db24a2",
    100: "7f873508fceca00a16225fff593776100a8b6e1e5f3d5d6f84acc409c569d5b6",
    200: "9445347c2ab1eadd5297ee331c662f0448d6d39692fa7ba08b5753021b4fbb4c",
    400: "d54ed8cde4cc0d4a3ecd99f75e413f2d2a68ac94d3f34a302cfaf6ecdf993a18",
}


def _block_rows(monkeypatch, sys_, rows):
    """Make the oracle's row blocks ``rows`` rows high: a count, or "whole"."""
    rows = sys_.dim if rows == "whole" else rows
    monkeypatch.setattr(discrete, "_BLOCK_CELLS", rows * sys_.dim)


def _solve_recording_jacobians(monkeypatch, sys_, start=None):
    """newton_solve's result, and each (J, delta) its LU solves took."""
    factored = []
    solve = np.linalg.solve

    def spy(jac, rhs):
        delta = solve(jac, rhs)
        factored.append((jac.copy(), delta))
        return delta

    monkeypatch.setattr(np.linalg, "solve", spy)
    try:
        return newton_solve(sys_, start=start), factored
    finally:
        monkeypatch.setattr(np.linalg, "solve", solve)


@pytest.mark.parametrize("cells, rows", [
    *(pytest.param(cells, None, id=str(cells)) for cells in sorted(REFINEMENT_DIGESTS)),
    *(pytest.param(200, rows, id=f"200-rows{rows}") for rows in (1, 7, "whole")),
])
def test_newton_bytes_on_the_refinement_grids(monkeypatch, cells, rows):
    sys_ = _benchmark_system(cells)
    if rows is not None:
        _block_rows(monkeypatch, sys_, rows)
    assert _sha(newton_solve(sys_)) == REFINEMENT_DIGESTS[cells]


def _expression_benchmark():
    return from_expressions(
        0.0, 1.0, k1_src="5*t*s*cos(x)", k2_src="(11/2)*t^2*s^2*x",
        g_src="(11/8)*t^2 - 4*t + 5*t*cos(t) + 5*t^2*sin(t)",
        M=float(np.sqrt(25.0 / 18.0)), L=1.1, exact_src="t",
    )


def _termless_benchmark():
    bp = benchmark_problem()
    return dataclasses.replace(
        bp, k1=lambda t, s, x: bp.k1(t, s, x), k2=lambda t, s, x: bp.k2(t, s, x),
        k1_terms=None, k2_terms=None,
    )


FORMS = {
    "builtin": benchmark_problem,
    "expression": _expression_benchmark,
    "termless": _termless_benchmark,
}
# the builtin's form repeats its kernels' last products: both give the same bytes
_BUILTIN_40 = {
    "midpoint-full_cell": "728ce6a23d00dcdac4a930a324419e742c446e530d0b6a65cff0c55b42c79b9c",
    "midpoint-half_cell": "eee19ce0c458143b7f3b695bf25c493167068a5d4e3bea459b724fe94d31b395",
    "trapezoid": "6f6e5aaceff3936d9315029bb09d66ec0c64fe14a2d2c8843f77a1549e0af54f",
    "simpson": "ea233c3c967ebdc5dcf6b16ad5c198f660a5a97b045268f768662a3254b73f35",
}
SCHEME_DIGESTS_40 = {
    "builtin": _BUILTIN_40,
    "termless": _BUILTIN_40,
    "expression": {
        "midpoint-full_cell": "3839ccc8498a7021999045dcbf9611ffa8dbce6c36365f70e5565e7c08028e55",
        "midpoint-half_cell": "9f94adb55e15dc8b041cc9e58a9ecf03fde615af99fcd057739131f99f5388c8",
        "trapezoid": "e2e78d340ab0bd02a37ccdb84384a8a5dc5e99e23d21ab9db7f5f946e7d32434",
        "simpson": "01ecc752acc2ff751c2cf75a25a010c540890249d4e669d73c131cf5adbb2b84",
    },
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("rule, rows", SCHEMES)
def test_newton_bytes_on_every_scheme(form, rule, rows):
    scheme = rule if rule != "midpoint" else f"{rule}-{rows}"
    xi = newton_solve(_benchmark_system(40, rule, rows, prob=FORMS[form]()))
    assert _sha(xi) == SCHEME_DIGESTS_40[form][scheme]


def _whole_table_jacobian(sys_, at, step):
    """The entrywise Jacobian built from whole kernel tables, each table
    made anew: the reference for the oracle's row blocks and the tables
    its map keeps."""
    with np.errstate(invalid="ignore", over="ignore"):
        bumped = at + step
        diag = (bumped - at) / step
        jac = np.subtract(k1_table(sys_, bumped), k1_table(sys_, at))
        np.copyto(jac, 0.0, where=~sys_.volterra_mask)
        jac *= sys_.scheme.volterra_weights
        dk2 = np.subtract(k2_table(sys_, bumped), k2_table(sys_, at))
        dk2 *= sys_.scheme.global_weights
        jac += dk2
        jac /= step
        jac.flat[:: sys_.dim + 1] += diag
    return jac


def _two_term_problem():
    return from_expressions(
        0.0, 1.0, k1_src="t*x + s*x^2", k2_src="(t*s/4)*x + (s/10)*x^2", g_src="t",
        M=1.0, L=1.0,
    )


def _row0_inf_problem():
    # trapezoid row 0 (t = a) has zero Volterra weight: its cells are clamped
    bp = benchmark_problem()
    k1 = lambda t, s, x: np.where(t == 0.0, np.inf, bp.k1(t, s, x))
    return dataclasses.replace(bp, k1=k1, k1_terms=None)


JACOBIAN_PROBLEMS = {
    "builtin": benchmark_problem,
    "two_terms": _two_term_problem,
    "termless": _termless_benchmark,
    "row0_inf": _row0_inf_problem,
}


@pytest.mark.parametrize("rule, cells, rows", [
    pytest.param(
        rule, cells, rows, id=f"{rule}-{cells}" + ("" if rows == "whole" else f"-rows{rows}")
    )
    for rule, cells in [("midpoint", 10), ("trapezoid", 40), ("simpson", 100)]
    for rows in ("whole", 1, 7)
])
@pytest.mark.parametrize("name", sorted(JACOBIAN_PROBLEMS))
def test_newton_jacobians_match_whole_tables_bytewise(monkeypatch, rule, cells, rows, name):
    if name == "row0_inf" and rule == "midpoint":
        rule, cells = "trapezoid", 9
    sys_ = _benchmark_system(cells, rule, prob=JACOBIAN_PROBLEMS[name]())
    _block_rows(monkeypatch, sys_, rows)
    if name == "two_terms":
        assert len(sys_.k1_split) == len(sys_.k2_split) == 2
    xi, factored = _solve_recording_jacobians(monkeypatch, sys_)
    assert residual(sys_, xi) <= 1e-12 and factored
    at, step = sys_.g_vec, oracle.FD_STEP
    for jac, delta in factored:
        assert jac.tobytes() == _whole_table_jacobian(sys_, at, step).tobytes()
        at = at - delta
    assert np.array_equal(at, xi)


def _k1_inf_above_half():
    bp = benchmark_problem()
    k1 = lambda t, s, x: np.where(x > 0.5, np.inf, bp.k1(t, s, x))
    return dataclasses.replace(bp, k1=k1, k1_terms=None)


def _k2_factor_fails_above_half():
    # the form serves at xi; at xi + step its factor raises and the kernel,
    # inf above 0.5, builds the table
    def e(s, x):
        if np.any(x > 0.5):
            raise ArithmeticError("factor refuses x > 0.5")
        return x

    return dataclasses.replace(
        benchmark_problem(),
        k2=lambda t, s, x: np.where(x > 0.5, np.inf, 0.1 * t * s * x),
        k2_terms=((lambda t, s: 0.1 * t * s, e),),
    )


def _wide_constant_k1():
    # finite cells whose weighted row sums overflow on [0, 4]
    return dataclasses.replace(
        benchmark_problem(), a=0.0, b=4.0, k1=lambda t, s, x: 1.7e308 + 0.0 * x,
        k1_terms=None,
    )


def _mixed_infinities_in_late_rows(which):
    # -inf at s < 0.1 and +inf at 0.1 < s < 0.3 in the rows t > 0.5: numpy
    # warns that their weighted sum is invalid
    bp = benchmark_problem()
    kernel = getattr(bp, which)

    def k(t, s, x):
        bad = np.where(s < 0.1, -np.inf, np.inf)
        return np.where((t > 0.5) & (s < 0.3), bad, kernel(t, s, x))

    return dataclasses.replace(bp, **{which: k, f"{which}_terms": None})


def _inf_in_late_rows(which):
    bp = benchmark_problem()
    kernel = getattr(bp, which)
    k = lambda t, s, x: np.where((t > 0.5) & (s < 0.1), np.inf, kernel(t, s, x))
    return dataclasses.replace(bp, **{which: k, f"{which}_terms": None})


NEWTON_FAILURES = {
    "k1_nonfinite_at_start": (
        lambda: newton_solve(
            _benchmark_system(10, prob=_k1_inf_above_half()), start=_boundary_start(0.75)
        ),
        {f: (ValueError, "volterra kernel k1 evaluated non-finite at mesh cell (i=3, j=3)")
         for f in ("default", "error")},
    ),
    "k2_factor_raises_at_bump": (
        lambda: newton_solve(
            _benchmark_system(10, prob=_k2_factor_fails_above_half()),
            start=_boundary_start(0.5),
        ),
        {f: (ValueError, "fredholm kernel k2 evaluated non-finite at mesh cell (i=0, j=3)")
         for f in ("default", "error")},
    ),
    # from 0 the defect is -g, whose norm overflows to inf without a warning;
    # J = I - 0.9 * ones * w amplifies it tenfold, past the float range
    "diverges_past_float_range": (
        lambda: newton_solve(_system("0", "-0.9*x", g="1.5e308"), start=np.zeros(10)),
        {f: (NewtonError, "iteration diverged to non-finite values (residual was inf)")
         for f in ("default", "error")},
    ),
    # a numpy warning raised as an error in phi's or fred's weighted sum
    "k1_row_sum_invalid": (
        lambda: newton_solve(_benchmark_system(10, prob=_mixed_infinities_in_late_rows("k1"))),
        {f: (ValueError, "volterra kernel k1 evaluated non-finite at mesh cell (i=5, j=0)")
         for f in ("default", "error")},
    ),
    "k2_row_sum_invalid": (
        lambda: newton_solve(_benchmark_system(10, prob=_mixed_infinities_in_late_rows("k2"))),
        {f: (ValueError, "fredholm kernel k2 evaluated non-finite at mesh cell (i=5, j=0)")
         for f in ("default", "error")},
    ),
    # a non-finite fred row: fred names the cell
    "k2_nonfinite_fred_row": (
        lambda: newton_solve(_benchmark_system(10, prob=_inf_in_late_rows("k2"))),
        {f: (ValueError, "fredholm kernel k2 evaluated non-finite at mesh cell (i=5, j=0)")
         for f in ("default", "error")},
    ),
    "ln_leaves_its_domain": (
        # in the domain at the start; a Newton step crosses x = 0.5
        lambda: newton_solve(
            _system("0", "t*s*ln(0.5 - x)/10"), start=_boundary_start(0.49)
        ),
        {f: (EvalDomainError, "ln of a non-positive value in 'ln(0.5 - x)': "
             "70 offending input point(s), first at index (0, 3)")
         for f in ("default", "error")},
    ),
    "phi_row_sum_overflows": (
        lambda: newton_solve(
            build_system(_wide_constant_k1(), build_scheme(make_grid(0.0, 4.0, 10), "midpoint"))
        ),
        {"default": (ValueError, "vector contains non-finite entries"),
         "error": (RuntimeWarning, "overflow encountered in reduce")},
    ),
}


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("case", sorted(NEWTON_FAILURES))
def test_newton_failures_keep_their_errors(case, action):
    run, expected = NEWTON_FAILURES[case]
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(Exception) as info:
            run()
    assert (type(info.value), str(info.value)) == expected[action]


@pytest.mark.parametrize("which", ["k1", "k2"])
def test_failing_map_sums_warn_as_phi_and_fred_do(which):
    # the Newton map is phi and fred with the solve's buffers: its sums print
    # numpy's warning as the maps' own do, once each
    sys_ = _benchmark_system(10, prob=_mixed_infinities_in_late_rows(which))

    def warned(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError):
                run()
        return [(w.category, w.filename, w.lineno, str(w.message)) for w in caught]

    maps = warned(lambda: (discrete.phi(sys_, sys_.g_vec), discrete.fred(sys_, sys_.g_vec)))
    assert maps and warned(lambda: newton_solve(sys_)) == maps


# each kernel fails in the rows t > 0.5 only, 5 to 9 of 10 midpoint cells: in
# the whole table, and for k1's non-finite cells in phi's weighted sum, which
# the Newton map runs a row block of 1 or 3 rows at a time, so in a block
# after the first and in several blocks
MAP_BLOCK_FAILURES = {
    "k1_raises": lambda: _system("s*ln(0.5 - t)", "0"),
    "k1_nonfinite": lambda: _benchmark_system(10, prob=_inf_in_late_rows("k1")),
    "k1_row_sum_invalid": lambda: _benchmark_system(
        10, prob=_mixed_infinities_in_late_rows("k1")
    ),
    "k2_raises": lambda: _system("0", "s*ln(0.5 - t)"),
}


@pytest.mark.parametrize("action", ["default", "error"])
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("case", sorted(MAP_BLOCK_FAILURES))
def test_map_block_failures_raise_the_whole_state_errors(monkeypatch, case, rows, action):
    # an error from a block of the sum would name a cell of the block only
    sys_ = MAP_BLOCK_FAILURES[case]()
    _block_rows(monkeypatch, sys_, rows)
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(Exception) as whole:
            discrete.phi(sys_, sys_.g_vec)
            discrete.fred(sys_, sys_.g_vec)
        with pytest.raises(Exception) as info:
            newton_solve(sys_)
    assert (type(info.value), str(info.value)) == (type(whole.value), str(whole.value))


PHI_WARNING_CASES = {
    # rows t > 0.5 sum mixed infinities: numpy warns, and phi names a cell
    "invalid": lambda: _benchmark_system(10, prob=_mixed_infinities_in_late_rows("k1")),
    # rows t >= 1.4 of [0, 4] sum finite cells past the largest float: numpy
    # warns, and phi returns the infinite rows
    "overflow": lambda: _system("1.7e308", "0", b=4.0),
}


def _phi_outcome(sys_, block, action):
    """phi's result bytes, or its error, and the warnings it left."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        try:
            result = discrete.phi(sys_, sys_.g_vec, block=block).tobytes()
        except Exception as exc:
            result = type(exc), str(exc)
    return result, [(w.category, str(w.message)) for w in seen]


@pytest.mark.parametrize("action", ["always", "error"])
@pytest.mark.parametrize("case", sorted(PHI_WARNING_CASES))
def test_blocked_phi_warns_once_as_the_whole_table(case, action):
    # 1-row blocks, each of the failing rows its own sum
    sys_ = PHI_WARNING_CASES[case]()
    whole = _phi_outcome(sys_, None, action)
    assert _phi_outcome(sys_, np.empty((1, sys_.dim)), action) == whole
    assert len(whole[1]) == (action == "always")


def test_newton_memory_stays_below_three_tables():
    # J, the k2 table, one row block, the weights tiled to a block and J's
    # bool mask; numpy.linalg.solve's copy of J is LAPACK's, which
    # tracemalloc does not see
    sys_ = _benchmark_system(400)
    assert sys_.k1_split and sys_.k2_split  # the system's own tables, built once
    tracemalloc.start()
    try:
        newton_solve(sys_)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * sys_.dim**2 * 8


@pytest.mark.parametrize("cells", [10, 400])
def test_newton_maps_through_phi_and_fred(monkeypatch, cells):
    # once each per iteration, and once for the final check, through the
    # module attributes that the benchmark's tracer wraps
    sys_ = _benchmark_system(cells)
    calls = {"phi": 0, "fred": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(discrete, "phi", counted("phi", discrete.phi))
    monkeypatch.setattr(discrete, "fred", counted("fred", discrete.fred))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", np.linalg.solve))
    newton_solve(sys_)
    monkeypatch.undo()
    assert calls["solve"] > 0
    assert calls["phi"] == calls["fred"] == calls["solve"] + 1


def test_newton_iterations_allocate_less_than_a_row_block(monkeypatch):
    # the solve's buffers are allocated before its first map; from there to
    # each LU solve, and from that to the next or to the end, tracemalloc's
    # peak stays within a dozen state vectors of where the stretch began:
    # nothing of a row block's size is allocated per block
    sys_ = _benchmark_system(400)
    assert sys_.k1_split and sys_.k2_split  # the system's own tables, built once
    grown, base = [], [None]

    def mark():
        current, peak = tracemalloc.get_traced_memory()
        if base[0] is not None:
            grown.append(peak - base[0])
        tracemalloc.reset_peak()
        base[0] = current

    class Workspace(oracle._Workspace):
        def __init__(self, sys_):
            super().__init__(sys_)
            mark()

    solve = np.linalg.solve

    def marked_solve(jac, rhs):
        mark()
        return solve(jac, rhs)

    monkeypatch.setattr(oracle, "_Workspace", Workspace)
    monkeypatch.setattr(np.linalg, "solve", marked_solve)
    tracemalloc.start()
    try:
        newton_solve(sys_)
        mark()
    finally:
        tracemalloc.stop()
    assert len(grown) > 2 and max(grown) < 12 * sys_.dim * 8, grown


def _zero_kernels():
    # both kernels' tables are read-only broadcast views of 0.0
    zero = lambda t, s, x: 0.0
    return dataclasses.replace(
        benchmark_problem(), k1=zero, k2=zero, k1_terms=None, k2_terms=None
    )


BUFFER_FORMS = {"form": benchmark_problem, "termless": _termless_benchmark, "zero": _zero_kernels}


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("form", sorted(BUFFER_FORMS))
@pytest.mark.parametrize("rule, scheme_rows", SCHEMES)
def test_map_buffers_keep_the_bytes(monkeypatch, rule, scheme_rows, form, rows):
    # phi's and fred's results are the same with the Newton map's buffers as
    # without, and the buffers hold the kernel tables after them
    sys_ = _benchmark_system(10, rule, scheme_rows, prob=BUFFER_FORMS[form]())
    assert (sys_.k1_split is not None) == (form == "form")
    _block_rows(monkeypatch, sys_, rows)
    work = oracle._Workspace(sys_)
    assert work.block.shape == (rows, sys_.dim)
    states = [sys_.g_vec, np.random.default_rng(7).uniform(-3.0, 3.0, sys_.dim)]
    for xi in states:
        work.jac.fill(np.nan)
        work.k2.fill(np.nan)
        phi = discrete.phi(sys_, xi, table=work.jac, block=work.block)
        assert phi.tobytes() == discrete.phi(sys_, xi).tobytes()
        assert work.jac.tobytes() == k1_table(sys_, xi).tobytes()
        fred = discrete.fred(sys_, xi, table=work.k2)
        assert fred.tobytes() == discrete.fred(sys_, xi).tobytes()
        assert work.k2.tobytes() == k2_table(sys_, xi).tobytes()


def _k2_factor_fails_below_two():
    # the form serves at g, whose largest value is 4.28; at the iterates, all
    # below 2, its factor raises and k2 builds its own tables
    def e(s, x):
        if np.max(x) < 2.0:
            raise ArithmeticError("factor refuses states below 2")
        return x

    bp = benchmark_problem()
    return dataclasses.replace(bp, k2_terms=((bp.k2_terms[0][0], e),))


def test_raising_factor_gives_the_kernels_bytes():
    prob = _k2_factor_fails_below_two()
    sys_ = _benchmark_system(40, prob=prob)
    assert sys_.k2_split is not None
    termless = _benchmark_system(40, prob=dataclasses.replace(prob, k2_terms=None))
    assert newton_solve(sys_).tobytes() == newton_solve(termless).tobytes()


def test_map_that_replays_gets_the_column_jacobian(monkeypatch):
    # a k1 that refuses any block short of the whole table: the maps, on
    # whole tables, pass, while with blocks of 3 rows every Jacobian raises
    # and the column loop's maps, each bumping one entry, build it
    bp = benchmark_problem()

    def k1(t, s, x):
        if np.size(t) < 10:
            raise ArithmeticError("k1 refuses a block of rows")
        return bp.k1(t, s, x)

    sys_ = _benchmark_system(10, prob=dataclasses.replace(bp, k1=k1, k1_terms=None))
    _block_rows(monkeypatch, sys_, 3)
    xi, factored = _solve_recording_jacobians(monkeypatch, sys_)
    assert residual(sys_, xi) <= 1e-12 and factored
    at, step = sys_.g_vec, oracle.FD_STEP
    for jac, delta in factored:
        expected = oracle._column_jacobian(sys_, at, step, oracle._system_map(sys_, at))
        assert jac.tobytes() == expected.tobytes()
        at = at - delta
    assert np.array_equal(at, xi)


def test_unformable_jacobian_gets_the_column_jacobian(monkeypatch):
    # from the constant start c, the Jacobian's tables at c + step are the
    # only state with no entry at c, and k2 refuses it; the column loop's
    # maps each bump one entry
    c = 0.5
    bp = benchmark_problem()
    refused = []

    def k2(t, s, x):
        if np.all(x == c + oracle.FD_STEP):
            refused.append(x)
            raise ArithmeticError("k2 refuses the bumped state")
        return bp.k2(t, s, x)

    sys_ = _benchmark_system(10, prob=dataclasses.replace(bp, k2=k2, k2_terms=None))
    start = np.full(sys_.dim, c)
    xi, factored = _solve_recording_jacobians(monkeypatch, sys_, start)
    assert residual(sys_, xi) <= 1e-12 and len(refused) == 1 and len(factored) > 1
    at, step = start, oracle.FD_STEP
    for i, (jac, delta) in enumerate(factored):
        if i == 0:
            expected = oracle._column_jacobian(sys_, at, step, oracle._system_map(sys_, at))
        else:
            expected = _whole_table_jacobian(sys_, at, step)
        assert jac.tobytes() == expected.tobytes()
        at = at - delta
    assert np.array_equal(at, xi)
