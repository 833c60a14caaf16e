import dataclasses
import math

import numpy as np
import pytest

from vfsolve import continuation
from vfsolve.continuation import ContinuationConfig, SolverError, p_inverse, repeat_stop
from vfsolve.discrete import build_system, fred, norm
from vfsolve.hybrid import derive_params, inner_bound
from vfsolve.problem import benchmark_problem
from vfsolve.quadrature import build_scheme, make_grid


def _params(L, N, n0):
    """SolverParams whose inner bound is the one of N levels of n0 steps on
    an L-Lipschitz map; M, g_norm and eps do not enter it."""
    return derive_params(1.0, L, 1.0, 1e-3, N=N, n0=n0)


def _level_solve(F, level, target, cfg):
    """One level's n0 steps from ``target``: the loop of level 1, or the
    iterate of a level >= 2's repeat-stop loop."""
    if level == 1:
        return continuation._level1(F, target, cfg)
    return continuation._level(F, level, target, cfg)[0]


@pytest.fixture(scope="module")
def bench():
    scheme = build_scheme(make_grid(0.0, 1.0, 50), "midpoint")
    sys_ = build_system(benchmark_problem(), scheme)
    f0 = fred(sys_, np.zeros(50))
    phi0 = np.zeros(50)  # unused here; the Fredholm part is what P inverts
    g1 = sys_.g_vec - f0 - phi0

    def F1(v):
        return fred(sys_, v) - f0

    return sys_, F1, g1


def test_config_validation():
    with pytest.raises(ValueError, match="N >= 1"):
        ContinuationConfig(N=0, n0=5)
    with pytest.raises(ValueError, match="n0 >= 1"):
        ContinuationConfig(N=1, n0=0)
    # the loop counts and the tally; q and every bound belong to SolverParams
    fields = [f.name for f in dataclasses.fields(ContinuationConfig)]
    assert fields == ["N", "n0", "op_counter"]


def test_zero_operator_returns_target():
    cfg = ContinuationConfig(1, 7)
    target = np.array([1.0, -2.0, 3.0])
    out = _level_solve(lambda v: np.zeros_like(v), 1, target, cfg)
    assert np.array_equal(out, target)
    assert cfg.op_counter == 7  # F evaluated once per step even when trivial


def test_zero_operator_any_level():
    cfg = ContinuationConfig(3, 4)
    target = np.array([2.0, 5.0])
    out = _level_solve(lambda v: np.zeros_like(v), 3, target, cfg)
    assert np.array_equal(out, target)
    assert np.array_equal(p_inverse(lambda v: np.zeros_like(v), target, cfg), target)


def test_scalar_closed_form():
    # xi + 0.9 xi = 1.9 has solution xi = 1
    F = lambda v: 0.9 * v
    out1 = p_inverse(F, np.array([1.9]), ContinuationConfig(1, 200))
    assert abs(out1[0] - 1.0) <= 1e-9
    out2 = p_inverse(F, np.array([1.9]), ContinuationConfig(2, 200))
    assert abs(out2[0] - 1.0) <= 1e-9
    assert abs(out1[0] - out2[0]) <= 2e-9  # continuation path-independence


def test_linear_system_against_dense_solve():
    A = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
    L = float(np.linalg.norm(A, 2))
    assert L < 1
    z = np.array([1.0, -2.0, 0.5])
    direct = np.linalg.solve(np.eye(3) + A, z)
    for N in (1, 2):
        out = p_inverse(lambda v: A @ v, z, ContinuationConfig(N, 400))
        assert np.max(np.abs(out - direct)) <= 1e-8


def test_nonfinite_iterate_raises():
    cfg = ContinuationConfig(1, 10)
    blow_up = lambda v: np.full_like(v, np.inf)
    with pytest.raises(SolverError, match="non-finite iterate"):
        _level_solve(blow_up, 1, np.array([1.0]), cfg)


def _plain_level(F, level, y, N, n0, on_step=None):
    """_level_solve written out plainly; on_step(level, k, w) sees each iterate."""
    w = y
    for k in range(n0):
        u = w
        for lev in range(level - 1, 0, -1):
            u = _plain_level(F, lev, u, N, n0, on_step)
        w = -(1.0 / N) * F(u) + y
        if on_step is not None:
            on_step(level, k, w)
    return w


def test_steps_never_write_into_arrays_they_do_not_own():
    target = np.array([1.0, -2.0, 0.5])
    kept = np.array([0.25, 0.5, -1.0])
    # maps at levels 1 and 2: the identity's level 2 makes five steps of
    # 5 + 1 maps and then level 1's 5 at its last iterate; the constant map's
    # level 2 repeats its first iterate at step 2, so it stops after two steps
    for F, maps in ((lambda v: v, (5, 35)), (lambda v: kept, (5, 12))):
        for level in (1, 2):
            cfg, seen = ContinuationConfig(2, 5), []

            def watched(v):  # every argument F receives, with a copy of it
                seen.append((v, v.copy()))
                return F(v)

            got = _level_solve(watched, level, target, cfg)
            want = _plain_level(F, level, target, 2, 5)
            assert got.tobytes() == want.tobytes()
            assert len(seen) == cfg.op_counter == maps[level - 1]
            assert all(v.tobytes() == copy.tobytes() for v, copy in seen)
        got = p_inverse(F, target, ContinuationConfig(2, 5))
        assert got.tobytes() == _plain_level(F, 1, _plain_level(F, 2, target, 2, 5), 2, 5).tobytes()
        assert target.tolist() == [1.0, -2.0, 0.5]
        assert kept.tolist() == [0.25, 0.5, -1.0]


def _first_repeat(ws):
    """(i, period) for the first w_t equal to an earlier w_i, or None."""
    return next(((ws.index(w), t - ws.index(w)) for t, w in enumerate(ws) if ws.index(w) < t), None)


def _top_repeat(F, level, y, N, n0):
    """The first repeat among the plain loop's own iterates at ``level``."""
    ws = [y.tobytes()]
    _plain_level(F, level, y, N, n0, lambda lev, k, w: lev == level and ws.append(w.tobytes()))
    return _first_repeat(ws)


def _steps(hi, mid, lo):
    return lambda v: np.where(v > 1.0, hi, np.where(v > -1.0, mid, lo))


# name -> (F, target, n0, first repeat of the plain loop at levels 2 and 3,
# maps of _level_solve at levels 2 and 3 and of p_inverse, all with N = 3);
# without a stop the maps would be (n0+1)^2 - 1, (n0+1)^3 - 1 and
# (n0+1)^3 - 1.  Every level >= 2 returns its last iterate and the lower
# inverse at it, which one of its steps computed if the level stopped at a
# repeat, so the chain above it, or p_inverse, never solves the lower levels
# again: level 3 makes p_inverse's maps, and fewer when its chain's level 2
# stops (if the lower levels were solved again after a stop, p_inverse would
# make 53, 125, 127, 63, 71 and 215 in the six cases where a level repeats).
# With "period 1", level 2 stops at step 2, having made 2 * (5 + 1) = 12
# maps, and returns the level-1 solve of w_1 its step 2 made; each level-3
# step is then one level-2 solve and one map, 2 * (12 + 1) = 26, against
# 2 * (12 + 5 + 1) = 36
LEVEL_CASES = {
    "no repeat": (lambda v: 0.5 * v + 0.25, [1.0, -2.0], 4, [None, None], [24, 124, 124]),
    "period 1": (lambda v: np.full_like(v, 0.75), [1.0, -2.0], 5, [(1, 1), (1, 1)], [12, 26, 26]),
    "period 3": (_steps(-3.0, 3.0, -6.0), [0.0], 6, [(1, 3), (1, 3)], [28, 81, 81]),
    "period 2 from step 2": (_steps(-3.0, 6.0, -6.0), [-1.0], 7, [(2, 2), (2, 1)], [32, 75, 75]),
    "back to the target": (_steps(0.0, 3.0, -6.0), [0.5], 7, [(0, 3), (0, 2)], [24, 34, 34]),
    "ends on the target": (_steps(0.0, 3.0, -6.0), [0.5], 8, [(0, 2), (0, 2)], [18, 29, 29]),
    "repeat at step n0": (lambda v: np.floor(-v), [3.0], 5, [(4, 1), None], [30, 210, 210]),
}


@pytest.mark.parametrize("name", list(LEVEL_CASES))
def test_level_stop_is_bit_identical_to_the_plain_loop(name):
    F, y, n0, repeats, maps = LEVEL_CASES[name]
    y = np.array(y)
    assert [_top_repeat(F, level, y, 3, n0) for level in (2, 3)] == repeats
    got = []
    for level in (2, 3):
        cfg = ContinuationConfig(3, n0)
        out = _level_solve(F, level, y, cfg)
        assert out.tobytes() == _plain_level(F, level, y, 3, n0).tobytes()
        assert not np.shares_memory(out, y)
        got.append(cfg.op_counter)
    cfg = ContinuationConfig(3, n0)
    want = y
    for level in (3, 2, 1):
        want = _plain_level(F, level, want, 3, n0)
    assert p_inverse(F, y, cfg).tobytes() == want.tobytes()
    got.append(cfg.op_counter)
    assert got == maps


@pytest.mark.parametrize("name", list(LEVEL_CASES))
def test_level_one_is_bit_identical_to_the_plain_loop(name):
    F, y, n0, _, _ = LEVEL_CASES[name]
    y = np.array(y)
    cfg = ContinuationConfig(3, n0)
    out = _level_solve(F, 1, y, cfg)
    assert out.tobytes() == _plain_level(F, 1, y, 3, n0).tobytes()
    assert not np.shares_memory(out, y)
    assert cfg.op_counter == n0


@pytest.mark.parametrize("n0", [1, 2, 5])
def test_level_one_never_returns_its_target(n0):
    # maps that hand back their argument, or an array they keep, at every step
    y, kept = np.array([0.5, -1.0]), np.array([0.0, 0.0])
    for F in (lambda v: v, lambda v: kept, lambda v: np.zeros_like(v)):
        out = _level_solve(F, 1, y, ContinuationConfig(1, n0))
        assert not np.shares_memory(out, y)
        assert not np.shares_memory(out, kept)
        assert out.tobytes() == _plain_level(F, 1, y, 1, n0).tobytes()
    assert y.tolist() == [0.5, -1.0]


@pytest.mark.parametrize("step", [0, 1, 4])
def test_nonfinite_level_one_step_counts_the_maps_made(step):
    cfg, argument = ContinuationConfig(2, 5), []

    def F(v):
        argument.append(v.copy())
        return np.full_like(v, np.nan) if len(argument) == step + 1 else 0.5 * v

    y = np.array([1.0, 2.0])
    with pytest.raises(SolverError) as info:
        _level_solve(F, 1, y, cfg)
    assert str(info.value) == (
        f"non-finite iterate at level 1, step {step}; "
        "the Lipschitz/monotonicity assumptions are likely violated"
    )
    assert cfg.op_counter == len(argument) == step + 1
    assert info.value.state.tobytes() == argument[-1].tobytes()


def test_nonfinite_level_iterate_raises_before_any_repeat():
    # level 2's second step leaves the region where F is finite: u_0 and u_1
    # differ, so the stop never fires and the step raises as in the full loop
    F = lambda v: np.where(v > 4.0, np.inf, -2.0 * v + 1.0)
    for level in (2, 3):
        cfg, argument = ContinuationConfig(3, 4), []

        def watched(v):
            argument.append(v.copy())
            return F(v)

        with pytest.raises(SolverError) as info:
            _level_solve(watched, level, np.array([1.0]), cfg)
        assert str(info.value) == (
            "non-finite iterate at level 2, step 1; "
            "the Lipschitz/monotonicity assumptions are likely violated"
        )
        assert cfg.op_counter == len(argument) == 10
        assert info.value.state.tobytes() == argument[-1].tobytes()


def test_nonfinite_iterate_carries_the_maps_argument():
    cfg = ContinuationConfig(2, 3)
    argument = []

    def F(v):
        argument.append(v.copy())
        return np.full_like(v, np.inf) if len(argument) == 6 else 0.5 * v

    with pytest.raises(SolverError, match=r"^non-finite iterate at level 1, step 1;") as info:
        p_inverse(F, np.array([1.0, 2.0]), cfg)
    assert cfg.op_counter == 6
    assert info.value.state.tobytes() == argument[-1].tobytes()


def _rho(lead_in, period):
    """A step whose iterates from [0.0] are 0, 1, …, lead_in + period - 1 and
    then lead_in again: the first repeat is x_(lead_in + period) = x_lead_in.
    The inverse is negation, so the step undoes it; both count their calls."""
    calls = {"step": [], "inverse": 0}

    def inverse(x):
        calls["inverse"] += 1
        return -x

    def step(v, t):
        calls["step"].append(t)
        k = -v[0] + 1.0
        return np.array([k if k < lead_in + period else float(lead_in)])

    return step, inverse, calls


@pytest.mark.parametrize("lead_in, period", [(0, 1), (3, 1), (0, 4), (2, 3), (5, 2)])
def test_repeat_stop_returns_the_plain_loops_pair(lead_in, period):
    for n in range(1, 3 * (lead_in + period) + 1):
        step, inverse, _ = _rho(lead_in, period)
        x = np.array([0.0])
        for t in range(1, n + 1):
            x = step(inverse(x), t)
        want = (x, inverse(x))
        step, inverse, calls = _rho(lead_in, period)
        got = repeat_stop(step, inverse, np.array([0.0]), n)
        steps = min(n, lead_in + period)
        assert calls["step"] == list(range(1, steps + 1))
        # without a repeat within n steps the loop makes inverse(x_n) itself
        assert calls["inverse"] == steps + (n < lead_in + period)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def test_repeat_stop_passes_a_steps_error_on():
    error = SolverError("step 3 failed")
    for n in (3, 4, 9):
        step, inverse, calls = _rho(5, 2)

        def failing(v, t):
            if t == 3:
                raise error
            return step(v, t)

        with pytest.raises(SolverError) as info:
            repeat_stop(failing, inverse, np.array([0.0]), n)
        assert info.value is error
        assert calls["step"] == [1, 2] and calls["inverse"] == 3


def test_op_counter_exact_for_p_inverse(bench):
    sys_, F1, g1 = bench
    for N, n0 in ((1, 12), (2, 12), (2, 25)):
        cfg = ContinuationConfig(N, n0)
        p_inverse(F1, g1, cfg)
        assert cfg.op_counter == (n0 + 1) ** N - 1
        assert cfg.op_counter <= (n0 + 1) ** N


@pytest.mark.parametrize("n0", [10, 20, 55])
def test_defect_within_inner_bound(bench, n0):
    sys_, F1, g1 = bench
    xi = p_inverse(F1, g1, ContinuationConfig(2, n0))
    defect = norm(sys_, xi + F1(xi) - g1)
    assert defect <= inner_bound(_params(1.1, 2, n0), norm(sys_, g1))


def test_level_contraction_witness(bench):
    # consecutive iterates of every level solve contract at least by q
    sys_, F1, g1 = bench
    cfg = ContinuationConfig(2, 30)
    runs, current = [], {}

    def on_step(level, k, w):
        if k == 0:
            current[level] = [w]
            runs.append(current[level])
        else:
            current[level].append(w)

    xi = g1  # the plain copy, level by level, is p_inverse bit for bit
    for level in range(cfg.N, 0, -1):
        xi = _plain_level(F1, level, xi, cfg.N, cfg.n0, on_step)
    assert xi.tobytes() == p_inverse(F1, g1, cfg).tobytes()
    worst = 0.0
    for seq in runs:
        for a, b, c in zip(seq, seq[1:], seq[2:]):
            d1, d2 = norm(sys_, b - a), norm(sys_, c - b)
            if d1 > 1e-13:  # below that, rounding noise dominates the ratio
                worst = max(worst, d2 / d1)
    assert worst <= 1.1 / cfg.N * (1 + 1e-6)


def test_inner_bound_value():
    # independent recomputation of the q=0.55, N=2, n0=55 case
    expected = 0.55**56 / 0.45 * ((math.e**1.1 - 1.0) / (math.e**0.55 - 1.0))
    got = inner_bound(_params(1.1, 2, 55), 1.0)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.752983927419558e-14, rel=1e-12)


def test_inner_bound_monotone_in_n0():
    prev = None
    for n0 in range(5, 60, 5):
        val = inner_bound(_params(1.1, 2, n0), 1.0)
        if prev is not None:
            assert val < prev
        prev = val


def test_inner_bound_degenerate_cases():
    assert inner_bound(_params(1.1, 2, 55), 0.0) == 0.0
    assert inner_bound(_params(0.0, 1, 10), 5.0) == 0.0
