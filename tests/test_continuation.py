import math

import numpy as np
import pytest

from vfsolve.continuation import (
    ContinuationConfig,
    SolverError,
    inner_bound,
    level_solve,
    p_inverse,
)
from vfsolve.discrete import build_system, fred, norm
from vfsolve.problem import benchmark_problem
from vfsolve.quadrature import build_scheme, make_grid


def _cfg(L, N, n0):
    return ContinuationConfig(N=N, q=L / N, n0=n0)


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
    with pytest.raises(ValueError, match="q must lie"):
        ContinuationConfig(N=1, q=1.0, n0=5)
    with pytest.raises(ValueError, match="N >= 1"):
        ContinuationConfig(N=0, q=0.5, n0=5)
    with pytest.raises(ValueError, match="n0 >= 1"):
        ContinuationConfig(N=1, q=0.5, n0=0)
    assert _cfg(1.1, 2, 55).q == pytest.approx(0.55)
    assert _cfg(1.1, 2, 55).eps0 == 0.5


def test_zero_operator_returns_target():
    cfg = _cfg(0.0, 1, 7)
    target = np.array([1.0, -2.0, 3.0])
    out = level_solve(lambda v: np.zeros_like(v), 1, target, cfg)
    assert np.array_equal(out, target)
    assert cfg.op_counter == 7  # F evaluated once per step even when trivial


def test_zero_operator_any_level():
    cfg = _cfg(0.0, 3, 4)
    target = np.array([2.0, 5.0])
    out = level_solve(lambda v: np.zeros_like(v), 3, target, cfg)
    assert np.array_equal(out, target)
    assert np.array_equal(p_inverse(lambda v: np.zeros_like(v), target, cfg), target)


def test_scalar_closed_form():
    # xi + 0.9 xi = 1.9 has solution xi = 1
    F = lambda v: 0.9 * v
    out1 = p_inverse(F, np.array([1.9]), _cfg(0.9, 1, 200))
    assert abs(out1[0] - 1.0) <= 1e-9
    out2 = p_inverse(F, np.array([1.9]), _cfg(0.9, 2, 200))
    assert abs(out2[0] - 1.0) <= 1e-9
    assert abs(out1[0] - out2[0]) <= 2e-9  # continuation path-independence


def test_linear_system_against_dense_solve():
    A = np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, 0.3]])
    L = float(np.linalg.norm(A, 2))
    assert L < 1
    z = np.array([1.0, -2.0, 0.5])
    direct = np.linalg.solve(np.eye(3) + A, z)
    for N in (1, 2):
        out = p_inverse(lambda v: A @ v, z, _cfg(L, N, 400))
        assert np.max(np.abs(out - direct)) <= 1e-8


def test_level_bounds_checked():
    cfg = _cfg(0.5, 2, 3)
    with pytest.raises(ValueError, match="level must be in"):
        level_solve(lambda v: v, 3, np.zeros(2), cfg)
    with pytest.raises(ValueError, match="level must be in"):
        level_solve(lambda v: v, 0, np.zeros(2), cfg)


def test_nonfinite_iterate_raises():
    cfg = _cfg(0.5, 1, 10)
    blow_up = lambda v: np.full_like(v, np.inf)
    with pytest.raises(SolverError, match="non-finite iterate"):
        level_solve(blow_up, 1, np.array([1.0]), cfg)


def _plain_level(F, level, y, N, n0, on_step=None):
    """level_solve written out plainly; on_step(level, k, w) sees each iterate."""
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
    # maps at levels 1 and 2: the constant map's level 2 repeats its first
    # iterate at step 2, so it stops after two steps of 5 + 1 maps
    for F, maps in ((lambda v: v, (5, 30)), (lambda v: kept, (5, 12))):
        for level in (1, 2):
            cfg, seen = _cfg(0.9, 2, 5), []

            def watched(v):  # every argument F receives, with a copy of it
                seen.append((v, v.copy()))
                return F(v)

            got = level_solve(watched, level, target, cfg)
            want = _plain_level(F, level, target, 2, 5)
            assert got.tobytes() == want.tobytes()
            assert len(seen) == cfg.op_counter == maps[level - 1]
            assert all(v.tobytes() == copy.tobytes() for v, copy in seen)
        got = p_inverse(F, target, _cfg(0.9, 2, 5))
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
# maps of level_solve at levels 2 and 3 and of p_inverse, all with N = 3);
# without a stop the maps would be n0*(n0+1), n0*(n0+1)^2 and (n0+1)^3 - 1.
# A level that stops hands back the lower inverse of the iterate it returns,
# which one of its steps computed, so the chain above it, or p_inverse, does
# not solve the lower levels again: p_inverse then makes only the top
# level's maps, and a level 3 whose chain's level 2 stops makes fewer maps
# (without that reuse: 36, 105, 96, 48, 45 and 180 at level 3, and 53,
# 125, 127, 63, 71 and 215 for p_inverse).  With "period 1", level 2 stops
# at step 2, having made 2 * (5 + 1) = 12 maps, and hands back the level-1
# solve of w_1 its step 2 made; each level-3 step is then one level-2 solve
# and one map, 2 * (12 + 1) = 26, against 2 * (12 + 5 + 1) = 36
LEVEL_CASES = {
    "no repeat": (lambda v: 0.5 * v + 0.25, [1.0, -2.0], 4, [None, None], [20, 100, 124]),
    "period 1": (lambda v: np.full_like(v, 0.75), [1.0, -2.0], 5, [(1, 1), (1, 1)], [12, 26, 26]),
    "period 3": (_steps(-3.0, 3.0, -6.0), [0.0], 6, [(1, 3), (1, 3)], [28, 81, 81]),
    "period 2 from step 2": (_steps(-3.0, 6.0, -6.0), [-1.0], 7, [(2, 2), (2, 1)], [32, 75, 75]),
    "back to the target": (_steps(0.0, 3.0, -6.0), [0.5], 7, [(0, 3), (0, 2)], [24, 34, 34]),
    "ends on the target": (_steps(0.0, 3.0, -6.0), [0.5], 8, [(0, 2), (0, 2)], [18, 29, 29]),
    "repeat at step n0": (lambda v: np.floor(-v), [3.0], 5, [(4, 1), None], [30, 175, 210]),
}


@pytest.mark.parametrize("name", list(LEVEL_CASES))
def test_level_stop_is_bit_identical_to_the_plain_loop(name):
    F, y, n0, repeats, maps = LEVEL_CASES[name]
    y = np.array(y)
    assert [_top_repeat(F, level, y, 3, n0) for level in (2, 3)] == repeats
    got = []
    for level in (2, 3):
        cfg = _cfg(0.9, 3, n0)
        out = level_solve(F, level, y, cfg)
        assert out.tobytes() == _plain_level(F, level, y, 3, n0).tobytes()
        assert not np.shares_memory(out, y)
        got.append(cfg.op_counter)
    cfg = _cfg(0.9, 3, n0)
    want = y
    for level in (3, 2, 1):
        want = _plain_level(F, level, want, 3, n0)
    assert p_inverse(F, y, cfg).tobytes() == want.tobytes()
    got.append(cfg.op_counter)
    assert got == maps


def test_nonfinite_level_iterate_raises_before_any_repeat():
    # level 2's second step leaves the region where F is finite: u_0 and u_1
    # differ, so the stop never fires and the step raises as in the full loop
    F = lambda v: np.where(v > 4.0, np.inf, -2.0 * v + 1.0)
    for level in (2, 3):
        cfg, argument = _cfg(0.9, 3, 4), []

        def watched(v):
            argument.append(v.copy())
            return F(v)

        with pytest.raises(SolverError) as info:
            level_solve(watched, level, np.array([1.0]), cfg)
        assert str(info.value) == (
            "non-finite iterate at level 2, step 1; "
            "the Lipschitz/monotonicity assumptions are likely violated"
        )
        assert cfg.op_counter == len(argument) == 10
        assert info.value.state.tobytes() == argument[-1].tobytes()


def test_nonfinite_iterate_carries_the_maps_argument():
    cfg = _cfg(0.5, 2, 3)
    argument = []

    def F(v):
        argument.append(v.copy())
        return np.full_like(v, np.inf) if len(argument) == 6 else 0.5 * v

    with pytest.raises(SolverError, match=r"^non-finite iterate at level 1, step 1;") as info:
        p_inverse(F, np.array([1.0, 2.0]), cfg)
    assert cfg.op_counter == 6
    assert info.value.state.tobytes() == argument[-1].tobytes()


def test_op_counter_exact_for_p_inverse(bench):
    sys_, F1, g1 = bench
    for L, N, n0 in ((0.9, 1, 12), (1.1, 2, 12), (1.1, 2, 25)):
        cfg = _cfg(L, N, n0)
        p_inverse(F1, g1, cfg)
        assert cfg.op_counter == (n0 + 1) ** N - 1
        assert cfg.op_counter <= (n0 + 1) ** N


@pytest.mark.parametrize("n0", [10, 20, 55])
def test_defect_within_inner_bound(bench, n0):
    sys_, F1, g1 = bench
    cfg = _cfg(1.1, 2, n0)
    xi = p_inverse(F1, g1, cfg)
    defect = norm(sys_, xi + F1(xi) - g1)
    assert defect <= inner_bound(cfg, norm(sys_, g1))


def test_level_contraction_witness(bench):
    # consecutive iterates of every level solve contract at least by q
    sys_, F1, g1 = bench
    cfg = _cfg(1.1, 2, 30)
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
    assert worst <= cfg.q * (1 + 1e-6)


def test_inner_bound_value():
    # independent recomputation of the q=0.55, N=2, n0=55 case
    cfg = _cfg(1.1, 2, 55)
    expected = 0.55**56 / 0.45 * ((math.e**1.1 - 1.0) / (math.e**0.55 - 1.0))
    got = inner_bound(cfg, 1.0)
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.752983927419558e-14, rel=1e-12)


def test_inner_bound_monotone_in_n0():
    prev = None
    for n0 in range(5, 60, 5):
        val = inner_bound(_cfg(1.1, 2, n0), 1.0)
        if prev is not None:
            assert val < prev
        prev = val


def test_inner_bound_degenerate_cases():
    assert inner_bound(_cfg(1.1, 2, 55), 0.0) == 0.0
    assert inner_bound(_cfg(0.0, 1, 10), 5.0) == 0.0
    cfg = _cfg(0.5, 1, 10)
    cfg.q = 1.5  # simulate a corrupted config
    with pytest.raises(ValueError, match="q < 1"):
        inner_bound(cfg, 1.0)
