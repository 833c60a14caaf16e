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
    return ContinuationConfig.for_lipschitz(L, N, n0)


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

    p_inverse(F1, g1, cfg, on_step=on_step)
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
