"""The full solver: outer contraction iteration + inner parameter continuation.

The discrete system xi + Phi(xi) + F(xi) = g is first shifted so both
operators vanish at the origin,

    Phi1(v) = Phi(v) - Phi(0),  F1(v) = F(v) - F(0),  g1 = g - Phi(0) - F(0),

which leaves the solution set unchanged.  Substituting z = xi + F1(xi) turns
the system into a fixed-point problem for T(z) = -Phi1(Pinv(z)) + g1, where
Pinv is the continuation inverse of xi + F1(xi).  T is iterated n0 times from
z = g1; its m-fold composition contracts with factor alpha = M^m/sqrt((m-1)!),
so the iteration error after n0 = m*d + h0 steps is at most (C1 + C2)*beta^d
(all constants below).  One solve costs at most (n0+1)^(N+1) kernel-map
evaluations, counted exactly by the configuration's operation tally.

:func:`derive_params` turns declared constants (M, L, ||g1||, eps) into the
full parameter set; individual values can be overridden (the dependent
quantities are recomputed) to reproduce a pinned parameter choice exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import math

import numpy as np

from . import continuation, discrete
from .continuation import ContinuationConfig, SolverError

__all__ = [
    "SolverParams",
    "ErrorBudget",
    "Solution",
    "derive_params",
    "prepare",
    "solve",
    "iteration_bound",
    "iteration_bound_fine",
    "op_budget",
    "fixed_point_error",
    "shift_parts",
    "D_CAP",
]

D_CAP = 10**6


@dataclass(frozen=True)
class SolverParams:
    """Derived constants of one solver run.

    n0 = m*d + h0 always holds; beta = max(q^m, alpha) is the effective
    per-d contraction factor of the error bound (C1 + C2)*beta^d.
    """

    N: int
    q: float
    m: int
    alpha: float
    n_prime: int
    gamma: float
    d: int
    h0: int
    n0: int
    C_nprime: float
    C_m: float
    C1: float
    C2: float
    beta: float
    g_norm: float
    eps: float

    def __post_init__(self):
        if self.N < 1 or self.m < 1 or self.n_prime < 1:
            raise ValueError("N, m, n_prime must be positive integers")
        for label, value in (
            ("q", self.q), ("alpha", self.alpha),
            ("gamma", self.gamma), ("beta", self.beta),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{label} must lie in [0, 1), got {value}")
        if not 0 <= self.h0 < self.m:
            raise ValueError(f"h0 must lie in [0, m), got h0={self.h0}, m={self.m}")
        if self.n0 != self.m * self.d + self.h0:
            raise ValueError(
                f"inconsistent split: n0={self.n0} != m*d+h0={self.m * self.d + self.h0}"
            )
        if self.n0 < 1:
            raise ValueError(f"need n0 >= 1, got {self.n0}")
        if self.eps <= 0 or self.g_norm < 0:
            raise ValueError("need eps > 0 and g_norm >= 0")


@dataclass(frozen=True)
class ErrorBudget:
    """A-priori bounds and the measured operation count of one solve."""

    iteration_bound: float
    inner_bound_value: float
    discretization_note: str
    op_count: int
    op_bound: int

    def __post_init__(self):
        if self.op_count > self.op_bound:
            raise SolverError(
                f"operation count {self.op_count} exceeded budget {self.op_bound}"
            )


@dataclass(frozen=True, eq=False)
class Solution:
    """Approximate solution plus everything needed to judge it."""

    xi: np.ndarray
    budget: ErrorBudget
    params: SolverParams
    residual: float
    per_node_error: Optional[np.ndarray] = None


def _power_coeff(M: float, k: int) -> float:
    # M^k / sqrt((k-1)!) — the k-fold composition constant of the Volterra map
    try:
        return M**k / math.sqrt(math.factorial(k - 1))
    except OverflowError:
        raise ValueError(
            f"M={M} is too large: M^k/sqrt((k-1)!) overflows a float at k={k}"
        ) from None


def derive_params(
    M: float,
    L: float,
    g_norm: float,
    eps: float,
    N: int | None = None,
    m: int | None = None,
    n_prime: int | None = None,
    n0: int | None = None,
) -> SolverParams:
    """Choose all solver parameters for declared constants M, L, ||g||, eps.

    Defaults: N is the smallest split with q = L/N < 1; n_prime the smallest
    with gamma = M/sqrt(n_prime) <= 1/2; m the smallest >= 2 with
    alpha = M^m/sqrt((m-1)!) <= 0.1; d the smallest with (C1+C2)*beta^d <= eps
    (capped at D_CAP); h0 = m-1 and n0 = m*d + h0.  Any of N, m, n_prime, n0
    may be pinned instead, in which case the dependent values are recomputed
    (pinning n0 sets d = n0 // m, h0 = n0 % m).  The sums need
    M^k/sqrt((k-1)!) for k up to max(m, n_prime), which overflows a float at
    k = 172, so a derived n_prime caps M at sqrt(171)/2 ≈ 6.538; a larger M
    raises ValueError.
    """
    if not (np.isfinite(M) and M >= 0) or not (np.isfinite(L) and L >= 0):
        raise ValueError(f"M and L must be finite and nonnegative, got M={M}, L={L}")
    if not eps > 0:
        raise ValueError(f"need eps > 0, got {eps}")
    if not g_norm >= 0:
        raise ValueError(f"need g_norm >= 0, got {g_norm}")

    if N is None:
        N = math.floor(L) + 1
    q = L / N
    if q >= 1.0:
        raise ValueError(f"N={N} gives q={q} >= 1; need a finer split")

    # m first: its search overflows (and raises) within about 170 steps for a
    # large M, while the n_prime search would take about 4*M^2 steps
    if m is None:
        m = 2
        while _power_coeff(M, m) > 0.1:
            m += 1
    alpha = _power_coeff(M, m)
    if alpha >= 1.0:
        raise ValueError(f"m={m} gives alpha={alpha} >= 1; increase m")

    if n_prime is None:
        n_prime = 1
        while M / math.sqrt(n_prime) > 0.5:
            n_prime += 1
    gamma = M / math.sqrt(n_prime)
    if gamma >= 1.0:
        raise ValueError(f"n_prime={n_prime} gives gamma={gamma} >= 1")

    C_m = sum(_power_coeff(M, k) for k in range(1, m + 1))
    C_nprime = (
        (gamma / (1.0 - gamma)) * _power_coeff(M, n_prime)
        + sum(_power_coeff(M, k) for k in range(1, n_prime + 1))
        + 1.0
    )
    C1 = (1.0 + M) * (q / (1.0 - q)) * continuation.growth(q, N) * C_nprime * g_norm
    C2 = C_m / (1.0 - alpha) * g_norm
    beta = max(q**m, alpha)

    if n0 is not None:
        if n0 < 1:
            raise ValueError(f"need n0 >= 1, got {n0}")
        d, h0 = divmod(n0, m)
    else:
        d, value = 0, C1 + C2
        while value > eps:
            d += 1
            value *= beta
            if d > D_CAP:
                raise ValueError(
                    f"tolerance eps={eps} needs more than {D_CAP} contraction "
                    "blocks; loosen eps"
                )
        h0 = m - 1
        n0 = m * d + h0

    return SolverParams(
        N=N, q=q, m=m, alpha=alpha, n_prime=n_prime, gamma=gamma,
        d=d, h0=h0, n0=n0, C_nprime=C_nprime, C_m=C_m, C1=C1, C2=C2,
        beta=beta, g_norm=g_norm, eps=eps,
    )


def iteration_bound(params: SolverParams) -> float:
    """Coarse a-priori iteration-error bound (C1 + C2) * beta^d."""
    return (params.C1 + params.C2) * params.beta**params.d


def iteration_bound_fine(params: SolverParams) -> float:
    """Finer split of the same bound: C1*q^n0 + C2*alpha^d."""
    first = params.C1 * params.q**params.n0
    second = params.C2 * params.alpha**params.d
    return first + second


def op_budget(params: SolverParams) -> int:
    """Worst-case kernel-map evaluations of one solve: (n0+1)^(N+1)."""
    return (params.n0 + 1) ** (params.N + 1)


def fixed_point_error(params: SolverParams, k: int, anchor_gap: float) -> float:
    """Power-contraction a-posteriori estimate after k steps.

    (alpha^((k - k mod m)/m) / (1 - alpha)) * anchor_gap, valid for k >= m.
    """
    if k < params.m:
        raise ValueError(f"estimate needs k >= m, got k={k}, m={params.m}")
    blocks = (k - k % params.m) // params.m
    return params.alpha**blocks / (1.0 - params.alpha) * anchor_gap


def shift_parts(sys: discrete.DiscreteSystem):
    """(Phi(0), F(0), g1) with g1 = g - Phi(0) - F(0)."""
    zero = np.zeros(sys.dim)
    phi0 = discrete.phi(sys, zero)
    f0 = discrete.fred(sys, zero)
    return phi0, f0, sys.g_vec - phi0 - f0


def prepare(sys: discrete.DiscreteSystem, eps: float, **overrides) -> SolverParams:
    """Derive params for a system using the shifted forcing norm ||g1||."""
    _, _, g1 = shift_parts(sys)
    return derive_params(
        sys.problem.M, sys.problem.L, discrete.norm(sys, g1), eps, **overrides
    )


def solve(
    sys: discrete.DiscreteSystem,
    params: SolverParams,
    outer_callback: Callable[[int, np.ndarray], None] | None = None,
) -> Solution:
    """Run the full hybrid iteration and package the result.

    ``outer_callback(t, z)``, if given, observes the outer iterates z^(0) ...
    z^(n0).  Operation counting covers the iteration's Phi/F evaluations; the
    shift setup and final diagnostics are excluded.  Raises ValueError when
    ``params`` were derived for another system: q, alpha or g_norm differ
    from L/N, M^m/sqrt((m-1)!) or ||g1||.
    """
    if abs(params.q - sys.problem.L / params.N) > 1e-12:
        raise ValueError(
            "params do not match the system: "
            f"q={params.q} but L/N={sys.problem.L / params.N}"
        )
    phi0, f0, g1 = shift_parts(sys)
    if not np.isfinite(g1).all():
        raise ValueError("state vector contains non-finite entries")
    g1_norm = discrete.norm(sys, g1)
    for label, value, what, expected in (
        ("alpha", params.alpha, "M^m/sqrt((m-1)!)", _power_coeff(sys.problem.M, params.m)),
        ("g_norm", params.g_norm, "||g1||", g1_norm),
    ):
        if not math.isclose(value, expected, rel_tol=1e-12):
            raise ValueError(
                f"params do not match the system: {label}={value} but {what}={expected}"
            )

    # g1 is finite and every later state is an iterate that _step has
    # checked, so the inner map skips fred's argument validation
    def F1(v):
        return discrete.fred_unchecked(sys, v) - f0

    cfg = ContinuationConfig.for_lipschitz(sys.problem.L, params.N, params.n0)
    outer_ops = 0
    z = g1.copy()
    if outer_callback is not None:
        outer_callback(0, z.copy())
    for t in range(params.n0):
        xi_t = continuation.p_inverse(F1, z, cfg)
        z = -(discrete.phi(sys, xi_t) - phi0) + g1
        outer_ops += 1
        if not np.isfinite(z).all():
            raise SolverError(f"non-finite outer iterate at step {t + 1}")
        if outer_callback is not None:
            outer_callback(t + 1, z.copy())
    xi = continuation.p_inverse(F1, z, cfg)

    budget = ErrorBudget(
        iteration_bound=iteration_bound(params),
        inner_bound_value=continuation.inner_bound(cfg, g1_norm),
        discretization_note=(
            f"quadrature truncation error not included: O(h^{sys.scheme.order}) "
            f"for the {sys.scheme.rule} rule, vanishing as the grid is refined"
        ),
        op_count=cfg.op_counter + outer_ops,
        op_bound=op_budget(params),
    )
    per_node = None
    if sys.problem.exact is not None:
        exact_vec = np.asarray(sys.problem.exact(sys.scheme.nodes), dtype=float)
        per_node = np.abs(xi - exact_vec)
    return Solution(
        xi=xi,
        budget=budget,
        params=params,
        residual=discrete.residual(sys, xi),
        per_node_error=per_node,
    )
