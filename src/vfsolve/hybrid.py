"""The full solver: outer contraction iteration + inner parameter continuation.

The discrete system xi + Phi(xi) + F(xi) = g is first shifted so both
operators vanish at the origin,

    Phi1(v) = Phi(v) - Phi(0),  F1(v) = F(v) - F(0),  g1 = g - Phi(0) - F(0),

which leaves the solution set unchanged; the shift is computed once per
system (:attr:`vfsolve.discrete.DiscreteSystem.shift`).  Substituting
z = xi + F1(xi) turns the system into a fixed-point problem for
T(z) = -Phi1(Pinv(z)) + g1, where Pinv is the continuation inverse of
xi + F1(xi).  T is iterated n0 times from z = g1; its m-fold composition
contracts with factor alpha = M^m/sqrt((m-1)!), so the iteration error
after n0 = m*d + h0 steps is at most (C1 + C2)*beta^d (all constants
below).  The iteration makes (n0+1)^(N+1) - 1 kernel maps, the operation
count; the budget caps it at (n0+1)^(N+1).

The outer iteration and each continuation level >= 2 inside Pinv return
their last iterate and the inverse at it, so the solve's xi is Pinv of the
last outer iterate.  Each stops at its first bitwise repeat, with the bits
of the full loop (:func:`vfsolve.continuation.repeat_stop` states the
rule), having made fewer maps (``maps_evaluated``).  Pinv's map F1 is
built once per solve (:func:`vfsolve.discrete.shifted_fred`).

:func:`derive_params` turns declared constants (M, L, ||g1||, eps) into the
counts N, m, n_prime and n0; any count can be pinned instead to reproduce a
parameter choice exactly, and :class:`SolverParams` derives the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

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
    "inner_bound",
    "op_budget",
    "fixed_point_error",
    "D_CAP",
]

D_CAP = 10**6


@dataclass(frozen=True)
class SolverParams:
    """What one solver run is chosen from, and the constants it derives.

    Stored: the declared M, L, g_norm = ||g1|| and eps, and the counts N, m,
    n_prime and n0.  Derived, read-only: q, alpha, gamma, the split
    n0 = m*d + h0 (0 <= h0 < m), C_m, C_nprime, C1, C2, beta, the
    per-d contraction factor of the error bound (C1 + C2)*beta^d, and
    growth, the continuation's level growth, a factor of both C1 and
    :func:`inner_bound`.  Raises ValueError for a bad declared value, a
    count below 1 (``need n0 >= 1, got 0``), or q, alpha or gamma >= 1, in
    that order.
    """

    M: float
    L: float
    g_norm: float
    eps: float
    N: int
    m: int
    n_prime: int
    n0: int

    def __post_init__(self):
        _check_declared(self.M, self.L)
        if not self.eps > 0:
            raise ValueError(f"need eps > 0, got {self.eps}")
        if self.eps == math.inf:
            raise ValueError("need finite eps > 0, got inf")
        if not self.g_norm >= 0:
            raise ValueError(f"need g_norm >= 0, got {self.g_norm}")
        if self.g_norm == math.inf:
            raise ValueError("need finite g_norm >= 0, got inf")
        for name in ("N", "m", "n_prime", "n0"):
            if getattr(self, name) < 1:
                raise ValueError(f"need {name} >= 1, got {getattr(self, name)}")
        if self.q >= 1.0:
            raise ValueError(f"N={self.N} gives q={self.q} >= 1; need a finer split")
        if self.alpha >= 1.0:
            raise ValueError(f"m={self.m} gives alpha={self.alpha} >= 1; increase m")
        if self.gamma >= 1.0:
            raise ValueError(f"n_prime={self.n_prime} gives gamma={self.gamma} >= 1")
        iteration_bound(self)  # C_nprime and growth may overflow: raise now

    @property
    def q(self) -> float:
        return self.L / self.N
    @property
    def alpha(self) -> float:
        return _power_coeff(self.M, self.m)
    @property
    def gamma(self) -> float:
        return self.M / math.sqrt(self.n_prime)
    @property
    def beta(self) -> float:
        return max(self.q**self.m, self.alpha)
    @property
    def d(self) -> int:
        return self.n0 // self.m
    @property
    def h0(self) -> int:
        return self.n0 % self.m
    @property
    def C_m(self) -> float:
        return sum(_power_coeff(self.M, k) for k in range(1, self.m + 1))

    @property
    def C_nprime(self) -> float:
        return (
            (self.gamma / (1.0 - self.gamma)) * _power_coeff(self.M, self.n_prime)
            + sum(_power_coeff(self.M, k) for k in range(1, self.n_prime + 1))
            + 1.0
        )

    @property
    def growth(self) -> float:
        """Level growth (e^(qN) - 1)/(e^q - 1), continued to N at q = 0."""
        if self.q == 0.0:
            return float(self.N)
        return (math.exp(self.q * self.N) - 1.0) / (math.exp(self.q) - 1.0)

    @property
    def C1(self) -> float:
        q = self.q
        return (1.0 + self.M) * (q / (1.0 - q)) * self.growth * self.C_nprime * self.g_norm

    @property
    def C2(self) -> float:
        return self.C_m / (1.0 - self.alpha) * self.g_norm


@dataclass(frozen=True)
class ErrorBudget:
    """A-priori bounds and the operation counts of one solve.

    ``op_count`` is the number of Phi/F maps of the paper's iteration whose
    result the solve returns bit for bit, (n0+1)^(N+1) - 1, one below
    ``op_bound``; ``maps_evaluated`` is the number it actually made, fewer
    when the outer iterates or the iterates of a continuation level >= 2
    repeat (:func:`solve`).
    """

    iteration_bound: float
    inner_bound_value: float
    discretization_note: str
    maps_evaluated: int
    op_bound: int

    @property
    def op_count(self) -> int:
        return self.op_bound - 1

    def __post_init__(self):
        if self.maps_evaluated > self.op_count:
            raise SolverError(
                f"maps evaluated {self.maps_evaluated} exceed operation count {self.op_count}"
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


def _check_declared(M: float, L: float) -> None:
    if not (np.isfinite(M) and M >= 0) or not (np.isfinite(L) and L >= 0):
        raise ValueError(f"M and L must be finite and nonnegative, got M={M}, L={L}")


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
    (capped at D_CAP) and n0 = m*d + m - 1.  Any of N, m, n_prime, n0 may be
    pinned instead; the derived constants follow from the counts (a pinned
    n0 gives d = n0 // m, h0 = n0 % m).  The sums need M^k/sqrt((k-1)!) for
    k up to max(m, n_prime), which overflows a float at k = 172, so a derived
    n_prime caps M at sqrt(171)/2 ≈ 6.538; a larger M raises ValueError.
    """
    _check_declared(M, L)  # floor(L) and the n_prime search need finite values
    if N is None:
        N = math.floor(L) + 1
    # m first: its search overflows (and raises) within about 170 steps for a
    # large M, while the n_prime search would take about 4*M^2 steps
    if m is None:
        m = 2
        while _power_coeff(M, m) > 0.1:
            m += 1
    if n_prime is None:
        n_prime = 1
        while M / math.sqrt(n_prime) > 0.5:
            n_prime += 1

    # C1, C2 and beta do not depend on n0, so a provisional n0 = m serves the d search
    params = SolverParams(M, L, g_norm, eps, N, m, n_prime, m if n0 is None else n0)
    if n0 is not None:
        return params
    d, value, beta = 0, params.C1 + params.C2, params.beta
    while value > eps:
        d += 1
        value *= beta
        if d > D_CAP:
            raise ValueError(
                f"tolerance eps={eps} needs more than {D_CAP} contraction "
                "blocks; loosen eps"
            )
    return replace(params, n0=m * d + m - 1)


def iteration_bound(params: SolverParams) -> float:
    """Coarse a-priori iteration-error bound (C1 + C2) * beta^d."""
    return (params.C1 + params.C2) * params.beta**params.d


def iteration_bound_fine(params: SolverParams) -> float:
    """Finer split of the same bound: C1*q^n0 + C2*alpha^d."""
    first = params.C1 * params.q**params.n0
    second = params.C2 * params.alpha**params.d
    return first + second


def inner_bound(params: SolverParams, z_norm: float) -> float:
    """A-priori defect bound (q^(n0+1)/(1-q)) * growth * ||z|| of one
    continuation inverse at a target of norm ``z_norm``."""
    q = params.q
    return q ** (params.n0 + 1) / (1.0 - q) * params.growth * float(z_norm)


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


def prepare(sys: discrete.DiscreteSystem, eps: float, **overrides) -> SolverParams:
    """Derive params for a system using the shifted forcing norm ||g1||."""
    _, _, g1 = sys.shift
    return derive_params(
        sys.problem.M, sys.problem.L, discrete.norm(sys, g1), eps, **overrides
    )


def solve(sys: discrete.DiscreteSystem, params: SolverParams) -> Solution:
    """Run the full hybrid iteration and package the result.

    The outer loop runs in :func:`vfsolve.continuation.repeat_stop`, as
    each level >= 2 inside Pinv does, and xi is the inverse it returns with
    its last iterate.  A step's finiteness check and norm update come before
    its repeat is taken, so the inner bound is unchanged.  F1 is
    :func:`vfsolve.discrete.shifted_fred`, built here once.

    ``op_count`` is the paper's count (n0+1)^(N+1) - 1 of the iteration's
    Phi/F maps, whose result is returned whether or not a loop stopped
    early; ``maps_evaluated`` counts the maps made, ``cfg.op_counter``'s
    tally of the Phi and F1 maps.  The shift setup and
    final diagnostics are excluded from both.
    Raises ValueError when ``params`` were derived for another system: q,
    alpha or g_norm differ from L/N, M^m/sqrt((m-1)!) or ||g1||.
    """
    if not math.isclose(params.q, sys.problem.L / params.N, rel_tol=1e-12):
        raise ValueError(
            "params do not match the system: "
            f"q={params.q} but L/N={sys.problem.L / params.N}"
        )
    phi0, f0, g1 = sys.shift
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

    # g1 and every iterate are checked, so the inner map skips fred's checks
    F1 = discrete.shifted_fred(sys, f0)

    def p_inverse(z):
        try:
            return continuation.p_inverse(F1, z, cfg)
        except SolverError as err:
            # names a non-finite table cell, if any; the map's own sum warned already
            with np.errstate(invalid="ignore", over="ignore"):
                discrete.fred(sys, err.state)
            raise

    cfg = ContinuationConfig(params.N, params.n0)
    z_norm = g1_norm  # the largest target norm; the inner bound scales with it

    def step(xi, t):
        nonlocal z_norm
        z = -(discrete.phi(sys, xi) - phi0) + g1
        cfg.op_counter += 1
        if not np.isfinite(z).all():
            raise SolverError(f"non-finite outer iterate at step {t}")
        z_norm = max(z_norm, discrete.norm(sys, z))
        return z

    _, xi = continuation.repeat_stop(step, p_inverse, g1.copy(), params.n0)

    budget = ErrorBudget(
        iteration_bound=iteration_bound(params),
        inner_bound_value=inner_bound(params, z_norm),
        discretization_note=(
            f"quadrature truncation error not included: O(h^{sys.scheme.order}) "
            f"for the {sys.scheme.rule} rule, vanishing as the grid is refined"
        ),
        maps_evaluated=cfg.op_counter,
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
