"""Parameter continuation for the monotone equation xi + F(xi) = z.

The map P(xi) = xi + F(xi) with F monotone and L-Lipschitz is inverted by
splitting the identity coefficient into N sub-steps of size eps0 = 1/N.  With
P_k(x) = x + k*eps0*F(x) and P_0 = I, so that P = P_N, level k solves

    u = y - eps0*F(P_{k-1}^{-1}(u))

by n0 fixed-point steps from u = y, each a contraction by q = L*eps0 < 1, and
then P_k^{-1}(y) = P_{k-1}^{-1}(u).  Every step re-solves all lower levels
from scratch, so with n0 steps per level a full :func:`p_inverse` costs
exactly (n0+1)^N - 1 evaluations of F.  No memoization is
performed — the complexity accounting of the surrounding solver assumes the
recomputation, and correctness does not (each inner solve is started fresh
from its own target).  The outer loop in :func:`vfsolve.hybrid.solve` stops
at the first outer iterate that repeats an earlier one bit for bit, so it
may call :func:`p_inverse` fewer than n0 + 1 times; each call still makes
the full recursion, and the solve reports the paper's count in closed form.

``F`` is any callable mapping a 1-d ndarray to one of the same shape;
``cfg.op_counter`` tallies its evaluations.  F need not check its output:
each step forms its iterate on a fresh array, writing into neither F's result
nor the target, checks it once, and raises :class:`SolverError` with F's
argument as ``state`` when it is non-finite, for the caller to name the cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

__all__ = [
    "ContinuationConfig",
    "SolverError",
    "level_solve",
    "p_inverse",
    "growth",
    "inner_bound",
]


class SolverError(RuntimeError):
    """An iteration produced a non-finite state or failed to meet its contract.
    ``state``, if not None, is the argument of the map whose step failed."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class ContinuationConfig:
    """Continuation parameters and the running operation tally.

    ``q`` is the per-level contraction factor L*eps0 with sub-step
    eps0 = 1/N, and must be < 1 for any of this to converge.
    """

    N: int
    q: float
    n0: int
    op_counter: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if self.n0 < 1:
            raise ValueError(f"need n0 >= 1, got {self.n0}")
        if not 0.0 <= self.q < 1.0:
            raise ValueError(f"contraction factor q must lie in [0, 1), got {self.q}")

    @property
    def eps0(self) -> float:
        """Sub-step size 1/N."""
        return 1.0 / self.N


def level_solve(F, level: int, target, cfg: ContinuationConfig):
    """n0 fixed-point steps of w <- -eps0*F(chain(w)) + target at one level.

    ``chain`` inverts all lower levels (a fresh :func:`level_solve` for each),
    so the cost is exponential in ``level``.  The iteration starts from the
    target itself.
    """
    if not 1 <= level <= cfg.N:
        raise ValueError(f"level must be in [1, {cfg.N}], got {level}")
    target = np.asarray(target, dtype=float)
    lower, scale = range(level - 1, 0, -1), -cfg.eps0
    w = target.copy()
    for k in range(cfg.n0):
        for lev in lower:
            w = level_solve(F, lev, w, cfg)
        nxt = np.multiply(F(w), scale, dtype=float)  # a fresh array: F's stays as it was
        cfg.op_counter += 1
        nxt += target
        if np.count_nonzero(np.isfinite(nxt)) != nxt.size:
            raise SolverError(
                f"non-finite iterate at level {level}, step {k}; "
                "the Lipschitz/monotonicity assumptions are likely violated",
                state=w,
            )
        w = nxt
    return w


def p_inverse(F, z, cfg: ContinuationConfig):
    """Approximate solution xi of xi + F(xi) = z.

    Solves the top level for y, then maps y down through the remaining
    N-1 inversions.  The defect ||xi + F(xi) - z|| obeys :func:`inner_bound`.
    """
    for lev in range(cfg.N, 0, -1):
        z = level_solve(F, lev, z, cfg)
    return z


def growth(q: float, N: int) -> float:
    """Level-accumulation factor (e^(qN) - 1)/(e^q - 1), continued to N at q = 0."""
    if q == 0.0:
        return float(N)
    return (math.exp(q * N) - 1.0) / (math.exp(q) - 1.0)


def inner_bound(cfg: ContinuationConfig, z_norm: float) -> float:
    """A-priori defect bound (q^(n0+1)/(1-q)) * growth(q, N) * ||z||."""
    if cfg.q >= 1.0:
        raise ValueError(f"bound requires q < 1, got {cfg.q}")
    if cfg.q == 0.0:
        return 0.0
    return cfg.q ** (cfg.n0 + 1) / (1.0 - cfg.q) * growth(cfg.q, cfg.N) * float(z_norm)
