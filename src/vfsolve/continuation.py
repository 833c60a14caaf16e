"""Parameter continuation for the monotone equation xi + F(xi) = z.

The map P(xi) = xi + F(xi) with F monotone and L-Lipschitz is inverted by
splitting the identity coefficient into N sub-steps of size eps0 = 1/N, so
each partial map G_k(x) = x + k*eps0*F(x) satisfies q = L*eps0 < 1 and can be
inverted by a plain fixed-point iteration.  Inverting the chain

    P = G_N o G_{N-1}^{-1}-composable pieces, x = G_1^{-1}(G_2^{-1}(...(y)))

needs one fixed-point loop per level, each step of which re-solves every
lower level from scratch; with n0 steps per level a full :func:`p_inverse`
therefore costs exactly (n0+1)^N - 1 evaluations of F.  No memoization is
performed — the complexity accounting of the surrounding solver assumes the
recomputation, and correctness does not (each inner solve is started fresh
from its own target).

``F`` is any callable mapping a 1-d ndarray to one of the same shape;
``cfg.op_counter`` tallies its evaluations.
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
    """An iteration produced a non-finite state or failed to meet its contract."""


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

    @classmethod
    def for_lipschitz(cls, L: float, N: int, n0: int) -> "ContinuationConfig":
        """Config for an F with Lipschitz constant L, split into N sub-steps."""
        return cls(N=N, q=L / N, n0=n0)


def _step(F, w, target, cfg, level, k, on_step):
    value = np.asarray(F(w), dtype=float)
    cfg.op_counter += 1
    nxt = -cfg.eps0 * value + target
    if not np.isfinite(nxt).all():
        raise SolverError(
            f"non-finite iterate at level {level}, step {k}; "
            "the Lipschitz/monotonicity assumptions are likely violated"
        )
    if on_step is not None:
        on_step(level, k, nxt)
    return nxt


def level_solve(F, level: int, target, cfg: ContinuationConfig, on_step=None):
    """n0 fixed-point steps of w <- -eps0*F(chain(w)) + target at one level.

    ``chain`` inverts all lower levels (a fresh :func:`level_solve` for each),
    so the cost is exponential in ``level``.  The iteration starts from the
    target itself.  ``on_step(level, k, w)``, if given, observes every iterate
    of every (sub-)solve, with k restarting at 0 for each new solve.
    """
    if not 1 <= level <= cfg.N:
        raise ValueError(f"level must be in [1, {cfg.N}], got {level}")
    target = np.asarray(target, dtype=float)
    w = target.copy()
    for k in range(cfg.n0):
        w = _step(F, _chain_down(F, w, level - 1, cfg, on_step), target, cfg, level, k, on_step)
    return w


def _chain_down(F, w, k: int, cfg, on_step):
    for lev in range(k, 0, -1):
        w = level_solve(F, lev, w, cfg, on_step)
    return w


def p_inverse(F, z, cfg: ContinuationConfig, on_step=None):
    """Approximate solution xi of xi + F(xi) = z.

    Solves the top level for y, then maps y down through the remaining
    N-1 inversions.  The defect ||xi + F(xi) - z|| obeys :func:`inner_bound`.
    """
    y = level_solve(F, cfg.N, z, cfg, on_step)
    return _chain_down(F, y, cfg.N - 1, cfg, on_step)


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
