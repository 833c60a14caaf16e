"""Parameter continuation for the monotone equation xi + F(xi) = z.

The map P(xi) = xi + F(xi) with F monotone and L-Lipschitz is inverted by
splitting the identity coefficient into N sub-steps of size eps0 = 1/N.  With
P_k(x) = x + k*eps0*F(x) and P_0 = I, so that P = P_N, level k solves

    u = y - eps0*F(P_{k-1}^{-1}(u))

by n0 fixed-point steps from u = y, each a contraction by q = L*eps0 < 1, and
then P_k^{-1}(y) = P_{k-1}^{-1}(u).  Every step re-solves all lower levels
from scratch, so with n0 steps per level the paper counts (n0+1)^N - 1
evaluations of F for one :func:`p_inverse`.  A step is a function of the
bits of its iterate, so once an iterate of a level >= 2 repeats an earlier
one bit for bit, the rest of that level's loop would recompute a cycle
already seen: :func:`level_solve` stops there and returns the iterate the
full n0-step loop ends on (:func:`cycle_index`), bit for bit, having
evaluated F fewer times.  One of its steps has already inverted the lower
levels at that iterate, so it hands that inverse back as well, and
:func:`p_inverse`, or the chain of the level above, does not solve the lower
levels again.  Level 1 keys nothing and calls nothing below it: its steps
are single maps, whose iterates do not repeat on the benchmark, so a key
there would cost time and save none.  The outer loop in
:func:`vfsolve.hybrid.solve` stops at its first repeat by the same rule, and
the solve reports the paper's count in closed form.  This assumes F is a
function of its argument, as the paper's maps are.

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
    "cycle_index",
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

    ``chain`` inverts all lower levels (a fresh level solve for each, down to
    the first that hands back its lower inverse), so the cost is exponential
    in ``level``.  The iteration starts from the target itself.  At a level
    >= 2 each iterate is kept by its bytes, with the chain's result at it,
    after the step's finiteness check; when w_t repeats an earlier w_i the
    loop returns w_(cycle_index(i, t, n0)), the array the n0-step loop ends on.
    """
    if not 1 <= level <= cfg.N:
        raise ValueError(f"level must be in [1, {cfg.N}], got {level}")
    return _level(F, level, np.asarray(target, dtype=float), cfg)[0]


def _level(F, level: int, target: np.ndarray, cfg: ContinuationConfig) -> tuple:
    """:func:`level_solve`'s loop.  Returns (w, v) with v = P_(level-1)^(-1)(w)
    when a step already computed it, that is when the loop stopped at a
    repeat, and v = None otherwise."""
    scale = -cfg.eps0
    w = target.copy()
    # w_i, the chain's v_(i+1) = P_(level-1)^(-1)(w_i), and bytes of w_i -> i
    ws, vs, first = [w], [], ({w.tobytes(): 0} if level > 1 else None)
    for t in range(1, cfg.n0 + 1):
        v = _inverse(F, level - 1, w, cfg) if level > 1 else w
        w = np.multiply(F(v), scale, dtype=float)  # a fresh array: F's stays as it was
        cfg.op_counter += 1
        w += target
        if np.count_nonzero(np.isfinite(w)) != w.size:
            raise SolverError(
                f"non-finite iterate at level {level}, step {t - 1}; "
                "the Lipschitz/monotonicity assumptions are likely violated",
                state=v,
            )
        if first is not None:
            ws.append(w)
            vs.append(v)
            i = first.setdefault(w.tobytes(), t)
            if i < t:
                j = cycle_index(i, t, cfg.n0)
                return ws[j], vs[j]
    return w, None


def _inverse(F, level: int, y: np.ndarray, cfg: ContinuationConfig) -> np.ndarray:
    """P_level^(-1)(y): levels ``level`` … 1 in turn, each on the result of
    the one above, until a level hands back the lower inverse it computed.
    Level 0 is the identity."""
    for lev in range(level, 0, -1):
        y, below = _level(F, lev, y, cfg)
        if below is not None:
            return below
    return y


def p_inverse(F, z, cfg: ContinuationConfig):
    """Approximate solution xi of xi + F(xi) = z.

    Solves the top level for y, then maps y down through the remaining
    N-1 inversions, skipping those a level's stop has already made.  The
    defect ||xi + F(xi) - z|| obeys :func:`inner_bound`.
    """
    return _inverse(F, cfg.N, np.asarray(z, dtype=float), cfg)


def cycle_index(i: int, t: int, n: int) -> int:
    """Which of x_0 … x_t an n-step iteration x_(k+1) = T(x_k) ends on, when
    x_t is the first iterate to repeat an earlier x_i (i < t <= n): from step i
    on the iterates cycle with period t - i, so x_n = x_(i + (n - i) mod (t - i)).
    """
    return i + (n - i) % (t - i)


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
