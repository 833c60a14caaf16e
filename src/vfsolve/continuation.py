"""Parameter continuation for the monotone equation xi + F(xi) = z.

The map P(xi) = xi + F(xi) with F monotone and L-Lipschitz is inverted by
splitting the identity coefficient into N sub-steps of size eps0 = 1/N.  With
P_k(x) = x + k*eps0*F(x) and P_0 = I, so that P = P_N, level k solves

    u = y - eps0*F(P_{k-1}^{-1}(u))

by n0 fixed-point steps from u = y, each a contraction by q = L*eps0 < 1, and
then P_k^{-1}(y) = P_{k-1}^{-1}(u).  Every step re-solves all lower levels
from scratch, so with n0 steps per level the paper counts (n0+1)^N - 1
evaluations of F for one :func:`p_inverse`.  Each level >= 2 runs its steps
in :func:`repeat_stop`, which stops at the first bitwise repeat of an
iterate and returns the bits the full n0-step loop ends on, having
evaluated F fewer times.  One of its steps has already inverted the lower
levels at that iterate, so the level hands that inverse back as well, and
:func:`p_inverse`, or the chain of the level above, does not solve the lower
levels again.  Level 1 runs in a plain loop of its own: its steps are single
maps, whose iterates do not repeat on the benchmark, so it keys nothing,
keeps no chain and no copy of its target, and adds its n0 maps to the tally
once.  Almost every map a solve makes is a level-1 step, so this loop sets
the cost per map.  The outer loop of :func:`vfsolve.hybrid.solve` runs in
:func:`repeat_stop` too, and the solve reports the paper's count in closed
form.

``F`` is any callable mapping a 1-d ndarray to one of the same shape;
``cfg.op_counter`` tallies its evaluations (where F itself raises, not those
of the level-1 solve it raised in).  F need not check its output: each step
forms its iterate on a fresh array, writing into neither F's result nor the
target, checks it once, and raises :class:`SolverError` with F's argument as
``state`` when it is non-finite, for the caller to name the cause.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ContinuationConfig",
    "SolverError",
    "p_inverse",
    "repeat_stop",
]


class SolverError(RuntimeError):
    """An iteration produced a non-finite state or failed to meet its contract.
    ``state``, if not None, is the argument of the map whose step failed."""

    def __init__(self, message: str, state=None):
        super().__init__(message)
        self.state = state


@dataclass
class ContinuationConfig:
    """The loop counts and the running operation tally.

    N levels of n0 steps each, with sub-step eps0 = 1/N.  Whether the
    steps contract (q = L/N < 1) and by how much is checked and bounded by
    :class:`vfsolve.hybrid.SolverParams`, not here.  ``op_counter`` tallies
    the maps made: F's here, and the outer Phi maps of
    :func:`vfsolve.hybrid.solve`, which adds its own.
    """

    N: int
    n0: int
    op_counter: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"need N >= 1, got {self.N}")
        if self.n0 < 1:
            raise ValueError(f"need n0 >= 1, got {self.n0}")


def _nonfinite(level: int, step: int, state) -> SolverError:
    """The error of a step whose iterate is non-finite; ``state`` is F's argument."""
    return SolverError(
        f"non-finite iterate at level {level}, step {step}; "
        "the Lipschitz/monotonicity assumptions are likely violated",
        state=state,
    )


def _level1(F, target: np.ndarray, cfg: ContinuationConfig) -> np.ndarray:
    """Level 1's n0 steps w <- -eps0*F(w) + target, from w = target.

    Each step is one map on a fresh array; the maps are added to the tally
    once, n0 of them, or t + 1 when step t fails its finiteness check."""
    scale = -(1.0 / cfg.N)
    w = target
    for t in range(cfg.n0):
        v = w
        w = np.multiply(F(v), scale, dtype=float)  # a fresh array: F's stays as it was
        w += target
        if np.count_nonzero(np.isfinite(w)) != w.size:
            cfg.op_counter += t + 1
            raise _nonfinite(1, t, v)
    cfg.op_counter += cfg.n0
    return w


def _level(F, level: int, target: np.ndarray, cfg: ContinuationConfig) -> tuple:
    """n0 steps w <- -eps0*F(P_(level-1)^(-1)(w)) + target at a level >= 2,
    from w = target, by :func:`repeat_stop`.  Returns (w, v) with
    v = P_(level-1)^(-1)(w) when a step already computed it, that is when
    the loop stopped at a repeat, and v = None otherwise."""
    scale = -(1.0 / cfg.N)

    def step(v, t):
        w = np.multiply(F(v), scale, dtype=float)
        cfg.op_counter += 1
        w += target
        if np.count_nonzero(np.isfinite(w)) != w.size:
            raise _nonfinite(level, t - 1, v)
        return w

    return repeat_stop(step, lambda w: _inverse(F, level - 1, w, cfg), target.copy(), cfg.n0)


def _inverse(F, level: int, y: np.ndarray, cfg: ContinuationConfig) -> np.ndarray:
    """P_level^(-1)(y) for level >= 1: levels ``level`` … 2 in turn, each on
    the result of the one above, until a level hands back the lower inverse
    it computed; otherwise level 1 last."""
    for lev in range(level, 1, -1):
        y, below = _level(F, lev, y, cfg)
        if below is not None:
            return below
    return _level1(F, y, cfg)


def p_inverse(F, z, cfg: ContinuationConfig):
    """Approximate solution xi of xi + F(xi) = z.

    Solves the top level for y, then maps y down through the remaining
    N-1 inversions, skipping those a level's stop has already made.  The
    defect ||xi + F(xi) - z|| obeys :func:`vfsolve.hybrid.inner_bound`.
    """
    return _inverse(F, cfg.N, np.asarray(z, dtype=float), cfg)


def repeat_stop(step, inverse, x: np.ndarray, n: int) -> tuple:
    """n steps x_t = step(inverse(x_(t-1)), t) from x_0 = x, stopped at the
    first bitwise repeat: returns (x_n, inverse(x_n)) if an iterate repeats,
    else (x_n, None).

    The repeat rule of the outer loop of :func:`vfsolve.hybrid.solve` and of
    every continuation level >= 2.  Each x_t is kept by its bytes, with the
    inverse at it.  A step is a function of the bits of its argument, so
    when x_t is bit for bit an earlier x_i the iterates cycle with period
    t - i from step i on, and the n-step loop ends on x_j with
    j = i + (n - i) mod (t - i): the loop returns x_j and its inverse, both
    in hand.  Only identical bits count (-0.0 and 0.0 differ).  A repeat is
    taken after ``step`` returns, so each step makes its own finiteness
    check and raises its own error, and no skipped step could raise: it
    would repeat numpy calls on bits already seen.  This assumes ``step``
    and ``inverse`` are functions of their arguments, as the paper's maps
    are: a kernel with side effects sees fewer calls, and under an
    ``"always"`` warnings filter the skipped steps' warnings are not shown.
    """
    xs, inverses, first = [x], [], {x.tobytes(): 0}  # x_i, inverse(x_i), bytes -> i
    for t in range(1, n + 1):
        inverses.append(inverse(x))
        x = step(inverses[-1], t)
        xs.append(x)
        i = first.setdefault(x.tobytes(), t)
        if i < t:
            j = i + (n - i) % (t - i)
            return xs[j], inverses[j]
    return x, None

