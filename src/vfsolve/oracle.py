"""Independent Newton solver for the discrete system, used as ground truth.

Solves G(xi) = xi + Phi(xi) + F(xi) - g = 0 with a dense forward-difference
Jacobian and LU-factorized updates.  Since xi_j enters row i only through
k1(t_i, s_j, xi_j) and k2(t_i, s_j, xi_j), the Jacobian is built entrywise
from the kernel tables at xi and at bumped = xi + step:

    J = diag(bumped - xi)/step + (V o mask o dk1 + dk2 diag(w)) / step

where dk is a kernel table at bumped minus the table at xi, V and w are the
Volterra and global weights, and mask drops the clamped (s_j > t_i) cells:
four kernel evaluations in place of dim + 1 system maps.  If a kernel raises
or J comes out non-finite, the Jacobian is rebuilt column by column from
system maps, so failures raise exactly the errors the system maps raise.
Deliberately shares no iteration machinery with the continuation solver so
the two can check each other; the common code is the kernels, the weight
tables and the kernel-table builders of :mod:`vfsolve.discrete`.  No
globalization: the systems in scope are contraction-dominated, and
divergence is reported rather than repaired.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import discrete

__all__ = ["NewtonConfig", "NewtonError", "newton_solve", "jacobian_check", "DIM_CAP"]

DIM_CAP = 1000
_CHECK_DIM_CAP = 60


class NewtonError(RuntimeError):
    """Newton iteration failed: singular Jacobian, divergence, or no convergence."""


@dataclass(frozen=True)
class NewtonConfig:
    max_iter: int = 50
    residual_tol: float = 1e-12  # in the weighted norm
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"need max_iter >= 1, got {self.max_iter}")
        if not self.residual_tol > 0:
            raise ValueError(f"need residual_tol > 0, got {self.residual_tol}")
        if not self.fd_step > 0:
            raise ValueError(f"need fd_step > 0, got {self.fd_step}")


def _system_map(sys: discrete.DiscreteSystem, xi: np.ndarray) -> np.ndarray:
    return xi + discrete.phi(sys, xi) + discrete.fred(sys, xi)


def _column_jacobian(
    sys: discrete.DiscreteSystem, at: np.ndarray, step: float, base: np.ndarray
) -> np.ndarray:
    """Forward differences one column at a time: dim system maps.

    ``base`` is ``_system_map(sys, at)``.  The reference for
    :func:`jacobian_check`, and the replay that gives :func:`_fd_jacobian`
    the system maps' exact errors.
    """
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        bumped = at.copy()
        bumped[j] += step
        jac[:, j] = (_system_map(sys, bumped) - base) / step
    return jac


def _entrywise_jacobian(
    sys: discrete.DiscreteSystem, at: np.ndarray, step: float
) -> np.ndarray:
    bumped = at + step
    # a bump that rounds away leaves its column exactly zero, as in the
    # column loop
    diag = (bumped - at) / step
    jac = np.subtract(discrete.k1_table(sys, bumped), discrete.k1_table(sys, at))
    np.copyto(jac, 0.0, where=~sys.volterra_mask)  # clamped cells may be non-finite
    jac *= sys.scheme.volterra_weights
    dk2 = np.subtract(discrete.k2_table(sys, bumped), discrete.k2_table(sys, at))
    dk2 *= sys.scheme.global_weights
    jac += dk2
    jac /= step
    jac.flat[:: sys.dim + 1] += diag
    return jac


def _fd_jacobian(
    sys: discrete.DiscreteSystem, at: np.ndarray, step: float, base: np.ndarray
) -> np.ndarray:
    """Forward-difference Jacobian at ``at``; ``base`` is ``_system_map(sys, at)``."""
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            jac = _entrywise_jacobian(sys, at, step)
    except Exception:  # a kernel may raise anything
        jac = None
    if jac is not None and np.isfinite(jac).all():
        return jac
    # the column loop raises the system maps' own errors and warnings, or
    # returns the Jacobian they give
    return _column_jacobian(sys, at, step, base)


def newton_solve(
    sys: discrete.DiscreteSystem,
    cfg: NewtonConfig | None = None,
    start=None,
) -> np.ndarray:
    """Newton iteration from ``start`` (default: the forcing vector g).

    Returns xi with weighted residual <= cfg.residual_tol, or raises
    :class:`NewtonError` naming the failure and the last residual seen.
    """
    cfg = cfg or NewtonConfig()
    if sys.dim > DIM_CAP:
        raise ValueError(
            f"system dimension {sys.dim} exceeds the dense-Jacobian cap {DIM_CAP}"
        )
    xi = sys.g_vec.copy() if start is None else np.asarray(start, dtype=float).copy()
    res = np.inf
    for _ in range(cfg.max_iter):
        mapped = _system_map(sys, xi)
        defect = mapped - sys.g_vec
        res = discrete.norm(sys, defect)
        if res <= cfg.residual_tol:
            return xi
        jac = _fd_jacobian(sys, xi, cfg.fd_step, mapped)
        try:
            delta = np.linalg.solve(jac, defect)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}") from None
        del jac  # free it before the next one is built
        xi = xi - delta
        if not np.all(np.isfinite(xi)):
            raise NewtonError(
                f"iteration diverged to non-finite values (residual was {res:.3e})"
            )
    defect = _system_map(sys, xi) - sys.g_vec
    res = discrete.norm(sys, defect)
    if res <= cfg.residual_tol:
        return xi
    raise NewtonError(
        f"no convergence within {cfg.max_iter} iterations; last residual {res:.3e}"
    )


def jacobian_check(
    sys: discrete.DiscreteSystem,
    at,
    cfg: NewtonConfig | None = None,
) -> float:
    """Cross-check of the Jacobian that :func:`newton_solve` uses.

    Builds it entrywise from kernel tables and column by column from system
    maps, both at ``cfg.fd_step``, and returns the max absolute entrywise
    discrepancy.  Restricted to small systems (dim <= 60).
    """
    cfg = cfg or NewtonConfig()
    if sys.dim > _CHECK_DIM_CAP:
        raise ValueError(
            f"jacobian_check is limited to dim <= {_CHECK_DIM_CAP}, got {sys.dim}"
        )
    at = np.asarray(at, dtype=float)
    base = _system_map(sys, at)
    entrywise = _fd_jacobian(sys, at, cfg.fd_step, base)
    columns = _column_jacobian(sys, at, cfg.fd_step, base)
    return float(np.max(np.abs(entrywise - columns)))
