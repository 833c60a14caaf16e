"""Independent Newton solver for the discrete system, used as ground truth.

Solves G(xi) = xi + Phi(xi) + F(xi) - g = 0 with a dense forward-difference
Jacobian and LU-factorized updates.  Since xi_j enters row i only through
k1(t_i, s_j, xi_j) and k2(t_i, s_j, xi_j), the Jacobian is built entrywise
from the kernel tables at xi and at bumped = xi + step:

    J = diag(bumped - xi)/step + (V o mask o dk1 + dk2 diag(w)) / step

where dk is a kernel table at bumped minus the table at xi, V and w are the
Volterra and global weights, and mask drops the clamped (s_j > t_i) cells.

A solve allocates its tables once (:class:`_Workspace`): J, the k2 table
at the iterate, one block of whole rows of ``discrete._BLOCK_CELLS``
cells, and J's finiteness mask.  An iteration maps through the checked :func:`vfsolve.discrete.phi`
and :func:`vfsolve.discrete.fred`, which leave the kernel tables at the
iterate in J's buffer and the k2 buffer, phi summing in the block a row
block at a time; so the map's errors and warnings are theirs.  J is then
formed over the k1 table a row block at a time, from the rows of the
tables at bumped, each row with the bits of the whole-table arithmetic.
Where forming J raises (a kernel, a factor, a numpy warning under
``python -W error``) or J comes out non-finite, J is built column by column
from system maps, so failures raise exactly the errors the system maps
raise.

Deliberately shares no iteration machinery with the continuation solver so
the two can check each other; the common code is :mod:`vfsolve.discrete`'s
checked maps, kernel tables and weights.  No
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
        if self.residual_tol == np.inf:
            raise ValueError("need finite residual_tol > 0, got inf")
        if not self.fd_step > 0:
            raise ValueError(f"need fd_step > 0, got {self.fd_step}")
        if self.fd_step == np.inf:
            raise ValueError("need finite fd_step > 0, got inf")


def _check_dim(dim: int) -> None:
    """Refuse a system dimension above :data:`DIM_CAP` with a ValueError."""
    if dim > DIM_CAP:
        raise ValueError(f"system dimension {dim} exceeds the dense-Jacobian cap {DIM_CAP}")


def _system_map(sys: discrete.DiscreteSystem, xi: np.ndarray) -> np.ndarray:
    return xi + discrete.phi(sys, xi) + discrete.fred(sys, xi)


def _column_jacobian(
    sys: discrete.DiscreteSystem, at: np.ndarray, step: float, base: np.ndarray
) -> np.ndarray:
    """Forward differences one column at a time: dim system maps.

    ``base`` is ``_system_map(sys, at)``.  The reference for
    :func:`jacobian_check`, and the fallback that gives
    :meth:`_Workspace.jacobian` the system maps' exact errors.
    """
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        bumped = at.copy()
        bumped[j] += step
        jac[:, j] = (_system_map(sys, bumped) - base) / step
    return jac


class _Workspace:
    """The tables one solve writes at every iterate, allocated once.

    ``jac`` holds the k1 table at the iterate from :meth:`map` until
    :meth:`jacobian` turns it into the Jacobian, ``k2`` holds the k2 table
    at the iterate, ``block`` one row block of ``discrete._BLOCK_CELLS``
    cells (whole rows, at least one), and ``finite`` the Jacobian's
    finiteness mask.
    """

    def __init__(self, sys: discrete.DiscreteSystem):
        dim = sys.dim
        rows = min(dim, max(1, discrete._BLOCK_CELLS // dim))
        self.sys = sys
        self.blocks = [slice(lo, min(lo + rows, dim)) for lo in range(0, dim, rows)]
        self.jac = np.empty((dim, dim))
        self.k2 = np.empty((dim, dim))
        self.block = np.empty((rows, dim))
        self.finite = np.empty((dim, dim), dtype=bool)

    def map(self, xi: np.ndarray) -> np.ndarray:
        """:func:`_system_map` at ``xi``, bit for bit, leaving the kernel
        tables at ``xi`` in ``jac`` and ``k2``."""
        sys = self.sys
        return (
            xi
            + discrete.phi(sys, xi, table=self.jac, block=self.block)
            + discrete.fred(sys, xi, table=self.k2)
        )

    def jacobian(self, at: np.ndarray, step: float, base: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian at ``at``, which :meth:`map` last
        mapped to ``base``, written over the k1 table a row block at a time.

        Each block is the whole-table arithmetic on its rows.
        """
        sys, jac = self.sys, self.jac
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                bumped = at + step
                # a bump that rounds away leaves its column exactly zero, as in
                # the column loop
                diag = (bumped - at) / step
                for rows in self.blocks:
                    part = jac[rows]
                    bumped_rows = self.block[: rows.stop - rows.start]
                    k1 = discrete._table(sys, "k1", bumped, rows, bumped_rows)
                    np.subtract(k1, part, out=part)
                    # clamped cells may be non-finite
                    np.copyto(part, 0.0, where=~sys.volterra_mask[rows])
                    part *= sys.scheme.volterra_weights[rows]
                    k2 = discrete._table(sys, "k2", bumped, rows, bumped_rows)
                    dk2 = np.subtract(k2, self.k2[rows], out=bumped_rows)
                    dk2 *= sys.scheme.global_weights
                    part += dk2
                    part /= step
                jac.flat[:: sys.dim + 1] += diag
        except Exception:  # a kernel may raise anything
            jac = None
        if jac is not None and np.isfinite(jac, out=self.finite).all():
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
    _check_dim(sys.dim)
    work = _Workspace(sys)
    xi = sys.g_vec.copy() if start is None else np.asarray(start, dtype=float).copy()
    for it in range(cfg.max_iter + 1):
        mapped = work.map(xi)
        defect = mapped - sys.g_vec
        res = discrete.norm(sys, defect)
        if res <= cfg.residual_tol:
            return xi
        if it == cfg.max_iter:
            break
        jac = work.jacobian(xi, cfg.fd_step, mapped)
        try:
            delta = np.linalg.solve(jac, defect)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular Jacobian: {exc}") from None
        xi = xi - delta
        if not np.all(np.isfinite(xi)):
            raise NewtonError(
                f"iteration diverged to non-finite values (residual was {res:.3e})"
            )
    raise NewtonError(
        f"no convergence within {cfg.max_iter} iterations; last residual {res:.3e}"
    )


def jacobian_check(
    sys: discrete.DiscreteSystem,
    at,
    cfg: NewtonConfig | None = None,
) -> float:
    """Cross-check of the Jacobian that :func:`newton_solve` uses.

    Builds it as :func:`newton_solve` does, entrywise from kernel tables a
    row block at a time, and column by column from system maps, both at
    ``cfg.fd_step``, and returns the max absolute entrywise discrepancy.
    Restricted to small systems (dim <= 60).
    """
    cfg = cfg or NewtonConfig()
    if sys.dim > _CHECK_DIM_CAP:
        raise ValueError(
            f"jacobian_check is limited to dim <= {_CHECK_DIM_CAP}, got {sys.dim}"
        )
    at = np.asarray(at, dtype=float)
    work = _Workspace(sys)
    base = work.map(at)
    entrywise = work.jacobian(at, cfg.fd_step, base)
    columns = _column_jacobian(sys, at, cfg.fd_step, base)
    return float(np.max(np.abs(entrywise - columns)))
