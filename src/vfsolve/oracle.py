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
cells, the global weights tiled to a block, and J's finiteness mask.  An
iteration maps through the checked :func:`vfsolve.discrete.phi`
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

import numpy as np

from . import discrete

__all__ = ["NewtonError", "newton_solve", "DIM_CAP"]

DIM_CAP = 1000
MAX_ITER = 50
RESIDUAL_TOL = 1e-12  # in the weighted norm
FD_STEP = 1e-7


class NewtonError(RuntimeError):
    """Newton iteration failed: singular Jacobian, divergence, or no convergence."""


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

    ``base`` is ``_system_map(sys, at)``.  The fallback that gives
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
    cells (whole rows, at least one), ``weights`` the global weights in
    every row of a block, and ``finite`` the Jacobian's finiteness mask,
    which holds a block's clamped cells while the Jacobian is formed.  An
    iteration allocates only vectors of length dim.
    """

    def __init__(self, sys: discrete.DiscreteSystem):
        dim = sys.dim
        rows = min(dim, max(1, discrete._BLOCK_CELLS // dim))
        self.sys = sys
        self.blocks = [slice(lo, min(lo + rows, dim)) for lo in range(0, dim, rows)]
        self.jac = np.empty((dim, dim))
        self.k2 = np.empty((dim, dim))
        self.block = np.empty((rows, dim))
        # numpy buffers a broadcast operand, 64 KiB a multiply
        self.weights = np.tile(sys.scheme.global_weights, (rows, 1))
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
                    height = rows.stop - rows.start
                    bumped_rows = self.block[:height]
                    k1 = discrete._table(sys, "k1", bumped, rows, bumped_rows)
                    np.subtract(k1, part, out=part)
                    # clamped cells may be non-finite
                    clamped = np.logical_not(sys.volterra_mask[rows], out=self.finite[rows])
                    np.copyto(part, 0.0, where=clamped)
                    part *= sys.scheme.volterra_weights[rows]
                    k2 = discrete._table(sys, "k2", bumped, rows, bumped_rows)
                    dk2 = np.subtract(k2, self.k2[rows], out=bumped_rows)
                    dk2 *= self.weights[:height]
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


def newton_solve(sys: discrete.DiscreteSystem, *, start=None) -> np.ndarray:
    """Newton iteration from ``start`` (default: the forcing vector g).

    Returns xi with weighted residual <= :data:`RESIDUAL_TOL` within
    :data:`MAX_ITER` steps of Jacobian step :data:`FD_STEP`, or raises
    :class:`NewtonError` naming the failure and the last residual seen.
    """
    _check_dim(sys.dim)
    work = _Workspace(sys)
    xi = sys.g_vec.copy() if start is None else np.asarray(start, dtype=float).copy()
    for it in range(MAX_ITER + 1):
        mapped = work.map(xi)
        defect = mapped - sys.g_vec
        res = discrete.norm(sys, defect)
        if res <= RESIDUAL_TOL:
            return xi
        if it == MAX_ITER:
            break
        jac = work.jacobian(xi, FD_STEP, mapped)
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
        f"no convergence within {MAX_ITER} iterations; last residual {res:.3e}"
    )

