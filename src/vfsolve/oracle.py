"""Independent Newton solver for the discrete system, used as ground truth.

Solves G(xi) = xi + Phi(xi) + F(xi) - g = 0 with a dense forward-difference
Jacobian and LU-factorized updates.  Since xi_j enters row i only through
k1(t_i, s_j, xi_j) and k2(t_i, s_j, xi_j), the Jacobian is built entrywise
from the kernel tables at xi and at bumped = xi + step:

    J = diag(bumped - xi)/step + (V o mask o dk1 + dk2 diag(w)) / step

where dk is a kernel table at bumped minus the table at xi, V and w are the
Volterra and global weights, and mask drops the clamped (s_j > t_i) cells.

Shared tables.  An iteration builds each kernel's table at xi once, for the
residual and the Jacobian alike: the system map writes k1's rows into the
Jacobian's buffer and keeps k2's whole table, and the Jacobian then builds
only the tables at bumped, four tables in all in place of dim + 1 system
maps.  Rows are formed in blocks of about 16,384 cells (40 rows at dim 400,
whole tables up to dim 128), which stay in cache through the Jacobian's
passes over them, in buffers allocated once per solve.  A separable form's
c_r tables come from :mod:`vfsolve.discrete` (``k1_split``/``k2_split``)
and are sliced to a block's rows.  phi's rows are summed a block at a
time, fred's come from k2's whole table (BLAS rounds a matrix-vector
product on a few rows differently), and the arithmetic is the whole-table
maps' and Jacobian's, so every iterate is bit-identical to them.

Replays.  Where a phi or fred row comes out non-finite or anything raises
(a kernel, a factor, a numpy warning under ``python -W error``), the map is
replayed through :func:`vfsolve.discrete.phi` and
:func:`vfsolve.discrete.fred`, which raise their own errors; if they
return, the Jacobian at that state is built column by column from system
maps.  So is J when a kernel raises while it is built or J comes out
non-finite, so failures raise exactly the errors the system maps raise.
Under the default warning filter a numpy warning may print from this
module before such an error.

Deliberately shares no iteration machinery with the continuation solver so
the two can check each other; the common code is the kernels, their
separable forms and the weight tables of :mod:`vfsolve.discrete`.  No
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
# cells in a row block of the Jacobian: 40 rows at dim 400, whole tables to dim 128
_BLOCK_CELLS = 16_384


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
    :func:`jacobian_check`, and the replay that gives the shared-table
    Jacobian the system maps' exact errors.
    """
    jac = np.empty((sys.dim, sys.dim))
    for j in range(sys.dim):
        bumped = at.copy()
        bumped[j] += step
        jac[:, j] = (_system_map(sys, bumped) - base) / step
    return jac


class _SharedTables:
    """One solve's buffers, and the kernel tables at the state last mapped.

    :meth:`system_map` writes k1's rows at xi into the Jacobian's buffer, a
    row block at a time, and keeps k2's whole table; :meth:`jacobian` then
    builds only the tables at xi + step.  Tables are built as
    :func:`vfsolve.discrete.k1_table` builds them: from the c_r tables of
    ``sys.k1_split``/``sys.k2_split``, sliced to the block's rows, and e_r on
    the state's row once, or whole from the kernel where there is no form or
    a factor raises.  A map replayed through :func:`_system_map` gets its
    Jacobian from :func:`_column_jacobian`.
    """

    def __init__(self, sys: discrete.DiscreteSystem, step: float):
        dim = sys.dim
        self.sys, self.step = sys, step
        self.rows = max(1, min(dim, _BLOCK_CELLS // dim))
        self.jac = np.empty((dim, dim))
        self.scratch = np.empty((self.rows, dim))
        self.k2_buf = None if sys.k2_split is None else np.empty((dim, dim))
        self.unmasked = ~sys.volterra_mask
        self.at = self.k2_at = None

    def _blocks(self):
        dim = self.sys.dim
        for r0 in range(0, dim, self.rows):
            yield r0, min(r0 + self.rows, dim)

    def _source(self, which: str, v: np.ndarray):
        """The kernel's table at ``v``: its form's (c_r table, e_r row)
        terms, or the kernel's own whole table."""
        split = self.sys.k1_split if which == "k1" else self.sys.k2_split
        if split is not None:
            s, x = self.sys.scheme.nodes[None, :], v[None, :]
            try:
                return [(c, e(s, x)) for c, e in split]
            except Exception:  # the kernel builds this table, as in k1_table
                pass
        return discrete._kernel_call(self.sys, which, v)

    def _rows(self, source, r0: int, r1: int, out: np.ndarray) -> None:
        """Rows r0:r1 of a :meth:`_source` table, written into ``out``."""
        if not isinstance(source, list):
            np.copyto(out, source[r0:r1])
            return
        for i, (c, e_row) in enumerate(source):
            if i == 0:
                np.multiply(c[r0:r1], e_row, out=out)
            else:
                out += c[r0:r1] * e_row

    def system_map(self, xi: np.ndarray) -> np.ndarray:
        """:func:`_system_map` at ``xi``, bit-identically, from the shared
        tables: k1's rows at ``xi`` go into the Jacobian's buffer and k2's
        table is kept.  A state they cannot take is replayed through
        :func:`_system_map`, which raises its own errors."""
        sys = self.sys
        self.at = None
        try:
            v = discrete._as_state(sys, xi)
            phi = np.empty(sys.dim)
            k1 = self._source("k1", v)
            for r0, r1 in self._blocks():
                rows, cells = self.jac[r0:r1], self.scratch[: r1 - r0]
                self._rows(k1, r0, r1, rows)
                # discrete._volterra_sum, a row block at a time
                cells.fill(0.0)
                np.multiply(
                    sys.scheme.volterra_weights[r0:r1], rows,
                    out=cells, where=sys.volterra_mask[r0:r1],
                )
                cells.sum(axis=-1, out=phi[r0:r1])
            if np.isfinite(phi).all():
                k2 = self._source("k2", v)
                if isinstance(k2, list):
                    self._rows(k2, 0, sys.dim, self.k2_buf)
                    k2 = self.k2_buf
                fred = k2 @ sys.scheme.global_weights
                if np.isfinite(fred).all():
                    mapped = xi + phi + fred
                    self.at, self.k2_at = xi, k2
                    return mapped
        except Exception:  # a kernel may raise anything, warnings too (-W error)
            pass
        return _system_map(sys, xi)

    def jacobian(self, at: np.ndarray, base: np.ndarray) -> np.ndarray:
        """Forward-difference Jacobian at ``at``; ``base`` is
        ``self.system_map(at)``.  Each row block makes the whole-table
        formula's operations in its order, then the diagonal is added."""
        sys, step = self.sys, self.step
        if self.at is not at:  # the map was replayed
            return _column_jacobian(sys, at, step, base)
        self.at = None  # the Jacobian takes the place of k1's rows
        jac = self.jac
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                bumped = at + step
                # a bump that rounds away leaves its column exactly zero, as in
                # the column loop
                diag = (bumped - at) / step
                k1, k2 = self._source("k1", bumped), self._source("k2", bumped)
                for r0, r1 in self._blocks():
                    rows, bumped_rows = jac[r0:r1], self.scratch[: r1 - r0]
                    self._rows(k1, r0, r1, bumped_rows)
                    np.subtract(bumped_rows, rows, out=rows)
                    # clamped cells may be non-finite
                    np.copyto(rows, 0.0, where=self.unmasked[r0:r1])
                    rows *= sys.scheme.volterra_weights[r0:r1]
                    self._rows(k2, r0, r1, bumped_rows)
                    bumped_rows -= self.k2_at[r0:r1]
                    bumped_rows *= sys.scheme.global_weights
                    rows += bumped_rows
                    rows /= step
                jac.flat[:: sys.dim + 1] += diag
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
    tables = _SharedTables(sys, cfg.fd_step)
    for it in range(cfg.max_iter + 1):
        mapped = tables.system_map(xi)
        defect = mapped - sys.g_vec
        res = discrete.norm(sys, defect)
        if res <= cfg.residual_tol:
            return xi
        if it == cfg.max_iter:
            break
        jac = tables.jacobian(xi, mapped)
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
    tables = _SharedTables(sys, cfg.fd_step)
    base = tables.system_map(at)
    entrywise = tables.jacobian(at, base)
    columns = _column_jacobian(sys, at, cfg.fd_step, base)
    return float(np.max(np.abs(entrywise - columns)))
