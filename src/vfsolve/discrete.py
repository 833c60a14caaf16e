"""The discrete nonlinear system xi + Phi(xi) + F(xi) = g on a quadrature grid.

Component definitions (nodes t_i, Volterra weights w[i, j], global weights w_r):

    phi_i(xi)  = sum_{j<=i} w[i, j] * k1(t_i, s_j, xi_j)      (Volterra part)
    fred_i(xi) = sum_r     w_r     * k2(t_i, s_r, xi_r)       (Fredholm part)

together with the weighted inner product <u, v> = sum_i w_i u_i v_i and its
norm, in which all error bounds of :mod:`vfsolve.hybrid` are stated.

State vectors are plain 1-d numpy arrays of length ``sys.dim``.  Kernel
callables must broadcast their arguments, and are called on node vectors
rather than full meshes:

* ``k2`` gets t as a (dim, 1) column of nodes, s as a (1, dim) row of nodes
  and x as the (1, dim) row of the state;
* ``k1`` gets t as the (dim, 1) column, and s and x as (dim, dim) tables in
  which cells with zero Volterra weight (s_j > t_i) hold the clamped in-domain
  arguments (s_0, xi_0), so kernels never see points outside
  [a, b]^2 x state-box; those cells are discarded afterwards.

On a block of node rows (the Newton oracle's Jacobian) t, and k1's s and x,
hold only those rows; a kernel that computes each cell from its own
arguments gives the rows of its whole table bit for bit.
Either result is broadcast to (dim, dim), so a kernel may return a
lower-rank array or a scalar (e.g. ``lambda t, s, x: 0.0``).  phi and
fred take the kernel tables from :func:`k1_table` and :func:`k2_table`
through one checked body, :func:`_checked_map`.  They take buffers that a
caller keeps, with the same result bits: ``table=`` receives the kernel
table (a form writes it there; a kernel's own table, possibly a read-only
broadcast view, is summed first and copied in after), and phi's ``block=``
holds the weighted cells one block of whole rows at a time.  The Newton
oracle maps with them, ``_BLOCK_CELLS`` cells a block, and builds the
tables at a bumped state with :func:`_table`, which also writes a slice of
node rows, into a given buffer where a form serves, each row with the bits
of the whole table's.  Only the length-dim output of phi
and fred is checked for non-finite values; when it fails, or when numpy's
warning about the weighted sum is raised as an error (``python -W error``),
the kernel's own table is searched for the offending cell to name in the
error.  :func:`shifted_fred` builds the continuation's inner map
F1(v) = fred(v) - F(0) once per solve; it returns the raw sum (named cells
only for a warning raised as an error): the continuation checks each
iterate, and :func:`fred` names a failing one's cell.  It writes a form's
table into a (dim, dim) buffer of its own and sums it with ``np.dot``, the
cheapest calls that give fred's bits; a kernel's table, which may be a
broadcast view, is summed with ``@`` as in fred.

Separable kernels.  A problem may declare k = sum_r c_r(t, s) * e_r(s, x)
(``Problem.k1_terms``/``k2_terms``), with c_r free of the state and e_r
free of t.  :func:`build_system` checks the form against the kernel at dim
points (t_i, s_i, g_i), with s_i <= t_i for k1: a mismatch beyond 1e-12
relative is a ValueError, and a form whose check raises, is non-finite or
is not real is not used.  Each c_r is evaluated on the kernel's own (t, s)
table, once per system.  :func:`_write_split` writes every table of a form
from dim evaluations of each e_r, on the row (s_j, xi_j), instead of dim^2
kernel evaluations; the points (s_j, xi_j) are ones the kernel's own table
holds in its last row.  A form that repeats the kernel's last
operations, as the builtin's and :func:`vfsolve.expr.split_terms`'s do,
gives tables bit-identical to the kernel's in every cell phi, fred and the
Jacobian use.  Where a c_r or e_r raises, or a row does not broadcast or
cast to float, the kernel builds the table, and phi and fred name a
non-finite cell from the kernel's own table, so errors and their texts are
the kernel's.

Stacked tables.  :func:`k1_table` and :func:`k2_table` also take a stack of
states, (P, dim) or with more leading axes, the grid on the last axis, and
return the (P, dim, dim) stack of their tables: the kernel or its factors
get x with the same leading axes, and a result of lower rank is broadcast
to the stack.  ``tables @ global_weights`` and :func:`_volterra_sum` then
give fred's and phi's rows, unchecked, each slice bit-identical to the map
of its own state.  :func:`vfsolve.problem.check_assumptions` evaluates its
pairs this way; phi and fred themselves take one state and check it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .problem import Problem
    from .quadrature import QuadScheme

__all__ = [
    "DiscreteSystem",
    "build_system",
    "phi",
    "fred",
    "shifted_fred",
    "k1_table",
    "k2_table",
    "inner",
    "norm",
    "residual",
]

# kernel-table cells per block, of the audit's stacked pairs (4 pairs at dim
# 50) and of the Newton oracle's rows: smaller blocks pay more per-call
# overhead, larger ones more memory and more page faults
_BLOCK_CELLS = 20_000


@dataclass(frozen=True, eq=False)
class DiscreteSystem:
    """One problem discretized by one scheme, with its Volterra argument table."""

    scheme: "QuadScheme"
    problem: "Problem"
    g_vec: np.ndarray = field(repr=False)
    # nonzero Volterra weights, and s with the other cells clamped to s_0
    volterra_mask: np.ndarray = field(repr=False)
    s_mesh_volterra: np.ndarray = field(repr=False)
    # the kernels' separable forms once checked against them, or None
    k1_terms: tuple | None = field(default=None, repr=False)
    k2_terms: tuple | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.scheme.dim

    @cached_property
    def shift(self) -> tuple:
        """(Phi(0), F(0), g1) with g1 = g - Phi(0) - F(0), as read-only arrays."""
        zero = np.zeros(self.dim)
        phi0 = phi(self, zero)
        f0 = fred(self, zero)
        parts = (phi0, f0, self.g_vec - phi0 - f0)
        for part in parts:
            part.flags.writeable = False
        return parts

    @cached_property
    def k1_split(self) -> tuple | None:
        """k1's form as (c_r on k1's (t, s) table, e_r) pairs, or None."""
        return _c_tables(self.k1_terms, self.scheme.nodes[:, None], self.s_mesh_volterra)

    @cached_property
    def k2_split(self) -> tuple | None:
        """k2's form as (c_r on k2's (t, s) table, e_r) pairs, or None."""
        nodes = self.scheme.nodes
        return _c_tables(self.k2_terms, nodes[:, None], nodes[None, :])


def _checked_terms(which: str, kernel, terms, t, s, x) -> tuple | None:
    """``terms``, once sum_r c_r * e_r is checked against ``kernel`` at the
    points (t_i, s_i, x_i); None where the kernel must serve alone."""
    if terms is None:
        return None
    try:
        dense = kernel(t, s, x)
        parts = [c(t, s) * e(s, x) for c, e in terms]
    except Exception:  # the kernel raises it, where and as it always has
        return None
    split = parts[0]
    for part in parts[1:]:
        split = split + part
    if np.result_type(split, float).kind != "f":  # complex, say: no float table
        return None
    if np.equal(split, dense).all():  # bit-identical (NaN never is)
        return terms
    if not (np.isfinite(split).all() and np.isfinite(dense).all()):
        return None
    gap = np.abs(split - dense) > 1e-12 * sum(np.abs(part) for part in parts)
    wrong = np.broadcast_to(gap, t.shape)
    if wrong.any():
        i = int(np.argmax(wrong))
        point = ", ".join(repr(float(a[i])) for a in (t, s, x))
        values = [float(np.broadcast_to(a, t.shape)[i]) for a in (split, dense)]
        raise ValueError(
            f"{which}_terms do not match {which} at (t, s, x) = ({point}): "
            f"{values[0]!r} from the terms, {values[1]!r} from the kernel"
        )
    return terms


def _c_tables(terms, t, s) -> tuple | None:
    """(c_r(t, s) as a (dim, dim) table, e_r) pairs, or None if a c_r raises."""
    if terms is None:
        return None
    try:
        return tuple((_kernel_table(c(t, s), (len(t), len(t))), e) for c, e in terms)
    except Exception:  # the kernel raises it, where and as it always has
        return None


def build_system(problem: "Problem", scheme: "QuadScheme") -> DiscreteSystem:
    """Sample g on the nodes, precompute the Volterra argument table, and
    check the kernels' separable forms."""
    nodes = scheme.nodes
    g_vec = np.asarray(problem.g(nodes), dtype=float)
    if np.shares_memory(g_vec, nodes):  # g = t, say, hands its argument back
        g_vec = g_vec.copy()
    if g_vec.shape != nodes.shape:
        raise ValueError(
            f"g returned shape {g_vec.shape} for {nodes.shape} nodes"
        )
    if not np.isfinite(g_vec).all():
        bad = int(np.argmax(~np.isfinite(g_vec)))
        raise ValueError(f"g is non-finite at node {bad} (t = {nodes[bad]})")
    mask = scheme.volterra_weights != 0.0
    # check points (t_i, s_i, g_i): s = the nodes reversed, for k1 no later than t
    s_rev = nodes[::-1]
    return DiscreteSystem(
        scheme=scheme,
        problem=problem,
        g_vec=g_vec,
        volterra_mask=mask,
        s_mesh_volterra=np.where(mask, nodes[None, :], nodes[0]),
        k1_terms=_checked_terms(
            "k1", problem.k1, problem.k1_terms, nodes, np.minimum(nodes, s_rev), g_vec
        ),
        k2_terms=_checked_terms("k2", problem.k2, problem.k2_terms, nodes, s_rev, g_vec),
    )


def _as_state(sys: DiscreteSystem, xi, what: str = "state vector") -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if v.shape != (sys.dim,):
        raise ValueError(f"{what} has shape {v.shape}, system dimension is {sys.dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} contains non-finite entries")
    return v


def _kernel_table(vals, shape: tuple) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return vals if vals.shape == shape else np.broadcast_to(vals, shape)


def _table_shape(sys: DiscreteSystem, v: np.ndarray, rows: slice) -> tuple:
    """(dim, dim) for a state, (P, dim, dim) for a (P, dim) stack of them,
    with only the node rows ``rows`` on the second-to-last axis."""
    return v.shape[:-1] + sys.volterra_mask[rows].shape


def _kernel_call(
    sys: DiscreteSystem, which: str, v: np.ndarray, rows: slice = slice(None)
) -> np.ndarray:
    """The table from the kernel itself ("k1" or "k2"), on the node rows ``rows``."""
    nodes = sys.scheme.nodes
    if which == "k1":
        x_table = np.where(sys.volterra_mask[rows], v[..., None, :], v[..., :1, None])
        vals = sys.problem.k1(nodes[rows, None], sys.s_mesh_volterra[rows], x_table)
    else:
        vals = sys.problem.k2(nodes[rows, None], nodes[None, :], v[..., None, :])
    return _kernel_table(vals, _table_shape(sys, v, rows))


def _write_split(split, s, x, out=None) -> np.ndarray:
    """sum_r c_r * e_r(s, x) in ``out``, or in a fresh table of the terms'
    broadcast shape: each row copied in by broadcast, then multiplied in
    place by its c_r table (the bits of ``c_r * row``, and faster than it
    into an existing table), and further terms added in place, left to right."""
    vals = None
    for c_table, e in split:
        row = e(s, x)
        fresh = vals is not None or out is None
        term = np.empty(np.broadcast(c_table, row).shape) if fresh else out
        np.copyto(term, row)
        np.multiply(term, c_table, out=term)
        if vals is None:
            vals = term
        elif out is None and vals.ndim < term.ndim:  # x-free terms so far: a stack
            vals = vals + term
        else:
            np.add(vals, term, out=vals)
    return vals


def _table(
    sys: DiscreteSystem, which: str, v: np.ndarray, rows: slice = slice(None), out=None
) -> np.ndarray:
    """The table of ``which`` ("k1" or "k2") on the node rows ``rows``: the
    form's where it serves, written into ``out`` when given, else the kernel's.

    Each row holds the bits of the same row of the whole table.
    """
    split = getattr(sys, f"{which}_split")
    if split is not None:
        try:
            rows_split = [(c_table[rows], e) for c_table, e in split]
            vals = _write_split(rows_split, sys.scheme.nodes[None, :], v[..., None, :], out)
            # terms free of x leave one (dim, dim) table for a stack
            return _kernel_table(vals, _table_shape(sys, v, rows))
        except Exception:  # the kernel raises it, with its own text
            pass
    return _kernel_call(sys, which, v, rows)


def _check_kernel_values(sys: DiscreteSystem, which: str, v: np.ndarray, vals=None) -> None:
    """Raise the error naming the kernel's first non-finite table cell, if any.

    A separable form's table, or none, gives way to the kernel's own, so the
    kernel raises, or names the cell, exactly as it does without one.
    """
    if vals is None or getattr(sys, f"{which}_terms") is not None:
        vals = _kernel_call(sys, which, v)
    bad = ~np.isfinite(vals)
    if which == "k1":
        bad &= sys.volterra_mask
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        part = "volterra kernel k1" if which == "k1" else "fredholm kernel k2"
        raise ValueError(f"{part} evaluated non-finite at mesh cell (i={i}, j={j})")


def k1_table(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """k1(t_i, s_j, v_j) as a (dim, dim) table, possibly a read-only view;
    a (P, dim) stack of states gives a (P, dim, dim) stack of tables.

    Cells outside ``sys.volterra_mask`` hold values from clamped in-domain
    points, such as k1 at (s_0, v_0); callers must discard them.
    """
    return _table(sys, "k1", v)


def k2_table(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """k2(t_i, s_j, v_j) as a (dim, dim) table, possibly a read-only view;
    a (P, dim) stack of states gives a (P, dim, dim) stack of tables."""
    return _table(sys, "k2", v)


def _volterra_sum(sys: DiscreteSystem, vals: np.ndarray, block=None) -> np.ndarray:
    """phi's weighted row sums of a k1 table, or of a stack of them, unchecked.

    ``block``, a buffer of whole node rows, takes the weighted cells of a
    (dim, dim) table one row block at a time instead of a fresh table; each
    row sums to the bits of the whole table's.
    """
    mask, weights = sys.volterra_mask, sys.scheme.volterra_weights
    if block is None:
        cells = np.where(mask, vals, 0.0)
        np.multiply(weights, cells, out=cells)
        return cells.sum(axis=-1)
    out = np.empty(sys.dim)
    for lo in range(0, sys.dim, len(block)):
        rows = slice(lo, lo + len(block))
        cells = block[: len(mask[rows])]
        np.copyto(cells, 0.0)
        np.copyto(cells, vals[rows], where=mask[rows])
        np.multiply(weights[rows], cells, out=cells)
        cells.sum(axis=-1, out=out[rows])
    return out


def _checked_map(
    sys: DiscreteSystem, which: str, v: np.ndarray, table=None, block=None
) -> np.ndarray:
    """:func:`phi` ("k1") or :func:`fred` ("k2") at a checked state ``v``,
    leaving the kernel table in ``table`` when given."""
    vals = _table(sys, which, v, out=table)
    try:
        if which == "k1":
            out = _volterra_sum(sys, vals, block)
        else:
            out = vals @ sys.scheme.global_weights
    except RuntimeWarning:  # numpy's warning about a bad table, raised by -W error
        _check_kernel_values(sys, which, v, vals)
        raise
    if not np.isfinite(out).all():
        _check_kernel_values(sys, which, v, vals)
    if table is not None and vals is not table:  # the kernel's own table
        np.copyto(table, vals)
    return out


def phi(sys: DiscreteSystem, xi, *, table=None, block=None) -> np.ndarray:
    """Volterra part: row i integrates k1(t_i, s, xi(s)) over [a, t_i].

    ``table``, a (dim, dim) buffer, receives :func:`k1_table` at ``xi``;
    ``block``, a buffer of whole node rows, holds the weighted cells one row
    block at a time.  The result has the same bits with or without them.
    """
    return _checked_map(sys, "k1", _as_state(sys, xi), table, block)


def shifted_fred(sys: DiscreteSystem, f0: np.ndarray):
    """The map v -> fred(sys, v) - f0, unchecked, for finite length-dim states.

    Built once per solve: the form, nodes and weights are looked up here,
    and :func:`_write_split` writes a separable k2's table into one
    (dim, dim) buffer that this map owns, so two maps of one system share
    nothing.  The factors get the 1-d nodes and state, and the buffer is
    summed with ``np.dot``, which gives ``@``'s bits on a C-contiguous
    table, more cheaply.  Where the writer fails, the kernel builds the
    table, possibly a read-only broadcast view, on which the two take
    different code paths, so ``@`` sums it as in :func:`fred`.  Each call
    returns a fresh array.  A warning raised as an error in the sum names
    the kernel's cell, as in :func:`fred`.  The subtraction is skipped only
    when every entry of ``f0`` is +0.0, for which x - 0.0 == x bit for bit.
    """
    split, w, s = sys.k2_split, sys.scheme.global_weights, sys.scheme.nodes
    shift = f0 if f0.any() or np.signbit(f0).any() else None  # x - (+0.0) is x
    buf = None if split is None else np.empty((sys.dim, sys.dim))

    def fred_minus_f0(v):
        vals = None
        if split is not None:
            try:
                vals = _write_split(split, s, v, buf)
            except Exception:  # the kernel raises it, with its own text
                pass
        if vals is None:
            vals = _kernel_call(sys, "k2", v)
        try:
            out = np.dot(buf, w) if vals is buf else vals @ w
        except RuntimeWarning:  # as in _checked_map
            _check_kernel_values(sys, "k2", v, vals)
            raise
        if shift is not None:
            out -= shift
        return out

    return fred_minus_f0


def fred(sys: DiscreteSystem, xi, *, table=None) -> np.ndarray:
    """Fredholm part: row i integrates k2(t_i, s, xi(s)) over [a, b].

    ``table``, a (dim, dim) buffer, receives :func:`k2_table` at ``xi``; the
    result has the same bits with or without it.
    """
    return _checked_map(sys, "k2", _as_state(sys, xi), table)


def inner(sys: DiscreteSystem, u, v) -> float:
    """Weighted inner product <u, v> = sum_i w_i u_i v_i (global weights)."""
    a = _as_state(sys, u, "left vector")
    b = _as_state(sys, v, "right vector")
    # w * (a*b) rather than (w*a) * b: keeps <u,v> == <v,u> bit-exact
    return float(np.sum(sys.scheme.global_weights * (a * b)))


def norm(sys: DiscreteSystem, u) -> float:
    """Norm induced by :func:`inner`."""
    a = _as_state(sys, u, "vector")
    return float(np.sqrt(np.sum(sys.scheme.global_weights * a * a)))


def residual(sys: DiscreteSystem, xi) -> float:
    """Weighted norm of the defect xi + Phi(xi) + F(xi) - g."""
    v = _as_state(sys, xi)
    return norm(sys, v + phi(sys, v) + fred(sys, v) - sys.g_vec)
