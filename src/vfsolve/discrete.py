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

Either result is broadcast to (dim, dim), so a kernel may return a
lower-rank array or a scalar (e.g. ``lambda t, s, x: 0.0``).  phi and
fred take the kernel tables from :func:`k1_table` and :func:`k2_table`;
:func:`_phi_and_table` and :func:`_fred_and_table` return the table with
the map, for the Newton oracle's Jacobian.  Only the length-dim output of
phi and fred is checked for non-finite values; when it fails, or when
numpy's warning about the weighted sum is raised as an error (``python -W
error``), the kernel's own table is searched for the offending cell to name
in the error.  :func:`shifted_fred` builds the continuation's inner map
F1(v) = fred(v) - F(0) once per solve; it returns the raw sum (named cells
only for a warning raised as an error): the continuation checks each
iterate, and :func:`fred` names a failing one's cell.

Separable kernels.  A problem may declare k = sum_r c_r(t, s) * e_r(s, x)
(``Problem.k1_terms``/``k2_terms``), with c_r free of the state and e_r
free of t.  :func:`build_system` checks the form against the kernel at dim
points (t_i, s_i, g_i), with s_i <= t_i for k1: a mismatch beyond 1e-12
relative is a ValueError, and a form whose check raises or is non-finite is
not used.  Each c_r is evaluated on the kernel's own (t, s) table, once
per system.  A table then costs dim evaluations of each e_r, on the row
(s_j, xi_j), and one multiply-add per term, instead of dim^2 kernel
evaluations; the points (s_j, xi_j) are ones the kernel's own table holds
in its last row.  A form that repeats the kernel's last
operations, as the builtin's and :func:`vfsolve.expr.split_terms`'s do,
gives tables bit-identical to the kernel's in every cell phi, fred and the
Jacobian use.
Where a c_r or e_r raises, the kernel builds the table, and phi and fred
name a non-finite cell from the kernel's own table, so errors and their
texts are the kernel's.

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
    from .quadrature import Grid, QuadScheme

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

    @property
    def grid(self) -> "Grid":
        return self.scheme.grid

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


def _table_shape(v: np.ndarray) -> tuple:
    """(dim, dim) for a state, (P, dim, dim) for a (P, dim) stack of them."""
    dim = v.shape[-1]
    return v.shape[:-1] + (dim, dim)


def _kernel_call(sys: DiscreteSystem, which: str, v: np.ndarray) -> np.ndarray:
    """The table from the kernel itself ("k1" or "k2")."""
    nodes = sys.scheme.nodes
    if which == "k1":
        x_table = np.where(sys.volterra_mask, v[..., None, :], v[..., :1, None])
        vals = sys.problem.k1(nodes[:, None], sys.s_mesh_volterra, x_table)
    else:
        vals = sys.problem.k2(nodes[:, None], nodes[None, :], v[..., None, :])
    return _kernel_table(vals, _table_shape(v))


def _split_table(split, nodes: np.ndarray, v: np.ndarray):
    """sum_r c_r * e_r(s_j, v_j) as a table, or None for the kernel to decide."""
    s, x = nodes[None, :], v[..., None, :]
    vals = None
    try:
        for c_table, e in split:
            term = c_table * e(s, x)
            vals = term if vals is None else vals + term
        if v.ndim > 1:  # terms free of x leave one (dim, dim) table for the stack
            vals = _kernel_table(vals, _table_shape(v))
    except Exception:  # the kernel raises it, with its own text
        return None
    return vals


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
    split = sys.k1_split
    if split is not None and (vals := _split_table(split, sys.scheme.nodes, v)) is not None:
        return vals
    return _kernel_call(sys, "k1", v)


def k2_table(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """k2(t_i, s_j, v_j) as a (dim, dim) table, possibly a read-only view;
    a (P, dim) stack of states gives a (P, dim, dim) stack of tables."""
    split = sys.k2_split
    if split is not None and (vals := _split_table(split, sys.scheme.nodes, v)) is not None:
        return vals
    return _kernel_call(sys, "k2", v)


def _volterra_sum(sys: DiscreteSystem, vals: np.ndarray) -> np.ndarray:
    """phi's weighted row sums of a k1 table, or of a stack of them, unchecked."""
    cells = np.where(sys.volterra_mask, vals, 0.0)
    return np.multiply(sys.scheme.volterra_weights, cells, out=cells).sum(axis=-1)


def _phi_and_table(sys: DiscreteSystem, v: np.ndarray) -> tuple:
    """:func:`phi` at a checked state ``v``, and the k1 table it summed."""
    vals = k1_table(sys, v)
    try:
        out = _volterra_sum(sys, vals)
    except RuntimeWarning:  # numpy's warning about a bad table, raised by -W error
        _check_kernel_values(sys, "k1", v, vals)
        raise
    if not np.isfinite(out).all():
        _check_kernel_values(sys, "k1", v, vals)
    return out, vals


def phi(sys: DiscreteSystem, xi) -> np.ndarray:
    """Volterra part: row i integrates k1(t_i, s, xi(s)) over [a, t_i]."""
    return _phi_and_table(sys, _as_state(sys, xi))[0]


def shifted_fred(sys: DiscreteSystem, f0: np.ndarray):
    """The map v -> fred(sys, v) - f0, unchecked, for finite length-dim states.

    Built once per solve: the factors, nodes row and weights are looked up
    here, and a separable k2's table is written into one (dim, dim) buffer
    that this map owns, so two maps of one system share nothing.  Each call
    returns a fresh array.  Where a factor raises, the kernel builds the
    table; a warning raised as an error in the sum names the kernel's cell,
    as in :func:`fred`.  The subtraction is skipped only when every entry of
    ``f0`` is +0.0, for which x - 0.0 == x bit for bit; a -0.0 keeps it.
    """
    split, w = sys.k2_split, sys.scheme.global_weights
    s = sys.scheme.nodes[None, :]
    shift = f0 if f0.any() or np.signbit(f0).any() else None  # x - (+0.0) is x
    if split is not None:
        (c_first, e_first), rest = split[0], split[1:]
        buf = np.empty((sys.dim, sys.dim))

    def fred_minus_f0(v):
        vals = None
        if split is not None:
            x = v[None, :]
            try:
                np.multiply(c_first, e_first(s, x), out=buf)
                for c, e in rest:
                    np.add(buf, c * e(s, x), out=buf)
                vals = buf
            except Exception:  # the kernel raises it, with its own text
                pass
        if vals is None:
            vals = _kernel_call(sys, "k2", v)
        try:
            out = vals @ w
        except RuntimeWarning:  # as in phi
            _check_kernel_values(sys, "k2", v, vals)
            raise
        if shift is not None:
            out -= shift
        return out

    return fred_minus_f0


def _fred_and_table(sys: DiscreteSystem, v: np.ndarray) -> tuple:
    """:func:`fred` at a checked state ``v``, and the k2 table it summed."""
    vals = k2_table(sys, v)
    try:
        out = vals @ sys.scheme.global_weights
    except RuntimeWarning:  # as in phi
        _check_kernel_values(sys, "k2", v, vals)
        raise
    if not np.isfinite(out).all():
        _check_kernel_values(sys, "k2", v)
    return out, vals


def fred(sys: DiscreteSystem, xi) -> np.ndarray:
    """Fredholm part: row i integrates k2(t_i, s, xi(s)) over [a, b]."""
    return _fred_and_table(sys, _as_state(sys, xi))[0]


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
