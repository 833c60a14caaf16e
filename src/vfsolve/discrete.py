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
lower-rank array or a scalar (e.g. ``lambda t, s, x: 0.0``).  The kernel
calls live in :func:`k1_table` and :func:`k2_table` alone; phi, fred and the
Newton oracle's Jacobian all go through them.  Only the length-dim output of
phi and fred is checked for non-finite values; when it fails, the kernel
table is searched for the offending cell to name in the error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    "fred_unchecked",
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

    @property
    def dim(self) -> int:
        return self.scheme.dim

    @property
    def grid(self) -> "Grid":
        return self.scheme.grid


def build_system(problem: "Problem", scheme: "QuadScheme") -> DiscreteSystem:
    """Sample g on the nodes and precompute the Volterra argument table."""
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
    return DiscreteSystem(
        scheme=scheme,
        problem=problem,
        g_vec=g_vec,
        volterra_mask=mask,
        s_mesh_volterra=np.where(mask, nodes[None, :], nodes[0]),
    )


def _as_state(sys: DiscreteSystem, xi, what: str = "state vector") -> np.ndarray:
    v = np.asarray(xi, dtype=float)
    if v.shape != (sys.dim,):
        raise ValueError(f"{what} has shape {v.shape}, system dimension is {sys.dim}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} contains non-finite entries")
    return v


def _kernel_table(vals, dim: int) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    return vals if vals.shape == (dim, dim) else np.broadcast_to(vals, (dim, dim))


def _check_kernel_values(vals: np.ndarray, mask, which: str) -> None:
    bad = ~np.isfinite(vals)
    if mask is not None:
        bad &= mask
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"{which} evaluated non-finite at mesh cell (i={i}, j={j})")


def k1_table(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """k1(t_i, s_j, v_j) as a (dim, dim) table, possibly a read-only view.

    Cells outside ``sys.volterra_mask`` hold k1 at the clamped point
    (s_0, v_0); callers must discard them.
    """
    nodes = sys.scheme.nodes
    x_table = np.where(sys.volterra_mask, v[None, :], v[0])
    return _kernel_table(sys.problem.k1(nodes[:, None], sys.s_mesh_volterra, x_table), len(nodes))


def k2_table(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """k2(t_i, s_j, v_j) as a (dim, dim) table, possibly a read-only view."""
    nodes = sys.scheme.nodes
    return _kernel_table(sys.problem.k2(nodes[:, None], nodes[None, :], v[None, :]), len(nodes))


def phi(sys: DiscreteSystem, xi) -> np.ndarray:
    """Volterra part: row i integrates k1(t_i, s, xi(s)) over [a, t_i]."""
    v = _as_state(sys, xi)
    mask = sys.volterra_mask
    vals = k1_table(sys, v)
    out = (sys.scheme.volterra_weights * np.where(mask, vals, 0.0)).sum(axis=1)
    if not np.isfinite(out).all():
        _check_kernel_values(vals, mask, "volterra kernel k1")
    return out


def fred_unchecked(sys: DiscreteSystem, v: np.ndarray) -> np.ndarray:
    """:func:`fred` for a state already known to be a finite length-dim array."""
    vals = k2_table(sys, v)
    out = vals @ sys.scheme.global_weights
    if not np.isfinite(out).all():
        _check_kernel_values(vals, None, "fredholm kernel k2")
    return out


def fred(sys: DiscreteSystem, xi) -> np.ndarray:
    """Fredholm part: row i integrates k2(t_i, s, xi(s)) over [a, b]."""
    return fred_unchecked(sys, _as_state(sys, xi))


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
