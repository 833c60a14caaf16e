"""Quadrature grids and weight tables on an interval [a, b].

A scheme carries two kinds of weights for the same node set:

* ``global_weights`` — one row integrating over all of [a, b] (used for the
  Fredholm part of an equation);
* ``volterra_weights`` — a lower-triangular table whose row i integrates over
  [a, t_i] using only nodes s_0 .. s_i (used for the Volterra part).

Rules: ``midpoint`` (nodes at cell centers, order 2 with half-cell rows and 1
with full-cell rows), ``trapezoid`` (order 2) and ``simpson`` (order 3, needs
an even cell count; see below).

For the midpoint rule the truncated row has two natural conventions, selected
by ``midpoint_rows``:

* ``"half_cell"`` (default): w = h for s_j left of the cell containing t_i and
  h/2 for the cell's own node, so row i sums to exactly t_i - a and keeps
  second-order accuracy.
* ``"full_cell"``: w = h for every j <= i, so row i integrates over
  [a, t_i + h/2] (sums to t_i - a + h/2).  First-order at t_i; kept as a
  compatibility variant because the shipped reference table for the benchmark
  problem was produced with it.

Row 0 of a trapezoid or Simpson table is identically zero (t_0 = a).  Odd
Simpson rows span an odd number of cells, which composite Simpson cannot do:
row 1 is the trapezoid rule, and each odd row i >= 3 is Simpson over its
first i - 3 cells plus the 3/8 rule over its last three, so every row but
row 1 is exact on cubics and all weights stay positive.  Row 1's local error
h^3/12 * f'' caps a Simpson solution at order 3 at node 1 (every other node
converges at order 4) unless the integrand's f'' vanishes at t = s = a, as
for the builtin benchmark.  Row sums remain exact for all rules.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Grid", "QuadScheme", "make_grid", "build_scheme", "RULES"]

RULES = ("midpoint", "trapezoid", "simpson")
MIDPOINT_ROW_CONVENTIONS = ("half_cell", "full_cell")


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n_cells cells of width h."""

    a: float
    b: float
    n_cells: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if self.b <= self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        try:  # an int or a numpy integer, stored as an int
            object.__setattr__(self, "n_cells", operator.index(self.n_cells))
        except TypeError:
            raise ValueError(f"cell count must be an integer, got {self.n_cells!r}") from None
        if self.n_cells < 1:
            raise ValueError(f"need at least one cell, got {self.n_cells}")

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n_cells


def make_grid(a: float, b: float, n_cells: int) -> Grid:
    return Grid(float(a), float(b), n_cells)


@dataclass(frozen=True)
class QuadScheme:
    """Nodes plus global and Volterra weights for one rule on one grid."""

    rule: str
    order: int
    grid: Grid
    nodes: np.ndarray = field(repr=False)
    global_weights: np.ndarray = field(repr=False)
    volterra_weights: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.nodes)


def _simpson_row(k: int, h: float) -> np.ndarray:
    # composite Simpson coefficients over k cells (k even, k >= 2)
    c = np.full(k + 1, 2.0)
    c[1::2] = 4.0
    c[0] = c[k] = 1.0
    return c * (h / 3.0)


def _trapezoid_row(k: int, h: float) -> np.ndarray:
    w = np.full(k + 1, h)
    w[0] = w[k] = h / 2.0
    return w


def build_scheme(grid: Grid, rule: str, midpoint_rows: str = "half_cell") -> QuadScheme:
    """Construct the nodes and both weight tables for ``rule`` on ``grid``."""
    if rule not in RULES:
        raise ValueError(f"unknown quadrature rule {rule!r}; choose from {RULES}")
    h = grid.h

    if rule == "midpoint":
        if midpoint_rows not in MIDPOINT_ROW_CONVENTIONS:
            raise ValueError(
                f"unknown midpoint row convention {midpoint_rows!r}; "
                f"choose from {MIDPOINT_ROW_CONVENTIONS}"
            )
        n = grid.n_cells
        nodes = grid.a + (np.arange(n) + 0.5) * h
        gw = np.full(n, h)
        # h and +0.0 from a bool mask: no dim^2 float temporary beside the table
        half_cell = midpoint_rows == "half_cell"
        vw = np.multiply(np.tri(n, n, -1 if half_cell else 0, dtype=bool), h)
        if half_cell:
            np.fill_diagonal(vw, h / 2.0)
        order = 2 if half_cell else 1
        return QuadScheme("midpoint", order, grid, nodes, gw, vw)

    n = grid.n_cells + 1  # closed rules include both endpoints
    nodes = grid.a + np.arange(n) * h

    if rule == "trapezoid":
        gw = _trapezoid_row(grid.n_cells, h)
        vw = np.zeros((n, n))
        for i in range(1, n):
            vw[i, : i + 1] = _trapezoid_row(i, h)
        return QuadScheme("trapezoid", 2, grid, nodes, gw, vw)

    # simpson
    if grid.n_cells % 2 != 0:
        raise ValueError(
            f"simpson needs an even number of cells, got {grid.n_cells}"
        )
    gw = _simpson_row(grid.n_cells, h)
    vw = np.zeros((n, n))
    for i in range(2, n, 2):
        vw[i, : i + 1] = _simpson_row(i, h)
    vw[1, :2] = _trapezoid_row(1, h)
    for i in range(3, n, 2):  # row i - 3 (even) plus the 3/8 rule on the last three cells
        vw[i] = vw[i - 3]
        vw[i, i - 3 : i + 1] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return QuadScheme("simpson", 3, grid, nodes, gw, vw)  # row 1: trapezoid
