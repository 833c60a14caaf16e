import hashlib
import tracemalloc

import numpy as np
import pytest

from vfsolve.discrete import build_system, phi
from vfsolve.oracle import newton_solve
from vfsolve.problem import benchmark_problem
from vfsolve.quadrature import Grid, build_scheme, make_grid


def test_midpoint_two_cells_square():
    sch = build_scheme(make_grid(0.0, 1.0, 2), "midpoint")
    assert np.allclose(sch.nodes, [0.25, 0.75])
    val = float(sch.global_weights @ sch.nodes**2)
    assert val == pytest.approx(0.3125, abs=1e-15)


def test_node_layout():
    g = make_grid(0.0, 1.0, 4)
    assert np.allclose(build_scheme(g, "midpoint").nodes, [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(build_scheme(g, "trapezoid").nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert build_scheme(g, "simpson").dim == 5
    assert build_scheme(g, "midpoint").dim == 4


def test_global_weight_sums():
    for n in range(1, 201):
        g = make_grid(0.0, 2.0, n)
        for rule in ("midpoint", "trapezoid"):
            sch = build_scheme(g, rule)
            assert abs(sch.global_weights.sum() - 2.0) < 1e-12, (rule, n)
        if n % 2 == 0:
            sch = build_scheme(g, "simpson")
            assert abs(sch.global_weights.sum() - 2.0) < 1e-12, ("simpson", n)


def test_volterra_row_sums_half_cell():
    # row i must integrate the constant 1 over [a, t_i] exactly
    for n in (1, 7, 50, 128):
        g = make_grid(0.0, 1.0, n)
        for rule in ("midpoint", "trapezoid", "simpson"):
            if rule == "simpson" and n % 2:
                continue
            sch = build_scheme(g, rule)
            sums = sch.volterra_weights.sum(axis=1)
            assert np.max(np.abs(sums - (sch.nodes - 0.0))) < 1e-12, (rule, n)


def test_volterra_row_sums_full_cell():
    g = make_grid(0.0, 1.0, 50)
    sch = build_scheme(g, "midpoint", midpoint_rows="full_cell")
    sums = sch.volterra_weights.sum(axis=1)
    assert np.max(np.abs(sums - (sch.nodes + g.h / 2))) < 1e-12


def test_volterra_weights_lower_triangular():
    for rule in ("midpoint", "trapezoid", "simpson"):
        sch = build_scheme(make_grid(0.0, 1.0, 10), rule)
        assert np.all(np.triu(sch.volterra_weights, 1) == 0.0)


def test_trapezoid_volterra_exact_on_linear():
    sch = build_scheme(make_grid(0.0, 1.0, 8), "trapezoid")
    vals = sch.volterra_weights @ sch.nodes  # integrates f(s)=s up to each t_i
    assert np.allclose(vals, sch.nodes**2 / 2, atol=1e-14)


def test_simpson_volterra_exact_on_cubic_even_rows():
    # and on the odd rows from 3 on, which end with the 3/8 rule; row 1 is trapezoid
    sch = build_scheme(make_grid(0.0, 1.0, 8), "simpson")
    vals = sch.volterra_weights @ sch.nodes**3
    exact = sch.nodes**4 / 4
    for i in [*range(0, 9, 2), *range(3, 9, 2)]:
        assert vals[i] == pytest.approx(exact[i], abs=1e-14)
    assert vals[1] != pytest.approx(exact[1], abs=1e-6)


def _integration_error(rule, n):
    sch = build_scheme(make_grid(0.0, 1.0, n), rule)
    return abs(float(sch.global_weights @ np.exp(sch.nodes)) - (np.e - 1.0))


@pytest.mark.parametrize("rule,lo,hi", [
    ("midpoint", 3.5, 4.5),
    ("trapezoid", 3.5, 4.5),
    ("simpson", 14.0, 18.0),
])
def test_global_rule_order(rule, lo, hi):
    ratio = _integration_error(rule, 16) / _integration_error(rule, 32)
    assert lo <= ratio <= hi


def test_half_cell_volterra_rows_second_order():
    # error of row n-1 (integral of e^s over [0, t_{n-1}]) should drop ~4x
    errs = []
    for n in (64, 128):
        sch = build_scheme(make_grid(0.0, 1.0, n), "midpoint")
        t_last = sch.nodes[-1]
        approx = float(sch.volterra_weights[-1] @ np.exp(sch.nodes))
        errs.append(abs(approx - (np.exp(t_last) - 1.0)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_simpson_odd_cells_rejected():
    with pytest.raises(ValueError, match="even"):
        build_scheme(make_grid(0.0, 1.0, 7), "simpson")


def test_grid_validation():
    with pytest.raises(ValueError):
        make_grid(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        make_grid(0.0, -1.0, 4)
    with pytest.raises(ValueError):
        make_grid(0.0, 1.0, 0)


@pytest.mark.parametrize("n_cells", [2.5, 2.7, 4.0, np.float64(4.0), "4", None])
@pytest.mark.parametrize("construct", [Grid, make_grid])
def test_non_integral_cell_count_rejected(construct, n_cells):
    # a float reached numpy's TypeError in build_scheme, or was truncated
    with pytest.raises(ValueError) as info:
        construct(0.0, 1.0, n_cells)
    assert str(info.value) == f"cell count must be an integer, got {n_cells!r}"


@pytest.mark.parametrize("construct", [Grid, make_grid])
def test_numpy_integer_cell_count_is_stored_as_int(construct):
    grid = construct(0.0, 1.0, np.int64(4))
    assert type(grid.n_cells) is int and grid == make_grid(0.0, 1.0, 4)
    assert build_scheme(grid, "simpson").dim == 5


@pytest.mark.parametrize("a, b", [(0.0, np.inf), (np.nan, 1.0), (-np.inf, 0.0)])
def test_grid_endpoints_must_be_finite(a, b):
    with pytest.raises(ValueError) as info:
        make_grid(a, b, 4)
    assert str(info.value) == "interval endpoints must be finite"


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="unknown quadrature rule"):
        build_scheme(make_grid(0.0, 1.0, 4), "gauss")


def test_unknown_midpoint_convention_rejected():
    with pytest.raises(ValueError, match="row convention"):
        build_scheme(make_grid(0.0, 1.0, 4), "midpoint", midpoint_rows="both")


# sha256 of nodes, global weights and Volterra weights, in that order
SCHEME_DIGESTS = {
    ("midpoint", "half_cell", 1): "38ed33819f19f9b81f1cb4c1f872ed7e88771019aa3856489a30c9bc3fe38240",
    ("midpoint", "half_cell", 2): "650fafc5c31c34b46ac28667e764b1c7631c96564b3a94de187992a75bb38186",
    ("midpoint", "half_cell", 7): "1d101ee6649cae4c7f929a700d821d5bf82127d99dbbfc35fd18c669a9656ea5",
    ("midpoint", "half_cell", 50): "e69d001f207f5504b2ef8df6246383a414cd110545d192bf02432b01dc3e25af",
    ("midpoint", "full_cell", 1): "74bcfda8698f0f558b70f711872f55a13241f3f523a347cc3340792fff1723b6",
    ("midpoint", "full_cell", 2): "604f49741a2b6c67269db4290351e747e0b9576cfa285270c2d48a57694aaca0",
    ("midpoint", "full_cell", 7): "7118804768a86d8e13e83eae02932f91bb70ef9c3e3919326f0ce2590602586f",
    ("midpoint", "full_cell", 50): "f5ea6ea08abef75398f80db246e8f5146132c09f7f65cbdd09fe509626e941cd",
    ("trapezoid", "half_cell", 1): "fcf4116d240e1cc6891cc5269f943eaebc296f05846702381884fdf062e36f29",
    ("trapezoid", "half_cell", 2): "70d9d8ded64c01cc6db20ff4558f0d9753f745eb9a9ae2255b7a6bf15d157d85",
    ("trapezoid", "half_cell", 7): "1410acc96bd239facdc91f25dab0b8069b1dca5a003fcabaabd2d30eb187ee7a",
    ("trapezoid", "half_cell", 50): "5226f48a2e26cacccf10c1d0788a0b95d2b85226699f2bc51112f6d319ecae65",
    # 2 cells: row 1 trapezoid; 4 and 6: odd rows ending in the 3/8 rule
    ("simpson", "half_cell", 2): "34f18610e2a2f4f13445d6c706fa2c6eb23acb153837aea00eee501e74c9981a",
    ("simpson", "half_cell", 4): "012de886a2235314e6bec5f3f71f8552ae3c246fa33a4a36227af17984df121f",
    ("simpson", "half_cell", 6): "d7b6d88b8328dcbb9618e9b25dc4b030e11c5361e6b13b0cb25533b3794d7959",
    ("simpson", "half_cell", 50): "6a4f872960d55f94135f9c9cb3bd8067c89cbaba1a62fc1cd8fd87862bf58cd4",
}


@pytest.mark.parametrize("rule, rows, n", SCHEME_DIGESTS)
def test_scheme_tables_are_pinned_by_their_bytes(rule, rows, n):
    sch = build_scheme(make_grid(0.0, 1.0, n), rule, midpoint_rows=rows)
    tables = (sch.nodes, sch.global_weights, sch.volterra_weights)
    digest = hashlib.sha256(b"".join(t.tobytes() for t in tables)).hexdigest()
    assert digest == SCHEME_DIGESTS[rule, rows, n]


@pytest.mark.parametrize("rows", ["half_cell", "full_cell"])
@pytest.mark.parametrize("n", [1, 2, 7, 50, 400])
def test_midpoint_volterra_table_matches_the_tril_construction(rows, n):
    # the table as np.tril built it, from a (n, n) table full of h
    h = make_grid(0.0, 1.0, n).h
    want = np.tril(np.full((n, n), h), -1 if rows == "half_cell" else 0)
    if rows == "half_cell":
        np.fill_diagonal(want, h / 2.0)
    vw = build_scheme(make_grid(0.0, 1.0, n), "midpoint", midpoint_rows=rows).volterra_weights
    assert vw.dtype == want.dtype and vw.shape == want.shape and vw.flags.c_contiguous
    assert vw.tobytes() == want.tobytes()


# numpy's 64 KiB cast buffer and Python objects: far below one float table
# of 400 cells (1.25 MiB), which a dim^2 temporary would add
_SMALL_BYTES = 96 * 1024


@pytest.mark.parametrize("rule, rows", [
    ("midpoint", "half_cell"), ("midpoint", "full_cell"),
    ("trapezoid", "half_cell"), ("simpson", "half_cell"),
])
def test_setup_holds_no_more_than_its_tables_and_one_bool_table(rule, rows):
    # each step's peak, over what it leaves held, is at most one dim^2 bool;
    # the system holds no table beyond the scheme's: its Volterra mask and
    # k1's clamped s table are built where a map needs them
    prob = benchmark_problem()
    grid = make_grid(prob.a, prob.b, 400)
    transient = []
    tracemalloc.start()
    try:
        scheme = build_scheme(grid, rule, midpoint_rows=rows)
        scheme_held, peak = tracemalloc.get_traced_memory()
        transient.append(peak - scheme_held)
        tracemalloc.reset_peak()
        system = build_system(prob, scheme)  # kept, so its tables count as held
        held, peak = tracemalloc.get_traced_memory()
        transient.append(peak - held)
    finally:
        tracemalloc.stop()
    assert max(transient) <= scheme.dim**2 + _SMALL_BYTES, transient
    assert held - scheme_held <= _SMALL_BYTES, held - scheme_held


@pytest.mark.parametrize("solve, c_tables", [("phi", 1), ("newton", 2)])
def test_system_with_a_k1_form_holds_only_its_c_tables(solve, c_tables):
    # a k1 form reads k1's clamped s table once, for its c_r table, and does
    # not keep it: after phi the system holds k1's c_r table, after a Newton
    # solve k2's too, and each time the dim^2 bool Volterra mask
    prob = benchmark_problem()
    scheme = build_scheme(make_grid(prob.a, prob.b, 400), "midpoint")
    xi = np.linspace(0.0, 1.0, scheme.dim)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        system = build_system(prob, scheme)
        if solve == "phi":
            phi(system, xi)
        else:
            newton_solve(system)
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert system.k1_split is not None and system.k2_split is not None
    float_table = scheme.dim**2 * 8
    assert held <= c_tables * float_table + scheme.dim**2 + _SMALL_BYTES, held
