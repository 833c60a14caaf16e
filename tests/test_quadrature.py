import numpy as np
import pytest

from vfsolve.quadrature import build_scheme, make_grid


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
