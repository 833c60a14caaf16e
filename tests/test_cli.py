"""CLI behavior: config validation, exit codes, CSV shape, determinism."""

import csv
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from vfsolve import cli, reference
from vfsolve.cli import (
    EXIT_AUDIT,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    ConfigError,
    cmd_bound,
    cmd_convergence,
    cmd_solve,
    cmd_table,
    RunConfig,
    main,
    parse_config,
)
from vfsolve.problem import builtin_problem

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_ini(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def kv_lines(text):
    out = {}
    for line in text.strip().splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


MINIMAL = "[problem]\nbuiltin = benchmark\n"

# cheap but complete run: tiny grid, pinned small outer budget
CHEAP = """\
[problem]
builtin = benchmark
[quadrature]
cells = 20
[solver]
eps = 1e-3
n0 = 8
[output]
path = solution.csv
"""


# ---------------------------------------------------------------- parsing

def test_defaults_from_minimal_config(tmp_path):
    rc = parse_config(write_ini(tmp_path, MINIMAL))
    assert rc.problem.name == "benchmark"
    assert rc.rule == "midpoint"
    assert rc.cells == 50
    assert rc.volterra_rows == "half_cell"
    assert rc.eps == 1e-3
    assert rc.method == "continuation"
    assert rc.overrides == {}
    assert rc.audit is False
    assert rc.seed == 12345
    assert rc.out_path == "solution.csv"
    assert rc.precision == 10


def test_unknown_field_is_hard_error(tmp_path):
    path = write_ini(tmp_path, MINIMAL + "[solver]\nepsilon = 1e-3\n")
    with pytest.raises(ConfigError, match="unknown field 'epsilon'"):
        parse_config(path)
    assert cmd_solve(path) == EXIT_CONFIG


def test_unknown_section_is_hard_error(tmp_path):
    path = write_ini(tmp_path, MINIMAL + "[solvers]\neps = 1e-3\n")
    with pytest.raises(ConfigError, match=r"unknown section \[solvers\]"):
        parse_config(path)


def test_missing_required_field_names_it(tmp_path, capsys):
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = t\nL = 0.5\n",
    )
    with pytest.raises(ConfigError, match="'M'"):
        parse_config(path)
    assert cmd_solve(path) == EXIT_CONFIG
    assert "'M'" in capsys.readouterr().err


def test_builtin_plus_expressions_conflict(tmp_path):
    path = write_ini(tmp_path, "[problem]\nbuiltin = benchmark\ng = t\n")
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config(path)


def test_unknown_builtin(tmp_path):
    path = write_ini(tmp_path, "[problem]\nbuiltin = nonesuch\n")
    with pytest.raises(ConfigError, match="unknown builtin"):
        parse_config(path)


def test_bad_expression_reports_offset(tmp_path):
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 3..2\nk2 = 0\ng = t\nM = 0.5\nL = 0.5\n",
    )
    with pytest.raises(ConfigError, match="offset"):
        parse_config(path)


def test_non_numeric_field_rejected(tmp_path):
    path = write_ini(tmp_path, MINIMAL + "[quadrature]\ncells = plenty\n")
    with pytest.raises(ConfigError, match="'cells'"):
        parse_config(path)


def test_volterra_rows_requires_midpoint(tmp_path):
    path = write_ini(
        tmp_path, MINIMAL + "[quadrature]\nrule = trapezoid\nvolterra_rows = full_cell\n"
    )
    with pytest.raises(ConfigError, match="midpoint"):
        parse_config(path)


def test_only_csv_format(tmp_path):
    path = write_ini(tmp_path, MINIMAL + "[output]\nformat = json\n")
    with pytest.raises(ConfigError, match="csv"):
        parse_config(path)


def test_missing_file_is_config_error(tmp_path, capsys):
    assert cmd_solve(str(tmp_path / "nope.ini")) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# ---------------------------------------------------------------- solve

def test_solve_reference_config(tmp_path, capsys):
    out = str(tmp_path / "ref.csv")
    assert cmd_solve(str(CONFIGS / "reference.ini"), out=out) == EXIT_OK
    printed = kv_lines(capsys.readouterr().out)
    assert printed["n0"] == "55"
    assert printed["op_budget"] == "175616"
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    header = open(out).readline().strip()
    assert header == "t,exact,approx,abs_error"
    by_t = {row["t"]: row for row in rows}
    assert abs(float(by_t["0.51"]["approx"]) - 0.5041937466) < 5e-3
    for row in rows:
        # columns carry 10 significant digits, so compare loosely
        recomputed = abs(float(row["approx"]) - float(row["exact"]))
        assert float(row["abs_error"]) == pytest.approx(recomputed, rel=1e-6, abs=1e-12)


def test_solve_is_byte_deterministic(tmp_path):
    path = write_ini(tmp_path, CHEAP)
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    assert cmd_solve(path, out=out1) == EXIT_OK
    assert cmd_solve(path, out=out2) == EXIT_OK
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    assert Path(out1).read_bytes().startswith(b"t,exact,approx,abs_error\n")


def test_solve_without_exact_omits_columns(tmp_path):
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = t^2\nM = 0.5\nL = 0.5\n"
        "[quadrature]\ncells = 10\n",
    )
    out = str(tmp_path / "noexact.csv")
    assert cmd_solve(path, out=out) == EXIT_OK
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "t,approx"
    # zero kernels: the iteration must return g exactly
    nodes = (np.arange(10) + 0.5) / 10.0
    for line, t in zip(lines[1:], nodes):
        t_str, approx = line.split(",")
        assert float(t_str) == pytest.approx(t, abs=1e-15)
        assert float(approx) == pytest.approx(t * t, abs=5e-16)


def test_solve_newton_override(tmp_path, capsys):
    path = write_ini(tmp_path, CHEAP)
    out = str(tmp_path / "newton.csv")
    assert cmd_solve(path, out=out, method="newton") == EXIT_OK
    printed = kv_lines(capsys.readouterr().out)
    assert printed["method"] == "newton"
    assert float(printed["residual"]) < 1e-12


def test_solve_audit_failure_exits_3(tmp_path, capsys):
    # declared Fredholm Lipschitz constant far below the kernel's true one
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 5*t*s*x\ng = t\nM = 0.5\nL = 0.01\n"
        "[quadrature]\ncells = 10\n[solver]\naudit = true\n",
    )
    assert cmd_solve(path) == EXIT_AUDIT
    err = capsys.readouterr().err
    assert "Lipschitz" in err


def test_solve_audit_pass_proceeds(tmp_path):
    path = write_ini(tmp_path, CHEAP + "[solver]\naudit = true\nn0 = 8\n")
    # [solver] appears twice -> configparser duplicate error -> config error
    assert cmd_solve(path) == EXIT_CONFIG
    path = write_ini(
        tmp_path,
        "[problem]\nbuiltin = benchmark\n[quadrature]\ncells = 20\n"
        "[solver]\nn0 = 8\naudit = true\n",
        name="audited.ini",
    )
    out = str(tmp_path / "audited.csv")
    assert cmd_solve(path, out=out) == EXIT_OK


def test_solver_failure_exits_2(tmp_path, capsys):
    # L = 2 with N pinned at 1 leaves q >= 1: continuation cannot contract
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 2*t*s*x\ng = t\nM = 0.5\nL = 2\n"
        "[quadrature]\ncells = 10\n[solver]\nN = 1\n",
    )
    assert cmd_solve(path) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_nonfinite_forcing_is_config_error_in_solve_and_bound(tmp_path, capsys):
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = 1/t\nM = 0.5\nL = 0.5\n"
        "[quadrature]\nrule = trapezoid\ncells = 10\n",
    )
    expected = (
        "config error: division by zero in '(1.0 / t)': "
        "1 offending input point(s), first at index (0,)\n"
    )
    for cmd in (cmd_solve, cmd_bound):
        assert cmd(path) == EXIT_CONFIG
        assert capsys.readouterr().err == expected


def test_audit_kernel_error_exits_3(tmp_path, capsys):
    # ln(x) is undefined on part of the audit box, so the audit itself raises
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = ln(x)\ng = t\nM = 0.5\nL = 0.5\n"
        "[quadrature]\ncells = 10\n[solver]\naudit = true\n",
    )
    assert cmd_solve(path) == EXIT_AUDIT
    assert capsys.readouterr().err == (
        "assumption audit failed: ln of a non-positive value in 'ln(x)': "
        "50 offending input point(s), first at index (0, 0)\n"
    )


@pytest.mark.parametrize("M, k", [("1000", 103), ("1e6", 52)])
def test_large_M_fails_derivation_in_bound_and_solve(tmp_path, capsys, M, k):
    path = write_ini(
        tmp_path,
        f"[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = t\nM = {M}\nL = 0.5\n"
        "[quadrature]\ncells = 10\n",
    )
    why = f"M={float(M)} is too large: M^k/sqrt((k-1)!) overflows a float at k={k}\n"
    assert cmd_bound(path) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: " + why
    assert cmd_solve(path) == EXIT_SOLVER
    assert capsys.readouterr().err == "solver failure: " + why


# ---------------------------------------------------------------- bound

def test_bound_reference_prints_pinned_params(capsys):
    assert cmd_bound(str(CONFIGS / "reference.ini")) == EXIT_OK
    printed = kv_lines(capsys.readouterr().out)
    assert printed["N"] == "2"
    assert printed["m"] == "8"
    assert printed["n_prime"] == "6"
    assert printed["d"] == "6"
    assert printed["n0"] == "55"
    assert printed["op_budget"] == "175616"
    assert float(printed["iteration_bound"]) < 1e-3
    assert float(printed["iteration_bound_fine"]) <= float(printed["iteration_bound"])


def test_bound_depth_monotone_in_eps(tmp_path, capsys):
    depths = []
    for i, eps in enumerate(("1e-2", "1e-4", "1e-8")):
        path = write_ini(tmp_path, MINIMAL + f"[solver]\neps = {eps}\n", name=f"{i}.ini")
        assert cmd_bound(path) == EXIT_OK
        depths.append(int(kv_lines(capsys.readouterr().out)["d"]))
    assert depths == sorted(depths)
    assert depths[0] < depths[-1]


def test_bound_bad_config(tmp_path, capsys):
    path = write_ini(tmp_path, MINIMAL + "[solver]\neps = -1\n")
    assert cmd_bound(path) == EXIT_CONFIG
    assert "eps" in capsys.readouterr().err


# ---------------------------------------------------------------- table

def test_table_benchmark(capsys):
    assert cmd_table("benchmark") == EXIT_OK
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 50
    assert out.splitlines()[0] == "t,exact,approx,ref_approx,delta_vs_ref"
    assert rows[0]["t"] == "0.01"
    assert rows[0]["ref_approx"] == "0.0099948368"
    assert max(float(r["delta_vs_ref"]) for r in rows) <= 5e-3
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "988fc69e4e4c3fc7870b4caba9c4d9151993277f69894f8661367b89e3996f8d"
    )


def test_reference_run_matches_reference_config():
    # `vfsolve table` runs REFERENCE_RUN; configs/reference.ini must stay the same run
    from_ini = parse_config(str(CONFIGS / "reference.ini"))
    frozen = RunConfig(builtin_problem("benchmark"), **reference.REFERENCE_RUN["benchmark"])
    for key in ("rule", "cells", "volterra_rows", "eps", "overrides"):
        assert getattr(from_ini, key) == getattr(frozen, key), key


def test_table_unknown_builtin(capsys):
    assert cmd_table("nonesuch") == EXIT_CONFIG
    assert "unknown builtin" in capsys.readouterr().err


# ---------------------------------------------------------------- convergence

def test_convergence_ratios_near_four(capsys):
    assert cmd_convergence("benchmark", levels=3, base=25) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "cells,h,max_error,ratio"
    assert len(lines) == 4
    ratios = [float(line.split(",")[3]) for line in lines[2:]]
    assert all(3.0 <= r <= 5.0 for r in ratios)


def test_convergence_benchmark_five_levels_output(capsys):
    assert main(["convergence", "benchmark", "--levels", "5"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "cells,h,max_error,ratio\n"
        "25,0.04,0.000767878,\n"
        "50,0.02,0.000206508,3.7184\n"
        "100,0.01,5.36038e-05,3.85248\n"
        "200,0.005,1.36591e-05,3.9244\n"
        "400,0.0025,3.44778e-06,3.96171\n"
    )


def test_convergence_needs_two_levels(capsys):
    assert cmd_convergence("benchmark", levels=1) == EXIT_CONFIG
    assert "levels" in capsys.readouterr().err


def test_convergence_unknown_builtin(capsys):
    assert cmd_convergence("nonesuch", levels=2) == EXIT_CONFIG


# ---------------------------------------------------------------- main

def test_main_dispatch(tmp_path, capsys):
    path = write_ini(tmp_path, MINIMAL)
    assert main(["bound", "--config", path]) == EXIT_OK
    capsys.readouterr()
    assert main(["convergence", "benchmark", "--levels", "1"]) == EXIT_CONFIG
    capsys.readouterr()
    out = str(tmp_path / "main.csv")
    cheap = write_ini(tmp_path, CHEAP, name="cheap.ini")
    assert main(["solve", "--config", cheap, "--out", out]) == EXIT_OK
    assert Path(out).exists()
