"""CLI behavior: config validation, exit codes, CSV shape, determinism."""

import csv
import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest

from vfsolve import cli, problem, reference
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


def test_negative_seed_is_config_error_in_every_command(tmp_path, capsys):
    for audit in ("true", "false"):
        path = write_ini(tmp_path, MINIMAL + f"[solver]\nseed = -1\naudit = {audit}\n")
        for cmd in (cmd_solve, cmd_bound):
            assert cmd(path) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "config error: field 'seed' in [solver] must be nonnegative, got -1\n"
            )


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
    # z^(27) repeats z^(26): 27 inverses, each stopping its level 2 at a
    # repeat and taking that level's last level-1 solve instead of making it
    # again (63,168 maps without that), and 27 Phi maps ran
    assert (printed["op_count"], printed["maps_evaluated"]) == ("175615", "61683")
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


def test_solve_newton_default_config_bytes(tmp_path, capsys):
    out = tmp_path / "newton.csv"
    assert cmd_solve(str(CONFIGS / "default.ini"), out=str(out), method="newton") == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "39846fc736b51501f03ac43ceed1eb33aed4ff39604584fb2aee31ec18e22622"
    )


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


def test_solve_audit_volterra_violation_exits_3(tmp_path, capsys):
    # declared contraction constant far below the Volterra kernel's
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 5*t*s*x\nk2 = 0\ng = t\nM = 0.01\nL = 0.5\n"
        "[quadrature]\ncells = 10\n[solver]\naudit = true\n",
    )
    assert cmd_solve(path, out=str(tmp_path / "never.csv")) == EXIT_AUDIT
    assert capsys.readouterr().err == (
        "assumption audit failed: volterra part exceeds the declared contraction "
        "constant: observed 0.960274 > M = 0.01\n"
    )


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


def test_audited_solve_builds_the_system_once(tmp_path, monkeypatch):
    from vfsolve import discrete

    calls = []
    build = discrete.build_system

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(cli, "build_system", counted)
    monkeypatch.setattr(discrete, "build_system", counted)
    path = write_ini(
        tmp_path,
        "[problem]\nbuiltin = benchmark\n[quadrature]\ncells = 20\n"
        "[solver]\nn0 = 8\naudit = true\n",
    )
    assert cmd_solve(path, out=str(tmp_path / "audited.csv")) == EXIT_OK
    assert len(calls) == 1


# (rule, the first refused cell count, the largest one allowed): dim is
# cells for midpoint and cells + 1 for the closed rules; simpson needs even cells
@pytest.mark.parametrize(
    "rule, refused, allowed", [("midpoint", 1001, 1000), ("trapezoid", 1000, 999), ("simpson", 1000, 998)]
)
@pytest.mark.parametrize("in_config", [True, False])
def test_oversized_newton_solve_is_refused_before_the_build(
    tmp_path, capsys, monkeypatch, rule, refused, allowed, in_config
):
    def never(*args, **kwargs):
        raise AssertionError("an oversized Newton run was built or audited")

    def solve(cells):
        text = (
            f"[problem]\nbuiltin = benchmark\n[quadrature]\nrule = {rule}\n"
            f"cells = {cells}\n[solver]\naudit = true\n"
        )
        path = write_ini(tmp_path, text + "method = newton\n" * in_config)
        return cmd_solve(path, out=str(tmp_path / "never.csv"), method=None if in_config else "newton")

    monkeypatch.setattr(cli, "build_system", never)
    monkeypatch.setattr(cli, "check_assumptions", never)
    assert solve(refused) == EXIT_SOLVER
    assert capsys.readouterr().err == (
        "solver failure: system dimension 1001 exceeds the dense-Jacobian cap 1000\n"
    )
    with pytest.raises(AssertionError, match="^an oversized"):
        solve(allowed)  # goes on to the build


def test_solver_failure_exits_2(tmp_path, capsys):
    # L = 2 with N pinned at 1 leaves q >= 1: continuation cannot contract
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 2*t*s*x\ng = t\nM = 0.5\nL = 2\n"
        "[quadrature]\ncells = 10\n[solver]\nN = 1\n",
    )
    assert cmd_solve(path) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_unwritable_out_path_is_config_error_before_the_solve(tmp_path, capsys):
    path = write_ini(tmp_path, CHEAP)
    missing = tmp_path / "missing" / "x.csv"
    assert main(["solve", "--config", path, "--out", str(missing)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""  # nothing was solved
    assert captured.err == (
        f"config error: cannot write output file {str(missing)!r}: "
        f"no directory {str(missing.parent)!r}\n"
    )
    assert cmd_solve(path, out=str(tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: cannot write output file {str(tmp_path)!r}: it is a directory\n"
    )
    assert not missing.parent.exists()


def test_empty_out_path_is_config_error_before_the_solve(tmp_path, capsys):
    # dirname("") falls back to ".", which is writable
    expected = ("", "config error: cannot write output file '': the path is empty\n")
    path = write_ini(tmp_path, CHEAP)
    assert main(["solve", "--config", path, "--out", ""]) == EXIT_CONFIG
    assert capsys.readouterr() == expected  # nothing was solved
    path = write_ini(tmp_path, CHEAP.replace("path = solution.csv", "path ="))
    assert cmd_solve(path) == EXIT_CONFIG
    assert capsys.readouterr() == expected


def test_grid_too_large_to_allocate_is_config_error(tmp_path, capsys, monkeypatch):
    # a real allocation of this size could get the test process killed
    def unable(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "build_scheme", unable)
    path = write_ini(tmp_path, MINIMAL + "[quadrature]\ncells = 1000000\n")
    for cmd in (cmd_solve, cmd_bound):
        assert cmd(path) == EXIT_CONFIG
        assert capsys.readouterr() == (
            "", "config error: Unable to allocate 7.28 TiB for an array\n"
        )


def test_non_integral_cell_count_is_config_error():
    # the grid refuses it, so the one grid->scheme->system builder does too
    rc = dataclasses.replace(RunConfig(builtin_problem("benchmark")), cells=2.5)
    with pytest.raises(ConfigError) as info:
        cli._system(rc)
    assert str(info.value) == "cell count must be an integer, got 2.5"


def test_write_error_after_the_solve_is_config_error(tmp_path, capsys, monkeypatch):
    def refuse_writes(file, mode="r", **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", file)
        return open(file, mode, **kwargs)

    path = write_ini(tmp_path, CHEAP)
    out = tmp_path / "x.csv"
    monkeypatch.setattr(cli, "open", refuse_writes, raising=False)
    assert cmd_solve(path, out=str(out)) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "op_count=" in captured.out
    assert captured.err == (
        f"config error: cannot write output file: [Errno 13] Permission denied: {str(out)!r}\n"
    )
    assert not out.exists()


def test_nonfinite_forcing_is_config_error_in_solve_and_bound(tmp_path, capsys):
    path = write_ini(
        tmp_path,
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = 1/t\nM = 0.5\nL = 0.5\n"
        "[quadrature]\nrule = trapezoid\ncells = 10\n",
    )
    expected = (
        "config error: division by zero in '1.0 / t': "
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


@pytest.mark.parametrize("key", ["N", "m", "n_prime"])
@pytest.mark.parametrize("value", [0, -1])
def test_count_below_one_fails_derivation_in_bound_and_solve(tmp_path, capsys, key, value):
    path = write_ini(
        tmp_path, MINIMAL + f"[quadrature]\ncells = 10\n[solver]\n{key} = {value}\n"
    )
    why = f"need {key} >= 1, got {value}\n"
    assert cmd_bound(path) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: " + why
    assert cmd_solve(path) == EXIT_SOLVER
    assert capsys.readouterr().err == "solver failure: " + why


def test_overflowing_forcing_norm_fails_derivation_in_bound_and_solve(tmp_path, capsys):
    # ||g1|| of a finite g overflows to inf: refused by name, not by a d search
    # that runs to D_CAP and then blames eps
    path = write_ini(tmp_path, (
        "[problem]\na = 0\nb = 1\nk1 = 0\nk2 = 0\ng = 1e200*t\nM = 0.5\nL = 0.5\n"
        "[quadrature]\ncells = 10\n"
    ))
    why = "need finite g_norm >= 0, got inf"
    assert cmd_bound(path) == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines()[-1] == "config error: " + why
    assert cmd_solve(path) == EXIT_SOLVER
    assert capsys.readouterr().err.splitlines()[-1] == "solver failure: " + why


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


@pytest.mark.parametrize("name, digest", [
    ("reference.ini", "32621557e35cd6dd12501920105e334132b45dc6a12f00c8af16f0f18285f599"),
    ("default.ini", "7ce442fc710e4e3d365afd8e01f4a9e71a5e84c892cd7ddb1c222b78e7becd6c"),
])
def test_bound_output_bytes_are_pinned(capsys, name, digest):
    assert cmd_bound(str(CONFIGS / name)) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_expr_audit_config_bounds_like_default(capsys):
    # the benchmark's expression workload rests on deriving default.ini's params
    assert cmd_bound(str(CONFIGS / "default.ini")) == EXIT_OK
    default = capsys.readouterr().out
    assert cmd_bound(str(CONFIGS.parent / "bench" / "configs" / "expr_audit.ini")) == EXIT_OK
    assert capsys.readouterr().out == default


def test_bound_depth_monotone_in_eps(tmp_path, capsys):
    depths = []
    for i, eps in enumerate(("1e-2", "1e-4", "1e-8")):
        path = write_ini(tmp_path, MINIMAL + f"[solver]\neps = {eps}\n", name=f"{i}.ini")
        assert cmd_bound(path) == EXIT_OK
        depths.append(int(kv_lines(capsys.readouterr().out)["d"]))
    assert depths == sorted(depths)
    assert depths[0] < depths[-1]


BAD_FIELDS = {
    "unknown rule": (
        MINIMAL + "[quadrature]\nrule = gauss\n",
        "field 'rule' must be one of ('midpoint', 'trapezoid', 'simpson'), got 'gauss'",
    ),
    "unknown method": (
        MINIMAL + "[solver]\nmethod = bisection\n",
        "field 'method' must be continuation or newton, got 'bisection'",
    ),
    "precision 0": (
        MINIMAL + "[output]\nprecision = 0\n", "field 'precision' must lie in [1, 17]"
    ),
    "precision 18": (
        MINIMAL + "[output]\nprecision = 18\n", "field 'precision' must lie in [1, 17]"
    ),
    "no cells": (
        MINIMAL + "[quadrature]\ncells = 0\n", "field 'cells' must be at least 1, got 0"
    ),
    "fractional cells": (
        MINIMAL + "[quadrature]\ncells = 2.5\n",
        "field 'cells' in [quadrature] must be a int, got '2.5'",
    ),
    "no problem": ("[solver]\neps = 1e-3\n", "missing required section [problem]"),
    "reversed interval": (
        "[problem]\na = 1\nb = 0\nk1 = 0\nk2 = 0\ng = t\nM = 0.5\nL = 0.5\n",
        "bad [problem] section: need finite a < b, got [1.0, 0.0]",
    ),
}


@pytest.mark.parametrize("text, message", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
def test_bad_field_is_one_config_error_line(tmp_path, capsys, text, message):
    assert cmd_bound(write_ini(tmp_path, text)) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"


# expressions the parser refuses, each with its offset
_TOO_DEEP = "expression nested deeper than 100 levels"
BAD_K1 = {
    "200 parentheses": ("(" * 200 + "t" + ")" * 200, f"{_TOO_DEEP} (offset 100)"),
    "1,000-term sum": (" + ".join(["t*s*x"] * 1000), f"{_TOO_DEEP} (offset 782)"),
    "1,200 unary minuses": ("-" * 1200 + "t", f"{_TOO_DEEP} (offset 100)"),
    "superscript two": ("5²", "unknown character '²' (offset 1)"),
    "arabic-indic three": ("٣*t", "unknown character '٣' (offset 0)"),
}


@pytest.mark.parametrize("k1, message", BAD_K1.values(), ids=BAD_K1.keys())
def test_unparseable_kernel_is_one_config_error_line(tmp_path, capsys, k1, message):
    path = write_ini(
        tmp_path, f"[problem]\na = 0\nb = 1\nk1 = {k1}\nk2 = 0\ng = t\nM = 0.5\nL = 0.5\n"
    )
    assert cmd_bound(path) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: bad expression in [problem]: {message}\n"


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


def test_table_builtin_without_reference_run(monkeypatch, capsys):
    monkeypatch.setitem(problem.BUILTINS, "other", problem.benchmark_problem)
    assert cmd_table("other") == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: no reference run for builtin problem 'other'\n"
    )


def test_table_reference_grid_mismatch(monkeypatch, capsys):
    # trapezoid on 49 cells: 50 nodes, as in the table, but not its nodes
    run = {**reference.REFERENCE_RUN["benchmark"], "rule": "trapezoid", "cells": 49}
    monkeypatch.setitem(reference.REFERENCE_RUN, "benchmark", run)
    assert cmd_table("benchmark") == EXIT_SOLVER
    assert capsys.readouterr().err == "solver failure: reference grid mismatch\n"


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


def test_convergence_needs_a_positive_base(capsys):
    assert cmd_convergence("benchmark", levels=2, base=0) == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: base cell count must be positive\n"


def test_convergence_needs_an_exact_solution(monkeypatch, capsys):
    monkeypatch.setitem(
        problem.BUILTINS, "noexact",
        lambda: dataclasses.replace(problem.benchmark_problem(), exact=None),
    )
    assert cmd_convergence("noexact", levels=2) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: convergence reporting needs a declared exact solution\n"
    )


_CAP_FAILURE = (
    "solver failure at 1600 cells: "
    "system dimension 1600 exceeds the dense-Jacobian cap 1000\n"
)


def test_convergence_seven_levels_stop_at_the_cap(capsys):
    assert main(["convergence", "benchmark", "--levels", "7"]) == EXIT_SOLVER
    out, err = capsys.readouterr()
    assert out == (
        "cells,h,max_error,ratio\n"
        "25,0.04,0.000767878,\n"
        "50,0.02,0.000206508,3.7184\n"
        "100,0.01,5.36038e-05,3.85248\n"
        "200,0.005,1.36591e-05,3.9244\n"
        "400,0.0025,3.44778e-06,3.96171\n"
        "800,0.00125,8.66118e-07,3.98073\n"
    )
    assert err == _CAP_FAILURE


def test_convergence_refuses_a_level_above_the_cap_before_building_it(monkeypatch, capsys):
    # every level is solved on the coarsest grid, so only the cap can stop the
    # loop; the 51,200-cell level would ask for a 20 GiB weight table
    built = []
    system = cli._system

    def recording(rc):
        built.append(rc.cells)
        return system(dataclasses.replace(rc, cells=25))

    monkeypatch.setattr(cli, "_system", recording)
    assert main(["convergence", "benchmark", "--levels", "12"]) == EXIT_SOLVER
    assert built == [25, 50, 100, 200, 400, 800]
    assert capsys.readouterr().err == _CAP_FAILURE


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
