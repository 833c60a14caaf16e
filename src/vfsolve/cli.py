"""Command-line front-end: solve / bound / table / convergence.

Problems are described in an INI-style config with four sections::

    [problem]     builtin = benchmark            # or: a, b, k1, k2, g, M, L[, exact]
    [quadrature]  rule = midpoint  cells = 50    # optional: volterra_rows = half_cell|full_cell
    [solver]      eps = 1e-3  method = continuation|newton
                  # optional overrides: N, m, n_prime, n0; audit = true|false; seed
    [output]      path = solution.csv  format = csv  precision = 10

Unknown sections or fields are hard errors (typo protection).  Exit codes:
0 success; 1 config error, which includes a failure to build the grid, scheme
or system in every command, an output path ``solve`` cannot write (refused
before the solve) and a failed parameter derivation in ``bound``;
2 solver failure, which includes a failed derivation in ``solve``/``table``;
3 assumption-audit failure, which includes a kernel that raises in the audit.
All randomness is seeded, and CSV output is plain text with fixed formatting,
so identical configs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import argparse
import configparser
import os
import sys as _sys

import numpy as np

from . import hybrid, reference
from .continuation import SolverError
from .discrete import DiscreteSystem, build_system, residual
from .expr import ExprError
from .oracle import NewtonError, _check_dim, newton_solve
from .problem import (
    DEFAULT_SEED,
    Problem,
    builtin_problem,
    check_assumptions,
    from_expressions,
)
from .quadrature import RULES, build_scheme, make_grid

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "cmd_solve",
    "cmd_bound",
    "cmd_table",
    "cmd_convergence",
    "main",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_SOLVER",
    "EXIT_AUDIT",
]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_AUDIT = 3


class ConfigError(ValueError):
    """The run configuration is missing, malformed, or inconsistent."""


@dataclass
class RunConfig:
    """Everything a run needs, parsed and validated."""

    problem: Problem
    rule: str = "midpoint"
    cells: int = 50
    volterra_rows: str = "half_cell"
    eps: float = 1e-3
    method: str = "continuation"
    overrides: dict = field(default_factory=dict)  # N, m, n_prime, n0
    audit: bool = False
    seed: int = DEFAULT_SEED
    out_path: str = "solution.csv"
    precision: int = 10


_SECTIONS = {
    "problem": {"builtin", "a", "b", "k1", "k2", "g", "M", "L", "exact"},
    "quadrature": {"rule", "cells", "volterra_rows"},
    "solver": {"eps", "method", "N", "m", "n_prime", "n0", "audit", "seed"},
    "output": {"path", "format", "precision"},
}

_EXPRESSION_FIELDS = ("a", "b", "k1", "k2", "g", "M", "L")


def _convert(section: str, key: str, raw: str, kind):
    try:
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        return kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(
            f"field '{key}' in [{section}] must be a {kind.__name__}, got {raw!r}"
        ) from None


def _builtin(name: str) -> Problem:
    try:
        return builtin_problem(name)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file; raises :class:`ConfigError`."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str  # keep M/L/N case-sensitive
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown field '{key}' in [{section}]")

    if "problem" not in cp:
        raise ConfigError("missing required section [problem]")
    prob_sec = cp["problem"]

    if "builtin" in prob_sec:
        extra = [k for k in prob_sec if k != "builtin"]
        if extra:
            raise ConfigError(
                "a [problem] section must contain exactly one of 'builtin' or an "
                f"expression problem; found 'builtin' together with {extra}"
            )
        problem = _builtin(prob_sec["builtin"])
    else:
        missing = [k for k in _EXPRESSION_FIELDS if k not in prob_sec]
        if missing:
            raise ConfigError(
                f"missing required field '{missing[0]}' in [problem] "
                "(an expression problem needs a, b, k1, k2, g, M, L)"
            )
        try:
            problem = from_expressions(
                a=_convert("problem", "a", prob_sec["a"], float),
                b=_convert("problem", "b", prob_sec["b"], float),
                k1_src=prob_sec["k1"],
                k2_src=prob_sec["k2"],
                g_src=prob_sec["g"],
                M=_convert("problem", "M", prob_sec["M"], float),
                L=_convert("problem", "L", prob_sec["L"], float),
                exact_src=prob_sec.get("exact"),
            )
        except ExprError as exc:
            raise ConfigError(f"bad expression in [problem]: {exc}") from None
        except ValueError as exc:
            raise ConfigError(f"bad [problem] section: {exc}") from None

    rc = RunConfig(problem=problem)

    if "quadrature" in cp:
        quad = cp["quadrature"]
        rc.rule = quad.get("rule", rc.rule)
        if rc.rule not in RULES:
            raise ConfigError(f"field 'rule' must be one of {RULES}, got {rc.rule!r}")
        if "cells" in quad:
            rc.cells = _convert("quadrature", "cells", quad["cells"], int)
        if "volterra_rows" in quad:
            if rc.rule != "midpoint":
                raise ConfigError(
                    "field 'volterra_rows' only applies to the midpoint rule"
                )
            rc.volterra_rows = quad["volterra_rows"]

    if "solver" in cp:
        sol = cp["solver"]
        if "eps" in sol:
            rc.eps = _convert("solver", "eps", sol["eps"], float)
        rc.method = sol.get("method", rc.method)
        if rc.method not in ("continuation", "newton"):
            raise ConfigError(
                f"field 'method' must be continuation or newton, got {rc.method!r}"
            )
        for key in ("N", "m", "n_prime", "n0"):
            if key in sol:
                rc.overrides[key] = _convert("solver", key, sol[key], int)
        if "audit" in sol:
            rc.audit = _convert("solver", "audit", sol["audit"], bool)
        if "seed" in sol:
            rc.seed = _convert("solver", "seed", sol["seed"], int)
            if rc.seed < 0:
                raise ConfigError(
                    f"field 'seed' in [solver] must be nonnegative, got {rc.seed}"
                )

    if "output" in cp:
        out = cp["output"]
        rc.out_path = out.get("path", rc.out_path)
        fmt = out.get("format", "csv")
        if fmt != "csv":
            raise ConfigError(f"field 'format' only supports csv, got {fmt!r}")
        if "precision" in out:
            rc.precision = _convert("output", "precision", out["precision"], int)
            if not 1 <= rc.precision <= 17:
                raise ConfigError("field 'precision' must lie in [1, 17]")

    if not rc.eps > 0:
        raise ConfigError(f"field 'eps' must be positive, got {rc.eps}")
    if rc.cells < 1:
        raise ConfigError(f"field 'cells' must be at least 1, got {rc.cells}")
    return rc


def _system(rc: RunConfig) -> DiscreteSystem:
    """grid -> scheme -> system; a failure of any of them is a ConfigError."""
    try:
        grid = make_grid(rc.problem.a, rc.problem.b, rc.cells)
        scheme = build_scheme(grid, rc.rule, midpoint_rows=rc.volterra_rows)
        return build_system(rc.problem, scheme)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(str(exc)) from None


# Every command catches exactly these.  A ConfigError (reading the config or
# building the system) exits 1, any other one the command's own code (_fail).
_FAILURES = (SolverError, NewtonError, ValueError, ArithmeticError)


def _fail(exc: Exception, code: int, where: str = "") -> int:
    """Report a caught failure on one stderr line and return its exit code."""
    if isinstance(exc, ConfigError):
        code = EXIT_CONFIG
    label = "config error" if code == EXIT_CONFIG else f"solver failure{where}"
    print(f"{label}: {exc}", file=_sys.stderr)
    return code


def _max_error(sys_obj: DiscreteSystem, xi) -> float:
    """max |xi - exact| over the nodes."""
    exact = np.asarray(sys_obj.problem.exact(sys_obj.scheme.nodes), dtype=float)
    return float(np.max(np.abs(xi - exact)))


def _fmt(value, precision: int = 12) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), f".{precision}g")


def _solution_csv(nodes, xi, exact_fn, precision: int) -> str:
    lines = []
    if exact_fn is not None:
        exact = np.asarray(exact_fn(nodes), dtype=float)
        lines.append("t,exact,approx,abs_error")
        for t, e, x in zip(nodes, exact, xi):
            lines.append(
                f"{_fmt(t, precision)},{_fmt(e, precision)},"
                f"{_fmt(x, precision)},{_fmt(abs(x - e), precision)}"
            )
    else:
        lines.append("t,approx")
        for t, x in zip(nodes, xi):
            lines.append(f"{_fmt(t, precision)},{_fmt(x, precision)}")
    return "\n".join(lines) + "\n"


def _print_params(params) -> None:
    """The derived parameters and their a-priori bounds, one key=value a line."""
    for key in (
        "N", "m", "n_prime", "d", "h0", "n0",
        "q", "alpha", "gamma", "beta",
        "C_m", "C_nprime", "C1", "C2", "g_norm", "eps",
    ):
        print(f"{key}={_fmt(getattr(params, key))}")
    print(f"iteration_bound={_fmt(hybrid.iteration_bound(params))}")
    print(f"iteration_bound_fine={_fmt(hybrid.iteration_bound_fine(params))}")
    print(f"inner_bound={_fmt(hybrid.inner_bound(params, params.g_norm))}")
    print(f"op_budget={hybrid.op_budget(params)}")


def _audit_failures(rc: RunConfig, sys_obj: DiscreteSystem) -> list[str]:
    """The audit's violations; a kernel that raises in the box is one too."""
    if not rc.audit:
        return []
    try:
        report = check_assumptions(
            rc.problem, sys_obj.scheme, pairs=1000, seed=rc.seed, system=sys_obj
        )
    except _FAILURES as exc:
        return [str(exc)]
    return report.violations(rc.problem)


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be written, without creating it."""
    folder = os.path.dirname(path) or "."
    if not path:
        why = "the path is empty"
    elif os.path.isdir(path):
        why = "it is a directory"
    elif not os.path.isdir(folder):
        why = f"no directory {folder!r}"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        why = "permission denied"
    else:
        return
    raise ConfigError(f"cannot write output file {path!r}: {why}")


def cmd_solve(config_path: str, out: str | None = None, method: str | None = None) -> int:
    """Solve the configured problem and write the solution CSV."""
    try:
        rc = parse_config(config_path)
        if out is not None:
            rc.out_path = out
        if method is not None:
            rc.method = method
        _check_writable(rc.out_path)
        sys_obj = _system(rc)
        violations = _audit_failures(rc, sys_obj)
        for msg in violations:
            print(f"assumption audit failed: {msg}", file=_sys.stderr)
        if violations:
            return EXIT_AUDIT
        if rc.method == "continuation":
            sol = hybrid.solve(sys_obj, hybrid.prepare(sys_obj, rc.eps, **rc.overrides))
            xi, res = sol.xi, sol.residual
            _print_params(sol.params)
            print(f"op_count={sol.budget.op_count}")
            print(f"maps_evaluated={sol.budget.maps_evaluated}")
        else:
            xi = newton_solve(sys_obj)
            res = residual(sys_obj, xi)
            print("method=newton")
        print(f"residual={_fmt(res)}")
        if rc.problem.exact is not None:
            print(f"max_node_error={_fmt(_max_error(sys_obj, xi))}")
        if rc.method == "continuation":
            print(f"note={sol.budget.discretization_note}")
    except _FAILURES as exc:
        return _fail(exc, EXIT_SOLVER)

    try:
        with open(rc.out_path, "w", newline="") as fh:
            fh.write(_solution_csv(sys_obj.scheme.nodes, xi, rc.problem.exact, rc.precision))
    except OSError as exc:
        return _fail(ConfigError(f"cannot write output file: {exc}"), EXIT_CONFIG)
    print(f"wrote {rc.out_path}")
    return EXIT_OK


def cmd_bound(config_path: str) -> int:
    """Print the derived parameters and a-priori bounds without solving."""
    try:
        rc = parse_config(config_path)
        params = hybrid.prepare(_system(rc), rc.eps, **rc.overrides)
    except _FAILURES as exc:
        return _fail(exc, EXIT_CONFIG)
    _print_params(params)
    return EXIT_OK


def cmd_table(name: str) -> int:
    """Re-run the frozen reference configuration for a builtin and compare."""
    try:
        problem = _builtin(name)
        if name not in reference.REFERENCE_RUN:
            raise ConfigError(f"no reference run for builtin problem {name!r}")
        rc = RunConfig(problem, **reference.REFERENCE_RUN[name])
        ref_t, ref_vals = reference.reference_table(name)
        sys_obj = _system(rc)
        nodes = sys_obj.scheme.nodes
        if not np.allclose(nodes, ref_t, atol=1e-12):
            raise SolverError("reference grid mismatch")
        sol = hybrid.solve(sys_obj, hybrid.prepare(sys_obj, rc.eps, **rc.overrides))
    except _FAILURES as exc:
        return _fail(exc, EXIT_SOLVER)

    exact = np.asarray(problem.exact(nodes), dtype=float)
    print("t,exact,approx,ref_approx,delta_vs_ref")
    for t, e, x, r in zip(nodes, exact, sol.xi, ref_vals):
        print(
            f"{_fmt(t, 10)},{_fmt(e, 10)},{_fmt(x, 10)},"
            f"{_fmt(r, 10)},{_fmt(abs(x - r), 10)}"
        )
    return EXIT_OK


def cmd_convergence(name: str, levels: int, base: int = 25) -> int:
    """Newton-oracle max-node errors under grid refinement (reporting only)."""
    try:
        if levels < 2:
            raise ConfigError("need at least 2 refinement levels")
        if base < 1:
            raise ConfigError("base cell count must be positive")
        rc = RunConfig(_builtin(name))
        if rc.problem.exact is None:
            raise ConfigError("convergence reporting needs a declared exact solution")
    except _FAILURES as exc:
        return _fail(exc, EXIT_CONFIG)

    print("cells,h,max_error,ratio")
    prev = None
    for k in range(levels):
        cells = base * 2**k
        try:
            _check_dim(cells)  # midpoint: one node per cell; refused before it is built
            sys_obj = _system(replace(rc, cells=cells))
            err = _max_error(sys_obj, newton_solve(sys_obj))
        except _FAILURES as exc:
            return _fail(exc, EXIT_SOLVER, f" at {cells} cells")
        ratio = "" if prev is None else _fmt(prev / err, 6)
        print(f"{cells},{_fmt(sys_obj.scheme.grid.h, 6)},{_fmt(err, 6)},{ratio}")
        prev = err
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vfsolve",
        description="Solver for nonlinear Volterra-Fredholm integral equations "
        "of the second kind",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a configured problem, write CSV")
    p_solve.add_argument("--config", required=True, help="path to the INI config")
    p_solve.add_argument("--out", help="override the output CSV path")
    p_solve.add_argument(
        "--method", choices=("continuation", "newton"), help="override the solver"
    )

    p_bound = sub.add_parser("bound", help="print derived parameters and bounds")
    p_bound.add_argument("--config", required=True, help="path to the INI config")

    p_table = sub.add_parser(
        "table", help="reference-table comparison for a builtin problem"
    )
    p_table.add_argument("builtin", help="builtin problem name")

    p_conv = sub.add_parser(
        "convergence", help="Newton-oracle error decay under grid refinement"
    )
    p_conv.add_argument("builtin", help="builtin problem name")
    p_conv.add_argument("--levels", type=int, required=True, help="refinement levels")
    p_conv.add_argument("--base", type=int, default=25, help="coarsest cell count")

    args = parser.parse_args(argv)
    if args.command == "solve":
        return cmd_solve(args.config, out=args.out, method=args.method)
    if args.command == "bound":
        return cmd_bound(args.config)
    if args.command == "table":
        return cmd_table(args.builtin)
    return cmd_convergence(args.builtin, args.levels, base=args.base)


if __name__ == "__main__":
    _sys.exit(main())
