"""The benchmark's workloads: set-up, timed solve and correctness checks.

Every workload object has

* ``setup(wrap=None)``: config/problem -> scheme -> system (-> audit ->
  prepare); ``wrap(name, fn)``, when given, wraps the Problem's k1/k2;
* ``solve(state)``: the timed part;
* ``check(state, results)``: ``(outcomes, facts)``; ``outcomes`` holds one
  list of failure messages per check unit (one solve, or one refinement
  level for ``oracle_refine``), empty when the unit passed, and ``facts``
  holds deterministic outputs such as ``op_count``, ``max_node_error`` and
  ``csv_sha256``.

vfsolve's modules are called through their module attributes, never through
names re-exported by the package, so a traced run can wrap them from outside.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path

import numpy as np

from vfsolve import (
    cli,
    continuation,
    discrete,
    expr,
    hybrid,
    oracle,
    problem,
    quadrature,
    reference,
)

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent

# n0 pinned by --quick: 11^3 - 1 = 1330 ops, still inside the 5e-3 table gate
QUICK_N0 = 10

# Digests of the solution CSV at the commit that introduced the benchmark.
# A different digest is reported, not failed: a change may alter CSV bytes if it
# says why.
SEED_CSV_SHA256 = {
    "reference": "35f1d52378185d9eab6510b7f185c0ab7fcca7cc53792b98453f6071e7c5fa70",
    "expr_audit": "27f1454b2a9911ca230f3e40cf97543789d3ccffd0d8ef702dff0c6659c837c2",
}

# (traced name, module, attribute) of every public function the traced run
# wraps; numpy.linalg.solve is the oracle's LU solve.
LAYERS = (
    ("cli.parse_config", cli, "parse_config"),
    ("quadrature.build_scheme", quadrature, "build_scheme"),
    ("discrete.build_system", discrete, "build_system"),
    ("discrete.phi", discrete, "phi"),
    ("discrete.fred", discrete, "fred"),
    ("problem.check_assumptions", problem, "check_assumptions"),
    ("expr.evaluate", expr, "evaluate"),
    ("continuation.p_inverse", continuation, "p_inverse"),
    ("hybrid.prepare", hybrid, "prepare"),
    ("hybrid.solve", hybrid, "solve"),
    ("oracle.newton_solve", oracle, "newton_solve"),
    ("oracle.lu_solve", np.linalg, "solve"),
)


def _wrap_kernels(prob, wrap):
    if wrap is None:
        return prob
    return dataclasses.replace(
        prob, k1=wrap("problem.k1", prob.k1), k2=wrap("problem.k2", prob.k2)
    )


@dataclasses.dataclass
class ContinuationState:
    system: object
    params: object
    violations: list


class ContinuationWorkload:
    """config -> scheme -> system -> audit -> prepare, then ``hybrid.solve``."""

    def __init__(self, name, config, expected_ops, seed, quick, audit_pairs):
        self.name = name
        self.config = config
        self.expected_ops = expected_ops
        self.seed = seed
        self.quick = quick
        self.audit_pairs = audit_pairs

    def setup(self, wrap=None) -> ContinuationState:
        rc = cli.parse_config(str(self.config))
        prob = _wrap_kernels(rc.problem, wrap)
        grid = quadrature.make_grid(prob.a, prob.b, rc.cells)
        scheme = quadrature.build_scheme(grid, rc.rule, midpoint_rows=rc.volterra_rows)
        system = discrete.build_system(prob, scheme)
        violations = []
        if rc.audit:
            report = problem.check_assumptions(
                prob, scheme, pairs=self.audit_pairs, seed=self.seed
            )
            violations = report.violations(prob)
        overrides = dict(rc.overrides)
        if self.quick:
            overrides["n0"] = QUICK_N0
        params = hybrid.prepare(system, rc.eps, **overrides)
        return ContinuationState(system, params, violations)

    def solve(self, state: ContinuationState):
        return hybrid.solve(state.system, state.params)

    def _extra_failures(self, state, sol) -> list[str]:
        return []

    def check(self, state: ContinuationState, results):
        sys_ = state.system
        outcomes = []
        for sol in results:
            failures = self._extra_failures(state, sol)
            if sol.budget.op_count != self.expected_ops:
                failures.append(f"op_count {sol.budget.op_count} != {self.expected_ops}")
            outcomes.append(failures)
        sol = results[-1]
        # the solution as `vfsolve solve` writes it, at the default precision
        csv = cli._solution_csv(sys_.scheme.nodes, sol.xi, sys_.problem.exact, 10)
        digest = hashlib.sha256(csv.encode()).hexdigest()
        seed_digest = None if self.quick else SEED_CSV_SHA256[self.name]
        facts = {
            "op_count": sol.budget.op_count,
            "op_budget": sol.budget.op_bound,
            "iteration_bound": sol.budget.iteration_bound,
            "max_node_error": float(np.max(sol.per_node_error)),
            "csv_sha256": digest,
            "csv_matches_seed": None if seed_digest is None else digest == seed_digest,
        }
        return outcomes, facts


class Reference(ContinuationWorkload):
    """``configs/reference.ini`` as it stands: 175,615 ops, checked against the
    frozen reference table."""

    inputs = "deterministic: no input depends on --seed"

    def __init__(self, seed, quick):
        super().__init__(
            "reference", ROOT / "configs" / "reference.ini",
            (QUICK_N0 + 1) ** 3 - 1 if quick else 175_615, seed, quick, 0,
        )

    def _extra_failures(self, state, sol):
        ref_t, ref_x = reference.reference_table("benchmark")
        if not np.allclose(state.system.scheme.nodes, ref_t, atol=1e-12):
            return ["grid does not match the reference table"]
        delta = float(np.max(np.abs(sol.xi - ref_x)))
        return [] if delta <= 5e-3 else [f"max delta vs reference table {delta:.3e} > 5e-3"]


class ExprAudit(ContinuationWorkload):
    """The benchmark written as expression strings with ``default.ini``
    settings; the audit's 1,000 pairs are drawn from --seed."""

    inputs = "the solve is deterministic; the audit sample follows --seed"

    def __init__(self, seed, quick):
        super().__init__(
            "expr_audit", BENCH / "configs" / "expr_audit.ini",
            (QUICK_N0 + 1) ** 3 - 1 if quick else 63_999, seed, quick,
            100 if quick else 1000,
        )
        self._newton = None

    def _extra_failures(self, state, sol):
        failures = [f"audit: {msg}" for msg in state.violations]
        if self._newton is None:
            # the oracle runs here, outside the timed region and the trace
            self._newton = oracle.newton_solve(state.system)
        gap = discrete.norm(state.system, sol.xi - self._newton)
        if not gap <= sol.budget.iteration_bound:
            failures.append(
                f"||xi - xi_newton|| = {gap:.3e} exceeds the a-priori bound "
                f"{sol.budget.iteration_bound:.3e}"
            )
        return failures


class OracleRefine:
    """``vfsolve convergence benchmark --levels 5``: Newton at 25 ... 400 cells."""

    name = "oracle_refine"
    inputs = "deterministic: no input depends on --seed"
    base = 25

    def __init__(self, seed, quick):
        self.levels = 3 if quick else 5

    def setup(self, wrap=None):
        prob = _wrap_kernels(problem.builtin_problem("benchmark"), wrap)
        systems = []
        for k in range(self.levels):
            grid = quadrature.make_grid(prob.a, prob.b, self.base * 2**k)
            scheme = quadrature.build_scheme(grid, "midpoint")
            systems.append(discrete.build_system(prob, scheme))
        return systems

    def solve(self, systems):
        out = []
        for system in systems:
            try:
                out.append(oracle.newton_solve(system))
            except oracle.NewtonError as exc:
                out.append(exc)
        return out

    def check(self, systems, results):
        outcomes = []
        for xis in results:
            errors = []
            for system, xi in zip(systems, xis):
                cells = system.scheme.grid.n_cells
                if isinstance(xi, Exception):
                    outcomes.append([f"{cells} cells: newton_solve raised {xi}"])
                    errors.append(float("nan"))
                    continue
                exact = np.asarray(system.problem.exact(system.scheme.nodes), dtype=float)
                errors.append(float(np.max(np.abs(xi - exact))))
                failures = []
                if len(errors) > 1 and not 3.0 <= errors[-2] / errors[-1] <= 5.0:
                    ratio = errors[-2] / errors[-1]
                    failures.append(f"{cells} cells: error ratio {ratio:.4g} outside [3, 5]")
                outcomes.append(failures)
        facts = {
            "cells": [s.scheme.grid.n_cells for s in systems],
            "level_errors": errors,
            "max_node_error": errors[-1],
        }
        return outcomes, facts


WORKLOADS = {"reference": Reference, "expr_audit": ExprAudit, "oracle_refine": OracleRefine}


def make(name: str, seed: int, quick: bool):
    return WORKLOADS[name](seed, quick)
