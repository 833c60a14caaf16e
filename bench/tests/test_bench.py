"""The benchmark's own tests: reduced-size smoke runs, checks that fire, spans.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import Recorder  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402

# the six end-to-end metrics every workload prints, with their units
PRINTED = {
    "setup_s": "s",
    "solve_s": "s",
    "us_per_op": "us",
    "peak_rss_mib": "MiB",
    "fail_ratio": "ratio",
    "max_node_error": "1",
}


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc


def _printed(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep:
            value, unit = rest.split(" ")
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", run.NAMES)
def test_quick_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.contract()[0]
    printed = _printed(proc.stdout)
    expected = dict(PRINTED)
    if workload == "oracle_refine":
        del expected["us_per_op"]  # no op count: Newton is not budgeted
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert printed["fail_ratio"][0] == 0.0


@pytest.mark.parametrize("workload", run.NAMES)
def test_quick_traced_run_prints_every_per_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "4", "--seconds", "0.1",
                  "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.contract()[1]
    printed = _printed(proc.stdout)
    for name in run.SOLVE_LAYERS:
        for suffix, unit in ((".calls", "count"), (".self_s", "s"), (".us_per_call", "us")):
            assert printed[name + suffix][1] == unit
    for name in run.SETUP_LAYERS:
        assert printed[name + ".s"][1] == "s"
    for name in ("trace.overhead", "trace.self_sum_s", "oracle.iterations",
                 "oracle.system_maps_per_iter"):
        assert name in printed
    assert printed["discrete.fred.calls"][0] > 0
    # self times of the span trees add up to the traced solve time
    assert abs(printed["trace.unattributed"][0]) < 1e-3
    tag = f"{workload}-seed4-trace1-quick"
    with gzip.open(BENCH / "results" / f"spans-{tag}.csv.gz", "rt") as fh:
        rows = fh.read().splitlines()
    assert rows[0] == "phase,index,name,start_s,end_s,parent"
    assert any(row.startswith("solve,") for row in rows)


def test_printed_units_match_the_contract():
    for units in run.contract():
        for name, unit in units.items():
            assert run.unit_of(name) == unit, name


def _solve_quick(name):
    wl = workloads.make(name, 5, quick=True)
    state = wl.setup()
    return wl, state, wl.solve(state)


@pytest.mark.parametrize("workload", ["reference", "expr_audit"])
def test_perturbed_continuation_solution_fails(workload):
    wl, state, sol = _solve_quick(workload)
    outcomes, _ = wl.check(state, [sol])
    assert outcomes == [[]]
    bumped = dataclasses.replace(sol, xi=sol.xi + 10.0 * sol.budget.iteration_bound)
    outcomes, facts = wl.check(state, [sol, bumped])
    assert outcomes[0] == [] and outcomes[1], outcomes
    assert facts["csv_matches_seed"] is None  # quick runs have no seed digest


def test_perturbed_refinement_level_fails():
    wl, systems, xis = _solve_quick("oracle_refine")
    outcomes, _ = wl.check(systems, [xis])
    assert outcomes == [[]] * len(systems)
    xis = list(xis)
    xis[-1] = xis[-1] + 1e-3
    outcomes, _ = wl.check(systems, [xis])
    assert outcomes[-1] and not any(outcomes[:-1])


def test_wrong_op_count_fails():
    wl, state, sol = _solve_quick("reference")
    wl.expected_ops += 1
    outcomes, _ = wl.check(state, [sol])
    assert "op_count" in outcomes[0][0]


def test_bench_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_probes_run_inside_the_timed_work_and_are_left_out():
    import calibrate

    assert calibrate.probe() == calibrate.probe()
    with calibrate.Sampler(interval=0.01) as sampler:
        c0 = sampler.clock()
        t0 = time.thread_time()
        sum(i * i for i in range(2_000_000))
        timed, total = sampler.clock() - c0, time.thread_time() - t0
    assert len(sampler.times) >= 3
    # the clock leaves out both probes of each sample, not just the kept one
    assert total - timed >= sum(sampler.times) > 0


def test_self_times_sum_to_root_duration():
    rec = Recorder()
    leaf = rec.wrap("leaf", lambda: time.sleep(0.002))
    mid = rec.wrap("mid", lambda: [leaf() for _ in range(3)])
    rec.wrap("root", lambda: (mid(), leaf()))()
    agg = rec.aggregate()
    assert agg["leaf"]["calls"] == 4 and agg["mid"]["calls"] == 1
    root = agg["root"]["total_s"]
    assert sum(row["self_s"] for row in agg.values()) == pytest.approx(root, rel=1e-9)
    assert agg["mid"]["self_s"] < agg["mid"]["total_s"]


def test_patch_is_undone():
    import vfsolve.discrete as discrete

    original = discrete.fred
    rec = Recorder()
    rec.patch(discrete, "fred", "discrete.fred")
    assert discrete.fred is not original
    rec.unpatch_all()
    assert discrete.fred is original
