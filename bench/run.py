"""vfsolve benchmark: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload reference --seed 1 --seconds 10 --trace 0

runs one workload in this process and prints every metric as
``name = value unit``, then, as the last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` gives
the end-to-end metrics, measured untraced, in CPU seconds rescaled half-way to
a nominal host speed (see calibrate.py); ``--trace 1`` gives the per-layer
metrics from a run that wraps vfsolve's public functions (see spans.py) and
pairs each traced solve with an untraced one for the tracing overhead.
Without ``--workload`` every workload runs, each in its own process, followed
by a summary table.
``--quick`` shrinks every workload for smoke tests.

The program is imported from ``src/`` of the checkout this file sits in.
BLAS/OpenMP threads are pinned to 1 before numpy loads.  Full results and
spans are written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

NAMES = ("reference", "expr_audit", "oracle_refine")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# set-ups before each untraced solve.  setup_s is the median rescaled CPU time
# of all of them; spread over the run like the solves, they see the same host
# speed.
SETUP_BATCH = {"reference": 50, "expr_audit": 1, "oracle_refine": 25}
# calibration probes right before and right after each batch of set-ups, and
# the fewest a solve is rescaled by
EDGE_PROBES = 3
# set-ups of a traced run, all before its solves
TRACED_SETUP_REPEATS = {"reference": 5, "expr_audit": 2, "oracle_refine": 5}

# layers timed during the solve: .calls, .self_s and .us_per_call per solve
SOLVE_LAYERS = (
    "bench.solve",
    "hybrid.solve",
    "continuation.p_inverse",
    "discrete.phi",
    "discrete.fred",
    "problem.k1",
    "problem.k2",
    "expr.evaluate",
    "oracle.newton_solve",
    "oracle.lu_solve",
)
# layers timed during set-up: inclusive seconds per set-up, as <name>.s
SETUP_LAYERS = (
    "cli.parse_config",
    "quadrature.build_scheme",
    "discrete.build_system",
    "problem.check_assumptions",
    "hybrid.prepare",
)


def bootstrap() -> None:
    """Pin compute threads and put the checkout's ``src/`` first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "vfsolve" / "__init__.py").is_file():
        sys.exit(f"bench: no vfsolve sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import vfsolve

    if Path(vfsolve.__file__).resolve().parent != SRC / "vfsolve":
        sys.exit(f"bench: imported vfsolve from {vfsolve.__file__}, not from {SRC}")


def contract() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and the per-layer metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def unit_of(name: str) -> str:
    """Unit of any metric this benchmark prints, from its name."""
    for suffix, unit in (
        ("peak_rss_mib", "MiB"), ("max_node_error", "1"), (".calls", "count"),
        ("op_count", "count"), ("iterations", "count"), ("us_per_call", "us"),
        ("us_per_op", "us"), ("_s", "s"), (".s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "ratio"


def machine_facts() -> dict:
    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def repeat_for(fn, seconds: float) -> list:
    """Call ``fn`` at least once, and again while the next call should end
    within ``seconds`` of wall time; returns the results."""
    results, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        walls.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return results


def timed(fn, *args, clock=time.process_time):
    """``(cpu_s, wall_s, result)`` of one call.

    ``cpu_s`` is CPU time by ``clock``: the workloads run on one thread, so
    this is the wall time less the time the host gave the CPU to other work."""
    c0, t0 = clock(), time.perf_counter()
    result = fn(*args)
    return clock() - c0, time.perf_counter() - t0, result


def timed_setups(wl, repeats: int, wrap=None, clock=time.process_time):
    """CPU seconds of ``repeats`` set-ups, and the last set-up's state."""
    durations, state = [], None
    for _ in range(repeats):
        state = None  # free the previous set-up outside the timed region
        cpu, _, state = timed(wl.setup, wrap, clock=clock)
        durations.append(cpu)
    return durations, state


def untraced_run(wl, args):
    """End-to-end metrics: a batch of set-ups, then one solve of the last of
    them, repeated for ``args.seconds``.  A calibration sampler runs through
    each step; the set-ups are rescaled by the mean time of the probes around
    them, the solve by that of the probes during it (``calibrate.rescale``).
    The mean, not the median: the host switches speed within a step, and the
    step's time sums over those speeds as the probes' mean does."""
    import calibrate

    batch = 3 if args.quick else SETUP_BATCH[wl.name]
    setups, probes, state = [], [], None

    def step():
        nonlocal state
        state = None
        with calibrate.Sampler() as sampler:
            # a set-up batch can be shorter than the probe interval: probe
            # right before and after it as well
            for _ in range(EDGE_PROBES):
                sampler.run_probe()
            durations, state = timed_setups(wl, batch, clock=sampler.clock)
            for _ in range(EDGE_PROBES):
                sampler.run_probe()
            setup_probe = statistics.mean(sampler.times)
            first = len(sampler.times)
            cpu, wall, result = timed(wl.solve, state, clock=sampler.clock)
            while len(sampler.times) < first + EDGE_PROBES:  # short solves
                sampler.run_probe()
        probe = statistics.mean(sampler.times[first:])
        setups.extend((d, calibrate.rescale(d, setup_probe)) for d in durations)
        probes.extend(sampler.times)
        return cpu, calibrate.rescale(cpu, probe), wall, probe, result

    steps = repeat_for(step, args.seconds)
    cpu, scaled, wall, step_probes, results = (list(col) for col in zip(*steps))
    metrics = {
        "setup_s": statistics.median(d for _, d in setups),
        "solve_s": statistics.median(scaled),
        "setup_cpu_s": statistics.median(d for d, _ in setups),
        "solve_cpu_s": statistics.median(cpu),
        "solve_wall_s": statistics.median(wall),
        "calibrate.probe_s": statistics.mean(probes),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setups": len(setups), "solves": len(steps), "probes": len(probes)}
    record = {
        "setup_durations_s": [d for d, _ in setups],
        "solve_durations_s": cpu,
        "solve_wall_durations_s": wall,
        "step_probe_s": step_probes,
    }
    return metrics, results, samples, state, record


def layer_metrics(agg: dict, per: int, names) -> dict:
    """``.calls``, ``.self_s`` (per solve) and ``.us_per_call`` per span name."""
    out = {}
    for name in names:
        row = agg.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"] / per
        out[f"{name}.self_s"] = row["self_s"] / per
        out[f"{name}.us_per_call"] = 1e6 * row["total_s"] / row["calls"] if row["calls"] else 0.0
    return out


def traced_run(wl, args, untraced_state, tag):
    """Per-layer metrics: traced set-ups, then pairs of one untraced and one
    traced solve, in alternating order, with every layer wrapped for the
    traced one."""
    import workloads
    from spans import Recorder

    rec = Recorder()

    def patch():
        for name, module, attr in workloads.LAYERS:
            rec.patch(module, attr, name)

    spans_path = RESULTS / f"spans-{tag}.csv.gz"
    repeats = 1 if args.quick else TRACED_SETUP_REPEATS[wl.name]
    patch()
    try:
        _, state = timed_setups(wl, repeats, rec.wrap)
    finally:
        rec.unpatch_all()
    setup_agg = rec.aggregate()
    rec.write_csv(spans_path, "setup")
    rec.clear()

    traced_solve = rec.wrap("bench.solve", wl.solve)

    def pair(i):
        """((cpu_s, result) untraced, (cpu_s, result) traced) of one pair."""
        out = {}
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                patch()
            solve, arg = (traced_solve, state) if traced else (wl.solve, untraced_state)
            try:
                cpu, _, res = timed(solve, arg)
            finally:
                rec.unpatch_all()
            out[traced] = (cpu, res)
        return out[False], out[True]

    order = itertools.count()
    pairs = repeat_for(lambda: pair(next(order)), args.seconds)
    solve_agg = rec.aggregate()
    rec.write_csv(spans_path, "solve", append=True)

    n = len(pairs)
    untraced = [u for (u, _), _ in pairs]
    traced = [t for _, (t, _) in pairs]
    metrics = layer_metrics(solve_agg, n, SOLVE_LAYERS)
    for name in SETUP_LAYERS:
        metrics[f"{name}.s"] = setup_agg.get(name, {"total_s": 0.0})["total_s"] / repeats
    self_sum = sum(row["self_s"] for row in solve_agg.values()) / n
    lu_calls = metrics["oracle.lu_solve.calls"]
    metrics.update({
        "oracle.iterations": lu_calls,
        "oracle.system_maps_per_iter": metrics["discrete.phi.calls"] / lu_calls if lu_calls else 0.0,
        "trace.solve_s": statistics.median(traced),
        "trace.untraced_solve_s": statistics.median(untraced),
        "trace.overhead": statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0,
        "trace.self_sum_s": self_sum,
        "trace.unattributed": 1.0 - self_sum / (solve_agg["bench.solve"]["total_s"] / n),
    })
    results = [res for u, t in pairs for _, res in (u, t)]
    samples = {"solve_pairs": n, "traced_setups": repeats}
    return metrics, results, samples, str(spans_path.relative_to(ROOT))


def result_tag(workload: str, args) -> str:
    return f"{workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")


def run_one(args) -> int:
    bootstrap()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.quick)
    tag = result_tag(args.workload, args)
    RESULTS.mkdir(exist_ok=True)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "inputs": wl.inputs,
        "machine": machine_facts(),
    }
    if args.trace:
        _, state = timed_setups(wl, 1)
        metrics, results, samples, spans = traced_run(wl, args, state, tag)
        result["spans"] = spans
        wanted = contract()[1]
    else:
        metrics, results, samples, state, record = untraced_run(wl, args)
        result.update(record)
        wanted = contract()[0]

    outcomes, facts = wl.check(state, results)
    failed = sum(1 for msgs in outcomes if msgs)
    metrics["max_node_error"] = facts["max_node_error"]
    metrics["fail_ratio"] = failed / len(outcomes)
    if "op_count" in facts:
        metrics["hybrid.op_count"] = facts["op_count"]
        metrics["hybrid.op_budget_use"] = facts["op_count"] / facts["op_budget"]
        if not args.trace:
            metrics["us_per_op"] = 1e6 * metrics["solve_s"] / facts["op_count"]
    result.update(
        samples=samples, metrics=metrics, facts=facts,
        attempted=len(outcomes), failed=failed,
        failures=[m for msgs in outcomes for m in msgs],
    )
    (RESULTS / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {wl.inputs}")
    print(f"machine: {json.dumps(result['machine'])}")
    print(f"samples: {json.dumps(samples)}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {unit_of(name)}")
    for msg in result["failures"]:
        print(f"FAILED: {msg}")
    if facts.get("csv_matches_seed") is False:
        print(f"NOTE: csv_sha256 {facts['csv_sha256']} differs from the seed digest")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one summary table."""
    rows, status = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = proc.returncode
            continue
        rows[name] = json.loads((RESULTS / f"{result_tag(name, args)}.json").read_text())["metrics"]
    shown = (
        ["setup_s", "solve_s", "us_per_op", "peak_rss_mib", "fail_ratio", "max_node_error"]
        if not args.trace
        else sorted({k for m in rows.values() for k in m})
    )
    print()
    print(f"{'metric':34s} {'unit':6s}" + "".join(f"{n:>16s}" for n in rows))
    for metric in shown:
        cells = "".join(
            f"{rows[n][metric]:16.6g}" if metric in rows[n] else f"{'-':>16s}" for n in rows
        )
        print(f"{metric:34s} {unit_of(metric):6s}{cells}")
    if any(rows[n]["fail_ratio"] > 0 for n in rows):
        status = status or 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES, help="default: all, one process each")
    parser.add_argument("--seed", type=int, default=1, help="feeds the expr_audit audit sample")
    parser.add_argument("--seconds", type=float, default=10.0, help="solve time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for smoke tests")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
