"""Benchmark of proxsure on three workloads, with a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload dof-analysis --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics of BENCHMARK.json with no
tracing; its times are calibrated against a reference kernel, see
calibration.py. --trace 1 runs the workload once untraced and once traced (at
one sweep worker) and reports the per-layer metrics. Either way the last
line of standard output is one JSON object {correct, attempted, failed,
metrics}; the lines before it give each metric by name and unit, the
run manifest, and the names the workload's own metrics go by
(cells_per_s, inputs_per_s, ...). A copy of the result, and the spans
of a traced run, are written under .perfbench/.

The benchmark imports proxsure from src/ next to this directory and
exits with status 2 when that is missing.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, so BLAS runs one thread per process and the
# sweep workers alone decide how many cores are busy.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = {"full": 7, "smoke": 1}

# The names each workload's headline metrics go by, as aliases of the
# generic end-to-end metrics (verify-suite's is wall_s itself).
ALIASES = {
    "trend-sweep": {"cells_per_s": "items_per_s"},
    "dof-analysis": {
        "inputs_per_s": "items_per_s",
        "input_p50_ms": "item_p50_ms",
        "input_p90_ms": "item_p90_ms",
    },
    "verify-suite": {},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ALIASES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: smallest inputs, for the harness's own test")
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and set up the workload, then exit")
    return p.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of its children.

    Read before the setup probes start, so the children counted are only
    the processes the workload itself started."""
    kb = sum(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kb / 1024.0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Raw and calibrated wall times of fresh interpreters that import
    proxsure and build the workload's inputs, then exit. Each probe ends
    by timing the reference kernel a few times (the median counts), and
    that time is taken off its wall."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    raw, calibrated = [], []
    for _ in range(SETUP_PROBES[args.size]):
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which quantizes the measurement.
        started = time.perf_counter()
        done = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - started
        kernel = json.loads(done.stdout)
        raw.append(wall - kernel["wall_s"])
        calibrated.append(raw[-1] * kernel["scale"])
    return raw, calibrated


def manifest(seed: int) -> dict:
    import numpy

    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": nproc(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
        "seed": seed,
    }


def percentile(values, q: int) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timing_metrics(passes, interval) -> dict:
    """Pass and item timings, with `interval(start, end)` giving seconds."""
    walls, items = [], []
    for p in passes:
        walls.append(interval(p.start, p.end))
        items += [1000.0 * interval(a, b) for a, b in p.item_spans]
        if p.item_ms:  # durations the program timed: scale like their pass
            scale = walls[-1] / (p.end - p.start)
            items += [ms * scale for ms in p.item_ms]
    return {
        "wall_s": statistics.median(walls),
        "items_per_s": len(items) / sum(walls),
        "item_p50_ms": percentile(items, 50),
        "item_p90_ms": percentile(items, 90),
    }


def run_untraced(w, args, work_dir):
    import calibration

    state = w.setup(args.seed, args.size, str(work_dir))
    workers = nproc()
    passes = []
    started = time.perf_counter()
    # trend-sweep's cells run in worker threads on every core, and keep
    # running while a timer sample would time the kernel.
    idle_only = w.name == "trend-sweep"
    with calibration.SpeedSampler(idle_only) as speed:
        while True:
            if passes and idle_only:
                speed.sample()
            passes.append(w.run_pass(state, workers))
            elapsed = time.perf_counter() - started
            # Stop when half a further pass would already reach --seconds.
            if len(passes) >= w.min_passes and elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
                break
    mse = [v for p in passes for v in p.test_mse]
    metrics = {
        **timing_metrics(passes, speed.calibrated),
        "test_mse": statistics.fmean(mse) if mse else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    notes = {"passes": len(passes), "raw": timing_metrics(passes, speed.busy),
             "kernel_ms": percentile(speed.kernel_ms, 50),
             "rechecked": sum(p.rechecked for p in passes)}

    raw_setup, calibrated_setup = measure_setup(args)
    metrics["setup_s"] = statistics.median(calibrated_setup)
    notes["raw"]["setup_s"] = statistics.median(raw_setup)
    notes["setup_raw_s"] = raw_setup
    return metrics, attempted, failed, notes


def run_traced(w, args, work_dir):
    import tracing
    from proxsure import verify

    attempted = failed = 0
    cpu_util, reference = 0.0, None
    if w.name == "trend-sweep":
        # sweep.cpu_util comes from an untraced sweep at the benchmark's
        # worker count; the serial sweeps below must match it byte for byte.
        workers = nproc()
        first_state = w.setup(args.seed, args.size, str(work_dir))
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        first = w.run_pass(first_state, workers)
        cpu_util = (cpu_seconds() - cpu0) / ((time.perf_counter() - t0) * workers)
        attempted, failed = first.attempted, first.failed
        reference = first_state["reference"]

    def setup_and_pass():
        started = time.perf_counter()
        state = w.setup(args.seed, args.size, str(work_dir))
        if reference is not None:
            state["reference"] = reference
        result = w.run_pass(state, 1)
        return state, result, time.perf_counter() - started

    _, untraced, untraced_wall = setup_and_pass()
    with tracing.Tracer() as tracer:
        state, traced, traced_wall = setup_and_pass()
    attempted += untraced.attempted + traced.attempted
    failed += untraced.failed + traced.failed

    metrics = tracer.layer_metrics()
    metrics["sweep.cpu_util"] = cpu_util
    for command in verify.COMMANDS:
        metrics[f"verify.{command}.s"] = untraced.command_s.get(command, 0.0)
    metrics["tracing_overhead"] = traced_wall / untraced_wall - 1.0

    expected = w.expected_counts(state)
    if metrics["train.diverged_ratio"] == 0.0:
        expected.setdefault("train.loss_and_gradients.calls", tracer.train_step_budget())
    for name, value in sorted(expected.items()):
        attempted += 1
        if metrics[name] != value:
            failed += 1
            print(f"FAILED cross-check {name}: traced {metrics[name]}, expected {value}",
                  file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{w.name}-seed{args.seed}.jsonl.gz")
    notes = {"spans": len(tracer.spans), "untraced_wall_s": untraced_wall,
             "traced_wall_s": traced_wall, "cross_checks": expected,
             "rechecked": untraced.rechecked + traced.rechecked}
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "proxsure" / "__init__.py").is_file():
        print(f"error: no proxsure package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT / f"work-{os.getpid()}"

    if args.setup_probe:
        import calibration
        import workloads

        try:
            workloads.WORKLOADS[args.workload].setup(args.seed, args.size, str(work_dir))
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        started = time.perf_counter()
        scale = calibration.REFERENCE_MS / calibration.kernel_ms(calibration.SAMPLE_REPEATS)
        print(json.dumps({"scale": scale, "wall_s": time.perf_counter() - started}))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import proxsure
    import workloads

    if Path(proxsure.__file__).resolve().parent != (SRC / "proxsure").resolve():
        print(f"error: imported proxsure from {proxsure.__file__}, not {SRC}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics, attempted, failed, notes = run_traced(w, args, work_dir)
        else:
            metrics, attempted, failed, notes = run_untraced(w, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    named = {} if args.trace else {
        alias: metrics[name] for alias, name in ALIASES[args.workload].items()
    }
    named["failed_ratio"] = failed / attempted if attempted else 1.0
    if args.workload == "dof-analysis":
        named["mc_rechecked"] = notes["rechecked"]
    run_manifest = manifest(args.seed)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    for name, value in named.items():
        print(f"named {name} {value!r}")
    print("manifest " + json.dumps(run_manifest, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, named=named, manifest=run_manifest, notes=notes)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
