#!/usr/bin/env python3
"""critifem benchmark: one workload, closed loop, every pass checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`. The process pins itself to one CPU with one BLAS thread. It
first measures set-up (import plus one warm-up pass at the workload's
smallest size) in itself and in two fresh child processes, then runs
passes one at a time, each followed by host speed probes (see
calibrate.py), until the next pass would end after S seconds and at
least three untraced passes are done. The end-to-end times are scaled
by the host speed the probes measured. With --trace 1 every second pass
runs with the layer spans installed (see spans.py); per-layer times are
not scaled.

Output: one `{"record": ...}` line with the environment, the samples
and the failures, then the result line with the keys "correct",
"attempted", "failed" and "metrics". The metrics are the end-to-end
ones with --trace 0 and the per-layer ones with --trace 1.
Exit code 0 on a completed run (failed checks included, they show in
"correct"), 2 on a usage error or a checkout without `src/critifem`.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
MIN_PASSES = 3
PROBE_SHARE = 0.3  # probe time after each untraced pass, share of the pass
PROBE_S = 0.5  # probe seconds after each set-up and before the first pass


class UsageError(Exception):
    """Bad command line; exit code 2."""


def pin_one_cpu():
    """Run on one CPU with one BLAS thread; returns the CPUs allowed before.

    Must run before numpy is imported, which is why this module imports
    nothing of the program or of numpy at the top. Two BLAS threads gave
    no speed-up on any workload, and on a shared host each CPU drifts in
    speed on its own, so one CPU keeps the passes and the host speed
    probe (calibrate.py) on the same one.
    """
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[-1]})
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(allowed)


def environment(nproc):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": nproc,
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": commit,
    }


def set_up(name, seed, scale, outdir):
    """Import the program, build the workload, run its warm-up pass.

    Returns the workload and the seconds this took.
    """
    t0 = time.perf_counter()
    importlib.import_module("critifem.app")
    import workloads

    if name not in workloads.WORKLOADS:
        raise UsageError(
            f"unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.make(name, seed, scale, outdir)
    workload.warmup()
    return workload, time.perf_counter() - t0


def host_speed(unit_times):
    """Reference probe unit time over the mean of `unit_times`.

    The mean, not the median: the host switches between a fast and a
    slow state, and a pass takes longer in proportion to the share of
    its time spent in the slow one, which the mean unit time tracks.
    """
    import calibrate

    return calibrate.REFERENCE_UNIT_S / statistics.fmean(unit_times)


def probe_setup(args):
    """Set-up time of one fresh child process, and the host speed after it."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    return result["setup_s"], result["speed"]


def measure(workload, seconds, trace):
    """Closed loop of checked passes, with host speed probes between them.

    Returns the pass samples, the probe unit times (one list before the
    first untraced pass and one after each) and the failure tally.
    """
    import calibrate

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
    walls, traced_walls, layers, failures = [], [], [], []
    attempted = 0
    deadline = time.perf_counter() + seconds
    probe = calibrate.Probe()
    units = [probe.units(PROBE_S)]
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            out = workload.run()
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(wall))
        else:
            walls.append(wall)
            units.append(probe.units(PROBE_SHARE * wall))
        for op, errors in workload.check(out).items():
            attempted += 1
            if errors:
                failures.append({"op": op, "errors": errors})
        # stop before a pass that would end past the deadline, once the
        # minimum is met, so that a run lasts about `seconds`
        expected = statistics.median(walls + traced_walls) * (1 + PROBE_SHARE)
        done = time.perf_counter() + expected > deadline and len(walls) >= MIN_PASSES
        if done and (tracer is None or traced_walls):
            return walls, traced_walls, layers, units, attempted, failures


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: smallest sizes, for the smoke check only")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "critifem" / "__init__.py").is_file():
        print(f"error: no critifem sources under {SRC}", file=sys.stderr)
        return 2
    nproc = pin_one_cpu()
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")  # the iaea-2d deck warns on every solve

    outdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            workload, first_setup = set_up(args.workload, args.seed, args.scale,
                                           str(outdir))
        except UsageError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        import calibrate  # numpy is imported by now, as set-up timed it

        setups = [(first_setup, host_speed(calibrate.Probe().units(PROBE_S)))]
        if args.setup_probe:
            print(json.dumps({"setup_s": setups[0][0], "speed": setups[0][1]}))
            return 0
        if not args.trace:
            setups += [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        walls, traced_walls, layers, probe_units, attempted, failures = measure(
            workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            outdir.parent.rmdir()  # only once no other run uses it

    failed = len(failures)
    raw_wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)  # MIN_PASSES >= 2 samples
    # passes at the host speed over the whole run: the probes between
    # them sample the host's slow and fast spells as the passes meet them
    speed = host_speed([u for units in probe_units for u in units])
    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers)
                   for name in layers[0]}
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - raw_wall
    else:
        metrics = {
            "wall_s": statistics.fmean(walls) * speed,
            "setup_s": statistics.median(t * v for t, v in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": 1.0 - failed / attempted,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "env": environment(nproc),
        "wall_s": {"median": raw_wall, "q1": q1, "q3": q3, "n": len(walls),
                   "samples": walls},
        "probe": {"speed": speed, "units": probe_units},
        "traced_wall_s": traced_walls, "setup_s": setups,
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "failures": failures,
        "metrics": metrics,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
