#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload with `--scale tiny`, untraced and traced, one after
another. Fails (exit 1) unless every run exits 0 and reports `correct`,
names exactly the metrics BENCHMARK.json declares with their units,
and, when traced, shows activity in the layers that workload exists to
exercise, with layer self times that account for the traced wall time.
Finally runs compare.py on the untraced results against themselves,
which must find no difference. Takes about a minute and a half.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per workload, per-layer metrics that must be nonzero at tiny sizes
ACTIVE = {
    "study-disk-p3": ["mesh.generate_s", "fem_space.build_dofmap_s",
                      "assembly.assemble_s", "eigensolver.arnoldi_s",
                      "eigensolver.operator_applies", "eigensolver.inner_cg_calls",
                      "convergence.self_s"],
    "study-cube-p1": ["mesh.generate_s", "mesh.cells", "eigensolver.solve_primal_s",
                      "convergence.self_s"],
    "cli-iaea2d": ["mesh.read_gmsh_s", "eigensolver.factor_s",
                   "eigensolver.lu_fill_nnz", "app.write_s", "app.output_bytes",
                   "app.self_s"],
    "modes-square-p2": ["eigensolver.solve_primal_s", "eigensolver.solve_adjoint_s",
                        "eigensolver.certified_ratio"],
}


def run(workload, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", str(trace),
            "--scale", "tiny"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {done.returncode}\n"
                             f"{done.stderr}")
    return done.stdout, json.loads(done.stdout.splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems, untraced = [], []
    for workload, active in ACTIVE.items():
        for trace in (0, 1):
            try:
                stdout, result = run(workload, trace)
            except (AssertionError, subprocess.TimeoutExpired) as e:
                problems.append(str(e))
                continue
            where = f"{workload} trace={trace}"
            before = len(problems)
            if trace == 0:
                untraced.append(stdout)
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']}")
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in declared[trace]}
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != want:
                problems.append(f"{where}: metrics {got} differ from {want}")
                continue
            if trace == 1:
                idle = [name for name in active if not metrics[name]["value"] > 0]
                if idle:
                    problems.append(f"{where}: no activity in {idle}")
                other = metrics["harness.other_s"]["value"]
                wall = metrics["trace.wall_s"]["value"]
                if not -1e-6 <= other <= 0.1 * wall:
                    problems.append(f"{where}: layers leave {other} s of {wall} s")
            if len(problems) == before:
                print(f"ok  {where}", flush=True)

    outdir = ROOT / ".bench_out"
    outdir.mkdir(exist_ok=True)
    results = outdir / "smoke-results.txt"
    try:
        results.write_text("".join(untraced))
        done = subprocess.run([sys.executable, str(HERE / "compare.py"),
                               str(results), str(results)],
                              capture_output=True, text=True, timeout=60)
    finally:
        results.unlink()
        with contextlib.suppress(OSError):
            outdir.rmdir()
    verdicts = {line.split()[-1] for line in done.stdout.splitlines()[1:]}
    if done.returncode != 0 or not verdicts <= {"same", "-"}:
        problems.append(f"compare against itself:\n{done.stdout}{done.stderr}")
    else:
        print("ok  compare")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
