#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 bench/compare.py OLD NEW

OLD and NEW are files holding the standard output of one or more
`bench/run.py` runs; the `{"record": ...}` lines are read and everything
else is ignored. For each workload and metric the script prints the
median over the runs on each side, the relative delta, each side's
spread (interquartile range over median) and a verdict against the
bound BENCHMARK.json fixes for the metric:

  worse       the new median is worse than the old by more than the bound
  better      the new median is better than the old by more than the bound
  same        the medians differ by no more than the bound
  unresolved  either side's spread is wider than the bound, so the medians
              cannot be told apart, unless every new run is better (or
              every one worse) than every old run

fail_rate (failed over attempted operations, 0 on a healthy commit) is
`worse` whenever its median rises. Per-layer metrics (traced runs) have
no bound; they get a delta only.
Exit code 1 if any verdict is `worse`, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
ENV_KEYS = ("nproc", "machine", "python", "numpy", "scipy", "blas", "threads")


def load(path):
    """{(workload, scale, trace): {metric: [value per run]}} and the environments."""
    runs = defaultdict(lambda: defaultdict(list))
    envs = []
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"record"'):
            continue
        record = json.loads(line)["record"]
        envs.append({key: record["env"][key] for key in ENV_KEYS})
        side = runs[record["workload"], record["scale"], record["trace"]]
        for name, value in record["metrics"].items():
            side[name].append(value)
        side["fail_rate"].append(record["fail_rate"])
    return runs, envs


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(old, new, better, bound):
    sign = 1.0 if better == "lower" else -1.0
    med_old = statistics.median(old)
    worse_by = sign * (statistics.median(new) - med_old) / abs(med_old)
    if max(spread(old), spread(new)) > bound:
        if sign * max(new) < sign * min(old):
            return "better"
        if sign * min(new) > sign * max(old):
            return "worse"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    (old, old_envs), (new, new_envs) = load(argv[0]), load(argv[1])
    if old_envs and new_envs and old_envs[0] != new_envs[0]:
        print(f"warning: environments differ:\n  old {old_envs[0]}\n  new {new_envs[0]}")

    print(f"{'workload':18} {'metric':30} {'old':>12} {'new':>12} {'delta':>8} "
          f"{'spread o/n':>13} {'n o/n':>6}  verdict")
    any_worse = False
    for key in sorted(set(old) & set(new)):
        workload = key[0]
        for name in old[key]:
            if name not in new[key]:
                continue
            a, b = old[key][name], new[key][name]
            med_a, med_b = statistics.median(a), statistics.median(b)
            delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
            if name == "fail_rate":  # zero on a healthy commit: no share to bound
                text = "worse" if med_b > med_a else "better" if med_b < med_a else "same"
            elif name in bounds:
                text = verdict(a, b, *bounds[name])
            else:
                text = "-"
            any_worse |= text == "worse"
            print(f"{workload:18} {name:30} {med_a:12.5g} {med_b:12.5g} {delta:+8.1%} "
                  f"{spread(a):6.1%}/{spread(b):6.1%} {len(a):>2}/{len(b):<3}  {text}")
    missing = sorted(set(old) ^ set(new))
    if missing:
        print(f"only on one side: {missing}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
