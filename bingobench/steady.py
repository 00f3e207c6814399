#!/usr/bin/env python3
"""Steadiness command: run workloads repeatedly, each run a fresh process.

    python3 bingobench/steady.py [--workload NAME ...] [--runs 10]
                                 [--first-seed 1] [--seconds S] [--traced 1]

For every end-to-end metric of every workload it prints the median, the
quartiles (statistics.quantiles(values, n=4)), the quartile spread and the
max/min spread as shares of the median, and the metric's bound from
BENCHMARK.json; a metric is steady when its quartile spread is under a
third of its bound. Run i uses seed first_seed + i. With --traced N it then
makes N traced runs per workload and prints every per-layer metric's median
and the tracing overhead per end-to-end metric (traced median against
untraced median). Each run's full output is kept in
.bench_data/steady/. Exits 1 if a run fails or reports incorrect output.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    log_dir = os.path.join(ROOT, ".bench_data", "steady")
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, "%s-%d-trace%d.log" % (workload, seed, trace)),
              "w") as f:
        f.write(out.stdout + out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-3000:] + out.stderr[-3000:])
        raise SystemExit("%s seed %d trace %d failed (exit %d)"
                         % (workload, seed, trace, out.returncode))
    result = json.loads(lines[-1])
    traced_e2e = {}
    for line in lines:
        if line.startswith("traced_end_to_end: "):
            traced_e2e = json.loads(line[len("traced_end_to_end: "):])
    return result, traced_e2e


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med, (max(values) - min(values)) / med


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--traced", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_steady = True
    for workload in args.workload or names:
        values, shares = {}, set()
        for i in range(args.runs):
            result, _ = run_once(spec, workload, args.first_seed + i,
                                 args.seconds, 0)
            if not result["correct"]:
                raise SystemExit("%s seed %d: incorrect output"
                                 % (workload, args.first_seed + i))
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("== %s: %d runs, seeds %d..%d, %g s, failed share %s"
              % (workload, args.runs, args.first_seed,
                 args.first_seed + args.runs - 1, args.seconds,
                 sorted(shares)))
        print("  %-28s %12s %12s %12s %8s %8s %6s %s"
              % ("metric", "median", "q1", "q3", "iqr/med", "rng/med",
                 "bound", "steady"))
        medians = {}
        for name, vals in values.items():
            med, q1, q3, iqr, rng = spread(vals)
            medians[name] = med
            bound = bounds.get(name, float("nan"))
            steady = name == "setup_s" or iqr < bound / 3
            all_steady = all_steady and steady
            print("  %-28s %12.6g %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%% %s"
                  % (name, med, q1, q3, 100 * iqr, 100 * rng, 100 * bound,
                     "yes" if steady else "NO"))
        if args.traced <= 0:
            continue
        layers, traced = {}, {}
        for i in range(args.traced):
            result, traced_e2e = run_once(spec, workload, args.first_seed + i,
                                          args.seconds, 1)
            for name, m in result["metrics"].items():
                layers.setdefault(name, []).append(m["value"])
            for name, m in traced_e2e.items():
                traced.setdefault(name, []).append(m["value"])
        print("  per-layer (median of %d traced runs):" % args.traced)
        for name, vals in layers.items():
            print("    %-44s %14.6g" % (name, statistics.median(vals)))
        print("  tracing overhead (traced median vs untraced median):")
        for name, vals in traced.items():
            if name in medians:
                print("    %-28s %+7.1f%%" % (
                    name, 100 * (statistics.median(vals) / medians[name] - 1)))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
