#!/usr/bin/env python3
"""Build and run the Bingo benchmark.

    python3 bingobench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bingobench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
library sources (src/) and the benchmark in $CARGO_TARGET_DIR (default
.bench_build); later calls reuse the build. Scratch files go to
.bench_data. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. That line must hold exactly the metrics
BENCHMARK.json lists for the mode (end_to_end untraced, per_layer traced),
each in its unit; otherwise the run exits 1. --self-test builds and runs
the benchmark-side check tests instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_JOBS = "4"


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def source_revision():
    """Git commit if this is a git checkout, else a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("bingobench: no library sources (src/) next to the benchmark",
              file=sys.stderr)
        return False
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", bdir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", bdir, "-j", BUILD_JOBS, "--target"] + targets
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def result_problem(stdout, trace):
    """Why the result line does not match BENCHMARK.json, or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (IndexError, ValueError, OSError) as e:
        return "no readable result line or BENCHMARK.json (%s)" % e
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys %s" % sorted(result)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        return "metrics missing %s, unlisted %s, wrong unit %s" % (
            missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    target = "bingobench_checks_test" if args.self_test else "bingobench"
    if not build([target]):
        print("bingobench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir(), target)
    if args.self_test:
        cmd = [binary]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", os.path.join(ROOT, ".bench_data")]
    env = dict(os.environ, BINGOBENCH_SOURCE_REVISION=source_revision())
    sys.stdout.flush()
    try:
        out = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("bingobench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(out.stdout)
    sys.stdout.flush()
    if out.returncode != 0 or args.self_test:
        return out.returncode
    problem = result_problem(out.stdout, args.trace)
    if problem:
        print("bingobench: result line does not match BENCHMARK.json: "
              + problem, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
