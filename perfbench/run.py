#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload post-rec --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR (relative paths are taken from the
repository root), or to .bench_build when it is unset. The benchmark's own
self-test runs before every measurement. The last line of standard output is
the result as one JSON object; progress and diagnostics go to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("post-rec", "credit")
BUILD_TIMEOUT_S = 800


def run_timeout(seconds):
    """A run measures `seconds` and spends about as long again on set-up,
    saturated rounds and checks; past this it is stuck."""
    return 2 * seconds + 90


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def run_step(cmd, timeout, **kwargs):
    """Runs one step with its output on stderr; returns its exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout, check=False,
                              **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 1


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        code = run_step(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                        BUILD_TIMEOUT_S)
        if code != 0:
            return code
    return run_step(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in [1, 600]")

    out = build_dir()
    if build(out) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_step([os.path.join(out, "perfbench_selftest")], 60) != 0:
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(out, "po_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    timeout = run_timeout(args.seconds)
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run timed out after {timeout} s", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
