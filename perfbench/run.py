#!/usr/bin/env python3
"""Build and run the JAWS simulator benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig10_trace --seed 1 --seconds 40 --trace 0

The first run configures and builds perfbench/ (and the simulator sources it
needs from src/) into .bench_build/; later runs only rebuild what changed.
Each run first executes the benchmark's self-test, then the benchmark, whose
last line of output is the JSON result. Build and self-test output goes to
stderr. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fig10_trace", "materialized_eval", "cluster_saturated")
# Claims are made on the default seed and must also hold on the held-out one.
DEFAULT_SEED = 1
HELD_OUT_SEED = 977
BUILD_JOBS = str(min(4, os.cpu_count() or 1))
# Every run must end within 180 s; the benchmark itself stops well before.
RUN_DEADLINE_S = 175


def run_logged(cmd, timeout=None):
    """Run a build step with its output on stderr; True when it succeeded."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no simulator sources in src/; run from a full checkout",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_logged(configure):
            return False
    return run_logged(["cmake", "--build", BUILD, "-j", BUILD_JOBS])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not run_logged([os.path.join(BUILD, "perfbench_selftest")], timeout=60):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    started = time.monotonic()
    cmd = [os.path.join(BUILD, "jaws_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print("perfbench: benchmark overran its deadline", file=sys.stderr)
            return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        return proc.returncode
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
