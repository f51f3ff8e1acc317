#!/usr/bin/env python3
"""Build and run the Muffin benchmark.

    python3 perfbench/run.py --workload engine-zipf --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first run configures and builds the
library and the benchmark into .bench_build/perfbench (later runs only
rebuild what changed); build output goes to stderr, so the last line of
standard output is the benchmark's JSON result. The traced run (--trace 1)
also writes a Chrome trace to .bench_build/traces/.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, "..", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources beside the benchmark; run it "
                 "from a checkout of the repository")
    configure = ["cmake", "-S", here, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        binary = build("perfbench_selftest" if args.selftest else "perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"perfbench: build failed: {error}")
    if args.selftest:
        sys.exit(subprocess.run([binary]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    sockets = os.path.join(BUILD_DIR, "sockets")
    traces = os.path.join(".bench_build", "traces")
    os.makedirs(sockets, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--socket-dir", sockets]
    if args.trace:
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
