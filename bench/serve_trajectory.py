#!/usr/bin/env python3
"""Write BENCH_serve.json from one traced perfbench run of each workload.

    cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=Release
    cmake --build build-perfbench --target perfbench
    python3 bench/serve_trajectory.py

Run from the repository root. Runs build-perfbench/perfbench on
engine-zipf, remote-unique and search (seed 1, 24 s, --trace 1), echoing
each report, then writes BENCH_serve.json: the host's CPU model and vCPU
count and, one line per workload, the pool width the run printed, its
correct/attempted/failed counts and its per-layer metrics (units as in
perfbench/README.md). perfbench exits non-zero on any wrong reply; so does
this script, and it then writes nothing.
"""
import json
import os
import re
import subprocess
import sys

BINARY = os.path.join("build-perfbench", "perfbench")
WORKLOADS = ("engine-zipf", "remote-unique", "search")
ARGS = ["--seed", "1", "--seconds", "24", "--trace", "1"]
RUN_TIMEOUT_S = 170
OUT = "BENCH_serve.json"


def cpu_model():
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def run(workload):
    command = [BINARY, "--workload", workload, *ARGS,
               "--socket-dir", os.path.dirname(BINARY)]
    completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               timeout=RUN_TIMEOUT_S)
    sys.stdout.write(completed.stdout)
    if completed.returncode != 0:
        sys.exit(f"serve_trajectory: perfbench {workload} exited "
                 f"{completed.returncode}")
    lines = completed.stdout.splitlines()
    width = re.search(r"; pool width (\d+)$", lines[0])
    result = json.loads(lines[-1])
    result["metrics"] = {name: metric["value"]
                         for name, metric in result["metrics"].items()}
    return {"pool_width": int(width.group(1)), **result}


def main():
    rows = [f"    {json.dumps(workload)}: {json.dumps(run(workload))}"
            for workload in WORKLOADS]
    host = {"cpu_model": cpu_model(), "vcpus": os.cpu_count()}
    with open(OUT, "w") as f:
        f.write("{\n")
        f.write(f'  "source": {json.dumps("perfbench " + " ".join(ARGS))},\n')
        f.write(f'  "host": {json.dumps(host)},\n')
        f.write('  "workloads": {\n' + ",\n".join(rows) + "\n  }\n}\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
