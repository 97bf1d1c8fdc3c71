#!/usr/bin/env python3
"""Builds the fpva benchmark from source and runs one workload.

    python3 perfbench/run.py --workload table1|certify|diagnose \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root. The first run configures and builds the
perfbench CMake package (the library from ../src plus fpva_perfbench) into
.bench_build, or into $CARGO_TARGET_DIR when that is set; later runs only
rebuild what changed. The build's output goes to stderr.

stdout ends with one JSON line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1); the line before it lists the run's
deterministic counts. A traced run also writes its spans, one JSON object
per line, to <build dir>/traces/<workload>-seed<N>.jsonl.

Exit status: 0 when every correctness check passed, 1 when one failed, and
2 or more when the run could not be made (bad arguments, no sources, build
failure, timeout, or metrics that disagree with BENCHMARK.json); those
print no result line.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; stop the program with a margin to spare.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(2, f"cannot read BENCHMARK.json: {error}")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "generator.h")):
        fail(3, f"no fpva sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "-j", jobs]]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    # Serialize concurrent runs on one build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(3, "build timed out")
            if done.returncode != 0:
                fail(3, f"build failed: {' '.join(step)}")
    return os.path.join(build_dir, "fpva_perfbench")


def check_metrics(result, declared):
    """The run must print exactly the declared metrics, in their units."""
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(4, f"metrics disagree with BENCHMARK.json: missing {missing}, "
                f"undeclared {extra}, wrong units {units}")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail(2, "seed must be >= 0 and seconds in (0, 3600]")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(5, f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail(5, f"fpva_perfbench exited with status {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(5, "fpva_perfbench printed no result line")
    check_metrics(result, spec["per_layer" if args.trace else "end_to_end"])
    print("\n".join(lines))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
