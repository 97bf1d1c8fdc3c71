#!/usr/bin/env python3
"""Steadiness and determinism checks for the fpva benchmark.

    python3 perfbench/steady.py [--workloads table1,certify] [--seeds 1-10]
        [--sets 2] [--seconds S] [--out runs.json]
    python3 perfbench/steady.py --determinism [--seed N] [--seconds S]
    python3 perfbench/steady.py --held-out [--seconds S]

The first form runs every workload once per seed, `--sets` times over
(set-major, as a regression gate would), and prints for each end-to-end
metric its median and quartiles per set. A metric is flagged when the
spread between its quartiles, as a share of its median, exceeds its bound
in BENCHMARK.json (setup_s excepted), or when a later set's median is
worse than the first set's by more than the bound.

--determinism runs each workload twice at one seed and requires the
deterministic counts (the line before the result) to agree exactly.

--held-out runs each workload at the held-out seed, which no tuning of
the benchmark used, next to the default seed.

Exit status 0 when nothing is flagged, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 1
HELD_OUT_SEED = 1705  # arXiv 1705.04996, the source paper


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        # run.py exits 1 on any failed correctness check.
        print(f"FAIL {workload} seed {seed}: exit {done.returncode}",
              file=sys.stderr)
        return None, None
    counts = json.loads(lines[-2].split(" ", 1)[1])
    return json.loads(lines[-1]), counts


def parse_seeds(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def steadiness(spec, workloads, seeds, sets, seconds, out):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs = []
    for set_index in range(sets):
        for workload in workloads:
            for seed in seeds:
                result, _ = run_once(workload, seed, seconds)
                if result is None:
                    return 1
                runs.append({"set": set_index, "workload": workload,
                             "seed": seed, "metrics": result["metrics"]})
                print(f"set {set_index} {workload} seed {seed} done",
                      file=sys.stderr, flush=True)
    if out:
        with open(out, "w") as f:
            json.dump(runs, f, indent=1)

    flagged = 0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':14} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7} {'bound':>6} {'vs set 0':>8}")
        for name, metric in bounds.items():
            first_median = None
            for set_index in range(sets):
                values = [r["metrics"][name]["value"] for r in runs
                          if r["set"] == set_index
                          and r["workload"] == workload]
                median, q1, q3, share = spread(values)
                flags = []
                if name != "setup_s" and share > metric["bound"]:
                    flags.append("SPREAD")
                shift = 0.0
                if first_median is None:
                    first_median = median
                elif first_median:
                    shift = (median - first_median) / first_median
                    worse = -shift if metric["better"] == "higher" else shift
                    if worse > metric["bound"]:
                        flags.append("SHIFT")
                flagged += len(flags)
                print(f"  {name:14} {set_index:>3} {median:12.6g} "
                      f"{q1:12.6g} {q3:12.6g} {share:7.3f} "
                      f"{metric['bound']:6.2f} {shift:+8.3f} "
                      f"{' '.join(flags)}")
    return 1 if flagged else 0


def determinism(workloads, seed, seconds):
    mismatched = 0
    for workload in workloads:
        _, first = run_once(workload, seed, seconds)
        _, second = run_once(workload, seed, seconds)
        if first is None or second is None:
            return 1
        same = first == second
        mismatched += 0 if same else 1
        print(f"{workload} seed {seed}: {len(first)} counts "
              f"{'repeat exactly' if same else 'DIFFER'}")
        for name in sorted(set(first) | set(second)):
            if first.get(name) != second.get(name):
                print(f"  {name}: {first.get(name)} vs {second.get(name)}")
    return 1 if mismatched else 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--out", default="")
    parser.add_argument("--determinism", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--held-out", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    if any(w not in names for w in workloads):
        parser.error(f"workloads must be among {names}")

    if args.determinism:
        sys.exit(determinism(workloads, args.seed, args.seconds))
    if args.held_out:
        for workload in workloads:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                result, _ = run_once(workload, seed, args.seconds)
                if result is None:
                    sys.exit(1)
                values = {k: round(v["value"], 6)
                          for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed} {values}")
        sys.exit(0)
    sys.exit(steadiness(spec, workloads, parse_seeds(args.seeds), args.sets,
                        args.seconds, args.out))


if __name__ == "__main__":
    main()
