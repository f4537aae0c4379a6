#!/usr/bin/env python3
"""Steadiness runs: every workload repeated on one build, one seed each.

    python3 perfbench/steady.py [--runs 10] [--trace 0|1]

Runs each workload in BENCHMARK.json with seeds 1..runs for run_seconds
each, then prints, per workload and metric, the median and quartiles
across runs (statistics.quantiles, n=4) and the spread (q3 - q1) / median
that the bounds in BENCHMARK.json are judged against, plus the share of
failed operations.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit("%s seed %d failed with exit code %d"
                         % (workload, seed, done.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, spec["run_seconds"], args.trace)
                for seed in range(1, args.runs + 1)]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print("%s: %d runs, correct=%s, failed shares %s"
              % (workload, len(runs), all(r["correct"] for r in runs),
                 sorted(shares)))
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            mark = ""
            if bound:
                mark = " bound %.2f%s" % (
                    bound, "" if spread < bound / 3 else "  <-- over a third")
            print("  %-24s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (name, med, q1, q3, spread, mark))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
