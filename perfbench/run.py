#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
repository's libraries, congestbcd and congestbc_router from this source
tree) into .bench_build/ on first use, then runs the benchmark program.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Build output goes to standard error.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("exact_solve", "sampled_large", "serve_tier", "stream_writes")
RUN_LIMIT_S = 170


def build():
    """Configures once, then builds incrementally; output to stderr."""
    steps = []
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                   "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    work = os.path.join(ROOT, ".bench_build", "work",
                        "%s-seed%d" % (args.workload, args.seed))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tools = os.path.join(BUILD, "congestbc", "tools")
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work,
               "--daemon", os.path.join(tools, "congestbcd"),
               "--router", os.path.join(tools, "congestbc_router")]
    # Its own process group, so a timeout can stop the benchmark program
    # and every server it started.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_LIMIT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
