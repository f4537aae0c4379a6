#!/usr/bin/env python3
"""Diff two BENCH_simulator.json engine reports and fail on regression.

Usage:
    scripts/bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.10]

Rows are matched on (graph, engine, threads).  For every pair present in
both files the candidate must keep rounds/sec and logical-messages/sec
within `tolerance` (default 10%) of the baseline, and must not grow the
per-run heap-allocation count or the largest per-node state
(`node_state_bytes`) by more than the same factor.  A row from before
the `node_state_bytes` column has its state comparison skipped.  Rows
present in only one file are reported but never fatal, so a baseline
produced with `bench_simulator --baseline` (legacy engine only) can be
compared against a full report.

Oversubscribed rows — threads greater than the hardware_threads the row
(or, for old reports, the file header) records — carry no timing signal:
the lanes time-share cores, so wall-clock is scheduler noise.  Their
throughput metrics are skipped; heap allocations and node state are
deterministic and are still compared.

Exit status: 0 = no regression, 1 = regression, 2 = bad input.
"""
from __future__ import annotations

import argparse
import json
import sys


def load_rows(path: str) -> dict[tuple[str, str, int], dict]:
    try:
        with open(path, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_compare: cannot read {path}: {e}")
    if report.get("benchmark") != "congest-simulator-engine":
        sys.exit(f"bench_compare: {path} is not a bench_simulator engine report")
    header_hw = int(report.get("hardware_threads", 0))
    rows = {}
    for row in report.get("rows", []):
        key = (row["graph"], row["engine"], int(row["threads"]))
        # Pre-frontier reports carried hardware_threads only in the header.
        row.setdefault("hardware_threads", header_hw)
        rows[key] = row
    if not rows:
        sys.exit(f"bench_compare: {path} has no rows")
    return rows


def oversubscribed(row: dict) -> bool:
    hw = int(row.get("hardware_threads", 0))
    return hw != 0 and int(row["threads"]) > hw


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    args = parser.parse_args()

    base = load_rows(args.baseline)
    cand = load_rows(args.candidate)
    tol = args.tolerance

    regressions = []
    compared = 0
    skipped_timing = 0
    for key in sorted(base):
        if key not in cand:
            print(f"  (only in baseline: {key})")
            continue
        b, c = base[key], cand[key]
        compared += 1
        label = f"{key[0]}/{key[1]}/threads={key[2]}"
        if oversubscribed(b) or oversubscribed(c):
            skipped_timing += 1
        else:
            for metric in ("rounds_per_sec", "messages_per_sec"):
                if c[metric] < b[metric] * (1.0 - tol):
                    regressions.append(
                        f"{label}: {metric} {b[metric]:.1f} -> {c[metric]:.1f} "
                        f"({c[metric] / b[metric] - 1.0:+.1%})")
        for metric in ("heap_allocations", "node_state_bytes"):
            if metric not in b or metric not in c:
                continue
            if c[metric] > b[metric] * (1.0 + tol):
                regressions.append(
                    f"{label}: {metric} {b[metric]} -> {c[metric]}")
    for key in sorted(set(cand) - set(base)):
        print(f"  (only in candidate: {key})")

    if compared == 0:
        sys.exit("bench_compare: no comparable rows between the two reports")
    if regressions:
        print(f"REGRESSION ({len(regressions)} metric(s) past "
              f"{tol:.0%} tolerance):")
        for r in regressions:
            print(f"  {r}")
        return 1
    note = (f" ({skipped_timing} oversubscribed row(s): timing skipped, "
            f"allocations and node state checked)" if skipped_timing else "")
    print(f"OK: {compared} row(s) compared, none regressed past "
          f"{tol:.0%}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
