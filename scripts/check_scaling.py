#!/usr/bin/env python3
"""Perf-smoke gate on the concurrent scaling artifact.

Reads BENCH_concurrent_scaling.json (schema: bench/common/bench_json.h)
and fails if the insert speedup on the lock-free delta path (fixed64
backing, Minimum Selection, delta buffers on, the highest shard count
swept) falls below the threshold. The gate measures at T threads, the
largest thread count the artifact sweeps that does not exceed
min(cpu count, 8): more threads than CPUs measure the scheduler, not the
filter. The threshold scales linearly with T — 3.0x at 8 threads, 1.5x at
4 — so the gate runs, and gates, on every host instead of skipping below
8 CPUs.

Usage: python3 scripts/check_scaling.py [path/to/BENCH_concurrent_scaling.json]
Exit status: 0 pass, 1 gate failure or missing/invalid artifact.
"""

import os
import sys

import gate_common

GATE = "check_scaling"
MAX_THREADS = 8
THRESHOLD_AT_MAX = 3.0
BACKING = "fixed64"


def main():
    path = gate_common.artifact_path("BENCH_concurrent_scaling.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    cells = {}  # threads -> {shards -> speedup}
    for row in rows:
        params = row.get("params", {})
        if (row.get("name") == "insert_batch"
                and params.get("backing") == BACKING
                and params.get("delta") == "on"):
            cells.setdefault(params.get("threads"), {})[
                params.get("shards")] = params.get("speedup_vs_1t")

    cap = min(os.cpu_count() or 1, MAX_THREADS)
    swept = [t for t in cells if isinstance(t, int) and 1 <= t <= cap]
    if not swept:
        return gate_common.fail(
            GATE, f"no {BACKING}+delta insert_batch rows at <= {cap} "
                  f"threads in {path}")

    threads = max(swept)
    threshold = THRESHOLD_AT_MAX * threads / MAX_THREADS
    shards = max(cells[threads])
    speedup = cells[threads][shards]
    return gate_common.verdict(
        GATE, speedup, threshold,
        f"{threads}-thread insert speedup on {BACKING}+MS (delta on, "
        f"{shards} shards) is {speedup:.2f}x")


if __name__ == "__main__":
    sys.exit(main())
