#!/usr/bin/env python3
"""Perf-smoke gate on the read-your-writes delta drain.

Reads BENCH_shard_contention.json (schema: bench/common/bench_json.h,
written by bench/bench_shard_contention) and fails if a one-thread
sliding-window step through the delta buffers (point_window_delta: Insert,
the evicting Remove, then a point Estimate that drains the thread's own
buffered ops for its shard) costs more than THRESHOLD times the same step
with delta buffers off (point_window_direct). A drain walks the map's
occupancy bitmap and visits only live slots; a drain that scans every
slot again puts the ratio at 4-6x on a 4-CPU Xeon host, against 1.5-2x
for the bitmap walk.

The ratio is single-threaded, so the gate never skips. A missing artifact
or missing point_window rows are failures: perf-smoke runs the bench right
before this gate.

Usage: python3 scripts/check_drain.py [path/to/BENCH_shard_contention.json]
Exit status: 0 pass, 1 gate failure or missing/invalid artifact.
"""

import sys

import gate_common

GATE = "check_drain"
THRESHOLD = 3.0


def main():
    path = gate_common.artifact_path("BENCH_shard_contention.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    ns_per_step = {}
    for row in rows:
        mode = row.get("params", {}).get("mode")
        if (row.get("name") == "shard_contention"
                and mode in ("point_window_delta", "point_window_direct")):
            ns_per_step[mode] = row.get("ns_per_op")

    delta = ns_per_step.get("point_window_delta")
    direct = ns_per_step.get("point_window_direct")
    if not delta or not direct:
        return gate_common.fail(
            GATE, f"no point_window_delta/point_window_direct rows in {path}")

    ratio = delta / direct
    return gate_common.verdict(
        GATE, ratio, THRESHOLD,
        f"a delta-buffered window step is {ratio:.2f}x the direct step "
        f"({delta:.0f} vs {direct:.0f} ns/step)", at_most=True)


if __name__ == "__main__":
    sys.exit(main())
