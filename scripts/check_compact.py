#!/usr/bin/env python3
"""Perf-smoke gate on the compact-backing decode artifact.

Reads BENCH_compact_decode.json (schema: bench/common/bench_json.h,
written by bench/bench_compact_decode) and fails if the compact backing's
batched estimate is not at least THRESHOLD times faster than the
pre-refactor per-access baseline — the O(group_size) width re-scan every
probe paid before the sampled prefix-offset table made PositionOf O(1).
The bench replicates that baseline against the live layout, so the gate
keeps measuring the same gap after the slow path is gone from the
library, and reports the median ratio of 5 interleaved (per-access,
batched) timing pairs, so one noisy timing cannot flip the verdict. The artifact's other rows (DecodeBlock sweeps, the
epoch-apply flush path) ride along ungated.

The gate SKIPS — exit 0 with a message — when the artifact has no compact
batched-estimate row carrying the speedup param (an artifact produced by
an older bench binary, or a run that was cut short). A missing artifact
is still a failure: perf-smoke runs the bench right before this gate.

Usage: python3 scripts/check_compact.py [path/to/BENCH_compact_decode.json]
Exit status: 0 pass or skip, 1 gate failure or missing/invalid artifact.
"""

import sys

import gate_common

GATE = "check_compact"
THRESHOLD = 2.5


def main():
    path = gate_common.artifact_path("BENCH_compact_decode.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    speedup = None
    for row in rows:
        params = row.get("params", {})
        if (row.get("name") == "estimate_batched"
                and params.get("backing") == "compact"):
            speedup = params.get("speedup_vs_per_access")

    if speedup is None:
        return gate_common.skip(
            GATE, f"no compact estimate_batched row with a "
                  f"speedup_vs_per_access param in {path}")

    return gate_common.verdict(
        GATE, speedup, THRESHOLD,
        f"compact batched estimate is {speedup:.2f}x the pre-refactor "
        f"per-access path")


if __name__ == "__main__":
    sys.exit(main())
