#!/usr/bin/env python3
"""Perf-smoke gate on the SIMD blocked-kernel artifact.

Reads BENCH_simd_blocked.json (schema: bench/common/bench_json.h, written
by bench/bench_simd_blocked) and fails if the hot-regime AVX2 estimate
speedup over the scalar batch pipeline falls below the threshold on every
geometry/policy cell. Gating on the best cell rather than all cells keeps
the gate robust on shared runners: the fixed64 cells sit at 4-5x with
headroom, while noisy neighbours can shave any single ratio.

The gate SKIPS — exit 0 with a message — when the artifact has no avx2
rows, which is what bench_simd_blocked emits on a host without AVX2 (the
ISA sweep only includes supported ISAs). A gate that fails on every
pre-AVX2 runner teaches people to ignore it.

Usage: python3 scripts/check_simd.py [path/to/BENCH_simd_blocked.json]
Exit status: 0 pass or skip, 1 gate failure or missing/invalid artifact.
"""

import sys

import gate_common

GATE = "check_simd"
THRESHOLD = 3.0
REGIME = "hot"
ISA = "avx2"


def main():
    path = gate_common.artifact_path("BENCH_simd_blocked.json")
    rows = gate_common.load_rows(GATE, path)
    if rows is None:
        return 1

    has_hot = False
    cells = {}  # (shape, policy) -> speedup
    for row in rows:
        params = row.get("params", {})
        if params.get("regime") != REGIME or row.get("name") != "estimate":
            continue
        has_hot = True
        if params.get("isa") == ISA:
            key = (params.get("shape"), params.get("policy"))
            cells[key] = params.get("speedup_vs_scalar_pipeline")

    if not cells:
        if has_hot:
            return gate_common.skip(
                GATE, f"no {ISA} rows in {path}; host does not support "
                      f"{ISA}")
        return gate_common.fail(
            GATE, f"no {REGIME}-regime estimate rows in {path}")

    (shape, policy), speedup = max(cells.items(), key=lambda kv: kv[1])
    code = gate_common.verdict(
        GATE, speedup, THRESHOLD,
        f"best {REGIME}-regime {ISA} estimate speedup vs scalar pipeline "
        f"is {speedup:.2f}x on {shape}/{policy}")
    for (s, p), v in sorted(cells.items()):
        print(f"{GATE}:   {s}/{p}: {v:.2f}x")
    return code


if __name__ == "__main__":
    sys.exit(main())
