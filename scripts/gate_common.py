"""Shared plumbing for the perf-smoke gate scripts.

The gates (check_scaling, check_simd, check_compact, check_drain) share an
exact contract with the CI perf-smoke job: read a bench JSON artifact
(schema: bench/common/bench_json.h), SKIP with exit 0 when the measurement
would be meaningless on this host, otherwise compare one extracted ratio
against a threshold and print a single PASS/FAIL line. This module owns that
contract so the gates stay behaviorally identical:

  exit 0 — PASS or SKIP (a gate that fails on every small runner teaches
           people to ignore it)
  exit 1 — FAIL, or a missing/invalid/incomplete artifact

Each helper prints with the gate's name as the line prefix, matching the
format the CI logs and the EXPERIMENTS.md transcripts quote.
"""

import json
import sys


def artifact_path(default):
    """The artifact path from argv, or the bench binary's default name."""
    return sys.argv[1] if len(sys.argv) > 1 else default


def load_rows(gate, path):
    """Parses the bench JSON artifact; returns the row list or None after
    printing why (callers return 1 — a missing artifact is a failure,
    since perf-smoke runs the bench right before the gate)."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"{gate}: cannot read {path}: {e}")
        return None


def skip(gate, reason):
    """Self-skip: measurement meaningless on this host. Always exit 0."""
    print(f"{gate}: SKIP — {reason}")
    return 0


def fail(gate, reason):
    """Artifact present but missing the rows the gate needs. Exit 1."""
    print(f"{gate}: {reason}")
    return 1


def verdict(gate, speedup, threshold, description, at_most=False):
    """Prints the PASS/FAIL line and returns the gate's exit status. The
    gate passes when `speedup` is at least `threshold`, or, with
    `at_most`, when it is no more than `threshold` (a cost ratio).
    `description` reads as '<what> is <speedup>x <context>' and lands
    between the em dash and the threshold suffix."""
    ok = speedup <= threshold if at_most else speedup >= threshold
    word = "PASS" if ok else "FAIL"
    print(f"{gate}: {word} — {description} (threshold {threshold:.1f}x)")
    return 0 if ok else 1
