#!/usr/bin/env python3
"""Steadiness and determinism checks for the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/check.py spread [--runs 10] [--workloads a,b] [--first-seed 1] [--save set.json]
    python3 perfbench/check.py compare first.json second.json
    python3 perfbench/check.py determinism [--workloads a,b] [--seed 7] [--seconds 1]

`spread` runs every workload once per seed and reports, for each end-to-end
metric, the median over the runs and the distance between the first and
third quartiles (statistics.quantiles, n=4) as a share of the median, next
to the metric's bound in BENCHMARK.json. A spread above a third of its
bound is flagged; setup_s is reported but not flagged. `--save` keeps every
run's values.

`compare` takes two saved sets of the same seeds and fails if a median got
worse from the first set to the second by more than the metric's bound, or
if a deterministic metric differs for any seed.

`determinism` runs each workload twice at one seed, untraced and traced, and
requires every count-like output to repeat exactly: the error and memory
metrics of the gating run and the per-layer counts of the traced run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Outputs that depend only on the seed and the code, never on timing.
DETERMINISTIC_GATING = ["error_ratio", "error_add", "memory_bits_per_key",
                        "ok_ops_ratio"]
DETERMINISTIC_TRACED = [
    "io.durable_store.append_samples", "io.durable_store.checkpoints",
    "io.durable_store.disk_bytes_per_key", "io.delta_log.sync_calls",
    "io.delta_log.bytes_per_key", "core.delta_buffer.merges",
    "core.delta_buffer.merged_keys", "core.delta_buffer.coalesce_ratio",
    "core.delta_buffer.memory_bits_per_key", "util.health.estimated_fpr",
    "util.health.fill_ratio",
]


def run(workload, seed, trace, seconds):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(command)} failed ({done.returncode}):\n"
                 f"{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def workloads(arg):
    names = [w["name"] for w in SPEC["workloads"]]
    return arg.split(",") if arg else names


def spread(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    steady = True
    saved = {}
    for workload in workloads(args.workloads):
        values = saved.setdefault(workload, {})
        for seed in range(args.first_seed, args.first_seed + args.runs):
            for name, value in run(workload, seed, 0, args.seconds).items():
                values.setdefault(name, []).append(value)
        if args.save:
            Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
        print(workload, flush=True)
        for name, vals in values.items():
            median = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            share = (q[2] - q[0]) / median if median else 0.0
            flag = ""
            if name != "setup_s" and share > bounds[name] / 3:
                flag = "  <-- above a third of the bound"
                steady = False
            print(f"  {name:22s} median {median:<14.6g} spread {share:.4f} "
                  f"bound {bounds[name]}{flag}")
    return 0 if steady else 1


def compare(args):
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    agree = True
    for workload, values in first.items():
        print(workload)
        for name, a in values.items():
            b = second[workload][name]
            if name in DETERMINISTIC_GATING:
                same = a == b
                agree &= same
                print(f"  {name:22s} {'identical' if same else 'DIFFERENT'}")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = -change if metrics[name]["better"] == "higher" else change
            ok = worse <= metrics[name]["bound"]
            agree &= ok
            print(f"  {name:22s} median {ma:<14.6g} -> {mb:<14.6g} "
                  f"change {change:+.4f} bound {metrics[name]['bound']}"
                  f"{'' if ok else '  <-- worse by more than the bound'}")
    print("agree" if agree else "DISAGREE")
    return 0 if agree else 1


def determinism(args):
    same = True
    for workload in workloads(args.workloads):
        for trace, names in ((0, DETERMINISTIC_GATING), (1, DETERMINISTIC_TRACED)):
            first = run(workload, args.seed, trace, args.seconds)
            second = run(workload, args.seed, trace, args.seconds)
            for name in names:
                if first[name] != second[name]:
                    same = False
                    print(f"{workload} trace={trace} {name}: "
                          f"{first[name]!r} != {second[name]!r}")
        print(f"{workload}: checked")
    print("deterministic" if same else "NOT deterministic")
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", default="")
    p.add_argument("--save", default="")
    p.set_defaults(func=spread)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=compare)
    p = sub.add_parser("determinism")
    # Counts do not depend on run length; short runs still make 3 episodes.
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", default="")
    p.set_defaults(func=determinism)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
