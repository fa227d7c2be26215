"""Tracing overhead and coverage for one workload.

Runs the benchmark untraced and traced at the same seed and prints the
verifier's median apply latency in both runs, their ratio, and the share
of the traced apply time no layer span accounts for:

    python3 perfbench/overhead.py --workload ospf-churn --seed 1 --seconds 30

`--seconds` sets the untraced run's timed phase; the traced run replays
a fixed number of submissions. Run from the repository root. Reports
only; it gates nothing.
"""

import argparse
import json
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--offline", "--quiet",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def run(args, trace):
    out = subprocess.run(
        COMMAND + ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{args.workload} trace={trace}: run was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    args = p.parse_args()
    plain = run(args, 0)
    traced = run(args, 1)
    untraced_us = plain["verify_p50_ms"] * 1e3
    print(f"workload={args.workload} seed={args.seed}")
    print(f"untraced verify_p50_ms  = {plain['verify_p50_ms']:.3f}")
    print(f"traced core.apply_us p50 = {traced['core.apply_us']:.1f}"
          f" ({traced['core.apply_us'] / untraced_us:.3f}x untraced)")
    print(f"core.self_us = {traced['core.self_us']:.1f}"
          f" ({100 * traced['core.self_frac']:.1f}% of core.apply_us unattributed)")


if __name__ == "__main__":
    main()
