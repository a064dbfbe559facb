#!/usr/bin/env python3
"""Tracing overhead: one untraced and one traced run of a workload, and the
difference of their end-to-end metrics (traced minus untraced).

    python3 perfbench/overhead.py --workload idle-79d --seed 42 --seconds 45

A traced run prints per-layer metrics; it also writes the end-to-end
metrics it measured with tracing on to .bench_out/<workload>-seed<n>.traced_e2e.json,
which is what this script compares against the untraced run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=int, default=45)
    args = p.parse_args()
    untraced = run(args, 0)["metrics"]
    run(args, 1)
    stem = f"{args.workload}-seed{args.seed}"
    with open(os.path.join(ROOT, ".bench_out", f"{stem}.traced_e2e.json")) as f:
        traced = json.load(f)
    print(f"{'metric':30s} {'untraced':>14s} {'traced':>14s} {'traced-untraced':>16s}")
    for name, m in untraced.items():
        a, b = m["value"], traced[name]["value"]
        print(f"{name:30s} {a:14.4f} {b:14.4f} {b - a:16.4f} {m['unit']}")


if __name__ == "__main__":
    main()
