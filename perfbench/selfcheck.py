#!/usr/bin/env python3
"""Check that two traced runs at one seed give identical counts.

    python3 perfbench/selfcheck.py --workload verify --seed 3

Runs `perfbench/run.py --trace 1` twice, one after the other, and
compares every per-layer metric whose unit is `count`.  Exits 1 and
lists the differences if any count differs or a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_counts(workload: str, seed: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = str(json.load(fh)["run_seconds"])
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", seconds, "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run reported failures")
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "verify", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    first = traced_counts(args.workload, args.seed)
    second = traced_counts(args.workload, args.seed)
    diffs = [f"{k}: {first.get(k)} vs {second.get(k)}" for k in sorted(set(first) | set(second))
             if first.get(k) != second.get(k)]
    for line in diffs:
        print(f"differs: {line}")
    nonzero = sum(1 for v in first.values() if v)
    print(f"{args.workload} seed {args.seed}: {len(first)} counts ({nonzero} non-zero), "
          f"{'identical' if not diffs else f'{len(diffs)} differ'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
