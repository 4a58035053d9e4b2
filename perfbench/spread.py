"""Run-to-run spread of the end-to-end metrics over several seeds.

usage: python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]
                                   [--out FILE]

Runs perfbench/run.py once per seed, one run at a time, for BENCHMARK.json's
run_seconds (the bounds hold for that run length), and prints for each
metric the median, the quartiles (statistics.quantiles(values, n=4)) and
the interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json.  `--out` also writes the values and each
run's human-readable lines as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    reports: dict[int, list[str]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1])
        reports[seed] = lines[:-1]
        if not res["correct"]:
            print(f"seed {seed}: {res['failed']} of {res['attempted']} checks failed", file=sys.stderr)
        for name, rec in res["metrics"].items():
            values.setdefault(name, []).append(rec["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:<14} {statistics.median(vals):>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{(q3 - q1) / statistics.median(vals):>8.4f} {bounds.get(name, float('nan')):>6}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "values": values, "reports": reports}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
