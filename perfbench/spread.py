#!/usr/bin/env python3
"""Steadiness check for the benchmark: runs one workload over several
seeds and prints, per metric, the median and the spread (distance
between the first and third quartile as a share of the median), next
to the metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload point_zipf --seeds 1-10

The runs go through BENCHMARK.json's command, exactly as any other
caller of the benchmark runs it. A metric is flagged WIDE when its
spread exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--show", action="store_true", help="print every run's value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    values = {m["name"]: [] for m in metrics}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, check=False, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: run failed (exit {out.returncode}): {out.stdout[-500:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: ok", file=sys.stderr)
    for m in metrics:
        xs = values[m["name"]]
        med = statistics.median(xs)
        if len(xs) >= 2:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
        else:
            spread = 0.0
        bound = m.get("bound")
        flag = "" if bound is None else ("  OK" if spread <= bound / 3 else "  WIDE")
        print(f"{m['name']:40s} median {med:14.4f} {m['unit']:9s} spread {spread:7.4f}"
              + ("" if bound is None else f" bound {bound}") + flag)
        if args.show:
            print("    " + " ".join(f"{x:.4g}" for x in xs))


if __name__ == "__main__":
    main()
