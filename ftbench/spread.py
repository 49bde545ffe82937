#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the root of a checkout):

    python3 ftbench/spread.py [--workloads a,b] [--seeds 1-10] [--seconds S]

Runs ftbench/run.py once per (workload, seed) with --trace 0 and prints,
per workload and metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's
bound from BENCHMARK.json. The setup_s spread is shown but, like the
bound check it mirrors, judged only by its median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "ftbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {out.returncode}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name, 0)
            flag = "" if name == "setup_s" or spread <= bound / 3 else (
                " (above bound/3)" if spread <= bound else " OVER BOUND")
            print(f"  {workload:10s} {name:22s} median {med:12.5g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
