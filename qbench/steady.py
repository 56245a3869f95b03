#!/usr/bin/env python3
"""Steadiness check for the qbench benchmark.

Runs each workload k times, each with another seed, through the command in
BENCHMARK.json, and prints for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(Q3 - Q1) / median, next to the metric's bound. The bounds in
BENCHMARK.json are set from this output.

    python3 qbench/steady.py [--runs 10] [--first-seed 1] [--seconds N]
                             [--workloads a,b] [--trace]

Run it from the repository root. Each run's JSON line is appended to
.qbench_out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    os.makedirs(".qbench_out", exist_ok=True)

    ok = True
    for workload in workloads:
        values = {}
        shares = set()
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "1" if args.trace else "0",
            ]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            with open(".qbench_out/steady.jsonl", "a") as log:
                log.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: checks failed", file=sys.stderr)
                ok = False
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs, failed shares {sorted(shares, key=str)}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag = "  > bound/3"
            print(f"  {name:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f} {bound if bound is not None else '-':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
