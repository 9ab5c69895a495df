#!/usr/bin/env python3
"""Steadiness check for the serving benchmark.

Runs every workload named in BENCHMARK.json (or those given with
--workloads) --runs times, rotating the workload order each round and
giving each round its own seed, with the command and run length that
BENCHMARK.json declares. For every metric it prints the median, the
quartiles, the quartile spread as a share of the median (what the bounds
in BENCHMARK.json are checked against) and the largest relative spread,
(max - min) / median. It also prints each workload's failed share,
which must be the same in every run.

    python3 servbench/steady.py --runs 10            # end-to-end metrics
    python3 servbench/steady.py --runs 5 --trace 1   # per-layer metrics
    python3 servbench/steady.py --runs 5 --workloads infer_hot

Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, check=True, stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", help="comma-separated subset")
    parser.add_argument("--seconds", type=int, help="override run_seconds")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")

    results = {w: [] for w in workloads}
    for r in range(args.runs):
        order = workloads[r % len(workloads):] + workloads[:r % len(workloads)]
        for w in order:
            res = run_once(bench["command"], w, args.seed_base + r, seconds, args.trace)
            results[w].append(res)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"run {r + 1}/{args.runs} {w} seed {args.seed_base + r}: "
                  f"correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {values}", file=sys.stderr)

    print(f"{'workload':<14} {'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{w:<14} failed share {shares} correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rel = (lambda x: x / med if med else float("nan"))
            bound = bounds.get(name, "")
            print(f"{'':<14} {name:<30} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{rel(q3 - q1):>8.3f} {rel(max(vals) - min(vals)):>9.3f} {bound:>6}")


if __name__ == "__main__":
    main()
