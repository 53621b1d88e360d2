#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py [--runs N] [--first-seed S] [workload ...]

Runs each workload (default: all in BENCHMARK.json) N times (default 10),
each with its own seed, through `perfbench/run.py --trace 0`, then prints
per metric the median and the distance between the first and third
quartile as a share of the median (Python's `statistics.quantiles(n=4)`),
next to the metric's bound. A spread above a third of its bound is marked.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        attempted = failed = 0
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, bench["run_seconds"])
            attempted += res["attempted"]
            failed += res["failed"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"{w} ({args.runs} runs, {failed} of {attempted} operations failed)")
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2
            flag = "  <-- above bound/3" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:<18} median {q2:12.4f} {m['unit']:<4} spread {spread:.4f}"
                  f" (bound {m['bound']}){flag}")
            print("    " + " ".join(f"{x:.4g}" for x in xs))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
