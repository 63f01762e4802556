#!/usr/bin/env python3
"""Steadiness check: run workloads k times and report each end-to-end
metric's median, quartiles and spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--seed 1]
                                [--batches 1] [--checkout DIR [--checkout DIR]]

Run i uses seed --seed + i. Spread is (Q3 - Q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them. With two checkouts (say a
parent commit and a change) every seed runs on both, alternating which goes
first, and the second checkout's median is compared with the first's; a
move in the metric's worse direction by more than its bound is a
regression. With --batches 2 or more the whole set of runs is repeated on
fresh seeds, one batch after the other, and every later batch's medians are
compared with the first batch's the same way: two batches of the same code
should agree within the bounds. Default: every workload, this checkout, one
batch, BENCHMARK.json's run_seconds.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  note: {workload} seed {seed} on {checkout}: correct="
              f"{result['correct']} failed={result['failed']}")
    for line in lines:
        if "FLAGGED" in line:
            print(f"  note: {line}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def print_table(metrics, values):
    print(f"  {'metric':20s} {'unit':6s} {'median':>12s} "
          f"{'Q1':>12s} {'Q3':>12s} {'spread':>7s} {'bound':>6s}")
    for m in metrics:
        med, q1, q3, spread = summarize(values[m["name"]])
        verdict = ("steady" if spread <= m["bound"] / 3 else
                   "within bound" if spread <= m["bound"] else
                   "OVER BOUND")
        print(f"  {m['name']:20s} {m['unit']:6s} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {spread:7.3f} "
              f"{m['bound']:6.2f}  {verdict}")


def print_change(metrics, base, other, label):
    print(f"  median change {label}, positive = worse:")
    for m in metrics:
        a = statistics.median(base[m["name"]])
        b = statistics.median(other[m["name"]])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        verdict = "REGRESSION" if worse > m["bound"] else "ok"
        print(f"    {m['name']:20s} {worse:+8.3f} (bound "
              f"{m['bound']:.2f}) {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--checkout", action="append")
    args = p.parse_args()

    checkouts = [os.path.abspath(c) for c in
                 (args.checkout or [os.path.dirname(HERE)])]
    if len(checkouts) > 2:
        p.error("at most two checkouts")
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    for workload in workloads:
        # values[batch][checkout][metric] -> one value per run
        values = []
        for b in range(args.batches):
            values.append([{m["name"]: [] for m in metrics}
                           for _ in checkouts])
            for i in range(args.runs):
                seed = args.seed + b * args.runs + i
                order = list(range(len(checkouts)))
                if i % 2:
                    order.reverse()
                for c in order:
                    got = run_once(checkouts[c], workload, seed, seconds)
                    for m in metrics:
                        values[b][c][m["name"]].append(got[m["name"]])
                print(f"{workload}: batch {b + 1}/{args.batches} run "
                      f"{i + 1}/{args.runs} done", flush=True)

        for b, batch in enumerate(values):
            first = args.seed + b * args.runs
            print(f"\n{workload}: batch {b + 1}, {args.runs} runs x "
                  f"{seconds} s, seeds {first}-{first + args.runs - 1}")
            for c, checkout in enumerate(checkouts):
                if len(checkouts) > 1:
                    print(f"  [{c}] {checkout}")
                print_table(metrics, batch[c])
            if len(checkouts) == 2:
                print_change(metrics, batch[0], batch[1], "[1] vs [0]")
            if b > 0:
                for c in range(len(checkouts)):
                    print_change(metrics, values[0][c], batch[c],
                                 f"batch {b + 1} vs batch 1"
                                 + (f" [{c}]" if len(checkouts) > 1 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
