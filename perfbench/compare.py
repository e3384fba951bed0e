#!/usr/bin/env python3
"""Run two interleaved sets of benchmark runs of the same code and compare.

    python3 perfbench/compare.py [--runs 10] [--workloads a,b]

Run from the root of a checkout. Every run is untraced (--trace 0) and
lasts BENCHMARK.json's run_seconds, the configuration the bounds are set
for. For each workload it makes `--runs` pairs of runs, one per set, each
with its own seed (set A: 1..N, set B: 101..100+N) and alternating which
set goes first. For every end-to-end metric it prints each set's median
and quartiles, the spread (interquartile range over the median, as
statistics.quantiles(n=4) gives them) and whether the two medians agree
within the metric's bound in BENCHMARK.json.

Exits 1 if a run fails or prints a wrong result, if the share of failed
operations differs between runs, if two medians disagree beyond a bound,
or if a spread exceeds its bound. setup_s is the one exception to the
last rule: each run times one cold set-up (a second set-up in the same
process is a warm one, which measures another thing), so its spread is
that of single samples. It is printed with its verdict, and only its
median agreement is gated.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = (opts.workloads.split(",") if opts.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        sets = {"A": [], "B": []}
        for i in range(opts.runs):
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for s in order:
                seed = (1 if s == "A" else 101) + i
                result = run_once(bench["command"], workload, seed, seconds)
                if not result["correct"]:
                    print(f"{workload} seed {seed}: wrong result")
                    ok = False
                sets[s].append(result)
                print(f"  {workload} set {s} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.5g}"
                    for k, v in result["metrics"].items()), flush=True)

        shares = {s: sum(r["failed"] for r in rs) / sum(r["attempted"]
                                                       for r in rs)
                  for s, rs in sets.items()}
        print(f"{workload}: failed share A={shares['A']:.6g} "
              f"B={shares['B']:.6g}")
        if any(r["failed"] * sets["A"][0]["attempted"]
               != sets["A"][0]["failed"] * r["attempted"]
               for rs in sets.values() for r in rs):
            print(f"{workload}: failed share differs between runs")
            ok = False
        print(f"{'metric':38} {'set':3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>7}  verdict")
        for name in sets["A"][0]["metrics"]:
            meds = {}
            for s in ("A", "B"):
                values = [r["metrics"][name]["value"] for r in sets[s]]
                med, q1, q3, spread = summary(values)
                meds[s] = med
                bound = bounds[name]
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else
                           "TOO NOISY")
                if name == "setup_s":
                    verdict += " (one cold sample per run: not gated)"
                else:
                    ok = ok and spread <= bound
                print(f"{name:38} {s:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{spread:7.3f}  {verdict}")
            shift = meds["B"] / meds["A"] - 1 if meds["A"] else 0.0
            agree = abs(shift) <= bounds[name]
            ok = ok and agree
            print(f"{name:38} B/A-1 = {shift:+.3f} (bound {bounds[name]}) "
                  f"{'agree' if agree else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
