#!/usr/bin/env python3
"""Steadiness report for the benchmark.

Runs each workload of BENCHMARK.json repeatedly, each time with another
seed, and prints for every metric the median, the quartiles and the
spread (interquartile distance as a share of the median) against the
metric's bound. Run it from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads svc-hit --save a.json
    python3 perfbench/steady.py --runs 10 --compare a.json

With --compare, it also checks that no median is worse than the saved
one by more than its bound. It exits 1 if a spread exceeds its bound, or
a compared median is worse than its bound allows.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, stdout=subprocess.PIPE, text=True, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: run reported failures: {res}")
    return {k: v["value"] for k, v in res["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated subset")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the raw values to this JSON file")
    ap.add_argument("--compare", help="saved values to compare medians against")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if a.trace == 0 else bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        workloads = a.workloads.split(",")
    base = json.load(open(a.compare)) if a.compare else {}

    raw, bad = {}, []
    for w in workloads:
        runs = []
        for i in range(a.runs):
            seed = a.first_seed + i
            runs.append(run_once(bench["command"], w, seed, bench["run_seconds"], a.trace))
            print(f"{w} seed {seed} done", file=sys.stderr, flush=True)
        raw[w] = runs
        print(f"\n{w}: {a.runs} runs, seeds {a.first_seed}..{a.first_seed + a.runs - 1}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
        for m in metrics:
            vals = [r[m["name"]] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                if spread < bound / 3:
                    verdict = "steady"
                elif spread <= bound:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    bad.append(f"{w} {m['name']} spread")
                if w in base:
                    old = statistics.median(r[m["name"]] for r in base[w])
                    worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                    verdict += f", {100 * worse:+.1f}% worse than saved"
                    if worse > bound:
                        bad.append(f"{w} {m['name']} median")
            bstr = f"{bound:6.2f}" if bound is not None else "     -"
            print(f"  {m['name']:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bstr}  {verdict}")
    if a.save:
        with open(a.save, "w") as f:
            json.dump(raw, f)
    if bad:
        print("\nout of bounds: " + ", ".join(bad))
        sys.exit(1)


if __name__ == "__main__":
    main()
