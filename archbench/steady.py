#!/usr/bin/env python3
"""Steadiness report and exact-count check for the archbench benchmark.

Run from the repository root:

    python3 archbench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
    python3 archbench/steady.py --counts [--first-seed 1] [--workloads a,b]

The steadiness report runs each workload --runs times untraced, each with
another seed, and prints the median and quartiles of every end-to-end
metric with its spread (the quartile distance over the median, as
statistics.quantiles gives them) against the bound in BENCHMARK.json.
It exits 1 when a run fails a check or any spread, setup_s's included,
exceeds its bound.

--counts runs each workload traced twice with one seed and compares every
count metric; it exits 1 when two runs of the same seed disagree.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed ops\n{proc.stderr}")
    return result


def steadiness(workloads, runs, first_seed):
    ok = True
    for workload in workloads:
        values = {}
        for seed in range(first_seed, first_seed + runs):
            result = run(workload, seed, trace=False)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
        print(f"  {'metric':<16} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for spec in BENCH["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            verdict = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else "over 1/3"
            if spread > bound:
                ok = False
            print(f"  {name:<16} {q1:>12.6g} {median:>12.6g} {q3:>12.6g} {spread:>8.3f} {bound:>6} {verdict}")
    return ok


def counts(workloads, seed):
    units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    ok = True
    for workload in workloads:
        first, second = (run(workload, seed, trace=True) for _ in range(2))
        print(f"\n{workload}: exact counts, seed {seed}, two traced runs")
        for name, unit in units.items():
            if unit != "count":
                continue
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a == 0 and b == 0:
                continue
            same = a == b
            ok &= same
            print(f"  {name:<26} {a:>14.0f} {b:>14.0f} {'same' if same else 'DIFFERENT'}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCH["workloads"]))
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    ok = counts(workloads, args.first_seed) if args.counts else steadiness(workloads, args.runs, args.first_seed)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
