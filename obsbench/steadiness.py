#!/usr/bin/env python3
"""Repeat a workload over several seeds and report each metric's spread.

    python3 obsbench/steadiness.py --workload embed_serve --runs 10 [--first-seed 1] [--out f.json]
    python3 obsbench/steadiness.py --report a.json b.json ...   # Markdown tables of saved runs

Run from the repository root. For every end-to-end metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
inter-quartile range as a share of the median, next to the metric's bound
in BENCHMARK.json. With --out it also writes the raw values as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def report(paths):
    """Markdown tables (median, quartiles, spread, bound) of saved runs."""
    for path in paths:
        with open(path) as f:
            data = json.load(f)
        print(f"### {data['workload']} ({data['runs']} runs, seeds {data['first_seed']}–"
              f"{data['first_seed'] + data['runs'] - 1})\n")
        print("| metric | median | q1 | q3 | spread | bound | values |")
        print("|---|---|---|---|---|---|---|")
        for name, m in data["metrics"].items():
            vals = ", ".join(f"{v:.4g}" for v in m["values"])
            print(f"| `{name}` | {m['median']:.4g} | {m['q1']:.4g} | {m['q3']:.4g} | "
                  f"{100 * m['spread']:.1f}% | {m['bound']} | {vals} |")
        print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--report", nargs="+", metavar="JSON")
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out")
    a = ap.parse_args()
    if a.report:
        report(a.report)
        return 0
    if not a.workload:
        ap.error("--workload or --report is required")
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for seed in range(a.first_seed, a.first_seed + a.runs):
        r = subprocess.run(
            [sys.executable, "obsbench/run.py", "--workload", a.workload, "--seed", str(seed),
             "--seconds", str(a.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(r.stdout.strip().splitlines()[-1])
        if r.returncode != 0 or not result["correct"] or result["failed"]:
            print(f"seed {seed}: run failed: {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": common.median(vals), "q1": q1, "q3": q3,
                         "spread": common.spread(vals), "bound": bounds.get(name), "values": vals}
        print(f"{name:14s} median {summary[name]['median']:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
              f"spread {100 * summary[name]['spread']:.2f}%  bound {bounds.get(name)}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"workload": a.workload, "runs": a.runs, "first_seed": a.first_seed,
                       "metrics": summary}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
