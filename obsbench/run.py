#!/usr/bin/env python3
"""obsbench: the end-to-end benchmark of the observatory binary.

    python3 obsbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds `observatory` (release) into
$CARGO_TARGET_DIR (default .bench_build), runs one workload through the
CLI or HTTP surface, checks every output, and prints one JSON object as
its last line. `--trace 1` runs the per-layer pass instead (see README.md).
"""

import argparse
import json
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30,
                    help="nominal run length; each phase runs a fixed operation count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    root = os.getcwd()
    try:
        harness.cargo_build(root, bin_name="observatory")
        exe = harness.binary(root, "observatory")
        # Start on a quiet disk: flush what the build or an earlier run
        # left dirty, so its writeback does not land inside this run.
        os.sync()
        if a.trace:
            import tracing

            res = tracing.run(root, exe, a.workload, a.seed)
        else:
            res = workloads.WORKLOADS[a.workload](root, exe, a.seed)
    except harness.BenchError as e:
        print(f"obsbench: {e}", file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in res.phases)
    failed = sum(p.failed for p in res.phases)
    for p in res.phases:
        print(f"{a.workload} {p.name}: {json.dumps(p.summary())}")
        for why in p.failures:
            print(f"  failed: {why}")
    for note in res.notes:
        print(f"note: {note}")
    for problem in res.problems[:20]:
        print(f"MISMATCH: {problem}")
    correct = not res.problems and failed == 0 and attempted > 0
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in res.metrics.items()
               if common.is_finite_number(v["value"])}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
