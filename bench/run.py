"""Benchmark entry point: one workload (or all) at one seed.

    python3 bench/run.py --workload dense_hotspots --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Progress and check
failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys

import common


def main() -> int:
    ap = argparse.ArgumentParser(description="evsite benchmark")
    ap.add_argument("--workload", choices=common.WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0,
                    help="how long the timed jobs run, per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny inputs for the benchmark's own tests")
    args = ap.parse_args()
    if not common.source_tree_present():
        print(f"error: no evsite sources at {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    import runner

    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for w in workloads:
        results[w] = runner.run(w, args.seed, args.seconds, bool(args.trace),
                                args.scale)
        for name, m in results[w]["metrics"].items():
            print(f"{w:15s} {name:55s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
        print(f"{w:15s} jobs attempted {results[w]['attempted']}, failed "
              f"{results[w]['failed']}, correct {results[w]['correct']}", file=sys.stderr)
    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        for w in workloads:
            print(json.dumps({"workload": w, **results[w]}))
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
