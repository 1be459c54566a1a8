"""Run the benchmark over several seeds and report how steady it is.

    python3 bench/steadiness.py --label A --seeds 1-10 [--workloads dense_hotspots,...]
    python3 bench/steadiness.py --compare A B

A set runs ``run.py`` once per workload and seed, in turn, and stores every
result in ``bench/results/steadiness-<label>.json``. For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, the distance between the quartiles as a share of the median.
``--compare`` prints two stored sets side by side with the change of the
median from the first to the second.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common


def _benchmark() -> dict:
    return json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _metrics() -> list[tuple[str, str, float]]:
    return [(m["name"], m["better"], m["bound"]) for m in _benchmark()["end_to_end"]]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label: str, workloads: list[str], seeds: list[int], seconds: int) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            proc = subprocess.run(
                [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append({"seed": seed, **result})
            print(f"{label} {w} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)
    doc = {"label": label, "seconds": seconds, "runs": runs}
    common.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (common.RESULTS_DIR / f"steadiness-{label}.json").write_text(json.dumps(doc, indent=1))
    return doc


def summary(doc: dict) -> dict[tuple[str, str], tuple[float, float, float, float]]:
    """(workload, metric) -> (median, q1, q3, spread)."""
    out = {}
    for w, runs in doc["runs"].items():
        for name, _, _ in _metrics():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            out[(w, name)] = (med, q1, q3, (q3 - q1) / med)
    return out


def report(docs: list[dict]) -> str:
    sums = [summary(d) for d in docs]
    head = "| workload | metric | bound |"
    rule = "|---|---|---|"
    for d in docs:
        head += f" {d['label']} median [q1, q3] | {d['label']} spread |"
        rule += "---|---|"
    if len(docs) == 2:
        head += " median change |"
        rule += "---|"
    lines = [head, rule]
    for w in docs[0]["runs"]:
        for name, better, bound in _metrics():
            row = f"| {w} | {name} | {bound} |"
            for s in sums:
                med, q1, q3, spread = s[(w, name)]
                row += f" {med:.4g} [{q1:.4g}, {q3:.4g}] | {spread:.1%} |"
            if len(docs) == 2:
                a, b = sums[0][(w, name)][0], sums[1][(w, name)][0]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                row += f" {worse:+.1%} worse |"
            lines.append(row)
    return "\n".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(common.WORKLOADS))
    ap.add_argument("--seconds", type=int, default=_benchmark()["run_seconds"])
    ap.add_argument("--compare", nargs=2, metavar="LABEL")
    args = ap.parse_args()
    if args.compare:
        docs = [json.loads((common.RESULTS_DIR / f"steadiness-{label}.json").read_text())
                for label in args.compare]
    elif args.label:
        docs = [run_set(args.label, args.workloads.split(","), _seeds(args.seeds),
                        args.seconds)]
    else:
        ap.error("give --label or --compare")
    print(report(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
