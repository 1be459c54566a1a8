"""Run one workload: generate its inputs in a separate process, run jobs back
to back on one thread (a closed loop with one client), check the outputs and
report the metrics.

A job is ``load_config`` -> ``run_pipeline`` -> ``write_outputs`` ->
``write_evaluation`` -> ``export_map``. It fails if it raises or if a check
fails. The first job's outputs go through every check; every later job,
including the one run in its own process for peak RSS, must write the same
bytes.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import common
import job
import tracing

SETUP_SLICE_S = 0.15

END_TO_END_UNITS = {"e2e_s": "s", "recommend_s": "s", "setup_s": "s",
                    "points_per_s": "points/s", "peak_rss_mb": "MB"}


def generate_inputs(workload: str, seed: int, scale: str, inputs_dir: Path) -> dict:
    subprocess.run([sys.executable, str(common.BENCH_DIR / "gen.py"),
                    "--workload", workload, "--seed", str(seed),
                    "--out", str(inputs_dir), "--scale", scale], check=True)
    return json.loads((inputs_dir / "bench_manifest.json").read_text())


class Runner:
    def __init__(self, workload: str, seed: int, inputs_dir: Path, work_dir: Path,
                 manifest: dict):
        self.workload = workload
        self.seed = seed
        self.inputs_dir = inputs_dir
        self.config = inputs_dir / "config.json"
        self.work_dir = work_dir
        self.manifest = manifest
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.reference_digest: str | None = None
        self.job_samples: list[tuple[float, float]] = []  # (e2e_s, recommend_s)
        self.setup_samples: list[float] = []

    def _accept(self, out_dir: Path, problems: list[str]) -> bool:
        digest = checks.output_digest(out_dir)
        if self.reference_digest is None:
            self.reference_digest = digest
        elif digest != self.reference_digest:
            problems.append(f"outputs in {out_dir.name} differ from the first job's")
        if problems:
            self.failed += 1
            self.check_failures.extend(problems)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        return not problems

    def job(self, out_dir: Path, check_all: bool = False) -> job.JobRun | None:
        """One job; None when it raised or failed a check."""
        self.attempted += 1
        gc.collect()
        try:
            run = job.run_job(self.config, out_dir)
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        problems = []
        if check_all:
            ctx = checks.CheckContext(out_dir, self.inputs_dir, run, self.manifest,
                                      self.seed)
            problems = checks.run_checks(self.workload, ctx)
        return run if self._accept(out_dir, problems) else None

    def timed_jobs(self, seconds: float, out_dir: Path, on_job=None,
                   time_setup: bool = False) -> list[tuple[float, float]]:
        """(e2e_s, recommend_s) of the jobs that passed, run until `seconds`
        have passed (at least one job)."""
        first = len(self.job_samples)
        deadline = time.perf_counter() + seconds
        while True:
            if time_setup:
                self.setup()
            run = self.job(out_dir)
            if run is not None:
                self.job_samples.append((run.e2e_s, run.recommend_s))
                if on_job is not None:
                    on_job(run)
            del run
            if time.perf_counter() >= deadline:
                return self.job_samples[first:]

    def setup(self) -> None:
        """Time set-up repeatedly, SETUP_SLICE_S at a time.

        Slices run between timed jobs, so that set-up, which is short on some
        workloads, is sampled across the whole run like the jobs are.
        """
        spent = 0.0
        while spent < SETUP_SLICE_S:
            gc.collect()
            t = job.setup(self.config)
            self.setup_samples.append(t)
            spent += t

    def peak_rss_mb(self, out_dir: Path) -> float | None:
        """Peak RSS of a process that runs one job and nothing else."""
        self.attempted += 1
        proc = subprocess.run([sys.executable, str(common.BENCH_DIR / "job.py"),
                               str(self.config), str(out_dir)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            self.failed += 1
            return None
        if not self._accept(out_dir, []):
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]


def _medians(samples: list[tuple[float, ...]]) -> list[float]:
    return [statistics.median(col) for col in zip(*samples)]


def _end_to_end(r: Runner, seconds: float, n_points: int) -> dict[str, float]:
    """Job times are means over the run; set-up time is the fastest repeat.

    The host's speed moves by up to 2x, in phases of 10 to 30 s, so a run of
    about a minute holds a few phases. The mean job time weighs each phase by
    the time the run spent in it; the median jumps to whichever speed held
    for more than half of the jobs. A set-up takes 0.02 to 0.15 s and is
    repeated 30 to 200 times in a run: repeats that short often fall in a
    moment when the host is not contended, so their fastest is steadier than
    any average of them. bench/README.md, "Steadiness", has the figures.
    """
    samples = r.timed_jobs(seconds, r.work_dir / "jobs", time_setup=True)
    rss = r.peak_rss_mb(r.work_dir / "rss")
    if not samples or rss is None:
        raise RuntimeError("no timed job completed")
    e2e_s, recommend_s = (statistics.fmean(col) for col in zip(*samples))
    return {"e2e_s": e2e_s, "recommend_s": recommend_s,
            "setup_s": min(r.setup_samples),
            "points_per_s": n_points / e2e_s, "peak_rss_mb": rss}


def _per_layer(r: Runner, seconds: float, trace_path: Path) -> dict[str, float]:
    """Untraced jobs for half the time, traced jobs for the other half."""
    untraced = r.timed_jobs(seconds / 2, r.work_dir / "jobs")
    tracer = tracing.Tracer()
    per_job: list[dict[str, float]] = []
    out_dir = r.work_dir / "traced"

    def record(run):
        m = tracing.layer_metrics(tracer.job_spans())
        m["pipeline.output_bytes"] = sum((out_dir / n).stat().st_size for n in job.OUTPUTS)
        m["traced_e2e_s"] = run.e2e_s
        per_job.append(m)

    tracer.install()
    try:
        r.timed_jobs(seconds / 2, out_dir, on_job=record)
    finally:
        tracer.uninstall()
    tracer.dump(trace_path)
    if not untraced or not per_job:
        raise RuntimeError("no traced or untraced job completed")
    metrics = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
    metrics["trace.overhead_s"] = (metrics.pop("traced_e2e_s")
                                   - _medians(untraced)[0])
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 scale: str, work_dir: Path, results_dir: Path) -> dict:
    """The result object the benchmark prints for one workload."""
    inputs_dir = work_dir / "inputs"
    manifest = generate_inputs(workload, seed, scale, inputs_dir)
    r = Runner(workload, seed, inputs_dir, work_dir, manifest)
    first = r.job(work_dir / "first", check_all=True)
    n_points = len(first.result.demand_points) if first is not None else 0
    del first
    results_dir.mkdir(parents=True, exist_ok=True)
    if trace:
        values = _per_layer(r, seconds,
                            results_dir / f"trace-{workload}-seed{seed}.json")
        units = {k: tracing.unit_of(k) for k in values}
    else:
        values = _end_to_end(r, seconds, n_points)
        units = END_TO_END_UNITS
    result = {"correct": not r.check_failures, "attempted": r.attempted,
              "failed": r.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]}
                          for k in sorted(values)}}
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({**result, "check_failures": r.check_failures,
                    "jobs_e2e_recommend_s": r.job_samples,
                    "setups_s": r.setup_samples}, indent=1) + "\n")
    return result


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        work_root: Path = common.WORK_DIR, results_dir: Path = common.RESULTS_DIR) -> dict:
    work_dir = work_root / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        return run_workload(workload, seed, seconds, trace, scale, work_dir, results_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
