"""One job: what a planner runs with ``evsite recommend``, ``evaluate`` and
``export-map``, with the pipeline run once.

As a script it runs a single job and prints the process's peak RSS, so the
figure covers a process that does nothing but the job:

    python3 bench/job.py CONFIG OUT_DIR
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import common  # noqa: F401  (puts the checkout's src/ on sys.path)
from evsite import config, export, pipeline

OUTPUTS = ("recommendations.geojson", "stations.geojson", "run_summary.json",
           "evaluation.json", "evaluation.txt", "map.html")


@dataclass
class JobRun:
    recommend_s: float          # load_config until the recommend outputs exist
    e2e_s: float                # load_config until all six outputs exist
    cfg: config.RunConfig
    result: pipeline.PipelineResult
    markers: int


def run_job(config_path, out_dir) -> JobRun:
    """Module attributes are looked up at call time, so tracing wrappers apply."""
    out = Path(out_dir)
    t0 = time.perf_counter()
    cfg = config.load_config(config_path)
    result = pipeline.run_pipeline(cfg)
    pipeline.write_outputs(result, cfg, out)
    t1 = time.perf_counter()
    pipeline.write_evaluation(result, cfg, out)
    markers = export.export_map(out / "recommendations.geojson",
                                out / "stations.geojson", out / "map.html")
    t2 = time.perf_counter()
    return JobRun(t1 - t0, t2 - t0, cfg, result, markers)


def setup(config_path) -> float:
    """Seconds for load_config plus reading and validating the six layers."""
    t0 = time.perf_counter()
    pipeline.load_layers(config.load_config(config_path))
    return time.perf_counter() - t0


def main() -> None:
    config_path, out_dir = sys.argv[1:3]
    run_job(config_path, out_dir)
    # ru_maxrss is in KiB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak_mb}))


if __name__ == "__main__":
    main()
