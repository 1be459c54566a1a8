"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q bench

Each workload runs end to end through the same runner and checks as a real
run; then every check is shown to fail on a deliberately corrupted output.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import common
import runner

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}
SEED = 3


@pytest.mark.parametrize("workload", common.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_its_checks(workload, trace, tmp_path):
    result = runner.run(workload, SEED, 0.3, trace, "tiny", work_root=tmp_path,
                        results_dir=tmp_path / "results")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    metrics = result["metrics"]
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values())
    else:
        assert metrics["constraints.RouteLocator.builds"]["value"] == 3
        assert metrics["ingest.demand_points"]["value"] > 0
        assert (tmp_path / "results" / f"trace-{workload}-seed{SEED}.json").is_file()


def test_command_prints_the_result_last(tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "road_corridors", "--seed", "5",
         "--seconds", "0.2", "--trace", "0", "--scale", "tiny"],
        cwd=common.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(common.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(common.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense_hotspots", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# ---------------------------------------------------------------------------
# each check fails on a corrupted output

@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """One checked tiny job per workload: workload -> (CheckContext, Runner)."""
    out = {}
    for w in common.WORKLOADS:
        root = tmp_path_factory.mktemp(w)
        manifest = runner.generate_inputs(w, SEED, "tiny", root / "inputs")
        r = runner.Runner(w, SEED, root / "inputs", root, manifest)
        run = r.job(root / "first", check_all=True)
        assert run is not None and r.failed == 0, r.check_failures
        out[w] = (checks.CheckContext(root / "first", root / "inputs", run, manifest,
                                      SEED), r)
    return out


def corrupted(ctx, tmp_path):
    """A copy of the context whose outputs and result may be changed freely."""
    out = tmp_path / "out"
    shutil.copytree(ctx.out_dir, out)
    return dataclasses.replace(ctx, out_dir=out, run=copy.deepcopy(ctx.run))


def edit_json(path, fn):
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def move_feature(path, pick, dlat):
    def fn(doc):
        f = next(f for f in doc["features"] if pick(f))
        f["geometry"]["coordinates"][1] += dlat
    edit_json(path, fn)


def expect_failure(check, ctx):
    with pytest.raises(checks.CheckFailed):
        check(ctx)


M_PER_DEG = 111195.0


def test_changed_bytes_fail_the_job(jobs, tmp_path):
    ctx, r = jobs["dense_hotspots"]
    c = corrupted(ctx, tmp_path)
    page = c.out_dir / "evaluation.txt"
    page.write_text(page.read_text() + " ")
    failed = r.failed
    assert not r._accept(c.out_dir, [])
    assert r.failed == failed + 1
    r.failed, r.check_failures = failed, []


def test_point_in_two_buckets(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    names = [n for n, pts in sorted(c.run.result.buckets.items()) if pts]
    c.run.result.buckets[names[1]].append(c.run.result.buckets[names[0]][0])
    expect_failure(checks.check_partition, c)


def test_coverage_drops(jobs, tmp_path):
    c = corrupted(jobs["dense_hotspots"][0], tmp_path)
    edit_json(c.out_dir / "evaluation.json",
              lambda d: d.update(coverage_after=d["coverage_before"] - 0.01))
    expect_failure(checks.check_coverage_monotone, c)


def test_lga_totals_off_by_one(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    edit_json(c.out_dir / "evaluation.json",
              lambda d: next(iter(d["per_lga_counts"].values())).update(approved=9))
    expect_failure(checks.check_lga_totals, c)


def test_map_marker_missing(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    page = c.out_dir / "map.html"
    lines = page.read_text().split("\n")
    i = next(i for i, line in enumerate(lines) if line.startswith("<circle"))
    page.write_text("\n".join(lines[:i] + lines[i + 1:]))
    expect_failure(checks.check_map_markers, c)


def test_recommendation_far_from_hotspot(jobs, tmp_path):
    c = corrupted(jobs["dense_hotspots"][0], tmp_path)
    move_feature(c.out_dir / "recommendations.geojson", lambda f: True, 2000 / M_PER_DEG)
    expect_failure(checks.check_hotspot_recovery, c)


def test_cluster_labels_dropped(jobs, tmp_path):
    c = corrupted(jobs["dense_hotspots"][0], tmp_path)
    results = c.run.result.cluster_results
    for k, res in enumerate(results):
        noise = checks.NOISE
        assignment = dataclasses.replace(res.assignment,
                                         labels=(noise,) * len(res.assignment.labels))
        results[k] = dataclasses.replace(res, assignment=assignment)
    expect_failure(checks.check_dbscan_sample, c)


def test_cleaning_count_off(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    edit_json(c.out_dir / "run_summary.json",
              lambda d: d["cleaning"].update(speed_fixes_removed=d["cleaning"]
                                             ["speed_fixes_removed"] - 1))
    expect_failure(checks.check_cleaning, c)


def test_stay_point_dropped(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    points = c.run.result.demand_points
    points.remove(next(dp for dp in points if dp.kind == "dwell"))
    edit_json(c.out_dir / "run_summary.json",
              lambda d: d.update(demand_points=d["demand_points"] - 1))
    expect_failure(checks.check_demand_count, c)


def snapped_to(kind):
    return lambda f: f["properties"]["snap_target"].startswith(kind)


def test_recommendation_off_its_road(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    move_feature(c.out_dir / "recommendations.geojson", snapped_to("route:"),
                 50 / M_PER_DEG)
    expect_failure(checks.check_route_snaps, c)


def test_recommendation_off_its_poi(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    move_feature(c.out_dir / "recommendations.geojson", snapped_to("poi:"),
                 10 / M_PER_DEG)
    expect_failure(checks.check_poi_snaps, c)


def test_point_in_the_wrong_tile(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    buckets = c.run.result.buckets
    names = [n for n, pts in sorted(buckets.items()) if pts]
    buckets[names[1]].append(buckets[names[0]].pop())
    expect_failure(checks.check_tile_buckets, c)


def test_station_in_the_wrong_lga(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)

    def move_station(d):
        rows = d["per_lga_counts"]
        src = next(n for n in sorted(rows) if rows[n]["existing_fast"])
        dst = next(n for n in sorted(rows) if n != src)
        rows[src]["existing_fast"] -= 1
        rows[dst]["existing_fast"] += 1
    edit_json(c.out_dir / "evaluation.json", move_station)
    expect_failure(checks.check_station_counts, c)


def test_coverage_off_by_one_point(jobs, tmp_path):
    c = corrupted(jobs["road_corridors"][0], tmp_path)
    n = len(c.run.result.demand_points)
    edit_json(c.out_dir / "evaluation.json",
              lambda d: d.update(coverage_before=d["coverage_before"] + 1 / n))
    expect_failure(checks.check_coverage_recompute, c)

