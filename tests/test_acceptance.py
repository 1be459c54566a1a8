"""Acceptance suite: nine release criteria, one test per criterion.

Each test prints a single PASS line (to the real stdout, past pytest's
capture) when its criterion holds at the stated tolerance and budget.
Budgets are asserted with a wall clock, so a slow regression fails loudly.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import oracles
from evsite.cli import main as cli_main
from evsite.cluster import dbscan_lga
from evsite.config import default_config_dict, load_config
from evsite.constraints import ConstraintConfig, RouteLocator, adjust_params
from evsite.evaluate import coverage
from evsite.export import export_map
from evsite.geo import GeoPoint, MultiPolygon, Polygon, haversine_distance, point_in_polygon, project_to_polyline
from evsite.ingest import DemandPoint, assign_lga
from evsite.pipeline import run_pipeline, write_evaluation, write_outputs
from evsite.synth import ScenarioSpec, generate
from test_recommend import index_of


PASS_LINES: list[str] = []


def report(criterion: int, line: str):
    """Record one pass line; conftest echoes them in the terminal summary."""
    msg = f"ACCEPTANCE {criterion}: PASS - {line}"
    PASS_LINES.append(msg)
    print(msg)


def random_params(rng, n, cfg):
    """adjust_params at n random altitudes, POI and route distances and FFDIs."""
    return [adjust_params(rng.uniform(-10.0, 100.0), rng.uniform(0.0, 600.0),
                          rng.uniform(0.0, 400.0),
                          rng.choice([None, rng.uniform(0.0, 5.0)]), cfg)
            for _ in range(n)]


def random_points(rng, n, half_m=2500.0):
    half = half_m / 111194.9
    return [DemandPoint(i, GeoPoint(-33.5 + rng.uniform(-half, half),
                                    150.5 + rng.uniform(-half, half)),
                        "t", "origin") for i in range(n)]


def pipeline_for(tmp_path, spec: ScenarioSpec, subdir: str):
    scen = tmp_path / subdir
    manifest = generate(spec, scen)
    cfg_path = tmp_path / f"{subdir}.json"
    cfg_path.write_text(json.dumps(default_config_dict(str(scen))))
    cfg = load_config(cfg_path)
    return manifest, cfg, run_pipeline(cfg)


@pytest.fixture(scope="module")
def standard_runs(tmp_path_factory):
    """Three standard synthetic scenarios with full pipeline results."""
    tmp = tmp_path_factory.mktemp("std")
    return [pipeline_for(tmp, ScenarioSpec(seed=s), f"s{s}")
            for s in (101, 102, 103)]


def test_criterion_1_dbscan_oracle_equivalence():
    """100 seeded 200-point scenarios with per-point params match the
    brute-force O(n^2) oracle exactly, in under 10 s."""
    cfg = ConstraintConfig()
    t0 = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        pts = random_points(rng, 200)
        params = random_params(rng, 200, cfg)
        coords = [(p.location.lat, p.location.lon) for p in pts]
        want, _ = oracles.brute_dbscan_per_point(
            coords, [pp.eps_m for pp in params], [pp.minpts for pp in params])
        got = dbscan_lga(pts, params)
        assert (oracles.relabel_by_first_occurrence(list(got.assignment.labels))
                == oracles.relabel_by_first_occurrence(want)), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    report(1, f"100 scenarios x 200 points match the per-point oracle exactly "
              f"({elapsed:.1f}s < 10s)")


def test_criterion_2_neutral_config_degeneration():
    """All adjustment factors 1.0 reduce to textbook DBSCAN on 50 instances."""
    neutral = ConstraintConfig(eps_factor_poi=1.0, minpts_factor_poi=1.0,
                               minpts_factor_route=1.0, minpts_factor_flood=1.0,
                               minpts_factor_fire=1.0)
    for seed in range(50):
        rng = random.Random(1000 + seed)
        pts = random_points(rng, 150)
        params = random_params(rng, 150, neutral)
        coords = [(p.location.lat, p.location.lon) for p in pts]
        want, n_want = oracles.textbook_dbscan(coords, neutral.base_eps_m,
                                               neutral.base_minpts)
        got = dbscan_lga(pts, params)
        assert list(got.assignment.labels) == want, f"seed {seed}"
        assert got.assignment.cluster_count == n_want
    report(2, "neutral config equals textbook DBSCAN on 50 instances, exactly")


def test_criterion_3_planted_hotspot_recovery(tmp_path):
    """Across 20 seeds of the standard scenario, recall and precision against
    planted hotspot centers are both 1.0 at 500 m, in under 30 s."""
    t0 = time.perf_counter()
    for seed in range(20):
        manifest, _, result = pipeline_for(tmp_path, ScenarioSpec(seed=seed),
                                           f"seed{seed}")
        centers = [h.center for h in manifest.hotspots]
        recs = result.recs_final
        for center in centers:
            near = [r for r in recs
                    if haversine_distance(r.location, center) <= 500.0]
            assert len(near) == 1, (f"seed {seed}: {len(near)} recs within "
                                    f"500 m of a planted center")
        for r in recs:
            assert any(haversine_distance(r.location, c) <= 500.0
                       for c in centers), f"seed {seed}: spurious rec {r.rec_id}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
    report(3, f"20 seeds: recall 1.0 and precision 1.0 at 500 m "
              f"({elapsed:.1f}s < 30s)")


def test_criterion_4_on_road_poi_property(standard_runs):
    """When routes pass within route_snap_m of every hotspot center, no
    recommendation is left unsnapped."""
    checked = 0
    for manifest, cfg, result in standard_runs:
        locator = RouteLocator(result.layers.routes)
        for h in manifest.hotspots:
            d = locator.locate(h.center)[1]
            assert d <= cfg.route_snap_m, "scenario violates the precondition"
        for r in result.recs_final:
            assert r.snap_target != "unsnapped", r.rec_id
            checked += 1
    report(4, f"{checked} recommendations across 3 scenarios, all snapped "
              f"to a POI or route")


def test_criterion_5_dedup_separation(standard_runs):
    """All-pairs scan: every kept recommendation is > 500 m from every
    existing/approved station."""
    assert all(cfg.min_sep_m == 500.0 for _, cfg, _ in standard_runs)
    pairs = 0
    for _, cfg, result in standard_runs:
        for r in result.recs_final:
            for s in result.layers.stations:
                assert haversine_distance(r.location, s.location) > 500.0, \
                    f"{r.rec_id} within 500 m of {s.station_id}"
                pairs += 1
    report(5, f"minimum rec-to-station distance > 500 m over {pairs} pairs")


def test_criterion_6_geometry_oracles():
    """Haversine to 1e-6 relative on 1e4 pairs; point-in-polygon vs the
    crossing-count oracle on 1e3 pairs; projection within 1 m on 1e3 cases."""
    rng = random.Random(60)
    for _ in range(10_000):
        a = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
        b = GeoPoint(rng.uniform(-85, 85), rng.uniform(-180, 180))
        want = oracles.haversine_oracle(a.lat, a.lon, b.lat, b.lon)
        got = haversine_distance(a, b)
        assert abs(got - want) <= 1e-6 * max(want, 1.0)

    agree = 0
    for _ in range(1000):
        cx, cy = rng.uniform(149, 151), rng.uniform(-35, -33)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(8))
        ring = [(cx + rng.uniform(0.05, 0.3) * math.cos(t),
                 cy + rng.uniform(0.05, 0.3) * math.sin(t)) for t in angles]
        ring.append(ring[0])
        poly = MultiPolygon((Polygon(tuple(GeoPoint(y, x) for x, y in ring)),))
        p = GeoPoint(cy + rng.uniform(-0.4, 0.4), cx + rng.uniform(-0.4, 0.4))
        got = point_in_polygon(p, poly)
        want = oracles.crossing_count_inside(p.lon, p.lat, [ring])
        if got == want:
            agree += 1
        else:
            # disagreement is only tolerated inside the boundary convention zone
            assert oracles.min_edge_distance_deg(p.lon, p.lat, [ring]) < 1e-9
    assert agree >= 999  # >= 99.9% agreement

    for _ in range(1000):
        base = GeoPoint(rng.uniform(-35, -33), rng.uniform(149, 151))
        step = 400.0 / 111194.9
        polyline = [base]
        for _ in range(2):
            prev = polyline[-1]
            polyline.append(GeoPoint(prev.lat + rng.uniform(-step, step),
                                     prev.lon + rng.uniform(-step, step)))
        p = GeoPoint(base.lat + rng.uniform(-step, step),
                     base.lon + rng.uniform(-step, step))
        got_pt, got_d = project_to_polyline(p, tuple(polyline))
        _, want_d = oracles.dense_projection(
            p.lat, p.lon, [(v.lat, v.lon) for v in polyline],
            samples_per_segment=1000)
        assert abs(got_d - want_d) <= 1.0
        assert haversine_distance(p, got_pt) == pytest.approx(got_d, abs=1e-6)
    report(6, "haversine 1e-6 rel on 1e4 pairs; containment agrees on 1e3 "
              "pairs; projection within 1 m on 1e3 cases")


def test_criterion_7_determinism(tmp_path):
    """cmd_recommend twice, and with 1 vs 4 workers, is byte-identical."""
    scen = tmp_path / "scen"
    generate(ScenarioSpec(seed=77), scen)
    runner = CliRunner()

    def run(name, workers):
        doc = default_config_dict(str(scen))
        doc["workers"] = workers
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / name
        res = runner.invoke(cli_main, ["recommend", "--config", str(cfg_path),
                                       "--out", str(out)])
        assert res.exit_code == 0, res.output
        return {f.name: f.read_bytes() for f in sorted(out.iterdir())
                if f.name != "timing.json"}

    first = run("a", 1)
    second = run("b", 1)
    multi = run("c", 4)
    assert first == second
    # run_summary echoes the config, which legitimately differs in "workers";
    # every data output must still match bit for bit
    for name in ("recommendations.geojson", "stations.geojson"):
        assert first[name] == multi[name]
    report(7, "repeat runs byte-identical; 1 vs 4 workers byte-identical "
              "data outputs")


def test_criterion_8_partition_and_coverage(standard_runs):
    """LGA assignment partitions demand points; coverage is monotone over
    10 nested station sets."""
    manifest, cfg, result = standard_runs[0]
    buckets, unassigned = assign_lga(result.demand_points, result.layers.lgas)
    all_ids = [i for ids in buckets.values() for i in ids] + list(unassigned)
    assert sorted(all_ids) == sorted(dp.point_id for dp in result.demand_points)
    assert len(all_ids) == len(set(all_ids)) == len(result.demand_points)

    rng = random.Random(80)
    sites = [GeoPoint(rng.uniform(-35, -33), rng.uniform(149, 151))
             for _ in range(10)]
    prev = -1.0
    for k in range(11):
        cov = coverage(result.demand_points, index_of(sites[:k]), cfg.coverage_radius_m)
        assert cov >= prev
        prev = cov
    report(8, f"{len(all_ids)} demand points partitioned exactly once; "
              f"coverage monotone over 10 nested station sets")


def test_criterion_9_end_to_end_desk_scale(tmp_path):
    """~5000 demand points, 4 LGAs: full pipeline + outputs + map in < 60 s."""
    spec = ScenarioSpec(seed=90, n_hotspots_per_lga=6,
                        points_per_hotspot_min=200, points_per_hotspot_max=200)
    scen = tmp_path / "scen"
    generate(spec, scen)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(default_config_dict(str(scen))))
    cfg = load_config(cfg_path)

    t0 = time.perf_counter()
    result = run_pipeline(cfg)
    out = tmp_path / "out"
    write_outputs(result, cfg, out)
    write_evaluation(result, cfg, out)
    markers = export_map(out / "recommendations.geojson",
                         out / "stations.geojson", out / "map.html")
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"

    n_points = len(result.demand_points)
    assert 4500 <= n_points <= 5600, n_points
    n_features = 0
    for name in ("recommendations.geojson", "stations.geojson"):
        with open(out / name) as f:
            doc = json.load(f)
        assert doc["type"] == "FeatureCollection"
        for feat in doc["features"]:
            assert feat["type"] == "Feature" and "id" in feat
            lon, lat = feat["geometry"]["coordinates"]
            assert feat["geometry"]["type"] == "Point"
            assert -90 <= lat <= 90 and -180 <= lon <= 180
            assert "kind" in feat["properties"]
        n_features += len(doc["features"])
    with open(out / "evaluation.json") as f:
        ev = json.load(f)
    assert {"alignment_rate", "coverage_before", "coverage_after",
            "per_lga_counts", "new_area_count"} <= set(ev)
    assert markers == n_features
    assert (out / "map.html").read_text().count('class="marker"') == n_features
    report(9, f"{n_points} demand points end to end in {elapsed:.1f}s < 60s; "
              f"map markers == {n_features} features")
