"""Write one workload's six input layers, its run config and a manifest.

The benchmark runs this as its own process before anything is timed, so the
program under test only ever sees the generated files:

    python3 bench/gen.py --workload road_corridors --seed 1 --out DIR [--scale tiny]

Everything written depends only on the workload, the scale and the seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import random
from dataclasses import asdict
from pathlib import Path

from common import WORKLOADS  # importing common puts src/ on sys.path
from evsite.config import default_config_dict
from evsite.synth import ScenarioSpec, generate

# ScenarioSpec fields per workload and scale. Point counts are fixed (min ==
# max) so that the work a job does hardly varies with the seed; the seed
# moves the hotspots, the scatter, the POIs and the trajectories.
SPECS = {
    # Few LGAs, dense hotspots: DBSCAN neighbourhoods hold hundreds of points.
    # Jobs of about a second let a run average some 40 of them.
    "dense_hotspots": {
        "full": {"n_hotspots_per_lga": 1, "points_per_hotspot_min": 300,
                 "points_per_hotspot_max": 300, "background_noise_points": 50,
                 "poi_per_hotspot_prob": 1.0},
        "tiny": {"n_hotspots_per_lga": 2, "points_per_hotspot_min": 40,
                 "points_per_hotspot_max": 40, "background_noise_points": 40},
    },
    # Long trajectories along a fine road grid (see ROAD_TRIPS) over an 8x8
    # LGA grid with two stations and one small hotspot per LGA: ingest,
    # route location and evaluation do most of the work, and cluster runs
    # 64 small DBSCANs.
    "road_corridors": {
        "full": {"lga_rows": 8, "lga_cols": 8, "n_hotspots_per_lga": 1,
                 "points_per_hotspot_min": 10, "points_per_hotspot_max": 10,
                 "n_stations_per_lga": 2, "background_noise_points": 0,
                 "poi_per_hotspot_prob": 1.0, "route_spacing_deg": 0.01},
        "tiny": {"lga_rows": 3, "lga_cols": 3, "n_hotspots_per_lga": 1,
                 "points_per_hotspot_min": 30, "points_per_hotspot_max": 30,
                 "n_stations_per_lga": 4, "background_noise_points": 0,
                 "route_spacing_deg": 0.02},
    },
}

# road_corridors trajectories: (trips, moving fixes per trip)
ROAD_TRIPS = {"full": (200, 60), "tiny": (24, 16)}
FIX_INTERVAL_S = 30
STEP_M = 450.0            # between moving fixes: 15 m/s, far above dwell_radius_m
STAY_FIXES = 25           # 25 more fixes at 30 s span 750 s >= dwell_min_s
STAY_JITTER_M = 20.0
GLITCH_DLAT = 0.1         # ~11 km in 15 s, far above max_speed_mps
SPUR_SHARE = 0.25
# (stays, duplicate fixes, speed glitches) per trip, cycled by trip index, so
# the planted totals depend on the trip count alone
TRIP_PATTERNS = ((1, 1, 0), (0, 0, 1), (2, 1, 1), (0, 2, 0))

EARTH_RADIUS_M = 6371008.8
DWELL_RADIUS_M = 100.0
DWELL_MIN_S = 600


def haversine_m(lat1, lon1, lat2, lon2) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    s = (math.sin((p2 - p1) / 2) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2) ** 2)
    return 2 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def _point_along(coords, cum, s):
    """(lat, lon) at arclength s along a [[lon, lat], ...] polyline."""
    for i in range(1, len(coords)):
        if s <= cum[i] or i == len(coords) - 1:
            seg = cum[i] - cum[i - 1]
            t = 0.0 if seg == 0 else min(1.0, max(0.0, (s - cum[i - 1]) / seg))
            (lon0, lat0), (lon1, lat1) = coords[i - 1], coords[i]
            return lat0 + t * (lat1 - lat0), lon0 + t * (lon1 - lon0)
    raise ValueError("empty polyline")


def _trajectory(rng, coords, n_fixes, pattern, t0, trip_id):
    """Rows of one trip along a route, with planted stays, duplicates and glitches."""
    cum = [0.0]
    for (lon0, lat0), (lon1, lat1) in zip(coords, coords[1:]):
        cum.append(cum[-1] + haversine_m(lat0, lon0, lat1, lon1))
    step = min(STEP_M, cum[-1] / (n_fixes - 1))
    start = rng.uniform(0.0, cum[-1] - step * (n_fixes - 1))
    forward = rng.random() < 0.5
    stays, dups, glitches = pattern
    # events sit after moving fixes strictly inside the trip, one per fix
    slots = rng.sample(range(2, n_fixes - 2), stays + dups + glitches)
    events = {k: "stay" for k in slots[:stays]}
    events.update({k: "dup" for k in slots[stays:stays + dups]})
    events.update({k: "glitch" for k in slots[stays + dups:]})
    rows = []
    t = t0
    for k in range(n_fixes):
        s = start + step * k
        lat, lon = _point_along(coords, cum, s if forward else cum[-1] - s)
        rows.append((trip_id, t, lat, lon))
        event = events.get(k)
        if event == "dup":
            rows.append((trip_id, t, lat, lon))
        elif event == "glitch":
            rows.append((trip_id, t + FIX_INTERVAL_S // 2,
                         lat + (GLITCH_DLAT if lat < 0 else -GLITCH_DLAT), lon))
        elif event == "stay":
            for _ in range(STAY_FIXES):
                t += FIX_INTERVAL_S
                jitter = STAY_JITTER_M / 111195.0
                rows.append((trip_id, t, lat + rng.uniform(-jitter, jitter),
                             lon + rng.uniform(-jitter, jitter)))
        t += FIX_INTERVAL_S
    return rows


def _add_road_trips(out: Path, seed: int, scale: str) -> dict:
    n_trips, n_fixes = ROAD_TRIPS[scale]
    with open(out / "routes.geojson") as f:
        routes = json.load(f)["features"]
    grid = [r["geometry"]["coordinates"] for r in routes
            if r["properties"]["route_id"].startswith("grid-")]
    spurs = [r["geometry"]["coordinates"] for r in routes
             if r["properties"]["route_id"].startswith("spur-")]
    rng = random.Random(seed)
    planted = {"stays": 0, "duplicates": 0, "glitches": 0}
    with open(out / "trips.csv", "a", newline="") as f:
        w = csv.writer(f)
        for i in range(n_trips):
            coords = rng.choice(spurs if spurs and rng.random() < SPUR_SHARE else grid)
            pattern = TRIP_PATTERNS[i % len(TRIP_PATTERNS)]
            for key, n in zip(("stays", "duplicates", "glitches"), pattern):
                planted[key] += n
            for row in _trajectory(rng, coords, n_fixes, pattern,
                                   1_700_000_000 + i * 100_000, f"road-{i:06d}"):
                trip_id, ts, lat, lon = row
                w.writerow([trip_id, ts, repr(lat), repr(lon)])
    return {"road_trips": n_trips, "moving_fixes_per_trip": n_fixes, **planted}


def _two_fix_dwells(out: Path) -> tuple[int, int]:
    """(trips, trips whose two fixes form a stay) among synth's two-fix trips."""
    fixes: dict[str, list[tuple[int, float, float]]] = {}
    with open(out / "trips.csv", newline="") as f:
        for trip_id, ts, lat, lon in list(csv.reader(f))[1:]:
            fixes.setdefault(trip_id, []).append((int(ts), float(lat), float(lon)))
    dwells = sum(1 for pts in fixes.values()
                 if pts[1][0] - pts[0][0] >= DWELL_MIN_S
                 and haversine_m(pts[0][1], pts[0][2], pts[1][1], pts[1][2])
                 <= DWELL_RADIUS_M)
    return len(fixes), dwells


def generate_workload(workload: str, seed: int, out, scale: str = "full") -> dict:
    out = Path(out)
    spec = ScenarioSpec(seed=seed, **SPECS[workload][scale])
    synth_manifest = generate(spec, out)
    synth_trips, synth_dwells = _two_fix_dwells(out)
    manifest = {
        "workload": workload, "seed": seed, "scale": scale,
        "spec": asdict(spec),
        "hotspots": synth_manifest.as_dict()["hotspots"],
        "trips": synth_trips,
        "planted": {"stays": synth_dwells, "duplicates": 0, "glitches": 0},
    }
    if workload == "road_corridors":
        road = _add_road_trips(out, seed, scale)
        manifest["trips"] += road["road_trips"]
        manifest["road"] = road
        for key in ("stays", "duplicates", "glitches"):
            manifest["planted"][key] += road[key]
    (out / "config.json").write_text(json.dumps(default_config_dict("."), indent=1))
    (out / "bench_manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()
    generate_workload(args.workload, args.seed, args.out, args.scale)


if __name__ == "__main__":
    main()
