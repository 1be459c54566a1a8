"""Output checks, run outside the timed region.

Each check compares a job's outputs with a computation made apart from the
program (tile arithmetic, brute-force distances, the planted counts in the
benchmark's manifest) or with a property the method must have. None compares
with a stored copy of earlier output. A check raises ``CheckFailed``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from job import OUTPUTS, JobRun

EARTH_RADIUS_M = 6371008.8
NOISE = -1
# numpy's and libm's sin/cos/asin may differ in the last bits; distances this
# close to a threshold are recomputed with math in the program's formula
TIE_BAND_M = 1e-6
HOTSPOT_RADIUS_M = 500.0
ON_ROUTE_M = 1.0
ON_POI_M = 1e-3
DBSCAN_SAMPLE = 200


class CheckFailed(Exception):
    pass


@dataclass
class CheckContext:
    out_dir: Path
    inputs_dir: Path
    run: JobRun
    manifest: dict
    seed: int


def output_digest(out_dir) -> str:
    h = hashlib.sha256()
    for name in OUTPUTS:
        h.update(name.encode())
        h.update((Path(out_dir) / name).read_bytes())
    return h.hexdigest()


def _json(path):
    with open(path) as f:
        return json.load(f)


def _features(path) -> list[dict]:
    return _json(path)["features"]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def hav_m(lat1, lon1, lat2, lon2) -> float:
    """Great-circle metres, in the operation order of evsite.geo."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    s = (math.sin((p2 - p1) / 2.0) ** 2
         + math.cos(p1) * math.cos(p2) * math.sin(math.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(s)))


def _hav_np(lat1, lon1, lat2, lon2):
    p1, p2 = np.radians(lat1), np.radians(lat2)
    s = (np.sin((p2 - p1) / 2.0) ** 2
         + np.cos(p1) * np.cos(p2) * np.sin(np.radians(lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def _within(lat_a, lon_a, lat_b, lon_b, limit):
    """Boolean matrix d(a_i, b_j) <= limit (limit broadcast against it), with
    distances in the tie band settled in scalar math."""
    d = _hav_np(lat_a[:, None], lon_a[:, None], lat_b[None, :], lon_b[None, :])
    limit = np.broadcast_to(limit, d.shape)
    within = d <= limit
    for i, j in np.argwhere(np.abs(d - limit) <= TIE_BAND_M):
        within[i, j] = hav_m(lat_a[i], lon_a[i], lat_b[j], lon_b[j]) <= limit[i, j]
    return within


# ---------------------------------------------------------------------------
# every workload

def check_partition(ctx: CheckContext) -> None:
    """Every demand point lands in exactly one LGA bucket or is unassigned."""
    result = ctx.run.result
    seen = Counter(dp.point_id for pts in result.buckets.values() for dp in pts)
    seen.update(result.unassigned)
    ids = Counter(dp.point_id for dp in result.demand_points)
    _require(seen == ids and max(ids.values(), default=1) == 1,
             f"buckets and unassigned hold {sum(seen.values())} ids, "
             f"expected each of {len(ids)} demand points once")


def check_coverage_monotone(ctx: CheckContext) -> None:
    ev = _json(ctx.out_dir / "evaluation.json")
    _require(ev["coverage_after"] >= ev["coverage_before"],
             f"coverage_after {ev['coverage_after']} < coverage_before "
             f"{ev['coverage_before']}")


def check_lga_totals(ctx: CheckContext) -> None:
    """Per-LGA counts add up to the stations plus the final recommendations."""
    rows = _json(ctx.out_dir / "evaluation.json")["per_lga_counts"].values()
    stations = _features(ctx.out_dir / "stations.geojson")
    recs = _features(ctx.out_dir / "recommendations.geojson")
    want = Counter(f["properties"]["kind"] for f in stations + recs)
    got = Counter()
    for row in rows:
        got.update({k: v for k, v in row.items() if v})
    _require(got == want, f"per-LGA totals {dict(got)} != features {dict(want)}")


def check_map_markers(ctx: CheckContext) -> None:
    n_features = (len(_features(ctx.out_dir / "stations.geojson"))
                  + len(_features(ctx.out_dir / "recommendations.geojson")))
    page = (ctx.out_dir / "map.html").read_text()
    circles = page.count('<circle class="marker"')
    _require(ctx.run.markers == circles == n_features
             and f"({n_features} markers)" in page,
             f"map has {circles} markers (export_map said {ctx.run.markers}), "
             f"expected {n_features}")


# ---------------------------------------------------------------------------
# dense_hotspots

def check_hotspot_recovery(ctx: CheckContext) -> None:
    """Each planted hotspot has exactly one recommendation within 500 m, and
    each recommendation lies within 500 m of a planted hotspot."""
    centers = [h["center"] for h in ctx.manifest["hotspots"]]
    recs = [f["geometry"]["coordinates"]
            for f in _features(ctx.out_dir / "recommendations.geojson")]
    for lat, lon in centers:
        near = sum(1 for rlon, rlat in recs
                   if hav_m(lat, lon, rlat, rlon) <= HOTSPOT_RADIUS_M)
        _require(near == 1, f"{near} recommendations within {HOTSPOT_RADIUS_M} m "
                            f"of hotspot ({lat}, {lon})")
    for rlon, rlat in recs:
        _require(any(hav_m(lat, lon, rlat, rlon) <= HOTSPOT_RADIUS_M
                     for lat, lon in centers),
                 f"recommendation at ({rlat}, {rlon}) is near no planted hotspot")


def check_dbscan_sample(ctx: CheckContext) -> None:
    """A seeded sample of points against the DBSCAN definition, by brute force
    over the point's LGA under the run's per-point eps and MinPts.

    With N(p) = {q : d(p, q) <= eps(p)} and core(p) = |N(p)| >= minpts(p):
    a core point is clustered; a noise point is not core and in no core
    point's neighbourhood; a clustered border point is in the neighbourhood
    of a core point of its cluster; core points within each other's eps share
    a cluster.
    """
    result = ctx.run.result
    by_lga = {r.lga_name: r for r in result.cluster_results}
    population = [(name, i) for name in sorted(result.buckets)
                  for i in range(len(result.buckets[name]))]
    sample = random.Random(ctx.seed).sample(population, min(DBSCAN_SAMPLE, len(population)))
    picked: dict[str, list[int]] = {}
    for name, i in sample:
        picked.setdefault(name, []).append(i)
    for name, idxs in sorted(picked.items()):
        pts = result.buckets[name]
        res = by_lga[name]
        lat = np.array([p.location.lat for p in pts])
        lon = np.array([p.location.lon for p in pts])
        eps = np.array([pp.eps_m for pp in res.per_point_params])
        minpts = np.array([pp.minpts for pp in res.per_point_params])
        labels = np.array(res.assignment.labels)
        core = np.empty(len(pts), dtype=bool)
        for lo in range(0, len(pts), 256):
            hi = min(len(pts), lo + 256)
            core[lo:hi] = (_within(lat[lo:hi], lon[lo:hi], lat, lon, eps[lo:hi, None])
                           .sum(axis=1) >= minpts[lo:hi])
        for i in idxs:
            in_own = _within(lat[i:i + 1], lon[i:i + 1], lat, lon, eps[i])[0]
            reached_by = _within(lat, lon, lat[i:i + 1], lon[i:i + 1], eps[:, None])[:, 0]
            where = f"{name} point {pts[i].point_id}"
            if core[i]:
                _require(labels[i] != NOISE, f"{where}: core point labelled noise")
                mutual = core & in_own & reached_by
                _require(bool((labels[mutual] == labels[i]).all()),
                         f"{where}: core points within each other's eps in "
                         f"different clusters")
            elif labels[i] == NOISE:
                _require(not (core & reached_by).any(),
                         f"{where}: noise point in a core point's neighbourhood")
            else:
                _require(bool((core & reached_by & (labels == labels[i])).any()),
                         f"{where}: border point reached by no core point of "
                         f"cluster {labels[i]}")


# ---------------------------------------------------------------------------
# road_corridors

def check_cleaning(ctx: CheckContext) -> None:
    cleaning = _json(ctx.out_dir / "run_summary.json")["cleaning"]
    planted = ctx.manifest["planted"]
    want = {"duplicate_fixes_removed": planted["duplicates"],
            "speed_fixes_removed": planted["glitches"], "trips_dropped": 0}
    _require(cleaning == want, f"cleaning {cleaning} != planted {want}")


def check_demand_count(ctx: CheckContext) -> None:
    """Origin and destination of every trip plus one point per planted stay."""
    planted_stays = ctx.manifest["planted"]["stays"]
    want = 2 * ctx.manifest["trips"] + planted_stays
    got = _json(ctx.out_dir / "run_summary.json")["demand_points"]
    dwells = sum(1 for dp in ctx.run.result.demand_points if dp.kind == "dwell")
    _require(got == want and dwells == planted_stays,
             f"{got} demand points with {dwells} stays, expected {want} with "
             f"{planted_stays}")


def _segment_distance_m(lat, lon, a, b) -> float:
    """Metres from (lat, lon) to segment a-b ([lon, lat] pairs) in a local
    east-north plane centred on the point."""
    kx = math.cos(math.radians(lat)) * EARTH_RADIUS_M * math.pi / 180.0
    ky = EARTH_RADIUS_M * math.pi / 180.0
    ax, ay = (a[0] - lon) * kx, (a[1] - lat) * ky
    bx, by = (b[0] - lon) * kx, (b[1] - lat) * ky
    dx, dy = bx - ax, by - ay
    t = 0.0 if dx == dy == 0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / (dx * dx + dy * dy)))
    return math.hypot(ax + t * dx, ay + t * dy)


def check_route_snaps(ctx: CheckContext) -> None:
    """Route-snapped recommendations lie on their named route."""
    routes = {f["properties"]["route_id"]: f["geometry"]["coordinates"]
              for f in _features(ctx.inputs_dir / "routes.geojson")}
    for f in _features(ctx.out_dir / "recommendations.geojson"):
        target = f["properties"]["snap_target"]
        if not target.startswith("route:"):
            continue
        lon, lat = f["geometry"]["coordinates"]
        line = routes[target[len("route:"):]]
        d = min(_segment_distance_m(lat, lon, a, b) for a, b in zip(line, line[1:]))
        _require(d < ON_ROUTE_M, f"{f['id']}: {d:.3f} m from {target}")
        _require(f["properties"]["snap_dist_m"] <= ctx.run.cfg.route_snap_m,
                 f"{f['id']}: snap distance {f['properties']['snap_dist_m']} m "
                 f"> route_snap_m")


def check_poi_snaps(ctx: CheckContext) -> None:
    """POI-snapped recommendations sit on their POI."""
    pois = {f["properties"]["poi_id"]: f["geometry"]["coordinates"]
            for f in _features(ctx.inputs_dir / "pois.geojson")}
    for f in _features(ctx.out_dir / "recommendations.geojson"):
        target = f["properties"]["snap_target"]
        if not target.startswith("poi:"):
            continue
        lon, lat = f["geometry"]["coordinates"]
        plon, plat = pois[target[len("poi:"):]]
        d = hav_m(lat, lon, plat, plon)
        _require(d <= ON_POI_M, f"{f['id']}: {d:.3f} m from {target}")
        _require(f["properties"]["snap_dist_m"] <= ctx.run.cfg.poi_snap_m,
                 f"{f['id']}: snap distance {f['properties']['snap_dist_m']} m "
                 f"> poi_snap_m")


# ---------------------------------------------------------------------------
# the rectangular LGA grid (road_corridors)

def tile_of(spec: dict, lat: float, lon: float) -> str | None:
    """Name of the tile holding the point in synth's rectangular LGA grid.

    Edges are computed as synth computes them and count as inside; a point
    on a shared edge goes to the smallest name, as the program's rule has it.
    """
    min_lat, min_lon, max_lat, max_lon = spec["bbox"]
    rows, cols = spec["lga_rows"], spec["lga_cols"]
    dlat = (max_lat - min_lat) / rows
    dlon = (max_lon - min_lon) / cols

    def spans(v, lo, step, n):
        k = int((v - lo) // step) if step > 0 else 0
        return [j for j in (k - 1, k, k + 1)
                if 0 <= j < n and lo + j * step <= v <= lo + (j + 1) * step]

    names = [f"LGA-{r}{c}" for r in spans(lat, min_lat, dlat, rows)
             for c in spans(lon, min_lon, dlon, cols)]
    return min(names) if names else None


def check_tile_buckets(ctx: CheckContext) -> None:
    result = ctx.run.result
    got = {dp.point_id: name for name, pts in result.buckets.items() for dp in pts}
    for dp in result.demand_points:
        want = tile_of(ctx.manifest["spec"], dp.location.lat, dp.location.lon)
        _require(got.get(dp.point_id) == want,
                 f"point {dp.point_id} in {got.get(dp.point_id)}, tile arithmetic "
                 f"says {want}")


def check_station_counts(ctx: CheckContext) -> None:
    rows = _json(ctx.out_dir / "evaluation.json")["per_lga_counts"]
    want: dict[str, Counter] = {}
    for f in _features(ctx.inputs_dir / "stations.geojson"):
        lon, lat = f["geometry"]["coordinates"]
        name = tile_of(ctx.manifest["spec"], lat, lon) or "(unassigned)"
        want.setdefault(name, Counter())[f["properties"]["kind"]] += 1
    kinds = ("existing_fast", "existing_destination", "approved")
    for name in sorted(set(rows) | set(want)):
        got = {k: rows.get(name, {}).get(k, 0) for k in kinds}
        expect = {k: want.get(name, Counter())[k] for k in kinds}
        _require(got == expect, f"{name}: station counts {got}, tile arithmetic "
                                f"says {expect}")


def _coverage(lat, lon, site_lat, site_lon, radius_m) -> float:
    covered = np.zeros(len(lat), dtype=bool)
    for lo in range(0, len(lat), 512):
        hi = min(len(lat), lo + 512)
        covered[lo:hi] = _within(lat[lo:hi], lon[lo:hi], site_lat, site_lon,
                                 radius_m).any(axis=1)
    return int(covered.sum()) / len(lat)


def check_coverage_recompute(ctx: CheckContext) -> None:
    ev = _json(ctx.out_dir / "evaluation.json")
    pts = ctx.run.result.demand_points
    lat = np.array([dp.location.lat for dp in pts])
    lon = np.array([dp.location.lon for dp in pts])
    stations = [f["geometry"]["coordinates"]
                for f in _features(ctx.inputs_dir / "stations.geojson")]
    recs = [f["geometry"]["coordinates"]
            for f in _features(ctx.out_dir / "recommendations.geojson")]
    radius = ctx.run.cfg.coverage_radius_m
    for key, sites in (("coverage_before", stations), ("coverage_after", stations + recs)):
        site = np.array(sites).reshape(-1, 2)
        want = _coverage(lat, lon, site[:, 1], site[:, 0], radius) if len(site) else 0.0
        _require(ev[key] == want, f"{key} {ev[key]} != recomputed {want}")


COMMON = (check_partition, check_coverage_monotone, check_lga_totals, check_map_markers)
BY_WORKLOAD = {
    "dense_hotspots": COMMON + (check_hotspot_recovery, check_dbscan_sample),
    "road_corridors": COMMON + (check_cleaning, check_demand_count,
                                check_route_snaps, check_poi_snaps,
                                check_tile_buckets, check_station_counts,
                                check_coverage_recompute),
}


def run_checks(workload: str, ctx: CheckContext) -> list[str]:
    """Messages of the checks that failed; empty when all hold."""
    failures = []
    for check in BY_WORKLOAD[workload]:
        try:
            check(ctx)
        except CheckFailed as e:
            failures.append(f"{check.__name__}: {e}")
    return failures
