"""Turn clusters into station proposals: locate, snap, deduplicate, classify."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cluster import LgaClusterResult
from .constraints import PoiIndex, RouteLocator
from .geo import GeoPoint, SpatialIndex, haversine_distance
from .ingest import DemandPoint, RouteRecord

UNSNAPPED = "unsnapped"


@dataclass(frozen=True)
class Recommendation:
    rec_id: str
    location: GeoPoint
    lga_name: str
    charger_kind: str            # fast | destination
    cluster_size: int
    snap_target: str             # "poi:<id>" | "route:<id>" | "unsnapped"
    snap_dist_m: float


def cluster_location(member_points: list[GeoPoint]) -> GeoPoint:
    """Spherical mean of the members; medoid fallback on degeneracy."""
    if not member_points:
        raise ValueError("empty cluster")
    if len(member_points) == 1:
        return member_points[0]
    x = y = z = 0.0
    for p in member_points:
        lat = math.radians(p.lat)
        lon = math.radians(p.lon)
        x += math.cos(lat) * math.cos(lon)
        y += math.cos(lat) * math.sin(lon)
        z += math.sin(lat)
    n = len(member_points)
    x, y, z = x / n, y / n, z / n
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-9:
        # antipodal degeneracy: medoid, ties by position
        best = min(range(n), key=lambda i: (
            sum(haversine_distance(member_points[i], q) for q in member_points), i))
        return member_points[best]
    return GeoPoint(math.degrees(math.asin(z / norm)),
                    math.degrees(math.atan2(y, x)))


def snap(locations: list[GeoPoint], pois: PoiIndex, locator: RouteLocator,
         poi_snap_m: float, route_snap_m: float) -> list[tuple[GeoPoint, str, float]]:
    """(location, target, distance) for every location, parallel to the input
    list: the nearest POI within poi_snap_m, else the nearest route
    projection within route_snap_m, else unsnapped at the location itself."""
    out = [(poi.location, f"poi:{poi.poi_id}", d) if poi is not None and d <= poi_snap_m
           else None for poi, d in pois.nearest_all(locations)]
    rest = [i for i, hit in enumerate(out) if hit is None]
    located = locator.locate_all([locations[i] for i in rest])
    for i, (pt, d, route_id, _) in zip(rest, located):
        out[i] = ((pt, f"route:{route_id}", d) if d <= route_snap_m
                  else (locations[i], UNSNAPPED, math.inf))
    return out


def dedup(recs: list[Recommendation], stations: SpatialIndex,
          min_sep_m: float) -> list[Recommendation]:
    """Drop recommendations within min_sep_m (inclusive) of any indexed station."""
    kept = [r for r in recs if not stations.any_within(r.location, min_sep_m)]
    return sorted(kept, key=lambda r: r.rec_id)


def classify_charger(snap_target: str, cluster_span_m: float,
                     poi_categories: dict[str, str], corridor_span_m: float) -> str:
    """Fast for fuel-POI anchors and long corridor clusters, destination otherwise."""
    if snap_target.startswith("poi:"):
        if poi_categories.get(snap_target[4:]) == "fuel":
            return "fast"
        return "destination"
    if snap_target.startswith("route:") and cluster_span_m >= corridor_span_m:
        return "fast"
    return "destination"


def propose_all(cluster_results: list[LgaClusterResult],
                buckets: dict[str, list[DemandPoint]],
                pois: PoiIndex, routes: list[RouteRecord],
                poi_snap_m: float, route_snap_m: float,
                corridor_span_m: float) -> list[Recommendation]:
    """One snapped, classified recommendation per cluster, before dedup."""
    clusters = []    # (rec id, LGA name, member locations, centre)
    for result in cluster_results:
        points = buckets[result.lga_name]
        for c in range(result.assignment.cluster_count):
            members = [points[i].location
                       for i, lab in enumerate(result.assignment.labels) if lab == c]
            clusters.append((f"{result.lga_name}-{c}", result.lga_name, members,
                             cluster_location(members)))
    snapped = snap([center for *_, center in clusters], pois, RouteLocator(routes),
                   poi_snap_m, route_snap_m)
    recs = []
    for (rec_id, lga_name, members, center), (loc, target, dist) in zip(clusters, snapped):
        span = max(haversine_distance(center, m) for m in members)
        recs.append(Recommendation(
            rec_id=rec_id, location=loc, lga_name=lga_name,
            charger_kind=classify_charger(target, span, pois.categories, corridor_span_m),
            cluster_size=len(members), snap_target=target, snap_dist_m=dist))
    return sorted(recs, key=lambda r: r.rec_id)

