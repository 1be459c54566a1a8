"""Per-point context (altitude, POI/route proximity, fire risk) and the
dynamic per-point adjustment of the clustering radius and density threshold."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

from .geo import METERS_PER_DEG, GeoPoint, SpatialIndex, cell_groups, project_segment
# tracing patches these here by name; nothing here calls either
from .geo import haversine_distance, project_to_polyline  # noqa: F401
from .ingest import DemandPoint, FireRiskGrid, InputError, PoiRecord, RouteRecord


@dataclass(frozen=True)
class ConstraintConfig:
    base_eps_m: float = 800.0
    base_minpts: int = 10
    poi_near_m: float = 300.0
    route_near_m: float = 200.0
    eps_factor_poi: float = 0.75
    minpts_factor_poi: float = 0.6
    minpts_factor_route: float = 0.8
    flood_alt_m: float = 5.0
    minpts_factor_flood: float = 1.5
    ffdi_threshold: float = 2.0
    minpts_factor_fire: float = 1.5
    eps_min_m: float = 100.0
    eps_max_m: float = 2000.0
    minpts_min: int = 2

    def __post_init__(self):
        if self.base_eps_m <= 0:
            raise InputError("base_eps_m must be > 0")
        for name in ("poi_near_m", "route_near_m"):
            # a negative distance would switch its rule off, and near_all
            # needs a finite one to bound its radius query
            if not 0.0 <= getattr(self, name) < math.inf:
                raise InputError(f"{name} must be >= 0 and finite")
        if not self.base_minpts >= self.minpts_min >= 2:
            raise InputError("need base_minpts >= minpts_min >= 2")
        if not self.eps_min_m <= self.base_eps_m <= self.eps_max_m:
            raise InputError("need eps_min_m <= base_eps_m <= eps_max_m")
        factors = ("minpts_factor_poi", "minpts_factor_route", "minpts_factor_flood",
                   "minpts_factor_fire")
        for name in ("eps_factor_poi", *factors):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be > 0")
        # the largest MinPts adjust_params can reach, its factors in the same
        # order: a float product only grows with them, so finite here is finite there
        if not math.isfinite(math.prod((max(1.0, getattr(self, name)) for name in factors),
                                       start=float(self.base_minpts))):
            raise InputError(f"base_minpts times {', '.join(factors)} must stay finite")


@dataclass(frozen=True, slots=True)
class AdjustedParams:
    eps_m: float
    minpts: int


def lookup_ffdi(p: GeoPoint, grid: FireRiskGrid) -> float | None:
    """Value of the grid cell containing p; None outside the bbox or for null cells.

    Cells are half-open with the max edge inclusive; row 0 sits at min_lat.
    """
    box = grid.bbox
    if not box.contains(p):
        return None
    cell_h = (box.max_lat - box.min_lat) / grid.n_rows
    cell_w = (box.max_lon - box.min_lon) / grid.n_cols
    row = grid.n_rows - 1 if cell_h == 0 else min(
        grid.n_rows - 1, int((p.lat - box.min_lat) / cell_h))
    col = grid.n_cols - 1 if cell_w == 0 else min(
        grid.n_cols - 1, int((p.lon - box.min_lon) / cell_w))
    return grid.cells[row * grid.n_cols + col]


class RouteLocator:
    """Exact nearest-route and route-proximity queries accelerated by a grid
    index over vertices.

    Every point of a segment lies within the segment's reach (see
    RouteRecord.segment_reach_m) of one of its two ends, so a segment can only
    come within d of p if one of its ends lies within d plus its reach. That
    bounds both the vertex search radius (by the longest reach) and which
    segments need projecting.

    Queries are answered a group of nearby points at a time (see
    geo.cell_groups). For a group with centre c and reach rho, and D the
    distance from c to its nearest vertex, every member's nearest vertex and
    closest on-route point lie within D + 2 rho of c. One radius query around
    c, at an upper bound on D plus 2 rho plus the longest reach, gives D and
    the segments with an end within D + 2 rho plus their reach; each member
    scans only those segments and their ends. near_all asks less, whether
    some route lies within a radius, and stops at the first segment that does.
    """

    def __init__(self, routes: list[RouteRecord]):
        # every route's columns end to end, vertex ids running across routes
        self._lat, self._lon, self._altitudes = array("d"), array("d"), array("d")
        self._route_ids: list[str] = []
        # reach of the segment from each vertex to the next; -1 at a route's end
        self._reach_m = array("d")
        for route in sorted(routes, key=lambda r: r.route_id):
            self._lat += route.lat
            self._lon += route.lon
            self._altitudes += route.altitudes
            self._route_ids += [route.route_id] * len(route.lat)
            self._reach_m += route.segment_reach_m
            self._reach_m.append(-1.0)
        self.max_reach_m = max(self._reach_m, default=0.0)
        # a reach is at least half its segment: cells about the longest one
        cell = max(2.0 * self.max_reach_m, 500.0) / METERS_PER_DEG
        self._index = SpatialIndex(self._lat, self._lon, cell) if self._lat else None

    def altitude_at(self, p: GeoPoint) -> float:
        """Altitude of the route vertex nearest p; nan when no routes."""
        if self._index is None:
            return math.nan
        vid, _ = self._index.nearest(p)
        return self._altitudes[vid]

    def locate(self, p: GeoPoint) -> tuple[GeoPoint, float, str, float]:
        """(closest on-route point, distance, route id, altitude of the nearest
        vertex); inf, "" and nan when no routes."""
        return self.locate_all([p])[0]

    def locate_all(self, points: list[GeoPoint]) -> list[tuple[GeoPoint, float, str, float]]:
        """locate for every point, parallel to the input list."""
        index = self._index
        if index is None:
            return [(p, math.inf, "", math.nan) for p in points]
        v_lat, v_lon = self._lat, self._lon
        reach_m, route_ids = self._reach_m, self._route_ids
        out: list = [None] * len(points)
        for c, rho, members in cell_groups(points):
            h = index.within(c, index.nearest_bound(c) + 2.0 * rho + self.max_reach_m)
            bound = min(h.values()) + 2.0 * rho
            # the segments, by ascending start vertex, that may come within
            # bound of c
            segs = [s for _, s in self._segments(h, bound)]
            # their ends, ascending, and where each segment's start sits there
            ends, starts = [], []
            for s in segs:
                if not ends or ends[-1] != s:
                    ends.append(s)
                starts.append(len(ends) - 1)
                ends.append(s + 1)
            for i in members:
                p = points[i]
                lat, lon = p.lat, p.lon
                rad_lat = math.radians(lat)
                cos_lat = math.cos(rad_lat)
                dists = index.distances(p, ends)
                d_vertex, vid = min(zip(dists, ends))
                best_vid, best_lat, best_lon = vid, None, None
                best_d, best_id = d_vertex, route_ids[vid]
                for s, j in zip(segs, starts):
                    h_a, h_b = dists[j], dists[j + 1]
                    # the slack keeps rounding from pruning a segment whose
                    # projection ties best_d, as when p lies on the segment's
                    # extension
                    if (h_a if h_a < h_b else h_b) - reach_m[s] > best_d + 1e-6:
                        continue
                    c_lat, c_lon, d = project_segment(lat, lon, rad_lat, cos_lat,
                                                      v_lat[s], v_lon[s],
                                                      v_lat[s + 1], v_lon[s + 1])
                    if d >= h_a:
                        # as in project_to_polyline, the start vertex, at h_a,
                        # stands unless the projection is strictly closer
                        c_lat, d = None, h_a
                    if d < best_d or (d == best_d and route_ids[s] < best_id):
                        best_vid, best_lat, best_lon = s, c_lat, c_lon
                        best_d, best_id = d, route_ids[s]
                if best_lat is None:
                    best_lat, best_lon = v_lat[best_vid], v_lon[best_vid]
                out[i] = (GeoPoint(best_lat, best_lon), best_d, best_id, self._altitudes[vid])
        return out

    def _segments(self, h: dict[int, float], limit: float) -> list[tuple[float, int]]:
        """(bound, s) for each segment s whose bound is at most limit, by
        ascending s. The bound, the least distance in h to one of the
        segment's ends less its reach, is at most the segment's distance from
        the point h was measured from. An end missing from h counts as
        farther than limit plus the longest reach, so h must hold every
        vertex within that."""
        reach_m = self._reach_m
        out = []
        for v, h_v in h.items():
            s = v - 1
            if s >= 0 and s not in h and reach_m[s] >= 0 and h_v - reach_m[s] <= limit:
                out.append((h_v - reach_m[s], s))
            if reach_m[v] >= 0:
                key = min(h_v, h.get(v + 1, math.inf)) - reach_m[v]
                if key <= limit:
                    out.append((key, v))
        return out

    def near_all(self, points: list[GeoPoint], radius_m: float) -> list[tuple[float, float]]:
        """(witness, altitude) for every point, parallel to the input list: the
        distance to some on-route point within radius_m, inf when there is
        none, and the altitude of the nearest vertex, as locate_all gives it.
        The witness is within radius_m exactly when locate_all's distance is.
        inf and nan when no routes.

        A segment can only come within radius_m of a member if one of its
        ends lies within radius_m + rho + its reach of c. One radius query
        around c at radius_m + rho plus the longest reach serves both
        questions when it also reaches D + 2 rho; otherwise a second one at
        D + 2 rho follows. Each member accepts at its nearest vertex, or else
        projects the segments in ascending order of their bound (see
        _segments) and stops at the first within radius_m.
        """
        index = self._index
        if index is None:
            return [(math.inf, math.nan)] * len(points)
        v_lat, v_lon, altitudes = self._lat, self._lon, self._altitudes
        out: list = [None] * len(points)
        for c, rho, members in cell_groups(points):
            limit = radius_m + rho
            h = index.within(c, limit + self.max_reach_m)
            bound = min(h.values(), default=math.inf) + 2.0 * rho
            if bound > limit + self.max_reach_m:
                # too few vertices in range to settle the nearest one: D is
                # min(h) if h holds any, else at most nearest_bound
                h = index.within(c, (min(h.values()) if h else index.nearest_bound(c))
                                 + 2.0 * rho)
                bound = min(h.values()) + 2.0 * rho
            verts = [v for v, h_v in h.items() if h_v <= bound]
            keyed = sorted(self._segments(h, limit))
            for i in members:
                p = points[i]
                # the first member is c, whose distances h holds
                dists = [h[v] for v in verts] if i == members[0] else index.distances(p, verts)
                d, vid = min(zip(dists, verts))
                if d > radius_m:
                    lat, lon = p.lat, p.lon
                    rad_lat = math.radians(lat)
                    cos_lat = math.cos(rad_lat)
                    d = math.inf
                    for _, s in keyed:
                        d_s = project_segment(lat, lon, rad_lat, cos_lat, v_lat[s], v_lon[s],
                                              v_lat[s + 1], v_lon[s + 1])[2]
                        if d_s <= radius_m:
                            d = d_s
                            break
                out[i] = (d, altitudes[vid])
        return out


class PoiIndex:
    """Exact nearest-POI queries over a grid of about one POI per cell.

    POIs are indexed in poi_id order, so a distance tie goes to the smallest
    poi_id. Cells are the POIs' extent over the square root of their count,
    at least 0.01 degrees, so that nearest most often finds a POI in its own
    cell or in one of the first, small windows around it. Queries go through
    SpatialIndex.nearest_all, a group of nearby points at a time (see
    geo.cell_groups).
    """

    def __init__(self, pois: list[PoiRecord]):
        self.pois = sorted(pois, key=lambda p: p.poi_id)
        self.categories = {p.poi_id: p.category for p in self.pois}
        self._index = None
        if pois:
            lats = [p.location.lat for p in self.pois]
            lons = [p.location.lon for p in self.pois]
            extent = max(max(lats) - min(lats), max(lons) - min(lons))
            self._index = SpatialIndex(lats, lons, max(extent / math.sqrt(len(pois)), 0.01))

    def nearest_all(self, points: list[GeoPoint]) -> list[tuple[PoiRecord | None, float]]:
        """(closest POI, distance) for every point, parallel to the input list;
        None and inf when there are no POIs."""
        if self._index is None:
            return [(None, math.inf)] * len(points)
        pois = self.pois
        return [(pois[j], d) for j, d in self._index.nearest_all(points)]


def annotate_context(points: list[DemandPoint], pois: PoiIndex, routes: list[RouteRecord],
                     grid: FireRiskGrid, cfg: ConstraintConfig) -> list[AdjustedParams]:
    """adjust_params for every demand point, parallel to the input list."""
    locations = [dp.location for dp in points]
    nearest_pois = pois.nearest_all(locations)
    near = RouteLocator(routes).near_all(locations, cfg.route_near_m)
    return [adjust_params(altitude, dist_poi, dist_route, lookup_ffdi(p, grid), cfg)
            for p, (_, dist_poi), (dist_route, altitude) in zip(locations, nearest_pois, near)]


def risk_flags(altitude_m: float, ffdi: float | None, flood_alt_m: float,
               ffdi_threshold: float) -> tuple[bool, bool | None]:
    """(flood, fire): flood below flood_alt_m, never for a NaN (unknown)
    altitude; fire at or above ffdi_threshold, None for an unknown FFDI. The
    one flood/fire rule: adjust_params and the written sites' flags both apply it."""
    return altitude_m < flood_alt_m, None if ffdi is None else ffdi >= ffdi_threshold


def adjust_params(altitude_m: float, dist_poi_m: float, dist_route_m: float,
                  ffdi: float | None, cfg: ConstraintConfig) -> AdjustedParams:
    """Threshold-gated multiplicative adjustment with clamps.

    POI or route proximity eases cluster formation (tighter radius, lower
    density threshold); flood-prone altitude and high fire-risk cells, as
    risk_flags flags them, demand more evidence (higher density threshold).
    """
    eps = cfg.base_eps_m
    m = float(cfg.base_minpts)
    if dist_poi_m <= cfg.poi_near_m:
        eps *= cfg.eps_factor_poi
        m *= cfg.minpts_factor_poi
    if dist_route_m <= cfg.route_near_m:
        m *= cfg.minpts_factor_route
    flood, fire = risk_flags(altitude_m, ffdi, cfg.flood_alt_m, cfg.ffdi_threshold)
    if flood:
        m *= cfg.minpts_factor_flood
    if fire:
        m *= cfg.minpts_factor_fire
    eps = min(cfg.eps_max_m, max(cfg.eps_min_m, eps))
    minpts = max(cfg.minpts_min, math.ceil(m))
    return AdjustedParams(eps, minpts)
