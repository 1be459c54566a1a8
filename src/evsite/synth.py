"""Seeded synthetic scenarios: all six input layers plus a ground-truth manifest.

LGAs tile a bounding box in a rows x cols rectangular grid; demand hotspots
are planted inside each LGA with Gaussian scatter, and the manifest records
their true centers so recovery is checkable.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from pathlib import Path

from .geo import GeoPoint, METERS_PER_DEG, BoundingBox, haversine_distance
from .ingest import (
    FireRiskGrid,
    InputError,
    LgaRecord,
    MultiPolygon,
    PoiRecord,
    Polygon,
    RouteRecord,
    StationRecord,
    TripRecord,
    read_settings,
    save_fire_grid,
    save_lgas,
    save_pois,
    save_routes,
    save_stations,
    save_trips,
    shown,
    write_json,
)
from .rng import Rng

# the most route vertices, fire cells, LGA ring vertices, points and
# stations a scenario may hold in all; a larger one is refused, since
# generate would build it until memory runs out
MAX_GENERATED = 1_000_000

POI_CYCLE = ("fuel", "fast_food", "tourism")
STATION_CYCLE = ("existing_fast", "existing_destination", "approved")

# (ScenarioSpec fields, test, what the test asks) checked at construction
_RANGES = (
    (("lga_rows", "lga_cols", "ffdi_rows", "ffdi_cols"), lambda v: v >= 1, ">= 1"),
    (("n_hotspots_per_lga", "points_per_hotspot_min", "points_per_hotspot_max",
      "background_noise_points", "n_stations_per_lga"), lambda v: v >= 0, ">= 0"),
    (("route_spacing_deg", "route_vertex_step_deg"), lambda v: v > 0, "> 0"),
    (("poi_per_hotspot_prob", "ffdi_missing_prob"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
)


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    bbox: tuple[float, float, float, float] = (-35.0, 149.0, -33.0, 151.0)  # min_lat, min_lon, max_lat, max_lon
    lga_rows: int = 2
    lga_cols: int = 2
    n_hotspots_per_lga: int = 3
    points_per_hotspot_min: int = 40
    points_per_hotspot_max: int = 40
    hotspot_sigma_m: float = 150.0
    background_noise_points: int = 200
    poi_per_hotspot_prob: float = 0.5
    n_stations_per_lga: int = 2
    route_spacing_deg: float = 0.02
    route_vertex_step_deg: float = 0.02
    altitude_base_m: float = 50.0
    altitude_amplitude_m: float = 40.0
    ffdi_rows: int = 20
    ffdi_cols: int = 20
    ffdi_max: float = 4.0
    ffdi_missing_prob: float = 0.05

    def __post_init__(self):
        """Each field in its range, else InputError naming the key: a route
        step of 0 would never end the route loops of generate, and a scenario
        past MAX_GENERATED would not end them in time."""
        for keys, ok, text in _RANGES:
            for key in keys:
                value = getattr(self, key)
                if not ok(value):
                    raise InputError(f"{key} must be {text}, got {shown(value)}")
        min_lat, min_lon, max_lat, max_lon = self.bbox
        if not (-90.0 <= min_lat <= max_lat <= 90.0
                and -180.0 <= min_lon <= max_lon <= 180.0):
            raise InputError("bbox must be [min_lat, min_lon, max_lat, max_lon] with "
                             "-90 <= min_lat <= max_lat <= 90 and "
                             f"-180 <= min_lon <= max_lon <= 180, got {shown(list(self.bbox))}")
        if self.points_per_hotspot_min > self.points_per_hotspot_max:
            raise InputError("points_per_hotspot_min must be <= points_per_hotspot_max")
        # what generate builds, the route grid give or take a line and a
        # vertex per line; a float, as a tiny step makes the grid infinite
        lines = (max_lat - min_lat) // self.route_spacing_deg + 1
        per_line = (max_lon - min_lon) // self.route_vertex_step_deg + 1
        tiles = self.lga_rows * self.lga_cols
        sizes = (
            (lines * per_line, "route_spacing_deg and route_vertex_step_deg", "route vertices"),
            (self.ffdi_rows * self.ffdi_cols, "ffdi_rows and ffdi_cols", "fire cells"),
            # a tile's ring has 5 vertices, and a tile costs about as much to
            # build as 5 route vertices or points
            (5 * tiles, "lga_rows and lga_cols", "LGA ring vertices"),
            (tiles * self.n_hotspots_per_lga * self.points_per_hotspot_max,
             "lga_rows, lga_cols, n_hotspots_per_lga and points_per_hotspot_max",
             "planted points"),
            (self.background_noise_points, "background_noise_points", "noise points"),
            (tiles * self.n_stations_per_lga, "lga_rows, lga_cols and n_stations_per_lga",
             "stations"),
        )
        # capped before the sum, which a float and a huge int would overflow
        if sum(min(n, MAX_GENERATED + 1) for n, _, _ in sizes) > MAX_GENERATED:
            n, keys, what = max(sizes)
            count = f"{n:.0f}" if n <= MAX_GENERATED else f"more than {MAX_GENERATED}"
            raise InputError(f"{keys}: {count} {what}; the scenario would hold more than "
                             f"{MAX_GENERATED} route vertices, fire cells, LGA ring "
                             "vertices, points and stations in all")

    @staticmethod
    def from_dict(doc) -> "ScenarioSpec":
        """The spec a JSON object sets, read by ingest.read_settings against
        the fields' defaults; else InputError naming the key."""
        defaults = {f.name: f.default for f in fields(ScenarioSpec)}
        return ScenarioSpec(**read_settings(doc, defaults, "scenario spec", ""))


@dataclass
class Hotspot:
    lga_name: str
    center: GeoPoint
    planted_points: int
    has_poi: bool


@dataclass
class ScenarioManifest:
    seed: int
    hotspots: list[Hotspot]
    layer_counts: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "hotspots": [{"lga_name": h.lga_name,
                          "center": [h.center.lat, h.center.lon],
                          "planted_points": h.planted_points,
                          "has_poi": h.has_poi}
                         for h in self.hotspots],
            "layer_counts": dict(self.layer_counts),
        }


def _altitude_at(spec: ScenarioSpec, lat: float, lon: float) -> float:
    min_lat, min_lon, max_lat, max_lon = spec.bbox
    u = (lat - min_lat) / max(1e-12, max_lat - min_lat)
    v = (lon - min_lon) / max(1e-12, max_lon - min_lon)
    alt = (spec.altitude_base_m
           + spec.altitude_amplitude_m * math.sin(2 * math.pi * u)
           + spec.altitude_amplitude_m * math.cos(2 * math.pi * v))
    return max(-100.0, min(3000.0, alt))


def _lga_tiles(spec: ScenarioSpec) -> list[tuple[str, BoundingBox]]:
    min_lat, min_lon, max_lat, max_lon = spec.bbox
    dlat = (max_lat - min_lat) / spec.lga_rows
    dlon = (max_lon - min_lon) / spec.lga_cols
    # zero-padded so that names stay distinct past 10 rows or columns; grids
    # up to 10x10 keep their single-digit names
    width = len(str(max(spec.lga_rows, spec.lga_cols) - 1))
    tiles = []
    for r in range(spec.lga_rows):
        for c in range(spec.lga_cols):
            name = f"LGA-{r:0{width}d}{c:0{width}d}"
            tiles.append((name, BoundingBox(min_lat + r * dlat, min_lon + c * dlon,
                                            min_lat + (r + 1) * dlat,
                                            min_lon + (c + 1) * dlon)))
    return tiles


def _tile_polygon(box: BoundingBox) -> MultiPolygon:
    ring = (GeoPoint(box.min_lat, box.min_lon), GeoPoint(box.min_lat, box.max_lon),
            GeoPoint(box.max_lat, box.max_lon), GeoPoint(box.max_lat, box.min_lon),
            GeoPoint(box.min_lat, box.min_lon))
    return MultiPolygon((Polygon(ring),))


def _hotspot_centers(spec: ScenarioSpec, tile: BoundingBox, rng: Rng) -> list[GeoPoint]:
    """Well-separated anchor positions inside the tile with mild jitter."""
    anchors = [(0.25, 0.25), (0.75, 0.5), (0.3, 0.8), (0.7, 0.15), (0.5, 0.65),
               (0.15, 0.55), (0.85, 0.85), (0.45, 0.1), (0.6, 0.35), (0.2, 0.9)]
    h = tile.max_lat - tile.min_lat
    w = tile.max_lon - tile.min_lon
    centers = []
    for i in range(spec.n_hotspots_per_lga):
        fy, fx = anchors[i % len(anchors)]
        jitter = 0.02
        centers.append(GeoPoint(
            tile.min_lat + h * (fy + rng.uniform(-jitter, jitter)),
            tile.min_lon + w * (fx + rng.uniform(-jitter, jitter))))
    return centers


def _scatter(rng: Rng, center: GeoPoint, sigma_m: float) -> GeoPoint:
    """A Gaussian offset of center; a longitude past +-180 wraps by 360, and a
    latitude off the globe is an InputError naming the keys that put it there."""
    dlat = rng.normal(0.0, sigma_m) / METERS_PER_DEG
    dlon = rng.normal(0.0, sigma_m) / (METERS_PER_DEG * math.cos(math.radians(center.lat)))
    lat, lon = center.lat + dlat, center.lon + dlon
    if not -180.0 <= lon <= 180.0 and math.isfinite(lon):
        lon = math.remainder(lon, 360.0)
    if not (-90.0 <= lat <= 90.0 and math.isfinite(lon)):
        raise InputError("hotspot_sigma_m and bbox scatter a point off the globe, "
                         f"to latitude {lat}, longitude {lon}")
    return GeoPoint(lat, lon)


def generate(spec: ScenarioSpec, out_dir) -> ScenarioManifest:
    """Write trips, stations, LGAs, POIs, routes, and the fire grid plus
    manifest.json into out_dir; byte-identical for identical specs."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = Rng(spec.seed)
    min_lat, min_lon, max_lat, max_lon = spec.bbox
    tiles = _lga_tiles(spec)

    lgas = [LgaRecord(name, _tile_polygon(box)) for name, box in tiles]

    hotspots: list[Hotspot] = []
    trips: list[TripRecord] = []
    pois: list[PoiRecord] = []
    stations: list[StationRecord] = []
    trip_seq = 0
    for name, box in tiles:
        for center in _hotspot_centers(spec, box, rng):
            n_points = rng.randint(spec.points_per_hotspot_min,
                                   spec.points_per_hotspot_max)
            n_trips = n_points // 2
            for _ in range(n_trips):
                a = _scatter(rng, center, spec.hotspot_sigma_m)
                b = _scatter(rng, center, spec.hotspot_sigma_m)
                t0 = 1_600_000_000 + trip_seq * 10_000
                trips.append(TripRecord(f"trip-{trip_seq:06d}", [t0, t0 + 600],
                                        [a.lat, b.lat], [a.lon, b.lon]))
                trip_seq += 1
            has_poi = rng.random() < spec.poi_per_hotspot_prob
            if has_poi:
                pois.append(PoiRecord(f"poi-{len(pois):04d}",
                                      POI_CYCLE[len(pois) % len(POI_CYCLE)], center))
            hotspots.append(Hotspot(name, center, 2 * n_trips, has_poi))
        # stations sit near tile corners, far from the planted hotspot anchors
        h = box.max_lat - box.min_lat
        w = box.max_lon - box.min_lon
        for k in range(spec.n_stations_per_lga):
            fy, fx = ((0.05, 0.05), (0.95, 0.95), (0.05, 0.95), (0.95, 0.05))[k % 4]
            stations.append(StationRecord(
                f"station-{len(stations):04d}",
                STATION_CYCLE[len(stations) % len(STATION_CYCLE)],
                GeoPoint(box.min_lat + h * fy, box.min_lon + w * fx)))

    for _ in range(spec.background_noise_points // 2):
        a = GeoPoint(rng.uniform(min_lat, max_lat), rng.uniform(min_lon, max_lon))
        b = GeoPoint(rng.uniform(min_lat, max_lat), rng.uniform(min_lon, max_lon))
        t0 = 1_600_000_000 + trip_seq * 100_000
        # duration long enough that the implied speed survives cleaning
        dt = max(600, int(haversine_distance(a, b) / 25.0) + 1)
        trips.append(TripRecord(f"trip-{trip_seq:06d}", [t0, t0 + dt],
                                [a.lat, b.lat], [a.lon, b.lon]))
        trip_seq += 1

    routes = _build_routes(spec, hotspots)
    grid = _build_fire_grid(spec, rng)

    save_trips(out / "trips.csv", trips)
    save_lgas(out / "lgas.geojson", lgas)
    save_pois(out / "pois.geojson", pois)
    save_stations(out / "stations.geojson", stations)
    save_routes(out / "routes.geojson", routes)
    save_fire_grid(out / "fire_grid.json", grid)

    manifest = ScenarioManifest(
        seed=spec.seed, hotspots=hotspots,
        layer_counts={"trips": len(trips), "lgas": len(lgas), "pois": len(pois),
                      "stations": len(stations), "routes": len(routes),
                      "fire_grid_cells": len(grid.cells)})
    write_json(out / "manifest.json", manifest.as_dict())
    return manifest


def _route(spec: ScenarioSpec, route_id: str, lat: list[float],
           lon: list[float]) -> RouteRecord:
    return RouteRecord(route_id, array("d", lat), array("d", lon),
                       array("d", [_altitude_at(spec, y, x) for y, x in zip(lat, lon)]))


def _build_routes(spec: ScenarioSpec, hotspots: list[Hotspot]) -> list[RouteRecord]:
    """A west-east line grid across the bbox plus one short line through each
    hotspot center, so every hotspot has a nearby road."""
    min_lat, min_lon, max_lat, max_lon = spec.bbox
    routes = []
    lat = min_lat
    k = 0
    while lat <= max_lat + 1e-12:
        lons = []
        lon = min_lon
        while lon <= max_lon + 1e-12:
            lons.append(round(min(lon, max_lon), 9))
            lon += spec.route_vertex_step_deg
        if len(lons) >= 2:
            routes.append(_route(spec, f"grid-{k:04d}", [round(lat, 9)] * len(lons), lons))
        k += 1
        lat += spec.route_spacing_deg
    half = 0.05
    for i, h in enumerate(hotspots):
        lon0 = max(min_lon, h.center.lon - half)
        lon1 = min(max_lon, h.center.lon + half)
        routes.append(_route(spec, f"spur-{i:04d}", [h.center.lat] * 3,
                             [lon0, h.center.lon, lon1]))
    return routes


def _build_fire_grid(spec: ScenarioSpec, rng: Rng) -> FireRiskGrid:
    min_lat, min_lon, max_lat, max_lon = spec.bbox
    cells: list[float | None] = []
    for r in range(spec.ffdi_rows):
        for c in range(spec.ffdi_cols):
            if rng.random() < spec.ffdi_missing_prob:
                cells.append(None)
            else:
                u = (r + 0.5) / spec.ffdi_rows
                v = (c + 0.5) / spec.ffdi_cols
                value = spec.ffdi_max * (0.5 + 0.5 * math.sin(math.pi * u)
                                         * math.cos(math.pi * v))
                cells.append(round(value, 6))
    return FireRiskGrid(BoundingBox(min_lat, min_lon, max_lat, max_lon),
                        spec.ffdi_rows, spec.ffdi_cols, tuple(cells))
