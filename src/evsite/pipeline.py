"""End-to-end orchestration shared by the CLI commands."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from . import cluster, constraints, evaluate, ingest, recommend
from .config import RunConfig
from .constraints import RouteLocator
from .geo import METERS_PER_DEG, GeoPoint, SpatialIndex
from .ingest import InputError, write_json

KIND_COLORS = {
    "existing_fast": "#00008B",
    "existing_destination": "#ADD8E6",
    "approved": "#008000",
    "recommended_fast": "#FF0000",
    "recommended_destination": "#FFA500",
}


@dataclass
class Layers:
    trips: list[ingest.TripRecord]
    trip_load_errors: list[str]
    stations: list[ingest.StationRecord]
    lgas: list[ingest.LgaRecord]
    pois: list[ingest.PoiRecord]
    routes: list[ingest.RouteRecord]
    fire_grid: ingest.FireRiskGrid


@dataclass
class PipelineResult:
    layers: Layers
    cleaning: ingest.CleaningSummary
    demand_points: list[ingest.DemandPoint]
    buckets: dict[str, list[ingest.DemandPoint]]
    unassigned: list[int]
    cluster_results: list[cluster.LgaClusterResult]
    recs_pre_dedup: list[recommend.Recommendation]
    recs_final: list[recommend.Recommendation]
    station_index: SpatialIndex


def load_layers(cfg: RunConfig) -> Layers:
    trips, errors = ingest.load_trips(cfg.layers["trips"], cfg.trips_format)
    return Layers(
        trips=trips,
        trip_load_errors=errors,
        stations=ingest.load_stations(cfg.layers["stations"]),
        lgas=ingest.load_lgas(cfg.layers["lgas"]),
        pois=ingest.load_pois(cfg.layers["pois"]),
        routes=ingest.load_routes(cfg.layers["routes"]),
        fire_grid=ingest.load_fire_grid(cfg.layers["fire_grid"]),
    )


def run_pipeline(cfg: RunConfig) -> PipelineResult:
    layers = load_layers(cfg)
    c = cfg.constraints
    if not layers.routes and (c.minpts_factor_flood != 1.0):
        raise InputError(f"routes layer {cfg.layers['routes']} is empty, so the "
                         "flood (altitude) adjustment has no altitude source")

    trips, cleaning = ingest.clean_trips(layers.trips, cfg.max_speed_mps)
    demand = ingest.extract_demand_points(trips, cfg.dwell_radius_m, cfg.dwell_min_s)
    bucket_ids, unassigned = ingest.assign_lga(demand, layers.lgas)

    poi_index = constraints.PoiIndex(layers.pois)
    # exact for any cell size: cells as wide as the widest radius it is asked
    # about, and no narrower than a metre so that min_sep_m = 0 works too
    station_index = SpatialIndex(
        [s.location.lat for s in layers.stations], [s.location.lon for s in layers.stations],
        max(cfg.min_sep_m, cfg.align_m, cfg.coverage_radius_m, 1.0) / METERS_PER_DEG)

    params = constraints.annotate_context(demand, poi_index, layers.routes, layers.fire_grid, c)
    # extract_demand_points numbers the points 0..n-1 in list order
    buckets = {name: [demand[i] for i in ids] for name, ids in bucket_ids.items()}
    bucket_params = {name: [params[i] for i in ids] for name, ids in bucket_ids.items()}

    results = cluster.cluster_all(buckets, bucket_params)
    recs_pre = recommend.propose_all(results, buckets, poi_index, layers.routes,
                                     cfg.poi_snap_m, cfg.route_snap_m, cfg.corridor_span_m)
    if cfg.dedup_enabled:
        recs_final = recommend.dedup(recs_pre, station_index, cfg.min_sep_m)
    else:
        recs_final = list(recs_pre)

    return PipelineResult(layers, cleaning, demand, buckets, unassigned,
                          results, recs_pre, recs_final, station_index)


def _json_value(v):
    """v, or None for a float that JSON does not have: NaN or an infinity."""
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _site_feature(site_id: str, location: GeoPoint, kind: str, lga_name: str,
                  layers: Layers, cfg: RunConfig, locator: RouteLocator, **props) -> dict:
    """The GeoJSON feature of a recommended or existing site: props plus its
    kind, LGA, the altitude and FFDI at its location and the flood and fire
    flags that constraints.risk_flags gives them."""
    c = cfg.constraints
    altitude = locator.altitude_at(location)
    ffdi = constraints.lookup_ffdi(location, layers.fire_grid)
    flood, fire = constraints.risk_flags(altitude, ffdi, c.flood_alt_m, c.ffdi_threshold)
    return {"id": site_id, **ingest._point_feature(location, {
        "kind": kind,
        "color": KIND_COLORS[kind],
        "altitude_m": _json_value(altitude),
        "ffdi_delta": ffdi,
        "flood_flag": flood,
        "fire_flag": fire,
        "lga_name": lga_name,
        **props,
    })}


def recommendations_features(result: PipelineResult, cfg: RunConfig,
                             locator: RouteLocator) -> list[dict]:
    return [_site_feature(r.rec_id, r.location, f"recommended_{r.charger_kind}", r.lga_name,
                          result.layers, cfg, locator, cluster_size=r.cluster_size,
                          snap_target=r.snap_target, snap_dist_m=_json_value(r.snap_dist_m))
            for r in result.recs_final]


def station_features(result: PipelineResult, cfg: RunConfig,
                     locator: RouteLocator) -> list[dict]:
    return [_site_feature(s.station_id, s.location, s.kind,
                          evaluate.locate_lga(s.location, result.layers.lgas),
                          result.layers, cfg, locator, cluster_size=None, snap_target=None)
            for s in sorted(result.layers.stations, key=lambda s: s.station_id)]


def write_outputs(result: PipelineResult, cfg: RunConfig, out_dir) -> dict:
    """Write recommendations.geojson, stations.geojson, run_summary.json.

    Outputs are sorted and timing-free, so identical inputs give identical bytes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # one locator gives every written site its altitude
    locator = RouteLocator(result.layers.routes)
    ingest.write_feature_collection(out / "recommendations.geojson",
                                    recommendations_features(result, cfg, locator))
    ingest.write_feature_collection(out / "stations.geojson",
                                    station_features(result, cfg, locator))
    summary = {
        "config": cfg.raw,
        "cleaning": result.cleaning.as_dict(),
        "trip_load_errors": len(result.layers.trip_load_errors),
        "demand_points": len(result.demand_points),
        "unassigned_points": len(result.unassigned),
        "per_lga_clusters": {r.lga_name: r.assignment.cluster_count
                             for r in result.cluster_results},
        "recommendations_pre_dedup": len(result.recs_pre_dedup),
        "recommendations": len(result.recs_final),
    }
    write_json(out / "run_summary.json", summary)
    return summary


def write_evaluation(result: PipelineResult, cfg: RunConfig, out_dir) -> evaluate.EvaluationReport:
    if not result.demand_points:
        raise InputError(f"trips layer {cfg.layers['trips']} gives no demand points to evaluate")
    report = evaluate.build_report(
        result.demand_points, result.layers.lgas, result.layers.stations,
        result.station_index, result.recs_pre_dedup, result.recs_final,
        cfg.align_m, cfg.coverage_radius_m)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_json(out / "evaluation.json", report.as_dict())
    (out / "evaluation.txt").write_text(report.as_table(), encoding="utf-8")
    return report
