"""Run configuration: JSON document with strict key checking and full defaults."""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .constraints import ConstraintConfig
from .ingest import InputError, load_json, read_settings, shown


LAYER_KEYS = ("trips", "stations", "lgas", "pois", "routes", "fire_grid")

DEFAULTS = {
    "cleaning": {"max_speed_mps": 60.0},
    "demand": {"dwell_radius_m": 100.0, "dwell_min_s": 600.0},
    "snap": {"poi_snap_m": 300.0, "route_snap_m": 1000.0},
    "dedup": {"enabled": True, "min_sep_m": 500.0},
    "classify": {"corridor_span_m": 10000.0},
    "evaluate": {"align_m": 1000.0, "coverage_radius_m": 3000.0},
}

# the settings of DEFAULTS that have a range: > 0, or >= 0 for min_sep_m
RANGES = {**dict.fromkeys(("cleaning.max_speed_mps", "demand.dwell_radius_m",
                           "demand.dwell_min_s", "snap.poi_snap_m", "snap.route_snap_m",
                           "evaluate.align_m", "evaluate.coverage_radius_m"), "> 0"),
          "dedup.min_sep_m": ">= 0"}


@dataclass
class RunConfig:
    """A loaded config: load_config sets every field, from DEFAULTS where the
    document is silent."""

    layers: dict[str, Path]
    trips_format: str
    constraints: ConstraintConfig
    max_speed_mps: float
    dwell_radius_m: float
    dwell_min_s: float
    poi_snap_m: float
    route_snap_m: float
    dedup_enabled: bool
    min_sep_m: float
    corridor_span_m: float
    align_m: float
    coverage_radius_m: float
    raw: dict


# every section of a config, with the defaults that give its keys and their kinds
SECTIONS = {
    "layers": {**dict.fromkeys(LAYER_KEYS, ""), "trips_format": "csv"},
    "constraints": {f.name: f.default for f in fields(ConstraintConfig)},
    **DEFAULTS,
}


def load_config(path) -> RunConfig:
    path = Path(path)
    doc = load_json(path)
    top = read_settings(doc, {**SECTIONS, "workers": 1}, f"config {path}", "config ")
    given = {name: read_settings(top.get(name, {}), defaults, f"config {name}")
             for name, defaults in SECTIONS.items()}
    # accepted for older configs; clustering runs on one thread whatever it says
    if top.get("workers", 1) < 1:
        raise InputError("config workers must be a positive integer")
    sections = {name: {**DEFAULTS[name], **given[name]} for name in DEFAULTS}
    for name, rule in RANGES.items():
        section, key = name.split(".")
        value = sections[section][key]
        if value < 0 or (value == 0 and rule == "> 0"):
            raise InputError(f"config {name} must be {rule}, got {shown(value)}")

    layers_doc = given["layers"]
    missing = [k for k in LAYER_KEYS if k not in layers_doc]
    if missing:
        raise InputError(f"config layers: missing paths for {missing}")
    trips_format = layers_doc.get("trips_format", "csv")
    if trips_format not in ("csv", "geojson"):
        raise InputError("config layers.trips_format must be 'csv' or 'geojson', "
                         f"got {shown(trips_format)}")
    base = path.parent
    layers = {k: (base / layers_doc[k] if not Path(layers_doc[k]).is_absolute()
                  else Path(layers_doc[k])) for k in LAYER_KEYS}
    for k, p in layers.items():
        if not p.exists() or p.is_dir():
            raise InputError(f"layer {k!r}: file not found: {p}")

    try:
        constraints = ConstraintConfig(**given["constraints"])
    except InputError as e:
        raise InputError(f"invalid constraints: {e}") from e

    return RunConfig(
        layers=layers,
        trips_format=trips_format,
        constraints=constraints,
        max_speed_mps=sections["cleaning"]["max_speed_mps"],
        dwell_radius_m=sections["demand"]["dwell_radius_m"],
        dwell_min_s=sections["demand"]["dwell_min_s"],
        poi_snap_m=sections["snap"]["poi_snap_m"],
        route_snap_m=sections["snap"]["route_snap_m"],
        dedup_enabled=sections["dedup"]["enabled"],
        min_sep_m=sections["dedup"]["min_sep_m"],
        corridor_span_m=sections["classify"]["corridor_span_m"],
        align_m=sections["evaluate"]["align_m"],
        coverage_radius_m=sections["evaluate"]["coverage_radius_m"],
        raw=doc,
    )


def default_config_dict(scenario_dir: str = ".") -> dict:
    """A complete config document pointing at a scenario directory's files."""
    d = Path(scenario_dir)
    return {
        "layers": {
            "trips": str(d / "trips.csv"),
            "stations": str(d / "stations.geojson"),
            "lgas": str(d / "lgas.geojson"),
            "pois": str(d / "pois.geojson"),
            "routes": str(d / "routes.geojson"),
            "fire_grid": str(d / "fire_grid.json"),
        },
        "constraints": {},
        **{k: dict(v) for k, v in DEFAULTS.items()},
        "workers": 1,
    }
