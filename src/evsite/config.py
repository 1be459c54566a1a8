"""Run configuration: JSON document with strict key checking and full defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .constraints import ConstraintConfig
from .ingest import load_json


class ConfigError(ValueError):
    pass


LAYER_KEYS = ("trips", "stations", "lgas", "pois", "routes", "fire_grid")

DEFAULTS = {
    "cleaning": {"max_speed_mps": 60.0},
    "demand": {"dwell_radius_m": 100.0, "dwell_min_s": 600.0},
    "snap": {"poi_snap_m": 300.0, "route_snap_m": 1000.0},
    "dedup": {"enabled": True, "min_sep_m": 500.0},
    "classify": {"corridor_span_m": 10000.0},
    "evaluate": {"align_m": 1000.0, "coverage_radius_m": 3000.0},
}


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


# the JSON kind of a config value, by its Python type
_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string"}


def _section(doc: dict, name: str, defaults: dict) -> dict:
    """doc[name], an object whose keys are defaults' keys and whose values
    each have the JSON kind of their default."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")
    for key, value in section.items():
        kind = _KINDS[type(defaults[key])]
        if _KINDS.get(type(value)) != kind:
            raise ConfigError(f"config {name}.{key} must be {kind}, got {value!r}")
        if kind == "a number" and not _finite(value):
            raise ConfigError(f"config {name}.{key} must be a finite number, got {value!r}")
    return section


def _finite(x: int | float) -> bool:
    """Whether x is a finite float; json reads NaN and Infinity as floats, and an
    integer too long for a float has no finite float value either."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def load_config(path) -> RunConfig:
    path = Path(path)
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    top_allowed = {"layers", "constraints", "cleaning", "demand", "snap",
                   "dedup", "classify", "evaluate", "workers"}
    unknown = set(doc) - top_allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    layers_doc = _section(doc, "layers",
                          {**dict.fromkeys(LAYER_KEYS, ""), "trips_format": "csv"})
    missing = [k for k in LAYER_KEYS if k not in layers_doc]
    if missing:
        raise ConfigError(f"config layers: missing paths for {missing}")
    trips_format = layers_doc.get("trips_format", "csv")
    if trips_format not in ("csv", "geojson"):
        raise ConfigError("config layers.trips_format must be 'csv' or 'geojson', "
                          f"got {trips_format!r}")
    base = path.parent
    layers = {k: (base / layers_doc[k] if not Path(layers_doc[k]).is_absolute()
                  else Path(layers_doc[k])) for k in LAYER_KEYS}
    for k, p in layers.items():
        if not p.exists():
            raise ConfigError(f"layer {k!r}: file not found: {p}")

    constraints_doc = _section(doc, "constraints",
                               {f.name: f.default for f in fields(ConstraintConfig)})
    try:
        constraints = ConstraintConfig(**constraints_doc)
    except ValueError as e:
        raise ConfigError(f"invalid constraints: {e}") from e

    sections = {name: {**DEFAULTS[name], **_section(doc, name, DEFAULTS[name])}
                for name in DEFAULTS}
    # accepted for older configs; clustering runs on one thread whatever it says
    workers = doc.get("workers", 1)
    if type(workers) is not int or workers < 1:
        raise ConfigError("workers must be a positive integer")

    return RunConfig(
        layers=layers,
        trips_format=trips_format,
        constraints=constraints,
        max_speed_mps=float(sections["cleaning"]["max_speed_mps"]),
        dwell_radius_m=float(sections["demand"]["dwell_radius_m"]),
        dwell_min_s=float(sections["demand"]["dwell_min_s"]),
        poi_snap_m=float(sections["snap"]["poi_snap_m"]),
        route_snap_m=float(sections["snap"]["route_snap_m"]),
        dedup_enabled=sections["dedup"]["enabled"],
        min_sep_m=float(sections["dedup"]["min_sep_m"]),
        corridor_span_m=float(sections["classify"]["corridor_span_m"]),
        align_m=float(sections["evaluate"]["align_m"]),
        coverage_radius_m=float(sections["evaluate"]["coverage_radius_m"]),
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
