"""Spans and counters around evsite's public calls, installed from outside.

``Tracer.install()`` replaces module and class attributes of evsite with
wrappers and ``uninstall()`` puts the originals back. A span has a name, a
start, an end and a parent; counts go to the innermost open span. Spans stay
in memory until ``dump()`` writes them out.

Functions called once per point or pair (haversine, point-in-polygon,
projection, radius queries) only count; spans wrap the calls between layers,
plus ``RouteLocator.locate`` and ``SpatialIndex.nearest`` so that the radius
queries each makes are attributed to it.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import common  # noqa: F401  (puts the checkout's src/ on sys.path)
from evsite import cluster, config, constraints, evaluate, export, geo, ingest, pipeline, recommend


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "child_s")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.counts = defaultdict(int)
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # children of one span never overlap: the pipeline runs on one thread
        return self.duration - self.child_s


# (owner, attribute, span name, optional count taken from the return value)
SPANNED = [
    (config, "load_config", "config.load_config", None),
    (pipeline, "load_layers", "pipeline.load_layers", None),
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline, "write_outputs", "pipeline.write_outputs", None),
    (pipeline, "station_features", "pipeline.station_features", None),
    (pipeline, "write_evaluation", "pipeline.write_evaluation", None),
    (ingest, "load_trips", "ingest.load_trips",
     ("ingest.fixes_read", lambda r: sum(len(t.points) for t in r[0]) + len(r[1]))),
    (ingest, "load_stations", "ingest.load_stations", None),
    (ingest, "load_lgas", "ingest.load_lgas", None),
    (ingest, "load_pois", "ingest.load_pois", None),
    (ingest, "load_routes", "ingest.load_routes", None),
    (ingest, "load_fire_grid", "ingest.load_fire_grid", None),
    (ingest, "clean_trips", "ingest.clean_trips", None),
    (ingest, "extract_demand_points", "ingest.extract_demand_points",
     ("ingest.demand_points", len)),
    (ingest, "assign_lga", "ingest.assign_lga", None),
    (constraints, "annotate_context", "constraints.annotate_context", None),
    (constraints.RouteLocator, "__init__", "constraints.RouteLocator.build", None),
    (constraints.RouteLocator, "locate", "constraints.RouteLocator.locate", None),
    (cluster, "cluster_all", "cluster.cluster_all",
     ("cluster.clusters", lambda r: sum(x.assignment.cluster_count for x in r))),
    (cluster, "dbscan_lga", "cluster.dbscan_lga", None),
    (recommend, "propose_all", "recommend.propose_all", None),
    (recommend, "snap", "recommend.snap", None),
    (recommend, "dedup", "recommend.dedup", ("recommend.recommendations", len)),
    (evaluate, "build_report", "evaluate.build_report", None),
    (evaluate, "coverage", "evaluate.coverage", None),
    (evaluate, "alignment_rate", "evaluate.alignment_rate", None),
    (export, "export_map", "export.export_map", ("export.markers", int)),
    (geo.SpatialIndex, "nearest", "geo.nearest", None),
]

# (owners holding the name, attribute, counter)
COUNTED = [
    ((geo, ingest, constraints, recommend, evaluate), "haversine_distance",
     "geo.haversine_distance.calls"),
    ((geo, ingest, evaluate), "point_in_polygon", "geo.point_in_polygon.calls"),
    ((geo, constraints), "project_to_polyline", "geo.project_to_polyline.calls"),
    ((evaluate,), "locate_lga", "evaluate.locate_lga.calls"),
    ((constraints.RouteLocator,), "altitude_at", "constraints.RouteLocator.altitude_at.calls"),
]


class Tracer:
    def __init__(self):
        self.root = Span("trace", time.perf_counter(), None)
        self.current = self.root
        self.spans: list[Span] = []
        self._taken = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self.current)
        self.current = span
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.parent.child_s += span.end - span.start
        self.current = span.parent

    def job_spans(self) -> list[Span]:
        """Spans recorded since the previous call."""
        spans = self.spans[self._taken:]
        self._taken = len(self.spans)
        return spans

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name, result_count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if result_count is not None:
                span.counts[result_count[0]] += result_count[1](result)
            return result
        return wrapper

    def _counted(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.current.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _neighbors_within(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ids = fn(*args, **kwargs)
            counts = tracer.current.counts
            counts["geo.neighbors_within.calls"] += 1
            counts["geo.neighbors_within.ids"] += len(ids)
            return ids
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, result_count in SPANNED:
            self._replace(owner, attr, self._spanned(owner.__dict__[attr], name,
                                                     result_count))
        for owners, attr, key in COUNTED:
            wrapper = self._counted(owners[0].__dict__[attr], key)
            for owner in owners:
                self._replace(owner, attr, wrapper)
        self._replace(geo.SpatialIndex, "neighbors_within",
                      self._neighbors_within(geo.SpatialIndex.neighbors_within))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        rows = [[i, s.name, round(s.start - self.root.start, 7),
                 round(s.end - self.root.start, 7), ids.get(id(s.parent)),
                 dict(s.counts)]
                for i, s in enumerate(self.spans)]
        with open(path, "w") as f:
            json.dump({"columns": ["id", "name", "start_s", "end_s", "parent", "counts"],
                       "spans": rows}, f, separators=(",", ":"))
            f.write("\n")


LAYERS = ("ingest", "constraints", "cluster", "recommend", "evaluate")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer figures of one job from the spans it recorded."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    totals: dict[str, int] = defaultdict(int)
    for s in spans:
        by_name[s.name].append(s)
        for k, v in s.counts.items():
            totals[k] += v

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def counted(names, key):
        return sum(s.counts[key] for n in names for s in by_name[n])

    m: dict[str, float] = {}
    for name in ("config.load_config", "ingest.load_trips", "ingest.load_routes",
                 "ingest.load_lgas", "ingest.clean_trips",
                 "ingest.extract_demand_points", "ingest.assign_lga",
                 "constraints.annotate_context", "cluster.cluster_all",
                 "recommend.propose_all", "recommend.snap", "recommend.dedup",
                 "evaluate.build_report", "evaluate.coverage",
                 "evaluate.alignment_rate", "pipeline.write_outputs",
                 "pipeline.station_features", "pipeline.write_evaluation",
                 "export.export_map"):
        m[f"{name}.s"] = seconds(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(s.self_s for s in spans
                                   if s.name.startswith(layer + "."))
    builds = by_name["constraints.RouteLocator.build"]
    m["constraints.RouteLocator.builds"] = len(builds)
    m["constraints.RouteLocator.build_s"] = sum(s.duration for s in builds)
    locates = by_name["constraints.RouteLocator.locate"]
    m["constraints.RouteLocator.locate.calls"] = len(locates)
    m["constraints.RouteLocator.locate.candidates_per_call"] = (
        counted(["constraints.RouteLocator.locate"], "geo.neighbors_within.ids")
        / max(1, len(locates)))
    m["constraints.RouteLocator.altitude_at.calls"] = totals[
        "constraints.RouteLocator.altitude_at.calls"]
    dbscans = by_name["cluster.dbscan_lga"]
    m["cluster.dbscan_lga.calls"] = len(dbscans)
    m["cluster.dbscan_lga.max_s"] = max((s.duration for s in dbscans), default=0.0)
    m["cluster.neighbors_per_query"] = (
        counted(["cluster.dbscan_lga"], "geo.neighbors_within.ids")
        / max(1, counted(["cluster.dbscan_lga"], "geo.neighbors_within.calls")))
    m["cluster.clusters"] = totals["cluster.clusters"]
    m["recommend.snap.calls"] = len(by_name["recommend.snap"])
    m["recommend.recommendations"] = totals["recommend.recommendations"]
    m["evaluate.locate_lga.calls"] = totals["evaluate.locate_lga.calls"]
    m["ingest.fixes_read"] = totals["ingest.fixes_read"]
    m["ingest.demand_points"] = totals["ingest.demand_points"]
    m["export.markers"] = totals["export.markers"]
    m["geo.nearest.calls"] = len(by_name["geo.nearest"])
    for key in ("geo.haversine_distance.calls", "geo.neighbors_within.calls",
                "geo.neighbors_within.ids", "geo.point_in_polygon.calls",
                "geo.project_to_polyline.calls"):
        m[key] = totals[key]
    return m


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_per_call") or name.endswith("_per_query"):
        return "ids/call"
    if name.endswith("bytes"):
        return "bytes"
    return "count"
