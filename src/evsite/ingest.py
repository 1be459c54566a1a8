"""Load, validate, and clean the six input layers; extract demand points; assign LGAs."""

from __future__ import annotations

import csv
import io
import json
import math
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice, repeat
from operator import le, lt
from pathlib import Path

from .geo import (
    _DEG,
    _DIAMETER_M,
    BoundingBox,
    GeoPoint,
    MultiPolygon,
    Polygon,
    bbox_of_rings,
    point_in_polygon,
    segment_reaches,
)
# tracing patches this here by name; the trip path inlines the formula instead
from .geo import haversine_distance  # noqa: F401

STATION_KINDS = ("existing_fast", "existing_destination", "approved")
POI_CATEGORIES = ("fast_food", "fuel", "tourism")

TRIPS_CSV_HEADER = ["trip_id", "timestamp", "lat", "lon"]
UNASSIGNED_LGA = "(unassigned)"


class IngestError(ValueError):
    """Schema or content violation in an input file."""


def shown(value) -> str:
    """What a message echoes of an input value: its repr, or, past 60
    characters, the repr's first 60 and its length."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} characters)"


@dataclass(frozen=True)
class TripRecord:
    """A trip as parallel list columns: fix i was at (lat[i], lon[i]) at
    timestamps[i], in epoch seconds. The readers check each fix as a
    GeoPoint does; the record checks the fix count and the order."""

    trip_id: str
    timestamps: list[int]
    lat: list[float]
    lon: list[float]

    def __post_init__(self):
        ts = self.timestamps
        if len(ts) < 2:
            raise IngestError(f"trip {self.trip_id}: needs >= 2 points")
        if all(map(lt, ts, islice(ts, 1, None))):
            return
        lat, lon = self.lat, self.lon
        for i in range(1, len(ts)):
            # strictly increasing, except exact duplicate fixes, which the
            # cleaning pass removes
            if ts[i] < ts[i - 1] or (ts[i] == ts[i - 1] and (
                    lat[i] != lat[i - 1] or lon[i] != lon[i - 1])):
                raise IngestError(
                    f"trip {self.trip_id}: timestamps not strictly increasing")

    @property
    def points(self) -> tuple[tuple[int, GeoPoint], ...]:
        """The fixes as (timestamp, GeoPoint) pairs, built on each call: for
        callers outside the trip path, which reads the columns."""
        return tuple(zip(self.timestamps, map(GeoPoint, self.lat, self.lon)))


@dataclass(frozen=True)
class StationRecord:
    station_id: str
    kind: str
    location: GeoPoint

    def __post_init__(self):
        if self.kind not in STATION_KINDS:
            raise IngestError(f"station {self.station_id}: unknown kind {shown(self.kind)}")


@dataclass(frozen=True)
class PoiRecord:
    poi_id: str
    category: str
    location: GeoPoint

    def __post_init__(self):
        if self.category not in POI_CATEGORIES:
            raise IngestError(f"POI {self.poi_id}: unknown category {shown(self.category)}")


@dataclass(frozen=True)
class RouteRecord:
    """A route as parallel array('d') columns: vertex i sits at (lat[i],
    lon[i]) at altitudes[i] meters. load_routes checks each vertex as a
    GeoPoint does; the record checks the vertex count and the altitudes."""

    route_id: str
    lat: array
    lon: array
    altitudes: array

    def __post_init__(self):
        if len(self.lat) < 2:
            raise IngestError(f"route {self.route_id}: needs >= 2 vertices")
        if len(self.altitudes) != len(self.lat):
            raise IngestError(f"route {self.route_id}: altitudes length mismatch")
        for a in self.altitudes:
            if not math.isfinite(a) or not -100.0 <= a <= 3000.0:
                raise IngestError(f"route {self.route_id}: altitude {a} out of range")

    @cached_property
    def segment_reach_m(self) -> array:
        """For each segment, vertex i to vertex i + 1, the distance in meters
        within which every point of it lies of one of its ends (see
        geo.segment_reaches), computed on first use."""
        return segment_reaches(self.lat, self.lon)


@dataclass(frozen=True)
class LgaRecord:
    lga_name: str
    boundary: MultiPolygon

    @cached_property
    def bbox(self) -> BoundingBox:
        return bbox_of_rings([r for p in self.boundary.polygons for r in p.rings()])


@dataclass(frozen=True)
class FireRiskGrid:
    bbox: BoundingBox
    n_rows: int
    n_cols: int
    cells: tuple[float | None, ...]  # row-major, row 0 at min_lat

    def __post_init__(self):
        if self.n_rows < 1 or self.n_cols < 1:
            raise IngestError("fire grid needs n_rows, n_cols >= 1")
        if self.n_rows * self.n_cols != len(self.cells):
            raise IngestError("fire grid len(cells) != n_rows * n_cols")


@dataclass(frozen=True)
class DemandPoint:
    point_id: int
    location: GeoPoint
    source_trip: str
    kind: str  # origin | destination | dwell


@dataclass
class CleaningSummary:
    duplicate_fixes_removed: int = 0
    speed_fixes_removed: int = 0
    trips_dropped: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# trips

def load_trips(path, format: str = "csv") -> tuple[list[TripRecord], list[str]]:
    """Parse trips; returns (records, malformed-row messages).

    Malformed rows are dropped and reported; more than 50% malformed is a
    corrupt-input error.
    """
    path = Path(path)
    if format == "csv":
        try:
            by_trip, bad = _read_trip_csv(path)
        except UnicodeDecodeError as e:
            raise _not_utf8(path, e) from e
    elif format == "geojson":
        by_trip, bad = _read_trip_geojson(path)
    else:
        raise IngestError(f"unknown trips format {format!r}")

    total = sum(len(ts) for ts, _, _ in by_trip.values()) + len(bad)
    if total and len(bad) > total / 2:
        raise IngestError(
            f"corrupt input {path}: {len(bad)} of {total} rows malformed")

    trips = []
    for trip_id in sorted(by_trip):
        ts, lat, lon = by_trip[trip_id]
        if len(ts) < 2:
            bad.append(f"trip {trip_id}: fewer than 2 valid points, dropped")
            continue
        if not all(map(le, ts, islice(ts, 1, None))):
            # a stable sort by timestamp alone: fixes that share one are
            # either all equal, and interchangeable, or make TripRecord fail
            # whatever their order
            order = sorted(range(len(ts)), key=ts.__getitem__)
            ts, lat, lon = ([c[i] for i in order] for c in (ts, lat, lon))
        try:
            trips.append(TripRecord(trip_id, ts, lat, lon))
        except IngestError as e:
            bad.append(f"{e}, dropped")
    return trips, bad


def _read_trip_csv(path: Path):
    """(trip_id -> (timestamps, lats, lons) in row order, malformed-row
    messages)."""
    by_trip: dict[str, tuple[list[int], list[float], list[float]]] = {}
    bad = []
    with open(path, "rb") as f:
        plain = _plain_file(f)
        f.seek(0)
        reader = csv.reader(io.TextIOWrapper(f, encoding="utf-8", newline=""))
        try:
            header = next(reader, None)
        except csv.Error as e:
            raise IngestError(f"{path}: header: {e}") from e
        if header != TRIPS_CSV_HEADER:
            raise IngestError(f"{path}: expected header {TRIPS_CSV_HEADER}, got {shown(header)}")
        while True:
            lineno = reader.line_num + 1    # where the next record starts
            try:
                row = next(reader)
            except StopIteration:
                break
            except csv.Error as e:
                # a field past the csv module's size limit, say: the reader
                # goes on at the next line
                bad.append(f"{path}:{lineno}: {e}")
                continue
            if not row:
                continue
            try:
                if len(row) != 4:
                    raise ValueError(f"expected 4 columns, got {len(row)}")
                trip_id, ts, lat, lon = row
                if plain or _plain(ts):
                    try:
                        ts = int(ts)
                    except ValueError:
                        pass
                # a str left here is no plain integer numeral: the rule refuses it
                ts = _json_number(ts, "timestamp", integral=True, bits64=True)
                try:
                    if not (plain or (_plain(lat) and _plain(lon))):
                        raise ValueError
                    y, x = float(lat), float(lon)
                except ValueError:
                    # float()'s own message would echo the whole field
                    raise _coordinate_error(lat, lon) from None
                if not (-90.0 <= y <= 90.0 and -180.0 <= x <= 180.0):
                    GeoPoint(y, x)  # raises, with GeoPoint's own message
            except ValueError as e:
                bad.append(f"{path}:{lineno}: {e}")
                continue
            columns = by_trip.get(trip_id)
            if columns is None:
                columns = by_trip[trip_id] = ([], [], [])
            columns[0].append(ts)
            columns[1].append(y)
            columns[2].append(x)
    return by_trip, bad


# bytes that can put what _plain refuses into a CSV field, besides any byte
# past ASCII: the underscore, every ASCII blank that does not end a line, and
# the quote, since only a quoted field can hold a line's end
_UNPLAIN_BYTES = b'_" \t\x0b\x0c\x1c\x1d\x1e\x1f'


def _plain_file(f) -> bool:
    """Whether the binary file f, read to its end, is all ASCII and holds no
    byte of _UNPLAIN_BYTES after the header's first name, whose underscore
    is no numeral's. Then every field of the CSV in it is plain, and none
    need be tested: a few scans in C per 64 KiB instead of nine tests a row."""
    block = f.read(1 << 16).removeprefix(b"trip_id,")
    while block:
        if not block.isascii() or any(b in block for b in _UNPLAIN_BYTES):
            return False
        block = f.read(1 << 16)
    return True


def _plain(text: str) -> bool:
    """Whether a CSV numeral is written plainly: ASCII, with no digit-group
    underscore and no blank at either end, all of which int() and float()
    would take. The tests cost no regex and no copy: isascii reads a flag,
    the membership test is one scan in C, and strip looks at the ends only
    and returns text itself when there is nothing to strip."""
    return text.isascii() and "_" not in text and text.strip() == text


def _coordinate_error(lat: str, lon: str) -> ValueError:
    """The error for a CSV row whose lat or lon is not a plain numeral that
    float() takes: it names the first such field and echoes it as shown does."""
    key, text = "lon", lon
    try:
        if not _plain(lat):
            raise ValueError
        float(lat)
    except ValueError:
        key, text = "lat", lat
    return ValueError(f"{key} must be a number, got {shown(text)}")


def _read_trip_geojson(path: Path):
    """As _read_trip_csv, a feature's fixes counting as rows."""
    def fixes(feat: dict) -> tuple[str, list[int], list[float], list[float]]:
        trip_id = str(_prop(feat, "trip_id"))
        timestamps = _prop(feat, "timestamps")
        lat, lon = _columns(_geometry(feat, "LineString"))
        if len(lat) != len(timestamps):
            raise ValueError("timestamps length != coordinate count")
        # a malformed feature is dropped whole, none of its fixes kept
        return trip_id, [_json_number(ts, "timestamp", integral=True, bits64=True)
                         for ts in timestamps], lat.tolist(), lon.tolist()

    by_trip: dict[str, tuple[list[int], list[float], list[float]]] = {}
    bad = []
    for trip_id, *read in _read_features(path, fixes, bad):
        columns = by_trip.setdefault(trip_id, ([], [], []))
        for column, values in zip(columns, read):
            column.extend(values)
    return by_trip, bad


def save_trips(path, trips: list[TripRecord]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(TRIPS_CSV_HEADER)
        for trip in trips:
            w.writerows(zip(repeat(trip.trip_id), trip.timestamps,
                            map(repr, trip.lat), map(repr, trip.lon)))


def clean_trips(trips: list[TripRecord],
                max_speed_mps: float) -> tuple[list[TripRecord], CleaningSummary]:
    """Drop duplicate consecutive fixes and physically implausible jumps.

    The speed test measures from the last kept fix with haversine_distance
    inlined over the trip's columns, the very same doubles: radians(lat) and
    cos(lat) are taken once per fix. A trip that keeps every fix is passed
    on as it is; any other is rebuilt from the indices of the fixes kept."""
    if max_speed_mps <= 0:
        raise IngestError("max_speed_mps must be > 0")
    summary = CleaningSummary()
    out = []
    sin, cos, sqrt, asin = math.sin, math.cos, math.sqrt, math.asin
    for trip in trips:
        ts, lat, lon = trip.timestamps, trip.lat, trip.lon
        rad = [y * _DEG for y in lat]
        cos_lat = list(map(cos, rad))
        kept = [0]
        k = 0  # index of the last kept fix
        prev_ts = ts[0]
        for i in range(1, len(ts)):
            t = ts[i]
            if t == prev_ts and lat[i] == lat[k] and lon[i] == lon[k]:
                summary.duplicate_fixes_removed += 1
                continue
            dt = t - prev_ts
            if dt <= 0 or _DIAMETER_M * asin(s if (s := sqrt(
                    sin((rad[i] - rad[k]) / 2.0) ** 2
                    + cos_lat[k] * cos_lat[i] * sin((lon[i] - lon[k]) * _DEG / 2.0) ** 2)
                    ) < 1.0 else 1.0) / dt > max_speed_mps:
                summary.speed_fixes_removed += 1
                continue
            kept.append(i)
            k = i
            prev_ts = t
        if len(kept) == len(ts):
            out.append(trip)
        elif len(kept) < 2:
            summary.trips_dropped += 1
        else:
            out.append(TripRecord(trip.trip_id, *([c[i] for i in kept]
                                                  for c in (ts, lat, lon))))
    return out, summary


def _stay_lon(lon: list[float]) -> float:
    """The mean longitude of a stay, across the antimeridian too: each
    longitude is taken into the 360 degrees centred on the first, they are
    averaged, and a mean outside [-180, 180] is wrapped back into it. A stay
    whose longitudes span at most 180 degrees moves none of them, so its
    mean is their plain mean."""
    first = lon[0]
    mean = sum(x - 360.0 if x - first > 180.0 else x + 360.0 if x - first < -180.0 else x
               for x in lon) / len(lon)
    return mean if -180.0 <= mean <= 180.0 else math.remainder(mean, 360.0)


def extract_demand_points(trips: list[TripRecord], dwell_radius_m: float,
                          dwell_min_s: float) -> list[DemandPoint]:
    """Origin, destination, and stay-point centroids for every trip.

    A stay is a maximal subsequence whose points all lie within dwell_radius_m
    of the subsequence's first point and which spans at least dwell_min_s;
    that distance is haversine_distance inlined over the trip's columns, the
    very same doubles. A stay's centroid is its mean latitude and _stay_lon.
    Ids are dense 0..n-1 in (trip_id, timestamp) order.
    """
    if dwell_radius_m <= 0 or dwell_min_s <= 0:
        raise IngestError("dwell parameters must be > 0")
    raw: list[tuple[str, int, int, float, float, str]] = []  # sort keys + payload
    sin, cos, sqrt, asin = math.sin, math.cos, math.sqrt, math.asin
    for trip in trips:
        trip_id, ts, lat, lon = trip.trip_id, trip.timestamps, trip.lat, trip.lon
        n = len(ts)
        rad = [y * _DEG for y in lat]
        cos_lat = list(map(cos, rad))
        raw.append((trip_id, ts[0], 0, lat[0], lon[0], "origin"))
        raw.append((trip_id, ts[-1], 2, lat[-1], lon[-1], "destination"))
        i = 0
        while i < n:
            r1, c1, o1 = rad[i], cos_lat[i], lon[i]
            j = i
            while j + 1 < n and _DIAMETER_M * asin(s if (s := sqrt(
                    sin((rad[j + 1] - r1) / 2.0) ** 2
                    + c1 * cos_lat[j + 1] * sin((lon[j + 1] - o1) * _DEG / 2.0) ** 2)
                    ) < 1.0 else 1.0) <= dwell_radius_m:
                j += 1
            if ts[j] - ts[i] >= dwell_min_s:
                raw.append((trip_id, ts[i], 1, sum(lat[i:j + 1]) / (j + 1 - i),
                            _stay_lon(lon[i:j + 1]), "dwell"))
            i = j + 1
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return [DemandPoint(i, GeoPoint(y, x), trip_id, kind)
            for i, (trip_id, _, _, y, x, kind) in enumerate(raw)]


# ---------------------------------------------------------------------------
# GeoJSON layers

# what reading a feature may raise: a missing key or index, a value of the
# wrong type, a bad value (GeoError and IngestError among them) and an
# integer too large for a float
_FEATURE_ERRORS = (LookupError, TypeError, ValueError, ArithmeticError)


def _read_features(path, make, bad: list[str] | None = None) -> list:
    """make(feature) for each feature of the FeatureCollection at path.

    A feature that make cannot read raises IngestError naming path and
    feature, or, given a list bad, is dropped with that message appended to it.
    """
    doc = load_json(path)
    if (not isinstance(doc, dict) or doc.get("type") != "FeatureCollection"
            or not isinstance(doc.get("features"), list)):
        raise IngestError(f"{path}: not a GeoJSON FeatureCollection")
    records = []
    for idx, feat in enumerate(doc["features"]):
        try:
            if not isinstance(feat, dict):
                raise ValueError("not a GeoJSON Feature")
            records.append(make(feat))
        except _FEATURE_ERRORS as e:
            if bad is None:
                raise IngestError(f"{path}: feature {idx}: {e}") from e
            bad.append(f"{path}: feature {idx}: {e}")
    return records


def load_json(path):
    """The JSON document at path, read as UTF-8 (RFC 8259 8.1): the one reader
    of every JSON input. Bytes that are not UTF-8, malformed JSON, an
    integer literal past the interpreter's digit limit and JSON nested too
    deeply to parse raise IngestError naming path; a file that cannot be
    opened raises OSError, which names it too."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except UnicodeDecodeError as e:
        raise _not_utf8(path, e) from e
    except ValueError as e:  # json.JSONDecodeError, or int()'s digit limit
        raise IngestError(f"{path}: not valid JSON: {e}") from e
    except RecursionError as e:
        raise IngestError(f"{path}: not valid JSON: nested too deeply") from e


def _not_utf8(path, e: UnicodeDecodeError) -> IngestError:
    """The error for a file that is not UTF-8, at the first bad byte of the
    whole file: a reader that decodes as it goes reports a position within
    the chunk it was decoding, so the file is read again here."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        at = whole.start
        line = data.count(b"\n", 0, at) + 1
        return IngestError(f"{path}: not UTF-8 text: byte 0x{data[at]:02x} at offset {at} "
                           f"(line {line}): {whole.reason}")
    return IngestError(f"{path}: not UTF-8 text: {e}")  # the file changed since


def _geometry(feat: dict, *types: str):
    """The coordinates of a feature whose geometry must be one of types."""
    geom = feat.get("geometry")
    if not isinstance(geom, dict) or geom.get("type") not in types:
        raise ValueError(f"geometry must be {' or '.join(types)}")
    if "coordinates" not in geom:
        raise ValueError(f"{geom['type']} geometry has no coordinates")
    return geom["coordinates"]


def _prop(feat: dict, key: str):
    props = feat.get("properties") or {}
    if not isinstance(props, dict):
        raise ValueError("properties must be an object")
    if key not in props:
        raise ValueError(f"missing property {key!r}")
    return props[key]


# the types json gives a JSON number; bool, a subclass of int, is not one
_JSON_NUMBERS = {float, int}


def _numbers(values: list, key: str) -> array:
    """A list of JSON numbers as doubles; else, at the first value that is
    not one or has no double, the error _json_number raises naming key."""
    if set(map(type, values)) <= _JSON_NUMBERS:
        try:
            return array("d", values)
        except OverflowError:
            pass
    return array("d", [_json_number(v, key) for v in values])


def _columns(coords) -> tuple[array, array]:
    """A list of GeoJSON positions as lat and lon columns. A position is
    [lon, lat, ...]: members past the second, such as an altitude, are
    ignored (RFC 7946 3.1.1). Each member must be a JSON number, and each
    position a valid GeoPoint.

    The columns are read and checked whole; when any check fails,
    _checked_columns reads the positions again one at a time, so the error
    raised is the first in position order."""
    try:
        lat = [c[1] for c in coords]
        lon = [c[0] for c in coords]
    except (IndexError, TypeError, KeyError):
        return _checked_columns(coords)
    # an int outside the ranges fails them before the sum could overflow, NaN
    # fails the sum's test, whatever min and max make of it, and an empty
    # list is read the slow way too
    if (lat and {*map(type, lat), *map(type, lon)} <= _JSON_NUMBERS
            and -90.0 <= min(lat) and max(lat) <= 90.0
            and -180.0 <= min(lon) and max(lon) <= 180.0
            and math.isfinite(sum(lat) + sum(lon))):
        return array("d", lat), array("d", lon)
    return _checked_columns(coords)


def _checked_columns(coords) -> tuple[array, array]:
    """_columns one position at a time, each checked in full before the next."""
    lat, lon = array("d"), array("d")
    try:
        for c in coords:
            y = _json_number(c[1], "latitude")
            x = _json_number(c[0], "longitude")
            GeoPoint(y, x)  # for its checks, in their order
            lat.append(y)
            lon.append(x)
    except (IndexError, TypeError, KeyError) as e:
        # a short position, or a number or an object where one belongs
        raise ValueError("position must be [lon, lat, ...]") from e
    return lat, lon


def _positions(coords) -> tuple[GeoPoint, ...]:
    """A list of GeoJSON positions as GeoPoints (see _columns)."""
    return tuple(map(GeoPoint, *_columns(coords)))


def _point(feat: dict) -> GeoPoint:
    return _positions([_geometry(feat, "Point")])[0]


def _polygon(rings) -> Polygon:
    """A polygon none of whose ring edges spans more than 180 degrees of
    longitude: an edge is a straight line in lon/lat (RFC 7946 3.1.1), so an
    edge from lon 179.5 to -179.5 runs the long way round, and a ring that
    crosses the antimeridian must be split there (RFC 7946 3.1.9)."""
    if not isinstance(rings, list) or not rings:
        raise ValueError("polygon needs a list of rings")
    polygon = Polygon(_positions(rings[0]), tuple(map(_positions, rings[1:])))
    for ring in polygon.rings():
        for a, b in zip(ring, ring[1:]):
            if abs(b.lon - a.lon) > 180.0:
                raise ValueError(
                    f"ring edge from lon {a.lon} to lon {b.lon} spans more than "
                    "180 degrees; split a ring that crosses the antimeridian "
                    "there (RFC 7946 3.1.9)")
    return polygon


def load_lgas(path) -> list[LgaRecord]:
    seen = set()

    def lga(feat: dict) -> LgaRecord:
        name = str(_prop(feat, "lga_name"))
        if name in seen:
            raise ValueError(f"duplicate lga_name {shown(name)}")
        seen.add(name)
        coords = _geometry(feat, "Polygon", "MultiPolygon")
        polygons = [coords] if feat["geometry"]["type"] == "Polygon" else coords
        return LgaRecord(name, MultiPolygon(tuple(map(_polygon, polygons))))
    return _read_features(path, lga)


def load_pois(path) -> list[PoiRecord]:
    return _read_features(path, lambda feat: PoiRecord(
        str(_prop(feat, "poi_id")), str(_prop(feat, "category")), _point(feat)))


def load_stations(path) -> list[StationRecord]:
    return _read_features(path, lambda feat: StationRecord(
        str(_prop(feat, "station_id")), str(_prop(feat, "kind")), _point(feat)))


def load_routes(path) -> list[RouteRecord]:
    def route(feat: dict) -> RouteRecord:
        altitudes = _prop(feat, "altitudes")
        if type(altitudes) is not list:
            raise ValueError("altitudes must be an array")
        route_id = str(_prop(feat, "route_id"))
        lat, lon = _columns(_geometry(feat, "LineString"))
        return RouteRecord(route_id, lat, lon, _numbers(altitudes, "altitude"))
    return _read_features(path, route)


def load_fire_grid(path) -> FireRiskGrid:
    doc = load_json(path)
    try:
        bbox, cells = doc["bbox"], doc["cells"]
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ValueError("bbox must be [min_lon, min_lat, max_lon, max_lat]")
        if not isinstance(cells, list):
            raise ValueError("cells must be an array")
        min_lon, min_lat, max_lon, max_lat = (
            _json_number(v, f"bbox[{k}]", finite=True) for k, v in enumerate(bbox))
        if min_lon > max_lon:
            # lookup_ffdi tests BoundingBox.contains, which cannot wrap
            raise ValueError(f"bbox has min_lon {min_lon} > max_lon {max_lon}: a fire "
                             "grid may not cross the antimeridian")
        return FireRiskGrid(BoundingBox(min_lat, min_lon, max_lat, max_lon),
                            _json_number(doc["n_rows"], "n_rows", integral=True, bits64=True),
                            _json_number(doc["n_cols"], "n_cols", integral=True, bits64=True),
                            tuple(None if c is None
                                  else _json_number(c, f"cells[{k}]", finite=True)
                                  for k, c in enumerate(cells)))
    except _FEATURE_ERRORS as e:
        raise IngestError(f"{path}: {e}") from e


def _json_number(value, key: str, *, finite=False, integral=False, bits64=False):
    """value as a float, or as an int when integral, if it is a JSON number
    (RFC 8259 6): an int or a float, never a bool or a str. The flags refuse
    more: finite a NaN, an infinity and an int with no double; integral a
    fraction too, and bits64 an integer outside the signed 64-bit range. A
    refused value is a ValueError naming key; with no flag, NaN and infinity
    pass and an int with no double raises OverflowError."""
    kind = type(value)
    if kind is int or kind is float:
        if not (finite or integral):
            return float(value)
        if bits64 and (kind is int or math.isfinite(value) and value.is_integer()):
            # the range test comes first: a timestamp is never made a float
            if -2 ** 63 <= value < 2 ** 63:
                return value if kind is int else int(value)
            raise ValueError(f"{key} must fit in a signed 64-bit integer, got {shown(value)}")
        try:
            x = float(value)
        except OverflowError:
            x = math.nan
        if math.isfinite(x) and (not integral or x.is_integer()):
            return int(value) if integral else x
    what = "a finite integer" if integral else "a finite number" if finite else "a JSON number"
    raise ValueError(f"{key} must be {what}, got {shown(value)}")


# what a setting of each of these kinds must be, in JSON
_SETTING_KINDS = {bool: "a boolean", str: "a string", dict: "a JSON object"}


def read_settings(doc, defaults: dict, where: str, prefix: str | None = None) -> dict:
    """The settings doc sets: a JSON object whose keys are keys of defaults,
    each value of its default's kind. A float takes a finite JSON number, an
    int a finite integral one (returned as an int), a tuple as many finite
    numbers and a bool, str or dict a JSON value of that type.

    Else ValueError: where names the object, and prefix plus a key names that
    key's value (prefix is where and a dot unless given)."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = doc.keys() - defaults.keys()
    if unknown:
        raise ValueError(f"unknown keys in {where}: {shown(sorted(unknown))}")
    prefix = f"{where}." if prefix is None else prefix
    settings = {}
    for key, value in doc.items():
        name, default = prefix + key, defaults[key]
        kind = type(default)
        if kind is float or kind is int:
            value = _json_number(value, name, finite=True, integral=kind is int)
        elif kind is tuple:
            if type(value) is not list or len(value) != len(default):
                raise ValueError(f"{name} must be an array of {len(default)} numbers, "
                                 f"got {shown(value)}")
            value = tuple(_json_number(v, f"{name}[{k}]", finite=True)
                          for k, v in enumerate(value))
        elif type(value) is not kind:
            raise ValueError(f"{name} must be {_SETTING_KINDS[kind]}, got {shown(value)}")
        settings[key] = value
    return settings


# writers (synth and round-trip tests share these)

def _point_feature(location: GeoPoint, properties: dict) -> dict:
    return {"type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [location.lon, location.lat]},
            "properties": properties}


def write_json(path, doc) -> None:
    """Compact, key-sorted, newline-terminated JSON: identical docs, identical
    bytes. NaN and Infinity, which JSON does not have, raise ValueError."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True, separators=(",", ":"), allow_nan=False)
        f.write("\n")


def write_feature_collection(path, features: list[dict]) -> None:
    write_json(path, {"type": "FeatureCollection", "features": features})


def save_pois(path, pois: list[PoiRecord]) -> None:
    write_feature_collection(path, [
        _point_feature(p.location, {"poi_id": p.poi_id, "category": p.category})
        for p in pois])


def save_stations(path, stations: list[StationRecord]) -> None:
    write_feature_collection(path, [
        _point_feature(s.location, {"station_id": s.station_id, "kind": s.kind})
        for s in stations])


def save_routes(path, routes: list[RouteRecord]) -> None:
    write_feature_collection(path, [
        {"type": "Feature",
         "geometry": {"type": "LineString",
                      "coordinates": [[x, y] for x, y in zip(r.lon, r.lat)]},
         "properties": {"route_id": r.route_id, "altitudes": list(r.altitudes)}}
        for r in routes])


def save_lgas(path, lgas: list[LgaRecord]) -> None:
    features = []
    for lga in lgas:
        coords = [[[[v.lon, v.lat] for v in ring] for ring in poly.rings()]
                  for poly in lga.boundary.polygons]
        features.append({"type": "Feature",
                         "geometry": {"type": "MultiPolygon", "coordinates": coords},
                         "properties": {"lga_name": lga.lga_name}})
    write_feature_collection(path, features)


def save_fire_grid(path, grid: FireRiskGrid) -> None:
    doc = {"bbox": [grid.bbox.min_lon, grid.bbox.min_lat,
                    grid.bbox.max_lon, grid.bbox.max_lat],
           "n_rows": grid.n_rows, "n_cols": grid.n_cols,
           "cells": list(grid.cells)}
    write_json(path, doc)


# ---------------------------------------------------------------------------
# LGA assignment

def locate_lga(p: GeoPoint, lgas: list[LgaRecord],
               default: str | None = UNASSIGNED_LGA) -> str | None:
    """Name of the first LGA by name whose bbox and polygon contain p, else default."""
    best = None
    for lga in lgas:
        # an LGA named after the best so far cannot come first, so its
        # polygon is never tested
        if ((best is None or lga.lga_name < best) and lga.bbox.contains(p)
                and point_in_polygon(p, lga.boundary)):
            best = lga.lga_name
    return default if best is None else best


def assign_lga(points: list[DemandPoint],
               lgas: list[LgaRecord]) -> tuple[dict[str, list[int]], list[int]]:
    """Bucket point ids by locate_lga.

    Returns (name -> point ids in ascending name order, unassigned ids);
    together they partition the input exactly.
    """
    buckets: dict[str, list[int]] = {name: [] for name in sorted(l.lga_name for l in lgas)}
    unassigned: list[int] = []
    for dp in points:
        buckets.get(locate_lga(dp.location, lgas, None), unassigned).append(dp.point_id)
    return buckets, unassigned
