import copy
import csv
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from evsite.geo import BoundingBox, GeoPoint, MultiPolygon, Polygon, haversine_distance
from evsite.ingest import (
    CleaningSummary,
    DemandPoint,
    FireRiskGrid,
    IngestError,
    LgaRecord,
    PoiRecord,
    StationRecord,
    assign_lga,
    clean_trips,
    extract_demand_points,
    load_fire_grid,
    load_lgas,
    load_pois,
    load_routes,
    load_stations,
    load_trips,
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
from records import route_of, trip_of


def write_csv(path, rows):
    path.write_text("trip_id,timestamp,lat,lon\n" + "".join(r + "\n" for r in rows),
                    encoding="utf-8")


def square_lga(name, lat0, lon0, size=1.0):
    ring = (GeoPoint(lat0, lon0), GeoPoint(lat0, lon0 + size),
            GeoPoint(lat0 + size, lon0 + size), GeoPoint(lat0 + size, lon0),
            GeoPoint(lat0, lon0))
    return LgaRecord(name, MultiPolygon((Polygon(ring),)))


class TestLoadTrips:
    def test_two_valid_rows(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", "a,200,-33.6,150.6"])
        trips, bad = load_trips(f)
        assert bad == []
        assert len(trips) == 1
        assert trips[0].trip_id == "a"
        assert trips[0].points == ((100, GeoPoint(-33.5, 150.5)),
                                   (200, GeoPoint(-33.6, 150.6)))

    def test_bad_latitude_dropped_and_reported(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", "a,150,999,150.5", "a,200,-33.6,150.6"])
        trips, bad = load_trips(f)
        assert len(trips) == 1 and len(trips[0].points) == 2
        assert len(bad) == 1 and "999" in bad[0]

    @pytest.mark.parametrize("column", [2, 3])
    def test_long_bad_coordinate_is_echoed_in_part(self, tmp_path, column):
        f = tmp_path / "t.csv"
        row = ["a", "150", "-33.55", "150.55"]
        row[column] = "x" * 1000
        write_csv(f, ["a,100,-33.5,150.5", ",".join(row), "a,200,-33.6,150.6"])
        trips, bad = load_trips(f)
        assert len(trips) == 1 and len(trips[0].points) == 2
        key = ("lat", "lon")[column - 2]
        assert len(bad) == 1 and bad[0].startswith(f"{f}:3: {key} must be a number, got 'xxx")
        assert len(bad[0]) < 200, bad[0]

    @pytest.mark.parametrize("row,column", [
        ("a,1_50,-33.55,150.55", 1),       # a digit-group underscore
        ("a,\u0661\u0665\u0660,-33.55,150.55", 1),  # Arabic-Indic digits for 150
        ("a, 150,-33.55,150.55", 1),       # a blank at either end
        ("a,150\t,-33.55,150.55", 1),
        ("a,150,-3_3.55,150.55", 2),
        ("a,150,\t-33.55,150.55", 2),
        ("a,150,-\u0663\u0663.55,150.55", 2),
        ("a,150,-33.55, 150.55", 3),
        ("a,150,-33.55,150.55 ", 3),
        ("a,150,-33.55,\uff11\uff15\uff10.55", 3),  # fullwidth digits
        ("a,1_50,-3_3.55, 150.55", 1),     # the first field refused is named
        ("a,150,-3_3.55, 150.55", 2),
    ])
    def test_numeral_that_is_not_plain_is_a_malformed_row(self, tmp_path, row, column):
        # int() and float() take all of these; the reader refuses them
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", row, "a,200,-33.6,150.6"])
        trips, bad = load_trips(f)
        assert trips[0].points == ((100, GeoPoint(-33.5, 150.5)),
                                   (200, GeoPoint(-33.6, 150.6)))
        field = row.split(",")[column]
        want = ("timestamp must be a finite integer" if column == 1
                else f"{('lat', 'lon')[column - 2]} must be a number")
        assert bad == [f"{f}:3: {want}, got {shown(field)}"]

    @pytest.mark.parametrize("trip_id", ["a", "trip_1", "trip 1", "\u00e9"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_plain_rows_load_whatever_else_the_file_holds(self, tmp_path, trip_id, newline):
        # an underscore, a blank or a byte past ASCII in a trip id makes the
        # reader test each row's numerals, and plain ones pass
        f = tmp_path / "t.csv"
        rows = ["trip_id,timestamp,lat,lon", f"{trip_id},100,-33.5,150.5",
                f"{trip_id},200,-33.6,150.6", ""]
        f.write_bytes(newline.join(rows).encode())
        trips, bad = load_trips(f)
        assert bad == []
        assert trips == [trip_of(trip_id, ((100, GeoPoint(-33.5, 150.5)),
                                           (200, GeoPoint(-33.6, 150.6))))]

    def test_quoted_numeral_holding_a_line_end_is_a_malformed_row(self, tmp_path):
        # only a quoted field can hold a line's end, which int() takes as a
        # blank
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", 'a,"150\r\n",-33.55,150.55', "a,200,-33.6,150.6"])
        trips, bad = load_trips(f)
        assert trips[0].points == ((100, GeoPoint(-33.5, 150.5)),
                                   (200, GeoPoint(-33.6, 150.6)))
        field = "150\r\n"
        assert bad == [f"{f}:3: timestamp must be a finite integer, got {shown(field)}"]

    def test_messages_name_the_line_a_record_starts_on(self, tmp_path):
        # a record over lines 3-4, a blank line 6 and a field past the csv
        # module's size limit on line 8: each later message still names the
        # physical line, not the record's count
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", 'a,"150\n",-33.55,150.55', "t,zz,-33.5,150.5",
                      "", "t,yy,-33.5,150.5", "t," + "9" * 21 + ",-33.5,150.5",
                      "t,xx,-33.5,150.5", "a,200,-33.6,150.6", "a,300,-33.6,150.6",
                      "a,400,-33.6,150.6", "a,500,-33.6,150.6", "a,600,-33.6,150.6"])
        limit = csv.field_size_limit(20)
        try:
            trips, bad = load_trips(f)
        finally:
            csv.field_size_limit(limit)
        assert [m.split(": ")[0] for m in bad] == [f"{f}:{n}" for n in (3, 5, 7, 8, 9)]
        assert "field larger than field limit" in bad[3]
        assert len(trips[0].points) == 6

    def test_majority_malformed_is_corrupt(self, tmp_path):
        f = tmp_path / "t.csv"
        write_csv(f, ["a,100,-33.5,150.5", "a,nonsense,999,x", "b,y,998,z"])
        with pytest.raises(IngestError, match="corrupt input"):
            load_trips(f)

    def test_wrong_header(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("id,ts,lat,lon\n")
        with pytest.raises(IngestError, match="header"):
            load_trips(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_trips(tmp_path / "nope.csv")

    def test_fixture_exact_structure(self, tmp_path):
        # 10 trips x 3 rows plus one malformed row; hand-written expectation
        rows, expected = [], {}
        for t in range(10):
            tid = f"trip{t:02d}"
            pts = []
            for k in range(3):
                lat, lon = -33.0 - t * 0.01, 150.0 + k * 0.01
                rows.append(f"{tid},{100 + k * 60},{lat},{lon}")
                pts.append((100 + k * 60, GeoPoint(lat, lon)))
            expected[tid] = tuple(pts)
        rows.insert(5, "broken,100,abc,150.0")
        f = tmp_path / "t.csv"
        write_csv(f, rows)
        trips, bad = load_trips(f)
        assert len(bad) == 1
        assert {t.trip_id: t.points for t in trips} == expected

    def test_geojson_roundtrip_format(self, tmp_path):
        f = tmp_path / "t.geojson"
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature",
            "geometry": {"type": "LineString",
                         "coordinates": [[150.5, -33.5], [150.6, -33.6]]},
            "properties": {"trip_id": "a", "timestamps": [100, 200]}}]}
        f.write_text(json.dumps(doc))
        trips, bad = load_trips(f, format="geojson")
        assert bad == []
        assert trips[0].points[1] == (200, GeoPoint(-33.6, 150.6))

    @pytest.mark.parametrize("stamp", ["1e400", "-1e400", "NaN", "250.5", "true", '"300"'])
    def test_geojson_non_integral_timestamp_is_a_malformed_feature(self, tmp_path, stamp):
        f = tmp_path / "t.geojson"
        line = {"type": "LineString", "coordinates": [[150.5, -33.5], [150.6, -33.6],
                                                      [150.7, -33.7]]}
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": line,
             "properties": {"trip_id": trip_id, "timestamps": [100, 200, 300]}}
            for trip_id in ("a", "b", "c")]}
        # the last timestamp of the last feature
        f.write_text(json.dumps(doc).replace("300]}}]}", stamp + "]}}]}", 1))
        trips, bad = load_trips(f, format="geojson")
        assert [t.trip_id for t in trips] == ["a", "b"]
        assert len(bad) == 1
        assert "feature 2: timestamp must be a finite integer" in bad[0]

    # fixes of trip a, two of them at t=200
    TIE_ROWS = [(100, -33.5, 150.5), (200, -33.6, 150.6), (200, -33.7, 150.6),
                (300, -33.8, 150.7)]

    @staticmethod
    def _write_trip(path, fixes, format):
        if format == "csv":
            write_csv(path, [f"a,{ts},{lat!r},{lon!r}" for ts, lat, lon in fixes])
        else:
            path.write_text(json.dumps({"type": "FeatureCollection", "features": [{
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[lon, lat] for _, lat, lon in fixes]},
                "properties": {"trip_id": "a", "timestamps": [ts for ts, _, _ in fixes]}}]}))

    @pytest.mark.parametrize("format", ["csv", "geojson"])
    def test_different_fixes_at_one_timestamp_drop_the_trip_in_any_order(
            self, tmp_path, format):
        f = tmp_path / "t.trips"
        for order in itertools.permutations(self.TIE_ROWS):
            self._write_trip(f, order, format)
            assert load_trips(f, format=format) == (
                [], ["trip a: timestamps not strictly increasing, dropped"])

    @pytest.mark.parametrize("format", ["csv", "geojson"])
    def test_equal_fixes_at_one_timestamp_load_in_any_order(self, tmp_path, format):
        rows = self.TIE_ROWS[:2] + self.TIE_ROWS[1:2] + self.TIE_ROWS[3:]
        want = tuple((ts, GeoPoint(lat, lon)) for ts, lat, lon in sorted(rows))
        f = tmp_path / "t.trips"
        for order in itertools.permutations(rows):
            self._write_trip(f, order, format)
            trips, bad = load_trips(f, format=format)
            assert bad == [] and [t.points for t in trips] == [want]
            cleaned, summary = clean_trips(trips, 1000.0)
            assert summary.as_dict() == {"duplicate_fixes_removed": 1,
                                         "speed_fixes_removed": 0, "trips_dropped": 0}
            assert cleaned[0].points == want[:2] + want[3:]


class TestMalformedGolden:
    """Every kind of malformed trip row in one file, and the whole list of
    messages the reader gives for it, word for word and in order."""

    # rows of trips.csv from line 2 on: the header is line 1
    CSV_ROWS = [
        "good,100,-33.5,150.5",                     # 2
        "good,105,-33.5",                           # 3
        "good,105,-33.5,150.5,7",                   # 4
        "",                                         # 5: a blank line, skipped
        "good,1_00,-33.5,150.5",                    # 6
        "good, 100,-33.5,150.5",                    # 7
        "good,1.5,-33.5,150.5",                     # 8
        "good,9223372036854775808,-33.5,150.5",     # 9
        "good,-9223372036854775809,-33.5,150.5",    # 10
        "good,110,95,150.5",                        # 11
        "good,120,-33.5,-181",                      # 12
        "good,130,nan,150.5",                       # 13
        "good,140,-33.5,inf",                       # 14
        "good,150,1e400,150.5",                     # 15
        "good,160," + "x" * 1000 + ",150.5",        # 16
        "good,170," + "1" * 1000 + ",150.5",        # 17
        '"multi\nline",100,-33.5,150.5',            # 18-19: one record
        "good,yy,-33.5,150.5",                      # 20
        "good,180,-33.5," + "9" * 200_000,          # 21: past the csv field limit
        "lonely,100,-33.6,150.6",                   # 22
        "lonely,200,-33.6,north",                   # 23
        "tie,100,-33.7,150.7",                      # 24
        "tie,100,-33.8,150.7",                      # 25
    ] + [f"good,{200 + 10 * k},-33.5,{150.5 + k / 1000!r}" for k in range(1, 21)]

    @staticmethod
    def csv_bad(f):
        return [
            f"{f}:3: expected 4 columns, got 3",
            f"{f}:4: expected 4 columns, got 5",
            f"{f}:6: timestamp must be a finite integer, got '1_00'",
            f"{f}:7: timestamp must be a finite integer, got ' 100'",
            f"{f}:8: timestamp must be a finite integer, got '1.5'",
            f"{f}:9: timestamp must fit in a signed 64-bit integer, got 9223372036854775808",
            f"{f}:10: timestamp must fit in a signed 64-bit integer, got -9223372036854775809",
            f"{f}:11: latitude out of range: 95.0",
            f"{f}:12: longitude out of range: -181.0",
            f"{f}:13: non-finite coordinate: (nan, 150.5)",
            f"{f}:14: non-finite coordinate: (-33.5, inf)",
            f"{f}:15: non-finite coordinate: (inf, 150.5)",
            f"{f}:16: lat must be a number, got '" + "x" * 59 + "... (1002 characters)",
            f"{f}:17: non-finite coordinate: (inf, 150.5)",
            f"{f}:20: timestamp must be a finite integer, got 'yy'",
            f"{f}:21: field larger than field limit (131072)",
            f"{f}:23: lon must be a number, got 'north'",
            "trip lonely: fewer than 2 valid points, dropped",
            "trip multi\nline: fewer than 2 valid points, dropped",
            "trip tie: timestamps not strictly increasing, dropped",
        ]

    GOOD = ((100, GeoPoint(-33.5, 150.5)),) + tuple(
        (200 + 10 * k, GeoPoint(-33.5, 150.5 + k / 1000)) for k in range(1, 21))

    def test_csv_messages_verbatim(self, tmp_path):
        f = tmp_path / "trips.csv"
        write_csv(f, self.CSV_ROWS)
        trips, bad = load_trips(f)
        assert bad == self.csv_bad(f)
        assert [(t.trip_id, t.points) for t in trips] == [("good", self.GOOD)]

    def test_plain_csv_messages_verbatim(self, tmp_path):
        # without the rows that hold an underscore, a blank or a quote, the
        # file is plain and its numerals are not tested one by one; the
        # messages for the other rows are the same
        f = tmp_path / "trips.csv"
        unplain = {"good,1_00,-33.5,150.5", "good, 100,-33.5,150.5",
                   '"multi\nline",100,-33.5,150.5'}
        write_csv(f, [r for r in self.CSV_ROWS if r not in unplain])
        trips, bad = load_trips(f)
        assert bad == [
            f"{f}:3: expected 4 columns, got 3",
            f"{f}:4: expected 4 columns, got 5",
            f"{f}:6: timestamp must be a finite integer, got '1.5'",
            f"{f}:7: timestamp must fit in a signed 64-bit integer, got 9223372036854775808",
            f"{f}:8: timestamp must fit in a signed 64-bit integer, got -9223372036854775809",
            f"{f}:9: latitude out of range: 95.0",
            f"{f}:10: longitude out of range: -181.0",
            f"{f}:11: non-finite coordinate: (nan, 150.5)",
            f"{f}:12: non-finite coordinate: (-33.5, inf)",
            f"{f}:13: non-finite coordinate: (inf, 150.5)",
            f"{f}:14: lat must be a number, got '" + "x" * 59 + "... (1002 characters)",
            f"{f}:15: non-finite coordinate: (inf, 150.5)",
            f"{f}:16: timestamp must be a finite integer, got 'yy'",
            f"{f}:17: field larger than field limit (131072)",
            f"{f}:19: lon must be a number, got 'north'",
            "trip lonely: fewer than 2 valid points, dropped",
            "trip tie: timestamps not strictly increasing, dropped",
        ]
        assert [(t.trip_id, t.points) for t in trips] == [("good", self.GOOD)]

    @staticmethod
    def feature(trip_id, coords, timestamps, **props):
        return {"type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {"trip_id": trip_id, "timestamps": timestamps, **props}}

    def test_geojson_messages_verbatim(self, tmp_path):
        line = [[150.5, -33.5], [150.6, -33.6]]
        feat = self.feature
        features = [
            feat("good", [[150.5, -33.5], [150.51, -33.5]], [100, 200]),      # 0
            "not a feature",                                                  # 1
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": line},
             "properties": {"timestamps": [1, 2]}},                            # 2
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": line},
             "properties": ["trip_id", "x"]},                                  # 3
            {"type": "Feature", "geometry": {"type": "Point", "coordinates": line[0]},
             "properties": {"trip_id": "p", "timestamps": [1]}},              # 4
            {"type": "Feature", "geometry": {"type": "LineString"},
             "properties": {"trip_id": "n", "timestamps": [1, 2]}},           # 5
            feat("good", line, [300, 400, 500]),                              # 6
            feat("good", [[150.5, -33.5], [150.6, 95]], [300, 400]),           # 7
            feat("good", [[150.5, -33.5], [-181, -33.6]], [300, 400]),         # 8
            feat("good", [[150.5, math.nan], [150.6, -33.6]], [300, 400]),     # 9
            feat("good", [["151.2", -33.5], [150.6, -33.6]], [300, 400]),      # 10
            feat("good", [[150.5, -33.5], [150.6]], [300, 400]),               # 11
            feat("good", [[150.5, 10 ** 400], [150.6, -33.6]], [300, 400]),    # 12
            feat("good", line, [300, 1.5]),                                   # 13
            feat("good", line, [300, 2 ** 63]),                               # 14
            feat("good", line, [-2 ** 63 - 1, 300]),                          # 15
            feat("good", line, [300, True]),                                  # 16
            feat("good", line, ["300", 400]),                                 # 17
            feat("good", line, 5),                                            # 18
            feat("lonely", [[150.6, -33.6]], [100]),                          # 19
            feat("tie", [[150.7, -33.7], [150.7, -33.8]], [100, 100]),         # 20
            feat("good", [[150.5 + k / 1000, -33.5] for k in range(2, 22)],
                 [200 + 10 * k for k in range(2, 22)]),                       # 21
        ]
        f = tmp_path / "trips.geojson"
        f.write_text(json.dumps({"type": "FeatureCollection", "features": features}))
        trips, bad = load_trips(f, format="geojson")
        assert bad == [
            f"{f}: feature 1: not a GeoJSON Feature",
            f"{f}: feature 2: missing property 'trip_id'",
            f"{f}: feature 3: properties must be an object",
            f"{f}: feature 4: geometry must be LineString",
            f"{f}: feature 5: LineString geometry has no coordinates",
            f"{f}: feature 6: timestamps length != coordinate count",
            f"{f}: feature 7: latitude out of range: 95.0",
            f"{f}: feature 8: longitude out of range: -181.0",
            f"{f}: feature 9: non-finite coordinate: (nan, 150.5)",
            f"{f}: feature 10: longitude must be a JSON number, got '151.2'",
            f"{f}: feature 11: position must be [lon, lat, ...]",
            f"{f}: feature 12: int too large to convert to float",
            f"{f}: feature 13: timestamp must be a finite integer, got 1.5",
            f"{f}: feature 14: timestamp must fit in a signed 64-bit integer, "
            "got 9223372036854775808",
            f"{f}: feature 15: timestamp must fit in a signed 64-bit integer, "
            "got -9223372036854775809",
            f"{f}: feature 16: timestamp must be a finite integer, got True",
            f"{f}: feature 17: timestamp must be a finite integer, got '300'",
            f"{f}: feature 18: object of type 'int' has no len()",
            "trip lonely: fewer than 2 valid points, dropped",
            "trip tie: timestamps not strictly increasing, dropped",
        ]
        want = ((100, GeoPoint(-33.5, 150.5)), (200, GeoPoint(-33.5, 150.51))) + tuple(
            (200 + 10 * k, GeoPoint(-33.5, 150.5 + k / 1000)) for k in range(2, 22))
        assert [(t.trip_id, t.points) for t in trips] == [("good", want)]

    @pytest.mark.parametrize("n_bad,corrupt", [(2, False), (3, True)])
    @pytest.mark.parametrize("format", ["csv", "geojson"])
    def test_more_than_half_malformed_is_corrupt(self, tmp_path, format, n_bad, corrupt):
        # two valid fixes and n_bad malformed rows (features, in GeoJSON)
        f = tmp_path / "trips"
        if format == "csv":
            write_csv(f, ["a,100,-33.5,150.5"] + ["a,x,-33.5,150.5"] * n_bad
                      + ["a,200,-33.6,150.6"])
        else:
            f.write_text(json.dumps({"type": "FeatureCollection", "features": [
                self.feature("a", [[150.5, -33.5], [150.6, -33.6]], [100, 200])] + [
                self.feature("a", [[150.5, -33.5], [150.6, -33.6]], [1.5, 2])] * n_bad}))
        if corrupt:
            with pytest.raises(IngestError) as e:
                load_trips(f, format=format)
            assert str(e.value) == f"corrupt input {f}: 3 of 5 rows malformed"
        else:
            trips, bad = load_trips(f, format=format)
            assert len(trips) == 1 and len(bad) == 2


class TestCleanTrips:
    def test_teleporting_fix_removed(self):
        trip = trip_of("a", ((0, GeoPoint(-33.0, 150.0)),
                             (10, GeoPoint(-24.0, 150.0)),   # ~1000 km in 10 s
                             (20, GeoPoint(-33.001, 150.0))))
        cleaned, summary = clean_trips([trip], 60.0)
        assert summary.speed_fixes_removed == 1
        assert len(cleaned[0].points) == 2

    def test_clean_trip_unchanged(self):
        trip = trip_of("a", ((0, GeoPoint(-33.0, 150.0)),
                             (60, GeoPoint(-33.001, 150.0))))
        cleaned, summary = clean_trips([trip], 60.0)
        assert cleaned == [trip]
        assert summary.as_dict() == CleaningSummary().as_dict()

    def test_duplicate_fix_removed(self):
        p = GeoPoint(-33.0, 150.0)
        q = GeoPoint(-33.001, 150.0)
        dirty = trip_of("a", ((0, p), (0, p), (60, q)))
        cleaned, summary = clean_trips([dirty], 60.0)
        assert summary.duplicate_fixes_removed == 1
        assert cleaned[0].points == ((0, p), (60, q))

    def test_corruption_is_removed_exactly(self):
        rng = random.Random(8)
        base_pts = [(k * 60, GeoPoint(-33.0 + k * 0.0005, 150.0)) for k in range(20)]
        clean = trip_of("a", tuple(base_pts))
        # corrupt: inject teleport fixes between clean ones
        dirty_pts = []
        injected = 0
        for ts, p in base_pts:
            dirty_pts.append((ts, p))
            if rng.random() < 0.3 and ts + 30 < base_pts[-1][0]:
                dirty_pts.append((ts + 30, GeoPoint(50.0, 50.0)))
                injected += 1
        dirty = trip_of("a", tuple(sorted(dirty_pts)))
        cleaned, summary = clean_trips([dirty], 60.0)
        assert cleaned == [clean]
        assert summary.speed_fixes_removed == injected

    def test_idempotent(self):
        trips = [trip_of("a", ((0, GeoPoint(-33.0, 150.0)),
                               (10, GeoPoint(-24.0, 150.0)),
                               (600, GeoPoint(-33.001, 150.0))))]
        once, _ = clean_trips(trips, 60.0)
        twice, summary = clean_trips(once, 60.0)
        assert twice == once
        assert summary.as_dict() == CleaningSummary().as_dict()

    def test_short_trip_dropped(self):
        trip = trip_of("a", ((0, GeoPoint(-33.0, 150.0)),
                             (1, GeoPoint(-30.0, 150.0))))
        cleaned, summary = clean_trips([trip], 60.0)
        assert cleaned == []
        assert summary.trips_dropped == 1


class TestExtractDemandPoints:
    def test_two_point_trip(self):
        trip = trip_of("a", ((0, GeoPoint(-33.0, 150.0)),
                             (60, GeoPoint(-33.1, 150.1))))
        dps = extract_demand_points([trip], 100.0, 600.0)
        assert [(d.point_id, d.kind) for d in dps] == [(0, "origin"),
                                                       (1, "destination")]

    def test_stationary_trip_has_dwell(self):
        p = GeoPoint(-33.0, 150.0)
        trip = trip_of("a", tuple((k * 300, p) for k in range(5)))
        dps = extract_demand_points([trip], 100.0, 600.0)
        kinds = sorted(d.kind for d in dps)
        assert kinds == ["destination", "dwell", "origin"]
        dwell = next(d for d in dps if d.kind == "dwell")
        assert dwell.location == p

    def test_ids_dense_and_stable(self):
        trips = [trip_of(t, ((0, GeoPoint(-33.0, 150.0)),
                             (60, GeoPoint(-33.1, 150.1))))
                 for t in ("b", "a", "c")]
        dps = extract_demand_points(trips, 100.0, 600.0)
        assert [d.point_id for d in dps] == list(range(6))
        assert dps == extract_demand_points(list(reversed(trips)), 100.0, 600.0)

    def test_engineered_stays_match_brute_force(self):
        # 3 stays of ~5 fixes within 50 m, separated by moving legs
        rng = random.Random(9)
        fixes = []
        ts = 0
        stay_centers = [GeoPoint(-33.0, 150.0), GeoPoint(-33.05, 150.05),
                        GeoPoint(-33.1, 150.1)]
        for ci, c in enumerate(stay_centers):
            for _ in range(5):
                fixes.append((ts, GeoPoint(c.lat + rng.uniform(-2e-4, 2e-4),
                                           c.lon + rng.uniform(-2e-4, 2e-4))))
                ts += 200
            # moving leg away from the stay
            for step in range(3):
                fixes.append((ts, GeoPoint(c.lat - 0.01 * (step + 1), c.lon)))
                ts += 200
        trip = trip_of("a", tuple(fixes))
        dps = extract_demand_points([trip], 100.0, 600.0)
        dwells = [d for d in dps if d.kind == "dwell"]
        assert len(dps) == 5  # origin + destination + 3 dwells
        # brute-force stay detection: maximal windows within radius of window start
        pts = trip.points
        expected = []
        i = 0
        while i < len(pts):
            j = i
            while (j + 1 < len(pts)
                   and oracles.haversine_oracle(pts[i][1].lat, pts[i][1].lon,
                                                pts[j + 1][1].lat, pts[j + 1][1].lon) <= 100.0):
                j += 1
            if pts[j][0] - pts[i][0] >= 600.0:
                window = [p for _, p in pts[i:j + 1]]
                expected.append((sum(p.lat for p in window) / len(window),
                                 sum(p.lon for p in window) / len(window)))
            i = j + 1
        assert len(dwells) == len(expected) == 3
        for d, (elat, elon) in zip(dwells, expected):
            assert oracles.haversine_oracle(d.location.lat, d.location.lon,
                                            elat, elon) < 1.0


class TestLayerLoaders:
    def test_minimal_layers_roundtrip(self, tmp_path):
        from evsite.ingest import PoiRecord, StationRecord, FireRiskGrid
        from evsite.geo import BoundingBox
        pois = [PoiRecord("p1", "fuel", GeoPoint(-33.5, 150.5))]
        stations = [StationRecord("s1", "approved", GeoPoint(-33.6, 150.6))]
        routes = [route_of("r1", (GeoPoint(-33.5, 150.0), GeoPoint(-33.5, 151.0)),
                           (10.0, 20.0))]
        lgas = [square_lga("A", -34.0, 150.0)]
        grid = FireRiskGrid(BoundingBox(-34.0, 150.0, -33.0, 151.0), 2, 2,
                            (1.0, None, 3.0, 4.0))
        save_pois(tmp_path / "p.geojson", pois)
        save_stations(tmp_path / "s.geojson", stations)
        save_routes(tmp_path / "r.geojson", routes)
        save_lgas(tmp_path / "l.geojson", lgas)
        save_fire_grid(tmp_path / "g.json", grid)
        assert load_pois(tmp_path / "p.geojson") == pois
        assert load_stations(tmp_path / "s.geojson") == stations
        assert load_routes(tmp_path / "r.geojson") == routes
        assert load_lgas(tmp_path / "l.geojson") == lgas
        assert load_fire_grid(tmp_path / "g.json") == grid

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_write_json_refuses_non_finite_numbers(self, tmp_path, value):
        with pytest.raises(ValueError):
            write_json(tmp_path / "x.json", {"ffdi_delta": value})

    def test_unknown_poi_category_names_feature(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "Point", "coordinates": [150.5, -33.5]},
             "properties": {"poi_id": "p1", "category": "hotel"}}]}
        f = tmp_path / "p.geojson"
        f.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="feature 0"):
            load_pois(f)

    def test_bad_station_kind(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "Point", "coordinates": [150.5, -33.5]},
             "properties": {"station_id": "s1", "kind": "imaginary"}}]}
        f = tmp_path / "s.geojson"
        f.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="feature 0"):
            load_stations(f)

    def test_route_altitude_length_mismatch(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "LineString",
                          "coordinates": [[150.0, -33.5], [151.0, -33.5]]},
             "properties": {"route_id": "r1", "altitudes": [10.0]}}]}
        f = tmp_path / "r.geojson"
        f.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match="feature 0"):
            load_routes(f)

    @pytest.mark.parametrize("coordinates,altitudes,message", [
        ([["12", "34"], [12.5, 34.0]], [56.0, 57.0], "latitude must be a JSON number"),
        ([[12.0, 34.0], [12.5, 34.0]], "56", "altitudes must be an array"),
        ([[12.0, 34.0], [12.5, 34.0]], [56, False], "altitude must be a JSON number"),
    ], ids=["string-coordinates", "string-altitudes", "boolean-altitude"])
    def test_route_numbers_must_be_json_numbers(self, tmp_path, coordinates, altitudes,
                                                message):
        f = tmp_path / "r.geojson"
        f.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coordinates},
             "properties": {"route_id": "r1", "altitudes": altitudes}}]}))
        with pytest.raises(IngestError, match=f"feature 0: {message}"):
            load_routes(f)

    def test_integer_json_numbers_load_as_floats(self, tmp_path):
        f = tmp_path / "r.geojson"
        f.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "LineString", "coordinates": [[150, -33], [150.5, -33.5]]},
             "properties": {"route_id": "r1", "altitudes": [56, 57.0]}}]}))
        route, = load_routes(f)
        assert route == route_of("r1", (GeoPoint(-33.0, 150.0), GeoPoint(-33.5, 150.5)),
                                 (56.0, 57.0))
        assert {type(x) for x in (*route.lat, *route.lon, *route.altitudes)} == {float}

    @pytest.mark.parametrize("key,value", [("n_rows", "2"), ("n_cols", "1"),
                                           ("bbox", [150, "-34", 151, -33]),
                                           ("cells", [1.0, "4"])])
    def test_fire_grid_numbers_must_be_json_numbers(self, tmp_path, key, value):
        doc = {"bbox": [150, -34, 151, -33], "n_rows": 2, "n_cols": 1, "cells": [1.0, 4.0]}
        doc[key] = value
        f = tmp_path / "g.json"
        f.write_text(json.dumps(doc))
        with pytest.raises(IngestError, match=rf"{key}(\[1\])? must be a finite"):
            load_fire_grid(f)

    def test_trips_csv_roundtrip(self, tmp_path):
        trips = [trip_of("a", ((100, GeoPoint(-33.5, 150.5)),
                               (200, GeoPoint(-33.6, 150.6))))]
        save_trips(tmp_path / "t.csv", trips)
        loaded, bad = load_trips(tmp_path / "t.csv")
        assert bad == []
        assert loaded == trips


    def test_positions_with_altitude_load_the_same_records(self, tmp_path):
        # a GeoJSON position is [lon, lat, ...]: members past the second are ignored
        routes = [route_of("r1", (GeoPoint(-33.5, 150.0), GeoPoint(-33.4, 150.2),
                                  GeoPoint(-33.5, 151.0)), (10.0, 20.0, 30.0))]
        hole = (GeoPoint(-33.8, 150.2), GeoPoint(-33.8, 150.4), GeoPoint(-33.6, 150.4),
                GeoPoint(-33.8, 150.2))
        lgas = [square_lga("A", -34.0, 150.0),
                LgaRecord("B", MultiPolygon((Polygon(
                    square_lga("B", -34.0, 151.0).boundary.polygons[0].exterior,
                    (hole,)),)))]
        for save, load, records in ((save_routes, load_routes, routes),
                                    (save_lgas, load_lgas, lgas)):
            f = tmp_path / "layer.geojson"
            save(f, records)
            assert load(f) == records
            doc = json.loads(f.read_text())
            for k, feat in enumerate(doc["features"]):
                coords = feat["geometry"]["coordinates"]
                for position in _positions_in(coords):
                    position.append(7.0 * k)
            f.write_text(json.dumps(doc))
            assert load(f) == records


def _positions_in(coords):
    """The [lon, lat] lists nested anywhere in GeoJSON coordinates."""
    if coords and not isinstance(coords[0], list):
        return [coords]
    return [p for c in coords for p in _positions_in(c)]


def _member(limit):
    """A valid position member: a float or an int within +-limit, -0.0 among them."""
    return st.one_of(st.floats(-limit, limit), st.integers(-int(limit), int(limit)),
                     st.just(-0.0))


# members and positions that are not valid; a number past 90 but within 180
# is bad only as a latitude
BAD_MEMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 90.5, -90.5, 180.5, -180.5, 10 ** 400,
                     -10 ** 400, True, False, "x", "150", None, [1.0]]),
    st.floats(min_value=90.0, exclude_min=True, allow_infinity=False),
    st.floats(max_value=-90.0, exclude_max=True, allow_infinity=False))
BAD_POSITIONS = [[], [1.0], "x", "ab", 5, None, {"lon": 1.0, "lat": 2.0}]


@st.composite
def route_coordinates(draw):
    """Positions of 2 to 8 valid [lon, lat] or [lon, lat, altitude] members,
    with 0 to 3 bad members or positions put in at random."""
    coords = [[draw(_member(180.0)), draw(_member(90.0))]
              + ([draw(st.floats(-100.0, 3000.0))] if draw(st.booleans()) else [])
              for _ in range(draw(st.integers(2, 8)))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(coords) - 1))
        if draw(st.booleans()):
            coords[k] = draw(st.sampled_from(BAD_POSITIONS))
        elif isinstance(coords[k], list) and len(coords[k]) >= 2:
            coords[k][draw(st.integers(0, 1))] = draw(BAD_MEMBERS)
    return coords


class TestPositionReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(coords=route_coordinates())
    @example(coords=[[150, 95], ["x", -33]])
    @example(coords=[[0.0, 0.0], [180.5, 0.0]])
    @example(coords=[[0.0, 0.0], [-180.5, 0.0]])
    @example(coords=[[0.0, 0.0], [0.0, 90.5]])
    @example(coords=[[0.0, 0.0], [0.0, -90.5]])
    @example(coords=[[-0.0, 0], [180, -90.0, "ignored"]])
    def test_routes_load_what_the_per_position_oracle_reads(self, tmp_path, coords):
        f = tmp_path / "r.geojson"
        f.write_text(json.dumps({"type": "FeatureCollection", "features": [
            {"type": "Feature", "geometry": {"type": "LineString", "coordinates": coords},
             "properties": {"route_id": "r1", "altitudes": [10.0] * len(coords)}}]}))
        try:
            want = oracles.per_position_reader(coords)
        except (ValueError, OverflowError) as e:
            with pytest.raises(IngestError) as got:
                load_routes(f)
            assert str(got.value) == f"{f}: feature 0: {e}"
            return
        route, = load_routes(f)
        # repr tells -0.0 from 0.0
        assert [(repr(lat), repr(lon)) for lat, lon in zip(route.lat, route.lon)] == [
            (repr(lat), repr(lon)) for lat, lon in want]

    def test_routes_keep_their_bytes_through_load_and_save(self, scenario, tmp_path):
        _, _, dirs = scenario
        path = dirs["scenario"] / "routes.geojson"
        save_routes(tmp_path / "again.geojson", load_routes(path))
        assert (tmp_path / "again.geojson").read_bytes() == path.read_bytes()


# every way the loader fuzz breaks a value: replace it with one of these, or
# remove it from its object or array
BAD_VALUES = [None, True, "x", [], {}, math.nan, math.inf, -math.inf,
              10 ** 400, -10 ** 400, "remove"]


def _paths(value, path=()):
    """The path to value and to every value nested in it."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _edited(doc, path, value):
    """A copy of doc with the value at path replaced by value (or removed)."""
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    if value == "remove":
        del parent[last]
    else:
        parent[last] = value
    return doc


def _layer_docs(tmp_path) -> dict:
    """A small valid file of each GeoJSON layer, as loaded JSON by loader name."""
    ring = lambda lat, lon, d: [[lon, lat], [lon + d, lat], [lon + d, lat + d],
                                [lon, lat + d], [lon, lat]]
    save_stations(tmp_path / "s.geojson", [
        StationRecord(f"s{k}", kind, GeoPoint(-33.5 + k / 10, 150.5))
        for k, kind in enumerate(("existing_fast", "approved", "existing_destination"))])
    save_pois(tmp_path / "p.geojson", [
        PoiRecord(f"p{k}", category, GeoPoint(-33.5, 150.5 + k / 10))
        for k, category in enumerate(("fuel", "tourism", "fast_food"))])
    save_routes(tmp_path / "r.geojson", [
        route_of(f"r{k}", [GeoPoint(-33.5 + k / 10, 150.0 + j / 10) for j in range(3)],
                 (10.0, 20.0, 30.0))
        for k in range(3)])
    save_lgas(tmp_path / "l.geojson", [square_lga(name, -34.0, 150.0 + k)
                                       for k, name in enumerate("ABC")])
    docs = {loader: json.loads((tmp_path / name).read_text())
            for loader, name in (("load_stations", "s.geojson"), ("load_pois", "p.geojson"),
                                 ("load_routes", "r.geojson"), ("load_lgas", "l.geojson"))}
    # one LGA as a Polygon with a hole, so both geometry types are fuzzed
    docs["load_lgas"]["features"][1]["geometry"] = {
        "type": "Polygon", "coordinates": [ring(-34.0, 151.0, 1.0), ring(-33.8, 151.2, 0.2)]}
    docs["load_trips"] = {"type": "FeatureCollection", "features": [
        {"type": "Feature",
         "geometry": {"type": "LineString",
                      "coordinates": [[150.5 + j / 100, -33.5 + k / 10] for j in range(3)]},
         "properties": {"trip_id": f"t{k}", "timestamps": [100, 200, 300]}}
        for k in range(3)]}
    return docs


GEOJSON_LOADERS = {
    "load_stations": load_stations, "load_pois": load_pois,
    "load_routes": load_routes, "load_lgas": load_lgas,
    "load_trips": lambda path: load_trips(path, format="geojson"),
}


class TestLoaderFuzz:
    """A value of one feature replaced or removed: the loader reads the file,
    or raises IngestError naming the file and the feature. The trips reader
    drops such a feature as a malformed row that names it."""

    @pytest.mark.parametrize("loader", sorted(GEOJSON_LOADERS))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_broken_feature_names_file_and_feature(self, tmp_path, loader, data):
        doc = _layer_docs(tmp_path)[loader]
        path = data.draw(st.sampled_from([
            ("features", k) + p for k, feat in enumerate(doc["features"])
            for p in _paths(feat)]))
        value = data.draw(st.sampled_from(BAD_VALUES))
        f = tmp_path / "fuzzed.geojson"
        f.write_text(json.dumps(_edited(doc, path, value)))
        where = f"{f}: feature {path[1]}: "
        try:
            result = GEOJSON_LOADERS[loader](f)
        except IngestError as e:
            assert str(e).startswith(where), str(e)
            return
        if loader == "load_trips":
            _, bad = result
            assert len(bad) <= 1 and all(m.startswith(where) for m in bad), bad

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_broken_fire_grid_names_file_and_key(self, tmp_path, data):
        f = tmp_path / "g.json"
        save_fire_grid(f, FireRiskGrid(BoundingBox(-34.0, 150.0, -33.0, 151.0), 2, 2,
                                       (1.0, None, 3.0, 4.0)))
        doc = json.loads(f.read_text())
        path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
        value = data.draw(st.sampled_from(BAD_VALUES))
        f.write_text(json.dumps(_edited(doc, path, value)))
        try:
            load_fire_grid(f)
        except IngestError as e:
            assert str(e).startswith(f"{f}: ") and path[0] in str(e), str(e)


# every way the trips CSV fuzz breaks a numeric field of a row; the last is
# longer than the csv module reads in one field
CSV_BAD_FIELDS = ["", "x", "nan", "inf", "-inf", "1e400", "9" * 400, "-" + "9" * 400,
                  "9" * 200_000]


class TestTripsCsvFuzz:
    """One numeric field of one row replaced, or a column dropped or added: the
    row is dropped and counted among the malformed rows (trip_load_errors)
    under its line number, the other rows load as before, and no other
    exception escapes. trip_id is free text, so any value there is an id."""

    ROWS = [[f"t{k}", str(100 * (j + 1)), repr(-33.5 + k / 10), repr(150.5 + j / 100)]
            for k in range(3) for j in range(4)]

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_broken_row_is_dropped_and_counted(self, tmp_path, data):
        line = data.draw(st.integers(0, len(self.ROWS) - 1))
        edit = data.draw(st.one_of(
            st.tuples(st.sampled_from(["drop", "add"]), st.integers(0, 4)),
            st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from(CSV_BAD_FIELDS))))
        rows = [list(r) for r in self.ROWS]
        row = rows[line]
        if edit[0] == "drop":
            del row[edit[1] % len(row)]
        elif edit[0] == "add":
            row.insert(edit[1], "150.5")
        else:
            row[edit[0]] = edit[1]
        f = tmp_path / "t.csv"
        write_csv(f, [",".join(r) for r in rows])
        trips, bad = load_trips(f)
        assert len(bad) == 1 and bad[0].startswith(f"{f}:{line + 2}: "), bad
        write_csv(f, [",".join(r) for r in self.ROWS[:line] + self.ROWS[line + 1:]])
        assert trips == load_trips(f)[0]


# how a fix moves on from the one before: a few metres (a stay), a drive, a
# glitch that jumps 11 km and back, or a repeat of the same fix
FIX_STEPS = ("stay", "drive", "glitch", "repeat")


@st.composite
def trip_rows(draw):
    """(rows in file order, speed limit, dwell radius, dwell time). The rows
    are (trip_id, timestamp, lat, lon), shuffled, with repeated fixes and
    glitches; the speed limit is one pair's exact speed and the radius one
    pair's exact distance, so that thresholds sit on the boundary of a test."""
    rows, pairs = [], []
    for t in range(draw(st.integers(1, 4))):
        # some trips start within 0.01 degrees of +-180 and cross it
        lat = draw(st.floats(-60.0, 60.0))
        lon = draw(st.one_of(st.floats(-179.0, 179.0), st.floats(179.99, 180.0),
                             st.floats(-180.0, -179.99)))
        ts = draw(st.integers(0, 10 ** 6))
        fixes = []
        for _ in range(draw(st.integers(2, 12))):
            step = draw(st.sampled_from(FIX_STEPS))
            if step == "repeat" and fixes:
                fixes.append(fixes[-1])
                continue
            if step == "stay":
                lat += draw(st.floats(-3e-4, 3e-4))
                lon += draw(st.floats(-3e-4, 3e-4))
                ts += draw(st.integers(10, 300))
            elif step == "drive":
                lat += draw(st.floats(-0.01, 0.01))
                lon += draw(st.floats(-0.01, 0.01))
                ts += draw(st.integers(10, 120))
            else:
                ts += draw(st.integers(5, 30))
            if not -180.0 <= lon <= 180.0:
                lon = math.remainder(lon, 360.0)
            fixes.append((ts, lat + 0.1, lon) if step == "glitch" else (ts, lat, lon))
        rows += [(f"t{t}", *fix) for fix in fixes]
        pairs += [(a, b) for k, a in enumerate(fixes) for b in fixes[k + 1:]]
    speeds, radii = [30.0], [100.0]
    for (ta, *a), (tb, *b) in pairs:
        d = haversine_distance(GeoPoint(*a), GeoPoint(*b))
        if d > 0:
            radii.append(d)
            if tb > ta:
                speeds.append(d / (tb - ta))
    return (draw(st.permutations(rows)), draw(st.sampled_from(speeds)),
            draw(st.sampled_from(radii)), draw(st.sampled_from([1, 60, 300, 600])))


class TestTripPathOracle:
    """load_trips, clean_trips and extract_demand_points against the per-fix
    oracles, which call haversine_distance for every comparison."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=trip_rows(), format=st.sampled_from(["csv", "geojson"]))
    def test_trip_path_matches_the_per_fix_oracles(self, tmp_path, case, format):
        rows, max_speed_mps, dwell_radius_m, dwell_min_s = case
        f = tmp_path / "t.trips"
        if format == "csv":
            write_csv(f, [f"{tid},{ts},{lat!r},{lon!r}" for tid, ts, lat, lon in rows])
        else:
            # each run of rows of one trip is a feature of its own
            runs = [list(g) for _, g in itertools.groupby(rows, key=lambda r: r[0])]
            f.write_text(json.dumps({"type": "FeatureCollection", "features": [{
                "type": "Feature",
                "geometry": {"type": "LineString",
                             "coordinates": [[lon, lat] for _, _, lat, lon in run]},
                "properties": {"trip_id": run[0][0],
                               "timestamps": [ts for _, ts, _, _ in run]}}
                for run in runs]}))
        trips, bad = load_trips(f, format=format)
        assert bad == []
        # (timestamp, lat, lon) order: fixes that share a timestamp are equal
        assert [(t.trip_id, t.points) for t in trips] == [
            (tid, tuple((ts, GeoPoint(lat, lon)) for _, ts, lat, lon in sorted(
                (r for r in rows if r[0] == tid), key=lambda r: r[1:])))
            for tid in sorted({r[0] for r in rows})]

        cleaned, summary = clean_trips(trips, max_speed_mps)
        want, want_summary = oracles.per_fix_clean_trips(
            [(t.trip_id, t.points) for t in trips], max_speed_mps)
        assert [(t.trip_id, t.points) for t in cleaned] == want
        assert summary.as_dict() == want_summary
        by_id = {t.trip_id: t for t in trips}
        for t in cleaned:
            # a trip that keeps every fix is passed on, not rebuilt
            assert (t is by_id[t.trip_id]) == (t.points == by_id[t.trip_id].points)

        dps = extract_demand_points(cleaned, dwell_radius_m, dwell_min_s)
        assert [d.point_id for d in dps] == list(range(len(dps)))
        assert [(d.source_trip, d.kind, d.location.lat, d.location.lon) for d in dps] == \
            oracles.per_fix_demand_points(want, dwell_radius_m, dwell_min_s)

    def test_kernels_give_the_doubles_of_haversine_distance(self):
        # a limit of exactly d keeps the second fix and one ulp below drops
        # it, so each kernel returns d itself; about one pair in sixteen
        # tells apart a kernel that groups the product differently
        rng = random.Random(13)
        for k in range(3000):
            a = GeoPoint(rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 180.0))
            scale = (1e-4, 1e-2, 1.0, 90.0)[k % 4]
            b = GeoPoint(max(-90.0, min(90.0, a.lat + rng.uniform(-scale, scale))),
                         (a.lon + rng.uniform(-2 * scale, 2 * scale) + 180.0) % 360.0 - 180.0)
            d = haversine_distance(a, b)
            if d == 0.0:
                continue
            trip = trip_of("a", ((0, a), (1, b)))
            assert clean_trips([trip], d)[0] == [trip], (a, b)
            assert clean_trips([trip], math.nextafter(d, 0.0))[0] == [], (a, b)
            trip = trip_of("a", ((0, a), (600, b)))
            assert len(extract_demand_points([trip], d, 600)) == 3, (a, b)
            assert len(extract_demand_points([trip], math.nextafter(d, 0.0), 600)) == 2, (a, b)

    def test_speed_limit_at_the_exact_speed_keeps_the_fix(self):
        a, b, c = GeoPoint(-33.0, 150.0), GeoPoint(-33.01, 150.013), GeoPoint(-33.02, 150.02)
        trip = trip_of("a", ((0, a), (70, b), (140, c)))
        limit = haversine_distance(a, b) / 70
        assert clean_trips([trip], limit)[0][0].points[1] == (70, b)
        below = math.nextafter(limit, 0.0)
        assert (70, b) not in clean_trips([trip], below)[0][0].points

    @pytest.mark.parametrize("lons,want", [
        ((179.9998, -179.9998, 179.9999), 539.9999 / 3),
        ((-179.9999, 179.9998, 179.9998), -540.0003 / 3 + 360.0),
    ], ids=["east-first", "west-first"])
    def test_stay_centroid_across_the_antimeridian(self, lons, want):
        # three fixes within 43 m of each other, on both sides of +-180: the
        # plain mean of their longitudes lies near lon 60, 12,800 km away
        trip = trip_of("a", tuple((ts, GeoPoint(-16.5, lon))
                                  for ts, lon in zip((0, 300, 700), lons)))
        dwell, = [d for d in extract_demand_points([trip], 100.0, 600.0)
                  if d.kind == "dwell"]
        assert dwell.location.lat == -16.5
        assert abs(dwell.location.lon - want) < 1e-9
        assert -180.0 <= dwell.location.lon <= 180.0

    def test_dwell_radius_at_the_exact_distance_holds_the_fix(self):
        a, b, c = GeoPoint(-33.0, 150.0), GeoPoint(-33.0003, 150.0004), GeoPoint(-33.1, 150.0)
        trip = trip_of("a", ((0, a), (700, b), (800, c)))
        radius = haversine_distance(a, b)
        dwell = [d for d in extract_demand_points([trip], radius, 600) if d.kind == "dwell"]
        assert [d.location for d in dwell] == [GeoPoint((a.lat + b.lat) / 2, (a.lon + b.lon) / 2)]
        assert not [d for d in extract_demand_points([trip], math.nextafter(radius, 0.0), 600)
                    if d.kind == "dwell"]


class TestAssignLga:
    def test_centroid_assigned(self):
        lga = square_lga("A", -34.0, 150.0)
        dp = DemandPoint(0, GeoPoint(-33.5, 150.5), "t", "origin")
        buckets, unassigned = assign_lga([dp], [lga])
        assert buckets == {"A": [0]}
        assert unassigned == []

    def test_ocean_point_unassigned(self):
        lga = square_lga("A", -34.0, 150.0)
        dp = DemandPoint(0, GeoPoint(-20.0, 160.0), "t", "origin")
        buckets, unassigned = assign_lga([dp], [lga])
        assert buckets == {"A": []}
        assert unassigned == [0]

    def test_overlap_breaks_by_name(self):
        a = square_lga("B", -34.0, 150.0)
        b = square_lga("A", -34.0, 150.0)
        dp = DemandPoint(0, GeoPoint(-33.5, 150.5), "t", "origin")
        buckets, _ = assign_lga([dp], [a, b])
        assert buckets["A"] == [0] and buckets["B"] == []

    def test_partition_property_random(self):
        rng = random.Random(10)
        lgas = [square_lga(f"L{k}", -34.0, 150.0 + k * 0.5, size=0.5)
                for k in range(5)]
        dps = [DemandPoint(i, GeoPoint(rng.uniform(-34.5, -33.5),
                                       rng.uniform(149.5, 153.0)), "t", "origin")
               for i in range(1000)]
        buckets, unassigned = assign_lga(dps, lgas)
        assigned = [i for ids in buckets.values() for i in ids]
        assert sorted(assigned + unassigned) == list(range(1000))
        # brute-force containment oracle
        for dp in dps:
            inside = [l.lga_name for l in lgas
                      if oracles.crossing_count_inside(
                          dp.location.lon, dp.location.lat,
                          [[(v.lon, v.lat) for v in l.boundary.polygons[0].exterior]])]
            if inside:
                assert dp.point_id in buckets[sorted(inside)[0]]
            elif dp.point_id not in unassigned:
                # boundary convention difference only at exact edges
                name = next(n for n, ids in buckets.items() if dp.point_id in ids)
                lga = next(l for l in lgas if l.lga_name == name)
                ring = [(v.lon, v.lat) for v in lga.boundary.polygons[0].exterior]
                assert oracles.min_edge_distance_deg(
                    dp.location.lon, dp.location.lat, [ring]) < 1e-9


class TestReadSettings:
    DEFAULTS = {"flag": True, "name": "x", "size": 1.5, "count": 2,
                "box": (0.0, 0.0, 1.0, 1.0), "section": {}}

    @pytest.mark.parametrize("key,value,want", [
        ("flag", False, False), ("name", "y", "y"), ("size", 3, 3.0),
        ("size", -0.0, -0.0), ("count", 7, 7), ("count", 7.0, 7), ("count", 7e0, 7),
        ("count", 2 ** 60 + 1, 2 ** 60 + 1), ("box", [1, 2.5, 3, 4], (1.0, 2.5, 3.0, 4.0)),
        ("section", {"a": [1]}, {"a": [1]}),
    ])
    def test_value_of_its_default_kind_is_read(self, key, value, want):
        got = read_settings({key: value}, self.DEFAULTS, "settings")
        assert got == {key: want}
        assert type(got[key]) is type(want)

    @pytest.mark.parametrize("key,value,message", [
        ("flag", 1, "s.flag must be a boolean, got 1"),
        ("name", None, "s.name must be a string, got None"),
        ("size", True, "s.size must be a finite number, got True"),
        ("size", "1", "s.size must be a finite number"),
        ("size", math.nan, "s.size must be a finite number"),
        ("size", 10 ** 400, "s.size must be a finite number"),
        ("count", 2.5, "s.count must be a finite integer, got 2.5"),
        ("count", False, "s.count must be a finite integer"),
        ("count", "2", "s.count must be a finite integer"),
        ("count", -math.inf, "s.count must be a finite integer"),
        ("count", 10 ** 400, "s.count must be a finite integer"),
        ("box", [1, 2, 3], "s.box must be an array of 4 numbers"),
        ("box", (1, 2, 3, 4), "s.box must be an array of 4 numbers"),
        ("box", [1, 2, None, 4], "s.box[2] must be a finite number"),
        ("section", [], "s.section must be a JSON object, got []"),
        pytest.param("count", int("9" * 401), "s.count must be a finite integer, got 999",
                     id="count-401-digits"),
        pytest.param("name", list(range(10_000)), "s.name must be a string, got [0, 1, 2",
                     id="name-10000-numbers"),
    ])
    def test_value_of_another_kind_is_refused_naming_the_key(self, key, value, message):
        with pytest.raises(ValueError, match=re.escape(message)) as e:
            read_settings({key: value}, self.DEFAULTS, "s")
        # the message echoes no more than 60 characters of the value
        assert len(repr(value)) <= 60 or repr(value)[:61] not in str(e.value)

    def test_object_and_keys_are_checked_naming_where(self):
        with pytest.raises(ValueError, match="^config x.json must be a JSON object$"):
            read_settings([], self.DEFAULTS, "config x.json")
        with pytest.raises(ValueError, match=r"unknown keys in s: \['a', 'b'\]"):
            read_settings({"b": 1, "flag": True, "a": 2}, self.DEFAULTS, "s")
        with pytest.raises(ValueError, match="^count must be a finite integer"):
            read_settings({"count": 0.5}, self.DEFAULTS, "spec", "")
        assert read_settings({}, self.DEFAULTS, "s") == {}
