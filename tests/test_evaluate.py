import math
import random
from types import SimpleNamespace

import pytest

import oracles
from evsite.evaluate import (
    alignment_rate,
    build_report,
    coverage,
)
from evsite.constraints import ConstraintConfig, RouteLocator
from evsite.geo import BoundingBox, GeoPoint, haversine_distance
from evsite.ingest import UNASSIGNED_LGA, DemandPoint, FireRiskGrid, StationRecord, assign_lga
from evsite.pipeline import station_features
from evsite.recommend import dedup
from test_ingest import square_lga
from test_recommend import index_of, rec_at


def station(lat, lon, sid="s0", kind="existing_fast"):
    return StationRecord(sid, kind, GeoPoint(lat, lon))


def aligned(recs, stations, align_m):
    """alignment_rate over an index of the stations."""
    return alignment_rate(recs, index_of(s.location for s in stations), align_m)


class TestAlignmentRate:
    def test_all_aligned(self):
        recs = [rec_at(-33.5, 150.5), rec_at(-33.6, 150.6, rec_id="A-1")]
        stations = [station(-33.5, 150.5), station(-33.6, 150.6, sid="s1")]
        assert aligned(recs, stations, 1000.0) == (1.0, 2)

    def test_no_stations(self):
        assert aligned([rec_at(-33.5, 150.5)], [], 1000.0) == (0.0, 1)

    def test_empty_recs_reports_zero_count(self):
        assert aligned([], [station(-33.5, 150.5)], 1000.0) == (0.0, 0)

    def test_huge_radius_tends_to_one(self):
        recs = [rec_at(-33.5, 150.5), rec_at(-20.0, 140.0, rec_id="A-1")]
        rate, _ = aligned(recs, [station(10.0, 10.0)], 2.1e7)
        assert rate == 1.0

    def test_random_matches_all_pairs(self):
        rng = random.Random(25)
        recs = [rec_at(rng.uniform(-34, -33), rng.uniform(150, 151),
                       rec_id=f"A-{i}") for i in range(30)]
        stations = [station(rng.uniform(-34, -33), rng.uniform(150, 151),
                            sid=f"s{i}") for i in range(10)]
        rate, n = aligned(recs, stations, 15000.0)
        want = sum(
            1 for r in recs
            if any(oracles.haversine_oracle(r.location.lat, r.location.lon,
                                            s.location.lat, s.location.lon)
                   <= 15000.0 for s in stations)) / 30
        assert (rate, n) == (want, 30)


class TestCoverage:
    def _points(self, coords):
        return [DemandPoint(i, GeoPoint(lat, lon), "t", "origin")
                for i, (lat, lon) in enumerate(coords)]

    def test_station_at_every_point(self):
        pts = self._points([(-33.5, 150.5), (-33.6, 150.6)])
        assert coverage(pts, index_of(p.location for p in pts), 100.0) == 1.0

    def test_empty_station_set(self):
        pts = self._points([(-33.5, 150.5)])
        assert coverage(pts, index_of([]), 3000.0) == 0.0

    def test_no_points_errors(self):
        with pytest.raises(ValueError, match="no demand points"):
            coverage([], index_of([GeoPoint(0, 0)]), 3000.0)

    def test_monotone_under_station_addition(self):
        rng = random.Random(26)
        pts = self._points([(rng.uniform(-34, -33), rng.uniform(150, 151))
                            for _ in range(200)])
        sites = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
                 for _ in range(10)]
        prev = 0.0
        for k in range(11):
            cov = coverage(pts, index_of(sites[:k]), 5000.0)
            assert cov >= prev
            prev = cov

    def test_random_matches_brute_force(self):
        rng = random.Random(27)
        pts = self._points([(rng.uniform(-34, -33), rng.uniform(150, 151))
                            for _ in range(100)])
        sites = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
                 for _ in range(5)]
        want = sum(1 for p in pts
                   if any(oracles.haversine_oracle(p.location.lat, p.location.lon,
                                                   s.lat, s.lon) <= 8000.0
                          for s in sites)) / len(pts)
        assert coverage(pts, index_of(sites), 8000.0) == want

    def test_points_at_exactly_the_radius(self):
        rng = random.Random(28)
        pts = self._points([(rng.uniform(-34, -33), rng.uniform(150, 151))
                            for _ in range(100)])
        sites = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
                 for _ in range(5)]
        for k in range(0, 100, 7):
            radius = haversine_distance(pts[k].location, sites[k % 5])
            want = sum(1 for p in pts
                       if any(haversine_distance(p.location, s) <= radius
                              for s in sites)) / len(pts)
            assert coverage(pts, index_of(sites), radius) == want
            assert coverage(pts[k:k + 1], index_of(sites), radius) == 1.0

    def test_across_the_antimeridian(self):
        pts = self._points([(0.0, -179.9995), (0.5, 179.9995), (-0.2, 179.0)])
        sites = [GeoPoint(0.0, 179.9995), GeoPoint(0.5, -179.9995)]
        want = sum(1 for p in pts
                   if any(oracles.haversine_oracle(p.location.lat, p.location.lon,
                                                   s.lat, s.lon) <= 200.0
                          for s in sites)) / len(pts)
        assert want == 2 / 3
        assert coverage(pts, index_of(sites), 200.0) == want


class TestBuildReport:
    LGAS = [square_lga("A", -34.0, 150.0), square_lga("B", -34.0, 151.0)]

    def _points(self):
        return [DemandPoint(i, GeoPoint(-33.5, 150.2 + i * 0.1), "t", "origin")
                for i in range(5)]

    def test_empty_recs(self):
        stations = [station(-33.5, 150.5)]
        report = build_report(self._points(), self.LGAS, stations,
                              index_of(s.location for s in stations), [], [],
                              1000.0, 3000.0)
        assert report.alignment_rec_count == 0
        assert report.coverage_after == report.coverage_before
        assert all(row["recommended_fast"] == row["recommended_destination"] == 0
                   for row in report.per_lga_counts.values())
        assert report.nearest_existing_distance_stats["min"] is None

    def test_single_rec_counted_in_its_lga(self):
        rec = rec_at(-33.5, 151.5, rec_id="B-0", lga_name="B",
                     charger_kind="fast")
        report = build_report(self._points(), self.LGAS, [], index_of([]), [rec], [rec],
                              1000.0, 3000.0)
        assert report.per_lga_counts["B"]["recommended_fast"] == 1
        assert report.new_area_count == 1

    def test_station_on_shared_edge_counts_under_smaller_name(self):
        # B is listed first; the edge lon = 151 belongs to both LGAs
        lgas = [square_lga("B", -34.0, 151.0), square_lga("A", -34.0, 150.0)]
        edge = GeoPoint(-33.5, 151.0)
        s = station(edge.lat, edge.lon, kind="approved")
        report = build_report(self._points(), lgas, [s], index_of([s.location]), [], [],
                              1000.0, 3000.0)
        assert report.per_lga_counts["A"]["approved"] == 1
        assert report.per_lga_counts["B"]["approved"] == 0
        grid = FireRiskGrid(BoundingBox(0.0, 0.0, 1.0, 1.0), 1, 1, (None,))
        layers = SimpleNamespace(routes=[], stations=[s], lgas=lgas, fire_grid=grid)
        [feature] = station_features(SimpleNamespace(layers=layers),
                                     SimpleNamespace(constraints=ConstraintConfig()),
                                     RouteLocator([]))
        assert feature["properties"]["lga_name"] == "A"
        buckets, _ = assign_lga([DemandPoint(0, edge, "t", "origin")], lgas)
        assert buckets == {"A": [0], "B": []}

    def test_counts_partition_and_fields_match_recomputation(self):
        rng = random.Random(28)
        stations = [station(rng.uniform(-34, -33), rng.uniform(150, 152),
                            sid=f"s{i}",
                            kind=("existing_fast", "existing_destination",
                                  "approved")[i % 3])
                    for i in range(12)]
        # one station outside every LGA
        stations.append(station(-20.0, 140.0, sid="far", kind="approved"))
        recs = [rec_at(rng.uniform(-34, -33), rng.uniform(150, 152),
                       rec_id=f"X-{i}", lga_name="",
                       charger_kind=("fast", "destination")[i % 2])
                for i in range(9)]
        pts = self._points()
        report = build_report(pts, self.LGAS, stations,
                              index_of(s.location for s in stations), recs, recs,
                              1000.0, 3000.0)
        counts = report.per_lga_counts
        assert set(counts) <= {"A", "B", UNASSIGNED_LGA}
        for kind in ("existing_fast", "existing_destination", "approved"):
            assert (sum(row[kind] for row in counts.values())
                    == sum(1 for s in stations if s.kind == kind))
        assert (sum(row["recommended_fast"] + row["recommended_destination"]
                    for row in counts.values()) == len(recs))
        want_rate, _ = aligned(recs, stations, 1000.0)
        assert report.alignment_rate == want_rate
        assert report.coverage_after >= report.coverage_before
        dists = sorted(
            min(oracles.haversine_oracle(r.location.lat, r.location.lon,
                                         s.location.lat, s.location.lon)
                for s in stations) for r in recs)
        stats = report.nearest_existing_distance_stats
        assert stats["min"] == pytest.approx(dists[0])
        assert stats["max"] == pytest.approx(dists[-1])
        assert stats["mean"] == pytest.approx(sum(dists) / len(dists))
        assert stats["median"] == pytest.approx(dists[len(dists) // 2])

    def test_table_mirrors_json(self):
        rec = rec_at(-33.5, 150.5, rec_id="A-0", lga_name="A")
        report = build_report(self._points(), self.LGAS, [], index_of([]), [rec], [rec],
                              1000.0, 3000.0)
        table = report.as_table()
        doc = report.as_dict()
        assert str(doc["new_area_count"]) in table
        assert f"coverage_before: {doc['coverage_before']}" in table
        for name in doc["per_lga_counts"]:
            assert name in table


class TestStationIndexCellSize:
    """One station index serves dedup, alignment, coverage and the report,
    whatever the width of its cells."""

    def test_same_answers_for_every_cell_size(self):
        rng = random.Random(30)
        stations = [station(rng.uniform(-34, -33), rng.uniform(150, 152), sid=f"s{i}")
                    for i in range(40)]
        # half the recommendations within 800 m of a station
        recs = []
        for i in range(60):
            if i % 2:
                s = stations[i % 40].location
                lat, lon = s.lat + rng.uniform(-0.005, 0.005), s.lon + rng.uniform(-0.005, 0.005)
            else:
                lat, lon = rng.uniform(-34, -33), rng.uniform(150, 152)
            recs.append(rec_at(lat, lon, rec_id=f"A-{i:02d}"))
        pts = [DemandPoint(i, GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 152)),
                           "t", "origin") for i in range(300)]
        answers = []
        for cell_m in (1.0, 500.0, 3000.0, 50000.0):
            index = index_of((s.location for s in stations), cell_m)
            kept = dedup(recs, index, 500.0)
            uncovered = []
            answers.append((
                kept, alignment_rate(recs, index, 1000.0),
                coverage(pts, index, 3000.0, uncovered), uncovered,
                build_report(pts, TestBuildReport.LGAS, stations, index, recs, kept,
                             1000.0, 3000.0).as_dict()))
        assert all(a == answers[0] for a in answers[1:])
        kept, (rate, _), cov, uncovered, report = answers[0]
        assert 0 < len(kept) < len(recs)
        assert 0.0 < rate < 1.0
        assert 0.0 < cov < 1.0
        assert uncovered == [dp for dp in pts
                             if all(haversine_distance(dp.location, s.location) > 3000.0
                                    for s in stations)]
        assert report["coverage_before"] == cov
        assert report["coverage_after"] > cov
