import math
import random

import pytest

import oracles
from evsite.cluster import dbscan_lga
from evsite.constraints import AdjustedParams, PoiIndex, RouteLocator, risk_flags
from evsite.geo import (
    _GROUP_CELL_DEG,
    METERS_PER_DEG,
    GeoPoint,
    haversine_distance,
    project_to_polyline,
)
from evsite.ingest import DemandPoint, PoiRecord, StationRecord
from evsite import recommend
from evsite.recommend import (
    Recommendation,
    UNSNAPPED,
    classify_charger,
    cluster_location,
    dedup,
    propose_all,
    snap,
)
import records


def index_of(points, cell_m=1000.0):
    """A SpatialIndex of the points; its answers are exact for any cell size."""
    return records.index_of(list(points), cell_m / METERS_PER_DEG)


def rec_at(lat, lon, rec_id="A-0", **kw):
    defaults = dict(lga_name="A", charger_kind="destination", cluster_size=10,
                    snap_target=UNSNAPPED, snap_dist_m=math.inf)
    defaults.update(kw)
    return Recommendation(rec_id=rec_id, location=GeoPoint(lat, lon), **defaults)


class TestClusterLocation:
    def test_single_point(self):
        p = GeoPoint(-33.5, 150.5)
        assert cluster_location([p]) == p

    def test_same_meridian_midpoint(self):
        got = cluster_location([GeoPoint(-33.0, 150.5), GeoPoint(-34.0, 150.5)])
        assert got.lat == pytest.approx(-33.5, abs=1e-9)
        assert got.lon == pytest.approx(150.5, abs=1e-9)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            cluster_location([])

    def test_matches_grid_search_minimizer(self):
        rng = random.Random(21)
        half = 2500 / 111194.9
        members = [GeoPoint(-33.5 + rng.uniform(-half, half),
                            150.5 + rng.uniform(-half, half)) for _ in range(50)]
        got = cluster_location(members)

        def cost(lat, lon):
            return sum(oracles.haversine_oracle(lat, lon, m.lat, m.lon) ** 2
                       for m in members)

        # dense grid search around the bounding box of the members
        lats = [m.lat for m in members]
        lons = [m.lon for m in members]
        best = (math.inf, None)
        steps = 120
        for i in range(steps + 1):
            for j in range(steps + 1):
                lat = min(lats) + (max(lats) - min(lats)) * i / steps
                lon = min(lons) + (max(lons) - min(lons)) * j / steps
                c = cost(lat, lon)
                if c < best[0]:
                    best = (c, (lat, lon))
        assert oracles.haversine_oracle(got.lat, got.lon, *best[1]) < 30.0
        # and the spherical mean is no worse than the best grid node
        assert cost(got.lat, got.lon) <= best[0] * (1 + 1e-6)

    def test_antipodal_falls_back_to_medoid(self):
        members = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)]
        assert cluster_location(members) in members


class TestSnap:
    POIS = [PoiRecord("p1", "fuel", GeoPoint(-33.5, 150.5))]
    ROUTES = [records.route_of("r1", (GeoPoint(-33.6, 150.0), GeoPoint(-33.6, 151.0)),
                               (10.0, 20.0))]

    def test_poi_at_location(self):
        loc = GeoPoint(-33.5, 150.5)
        got_loc, target, d = snap([loc], PoiIndex(self.POIS), RouteLocator(self.ROUTES),
                                  300.0, 1000.0)[0]
        assert (got_loc, target, d) == (loc, "poi:p1", 0.0)

    def test_equidistant_pois_snap_to_smaller_id(self):
        loc = GeoPoint(-33.5, 0.0)
        pois = [PoiRecord("p2", "fuel", GeoPoint(-33.5, 0.001)),
                PoiRecord("p1", "tourism", GeoPoint(-33.5, -0.001))]
        d2, d1 = (haversine_distance(loc, p.location) for p in pois)
        assert d1 == d2
        got_loc, target, d = snap([loc], PoiIndex(pois), RouteLocator([]), 300.0, 1000.0)[0]
        assert (got_loc, target, d) == (pois[1].location, "poi:p1", d1)

    def test_nothing_to_snap(self):
        loc = GeoPoint(-30.0, 145.0)
        got_loc, target, d = snap([loc], PoiIndex([]), RouteLocator([]), 300.0, 1000.0)[0]
        assert (got_loc, target) == (loc, UNSNAPPED)
        assert d == math.inf

    def test_far_poi_near_route_snaps_to_route(self):
        # ~500 m from the POI, ~50 m from the route
        loc = GeoPoint(-33.60045, 150.5045)
        pois = [PoiRecord("p1", "fuel", GeoPoint(-33.596, 150.5))]
        assert haversine_distance(loc, pois[0].location) > 300.0
        got_loc, target, d = snap([loc], PoiIndex(pois), RouteLocator(self.ROUTES),
                                  300.0, 1000.0)[0]
        assert target == "route:r1"
        _, want_d = oracles.dense_projection(loc.lat, loc.lon,
                                             [(-33.6, 150.0), (-33.6, 151.0)])
        assert abs(d - want_d) < 1.0
        assert haversine_distance(got_loc, loc) == pytest.approx(d, abs=1.0)

    @staticmethod
    def _scan(p, pois, routes, poi_snap_m, route_snap_m):
        """snap's answer for one centre from every POI and every route: the
        nearest POI by distance and then id, else the closest projection onto
        any route, the smaller route id winning a tie."""
        if pois:
            d, poi_id, loc = min((haversine_distance(p, q.location), q.poi_id, q.location)
                                 for q in pois)
            if d <= poi_snap_m:
                return loc, f"poi:{poi_id}", d
        if routes:
            d, route_id, pt = min((d, r.route_id, pt) for r in routes
                                  for pt, d in [project_to_polyline(p, records.vertices_of(r))])
            if d <= route_snap_m:
                return pt, f"route:{route_id}", d
        return p, UNSNAPPED, math.inf

    def test_batch_matches_a_scan_per_centre(self):
        # twin meridian routes 2**-7 degrees either side of 150.0, so that
        # centres on that meridian tie; one east-west route; two POIs
        lats = [-33.605 + 0.01 * k for k in range(21)]
        routes = [records.route_of("rb", [GeoPoint(y, 150.0 - 2 ** -7) for y in lats],
                                   [1.0] * 21),
                  records.route_of("ra", [GeoPoint(y, 150.0 + 2 ** -7) for y in lats],
                                   [2.0] * 21),
                  records.route_of("rc", (GeoPoint(-33.45, 150.3), GeoPoint(-33.45, 150.7)),
                                   (3.0, 4.0))]
        pois = [PoiRecord("p2", "tourism", GeoPoint(-33.52, 150.5)),
                PoiRecord("p1", "fuel", GeoPoint(-33.5, 150.5))]
        centres = [GeoPoint(-33.5, 150.5),         # on p1
                   GeoPoint(-33.498, 150.5),       # p1 at the POI radius, same group cell
                   GeoPoint(-33.4985, 150.5035),   # same group cell, out of reach of p1
                   GeoPoint(-33.5, 150.0),         # the twin routes at the route radius
                   GeoPoint(-33.49, 150.0),
                   GeoPoint(-33.451, 150.5),       # near rc
                   GeoPoint(-33.521, 150.5),       # near p2
                   GeoPoint(-33.0, 149.0)]         # out of reach of everything
        cell = {(math.floor(c.lat / _GROUP_CELL_DEG), math.floor(c.lon / _GROUP_CELL_DEG))
                for c in centres[:3]}
        assert len(cell) == 1
        poi_r = haversine_distance(centres[1], pois[1].location)
        route_r = self._scan(centres[3], [], routes, 0.0, math.inf)[2]
        # each radius exactly at its boundary distance, and one ulp below it,
        # which leaves that distance at nextafter(radius, inf)
        for poi_snap_m in (poi_r, math.nextafter(poi_r, 0.0)):
            for route_snap_m in (route_r, math.nextafter(route_r, 0.0)):
                got = snap(centres, PoiIndex(pois), RouteLocator(routes),
                           poi_snap_m, route_snap_m)
                assert got == [self._scan(c, pois, routes, poi_snap_m, route_snap_m)
                               for c in centres]
                targets = [t for _, t, _ in got]
                assert targets[0] == "poi:p1" and targets[6] == "poi:p2"
                assert targets[1] == ("poi:p1" if poi_snap_m == poi_r else UNSNAPPED)
                assert targets[2] == targets[7] == UNSNAPPED
                assert targets[3] == ("route:ra" if route_snap_m == route_r else UNSNAPPED)
                assert targets[5] == "route:rc"


class TestDedup:
    def test_coincident_removed(self):
        station = StationRecord("s1", "approved", GeoPoint(-33.5, 150.5))
        assert dedup([rec_at(-33.5, 150.5)], index_of([station.location]), 500.0) == []

    def test_min_sep_zero_keeps_non_coincident(self):
        station = StationRecord("s1", "approved", GeoPoint(-33.5, 150.5))
        recs = [rec_at(-33.5001, 150.5)]
        assert dedup(recs, index_of([station.location]), 0.0) == recs

    def test_exactly_at_min_sep_is_dropped(self):
        station = StationRecord("s1", "approved", GeoPoint(-33.5, 150.5))
        rec = rec_at(-33.503, 150.504)
        d = haversine_distance(rec.location, station.location)
        assert dedup([rec], index_of([station.location]), d) == []
        assert dedup([rec], index_of([station.location]), math.nextafter(d, 0.0)) == [rec]

    def test_random_matches_all_pairs_filter(self):
        rng = random.Random(22)
        recs = [rec_at(rng.uniform(-34, -33), rng.uniform(150, 151),
                       rec_id=f"A-{i}") for i in range(40)]
        stations = [StationRecord(f"s{i}", "existing_fast",
                                  GeoPoint(rng.uniform(-34, -33),
                                           rng.uniform(150, 151)))
                    for i in range(15)]
        got = dedup(recs, index_of(s.location for s in stations), 20000.0)
        want = sorted(
            (r for r in recs
             if all(oracles.haversine_oracle(r.location.lat, r.location.lon,
                                             s.location.lat, s.location.lon)
                    > 20000.0 for s in stations)),
            key=lambda r: r.rec_id)
        assert got == want
        for r in got:
            for s in stations:
                assert haversine_distance(r.location, s.location) > 20000.0


class TestClassifyCharger:
    POIS = {"fuel1": "fuel", "food1": "fast_food"}

    def test_fuel_poi_is_fast(self):
        assert classify_charger("poi:fuel1", 100.0, self.POIS, 10000.0) == "fast"

    def test_fast_food_small_span_is_destination(self):
        assert classify_charger("poi:food1", 200.0, self.POIS, 10000.0) == "destination"

    def test_route_long_corridor_is_fast(self):
        assert classify_charger("route:r1", 12000.0, self.POIS, 10000.0) == "fast"

    def test_route_short_span_is_destination(self):
        assert classify_charger("route:r1", 900.0, self.POIS, 10000.0) == "destination"

    def test_unsnapped_is_destination(self):
        assert classify_charger(UNSNAPPED, 50000.0, self.POIS, 10000.0) == "destination"


class TestAnnotateRisk:
    def test_low_altitude_floods(self):
        assert risk_flags(1.0, None, 5.0, 2.0)[0] is True

    def test_missing_ffdi_is_unknown(self):
        assert risk_flags(50.0, None, 5.0, 2.0)[1] is None

    def test_batch_matches_recomputation(self):
        rng = random.Random(23)
        for _ in range(50):
            alt = rng.uniform(-10, 100)
            ffdi = rng.choice([None, rng.uniform(0, 5)])
            flood, fire = risk_flags(alt, ffdi, 5.0, 2.0)
            assert flood == (alt < 5.0)
            assert fire == (None if ffdi is None else ffdi >= 2.0)


class TestProposeAll:
    # what adjust_params gives a point far from everything at base_minpts 5
    PARAMS = AdjustedParams(800.0, 5)

    def _blob(self, center, n=12, start_id=0):
        rng = random.Random(24)
        return [DemandPoint(start_id + i,
                            GeoPoint(center.lat + rng.uniform(-1e-4, 1e-4),
                                     center.lon + rng.uniform(-1e-4, 1e-4)),
                            "t", "origin") for i in range(n)]

    def _cluster(self, pts):
        return dbscan_lga(pts, [self.PARAMS] * len(pts), lga_name="A")

    def test_blob_at_fuel_poi_yields_one_fast_rec(self):
        center = GeoPoint(-33.5, 150.5)
        pois = [PoiRecord("p1", "fuel", center)]
        routes = [records.route_of("r1", (GeoPoint(-33.5, 150.0), GeoPoint(-33.5, 151.0)),
                                   (10.0, 20.0))]
        pts = self._blob(center)
        result = self._cluster(pts)
        recs = propose_all([result], {"A": pts}, PoiIndex(pois), routes,
                           300.0, 1000.0, 10000.0)
        assert len(recs) == 1
        assert recs[0].rec_id == "A-0"
        assert recs[0].charger_kind == "fast"
        assert recs[0].snap_target == "poi:p1"
        assert recs[0].location == center
        assert recs[0].cluster_size == len(pts)

    def test_snap_contract_and_one_rec_per_cluster(self):
        center_a = GeoPoint(-33.5, 150.5)
        center_b = GeoPoint(-33.8, 150.8)
        pts = self._blob(center_a) + self._blob(center_b, start_id=50)
        result = self._cluster(pts)
        assert result.assignment.cluster_count == 2
        routes = [records.route_of("r1", (GeoPoint(-33.5, 150.0), GeoPoint(-33.5, 151.0)),
                                   (10.0, 20.0))]
        recs = propose_all([result], {"A": pts}, PoiIndex([]), routes,
                           300.0, 1000.0, 10000.0)
        assert len(recs) == 2
        for r in recs:
            if r.snap_target.startswith("route:"):
                assert r.snap_dist_m <= 1000.0
            elif r.snap_target.startswith("poi:"):
                assert r.snap_dist_m <= 300.0
            else:
                assert r.snap_target == UNSNAPPED

    def test_snaps_every_centre_in_one_call(self, monkeypatch):
        calls = []

        def counted(locations, *args):
            calls.append(len(locations))
            return snap(locations, *args)

        monkeypatch.setattr(recommend, "snap", counted)
        pts_a = self._blob(GeoPoint(-33.5, 150.5)) + self._blob(GeoPoint(-33.8, 150.8),
                                                                start_id=50)
        pts_b = self._blob(GeoPoint(-33.2, 150.2), start_id=100)
        results = [self._cluster(pts_a),
                   dbscan_lga(pts_b, [self.PARAMS] * 12, lga_name="B")]
        recs = propose_all(results, {"A": pts_a, "B": pts_b},
                           PoiIndex([PoiRecord("p1", "fuel", GeoPoint(-33.5, 150.5))]),
                           [], 300.0, 1000.0, 10000.0)
        assert calls == [3]
        assert [r.rec_id for r in recs] == ["A-0", "A-1", "B-0"]
