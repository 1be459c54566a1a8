import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from evsite.constraints import (
    AdjustedParams,
    ConstraintConfig,
    PoiIndex,
    RouteLocator,
    adjust_params,
    annotate_context,
    lookup_ffdi,
    risk_flags,
)
from evsite.geo import (
    _GROUP_CELL_DEG,
    METERS_PER_DEG,
    BoundingBox,
    GeoPoint,
    haversine_distance,
    project_to_polyline,
)
from evsite.ingest import DemandPoint, FireRiskGrid, InputError, PoiRecord
from records import NO_FIRE, route_of, vertices_of

NEUTRAL = ConstraintConfig(eps_factor_poi=1.0, minpts_factor_poi=1.0,
                           minpts_factor_route=1.0, minpts_factor_flood=1.0,
                           minpts_factor_fire=1.0)


def make_route(route_id, latlon_alts):
    return route_of(route_id, [GeoPoint(lat, lon) for lat, lon, _ in latlon_alts],
                    [a for _, _, a in latlon_alts])


class TestEstimateAltitude:
    """Altitude of the nearest route vertex, as altitude_at and as the fourth
    value of locate, against a scan of every vertex."""

    @staticmethod
    def altitudes(p, routes):
        locator = RouteLocator(routes)
        return locator.altitude_at(p), locator.locate(p)[3]

    def test_at_vertex(self):
        route = make_route("r1", [(-33.5, 150.0, 12.0), (-33.5, 150.1, 30.0)])
        p = GeoPoint(-33.5, 150.1)
        assert oracles.nearest_vertex_altitude(p.lat, p.lon, [route]) == 30.0
        assert self.altitudes(p, [route]) == (30.0, 30.0)

    def test_single_vertex_universe(self):
        route = make_route("r1", [(-33.5, 150.0, 12.0), (-33.5, 150.0001, 12.5)])
        want = oracles.nearest_vertex_altitude(0.0, 0.0, [route])
        assert want in (12.0, 12.5)
        assert self.altitudes(GeoPoint(0.0, 0.0), [route]) == (want, want)

    def test_no_routes_errors(self):
        # no altitude source: both give nan
        assert math.isnan(RouteLocator([]).altitude_at(GeoPoint(0, 0)))
        assert math.isnan(RouteLocator([]).locate(GeoPoint(0, 0))[3])

    def test_random_vs_linear_scan(self):
        rng = random.Random(11)
        routes = []
        coords, alts = [], []
        for r in range(5):
            pts = [(rng.uniform(-34, -33), rng.uniform(150, 151), rng.uniform(0, 500))
                   for _ in range(6)]
            routes.append(make_route(f"r{r}", pts))
            for lat, lon, a in pts:
                coords.append((lat, lon))
                alts.append(a)
        for _ in range(100):
            p = GeoPoint(rng.uniform(-34.2, -32.8), rng.uniform(149.8, 151.2))
            want_id, _ = oracles.linear_nearest(coords, p.lat, p.lon)
            assert oracles.nearest_vertex_altitude(p.lat, p.lon, routes) == alts[want_id]
            assert self.altitudes(p, routes) == (alts[want_id], alts[want_id])


class TestLookupFfdi:
    def test_single_cell(self):
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 1, 1, (3.5,))
        assert lookup_ffdi(GeoPoint(-33.5, 150.5), grid) == 3.5

    def test_outside_bbox(self):
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 1, 1, (3.5,))
        assert lookup_ffdi(GeoPoint(0, 0), grid) is None

    def test_null_cell(self):
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 1, 2, (None, 2.0))
        assert lookup_ffdi(GeoPoint(-33.5, 150.25), grid) is None
        assert lookup_ffdi(GeoPoint(-33.5, 150.75), grid) == 2.0

    def test_max_edges_inclusive(self):
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 2, 2,
                            (0.0, 1.0, 2.0, 3.0))
        assert lookup_ffdi(GeoPoint(-33.0, 151.0), grid) == 3.0
        assert lookup_ffdi(GeoPoint(-34.0, 150.0), grid) == 0.0

    def test_random_vs_index_arithmetic(self):
        rng = random.Random(12)
        cells = tuple(rng.uniform(0, 5) for _ in range(100))
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 10, 10, cells)
        for _ in range(200):
            p = GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
            row = min(9, int((p.lat - (-34.0)) / 0.1))
            col = min(9, int((p.lon - 150.0) / 0.1))
            assert lookup_ffdi(p, grid) == cells[row * 10 + col]


class TestAnnotateContext:
    """The distances annotate_context reads, as PoiIndex.nearest_all and
    RouteLocator.locate_all give them (near_all puts each route distance on
    the same side of route_near_m), and the parameters it makes of them."""

    def test_point_on_poi_and_route(self):
        loc = GeoPoint(-33.5, 150.5)
        pois = [PoiRecord("p1", "fuel", loc)]
        routes = [make_route("r1", [(-33.5, 150.0, 10.0), (-33.5, 151.0, 20.0)])]
        (_, dist_poi), = PoiIndex(pois).nearest_all([loc])
        (_, dist_route, _, altitude), = RouteLocator(routes).locate_all([loc])
        assert dist_poi == 0.0
        assert dist_route < 1e-6
        assert lookup_ffdi(loc, NO_FIRE) is None
        cfg = ConstraintConfig()
        assert annotate_context([DemandPoint(0, loc, "t", "origin")], PoiIndex(pois),
                                routes, NO_FIRE, cfg) == [
            adjust_params(altitude, 0.0, dist_route, None, cfg)]

    def test_empty_poi_layer(self):
        loc = GeoPoint(-33.5, 150.5)
        routes = [make_route("r1", [(-33.5, 150.0, 10.0), (-33.5, 151.0, 20.0)])]
        assert PoiIndex([]).nearest_all([loc]) == [(None, math.inf)]
        (_, dist_route, _, altitude), = RouteLocator(routes).locate_all([loc])
        cfg = ConstraintConfig()
        assert annotate_context([DemandPoint(0, loc, "t", "origin")], PoiIndex([]),
                                routes, NO_FIRE, cfg) == [
            adjust_params(altitude, math.inf, dist_route, None, cfg)]

    def test_no_routes_gives_inf_and_nan(self):
        loc = GeoPoint(-33.5, 150.5)
        (_, dist_route, _, altitude), = RouteLocator([]).locate_all([loc])
        assert dist_route == math.inf
        assert math.isnan(altitude)
        # a flood factor that would show if a NaN altitude counted as low
        cfg = ConstraintConfig(flood_alt_m=1e9, minpts_factor_flood=7.0)
        assert annotate_context([DemandPoint(0, loc, "t", "origin")], PoiIndex([]), [],
                                NO_FIRE, cfg) == [AdjustedParams(cfg.base_eps_m,
                                                                 cfg.base_minpts)]

    def test_scenario_matches_brute_force(self):
        rng = random.Random(13)
        pois = [PoiRecord(f"p{i}", "fuel",
                          GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151)))
                for i in range(10)]
        routes = [make_route(f"r{r}",
                             [(rng.uniform(-34, -33), rng.uniform(150, 151),
                               rng.uniform(0, 100)) for _ in range(4)])
                  for r in range(4)]
        cells = tuple(rng.uniform(0, 5) for _ in range(100))
        grid = FireRiskGrid(BoundingBox(-34, 150, -33, 151), 10, 10, cells)
        locations = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
                     for _ in range(50)]
        nearest = PoiIndex(pois).nearest_all(locations)
        located = RouteLocator(routes).locate_all(locations)
        for p, (_, dist_poi), (_, dist_route, _, altitude) in zip(locations, nearest, located):
            lat, lon = p.lat, p.lon
            want_poi = min(oracles.haversine_oracle(lat, lon, q.location.lat,
                                                    q.location.lon) for q in pois)
            assert dist_poi == pytest.approx(want_poi)
            want_route = min(
                oracles.dense_projection(lat, lon,
                                         [(v.lat, v.lon) for v in vertices_of(r)],
                                         samples_per_segment=3000)[1]
                for r in routes)
            assert abs(dist_route - want_route) < 2.0
            alt_coords = [(v.lat, v.lon) for r in routes for v in vertices_of(r)]
            alt_values = [a for r in routes for a in r.altitudes]
            want_alt = alt_values[oracles.linear_nearest(alt_coords, lat, lon)[0]]
            assert altitude == want_alt
        cfg = ConstraintConfig()
        points = [DemandPoint(i, p, "t", "origin") for i, p in enumerate(locations)]
        assert annotate_context(points, PoiIndex(pois), routes, grid, cfg) == [
            adjust_params(altitude, dist_poi, dist_route, lookup_ffdi(p, grid), cfg)
            for p, (_, dist_poi), (_, dist_route, _, altitude)
            in zip(locations, nearest, located)]

    @pytest.mark.parametrize("n_pois,span_deg", [(64, 2.0), (1, 0.0)])
    def test_poi_distance_is_the_exact_minimum(self, n_pois, span_deg):
        rng = random.Random(16 + n_pois)
        pois = [PoiRecord(f"p{i}", "fuel",
                          GeoPoint(-34.0 + rng.uniform(0, span_deg),
                                   150.0 + rng.uniform(0, span_deg)))
                for i in range(n_pois)]
        locations = [GeoPoint(rng.uniform(-36.0, -30.0), rng.uniform(148.0, 154.0))
                     for _ in range(200)]
        locations += [poi.location for poi in pois[:3]]
        for p, (_, dist_poi) in zip(locations, PoiIndex(pois).nearest_all(locations)):
            assert dist_poi == min(haversine_distance(p, poi.location) for poi in pois)

    def test_params_match_brute_force(self):
        # thresholds that split the points, and factors that tell apart which
        # rules applied: every branch of adjust_params fires
        cfg = ConstraintConfig(base_minpts=20, poi_near_m=8000.0, route_near_m=3000.0,
                               eps_factor_poi=0.5, minpts_factor_poi=0.7,
                               minpts_factor_route=0.9, flood_alt_m=50.0,
                               minpts_factor_flood=3.0, ffdi_threshold=2.5,
                               minpts_factor_fire=5.0)
        rng = random.Random(26)
        pois = [PoiRecord(f"p{i}", "fuel",
                          GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151)))
                for i in range(10)]
        routes = [make_route(f"r{r}",
                             [(rng.uniform(-34, -33), rng.uniform(150, 151),
                               rng.uniform(0, 100)) for _ in range(8)])
                  for r in range(8)]
        # the grid covers the southern half, with some null cells
        grid = FireRiskGrid(BoundingBox(-34, 150, -33.5, 151), 10, 10,
                            tuple(None if rng.random() < 0.2 else rng.uniform(0, 5)
                                  for _ in range(100)))
        locations = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
                     for _ in range(200)] + [poi.location for poi in pois[:3]]
        points = [DemandPoint(i, p, "t", "origin") for i, p in enumerate(locations)]
        want, branches = [], set()
        for p in locations:
            alt = oracles.nearest_vertex_altitude(p.lat, p.lon, routes)
            d_poi = min(haversine_distance(p, q.location) for q in pois)
            d_route = TestRouteLocator._full_scan(p, routes)[1]
            ffdi = lookup_ffdi(p, grid)
            want.append(adjust_params(alt, d_poi, d_route, ffdi, cfg))
            branches.add((d_poi <= cfg.poi_near_m, d_route <= cfg.route_near_m,
                          *risk_flags(alt, ffdi, cfg.flood_alt_m, cfg.ffdi_threshold)))
        assert annotate_context(points, PoiIndex(pois), routes, grid, cfg) == want
        for k, values in enumerate([{True, False}] * 3 + [{True, False, None}]):
            assert {b[k] for b in branches} == values


class TestAdjustParams:
    def test_far_from_everything_is_identity(self):
        cfg = ConstraintConfig()
        assert adjust_params(100.0, math.inf, math.inf, 0.0, cfg) == AdjustedParams(
            cfg.base_eps_m, cfg.base_minpts)

    def test_neutral_config_is_constant(self):
        rng = random.Random(14)
        for _ in range(50):
            ctx = (rng.uniform(-50, 500),
                   rng.choice([rng.uniform(0, 5000), math.inf]),
                   rng.choice([rng.uniform(0, 5000), math.inf]),
                   rng.choice([None, rng.uniform(0, 5)]))
            assert adjust_params(*ctx, NEUTRAL) == AdjustedParams(
                NEUTRAL.base_eps_m, NEUTRAL.base_minpts)

    def test_default_worked_example(self):
        # base_eps 800 * 0.75 = 600; minpts = max(2, ceil(10*0.6*0.8*1.5)) = 8
        cfg = ConstraintConfig()
        got = adjust_params(altitude_m=2.0, dist_poi_m=50.0, dist_route_m=10.0,
                            ffdi=cfg.ffdi_threshold - 1.0, cfg=cfg)
        assert got == AdjustedParams(600.0, 8)
        assert math.ceil(10 * 0.6 * 0.8 * 1.5) == 8  # arithmetic cross-check

    def test_clamps_hold_for_extreme_factors(self):
        cfg = ConstraintConfig(eps_factor_poi=0.001, minpts_factor_poi=0.0001,
                               eps_min_m=200.0, eps_max_m=1000.0)
        got = adjust_params(50.0, 0.0, 0.0, None, cfg)
        assert got.eps_m == 200.0
        assert got.minpts == cfg.minpts_min

    def test_invariants_random(self):
        rng = random.Random(15)
        cfg = ConstraintConfig(minpts_factor_flood=3.0, minpts_factor_fire=4.0)
        for _ in range(200):
            ctx = (rng.uniform(-100, 1000),
                   rng.choice([rng.uniform(0, 2000), math.inf]),
                   rng.choice([rng.uniform(0, 2000), math.inf]),
                   rng.choice([None, rng.uniform(0, 10)]))
            got = adjust_params(*ctx, cfg)
            assert cfg.eps_min_m <= got.eps_m <= cfg.eps_max_m
            assert got.minpts >= cfg.minpts_min

    def test_fire_factor_monotone(self):
        prev = 0
        for factor in (1.0, 1.2, 1.5, 2.0, 3.0):
            cfg = ConstraintConfig(minpts_factor_fire=factor)
            got = adjust_params(100.0, math.inf, math.inf, 5.0, cfg)
            assert got.minpts >= prev
            prev = got.minpts

    def test_missing_ffdi_skips_fire_rule(self):
        cfg = ConstraintConfig(minpts_factor_fire=5.0)
        assert adjust_params(100.0, math.inf, math.inf, None, cfg).minpts == cfg.base_minpts

    # factors whose products tell apart which of the two applied
    RISK = ConstraintConfig(minpts_factor_flood=3.0, minpts_factor_fire=5.0)

    @pytest.mark.parametrize("altitude,ffdi,flags", [
        (RISK.flood_alt_m, None, (False, None)),
        (math.nextafter(RISK.flood_alt_m, -math.inf), None, (True, None)),
        (math.nan, None, (False, None)),
        (100.0, RISK.ffdi_threshold, (False, True)),
        (100.0, None, (False, None)),
    ], ids=["altitude-at-threshold", "altitude-just-below", "altitude-nan",
            "ffdi-at-threshold", "ffdi-none"])
    def test_risk_factors_follow_the_flags_of_risk_flags(self, altitude, ffdi, flags):
        cfg = self.RISK
        flood, fire = risk_flags(altitude, ffdi, cfg.flood_alt_m, cfg.ffdi_threshold)
        assert (flood, fire) == flags
        want = (cfg.base_minpts * (cfg.minpts_factor_flood if flood else 1.0)
                * (cfg.minpts_factor_fire if fire else 1.0))
        assert adjust_params(altitude, math.inf, math.inf, ffdi, cfg).minpts == math.ceil(want)

    def test_config_invariants_enforced(self):
        with pytest.raises(InputError):
            ConstraintConfig(base_eps_m=-1)
        with pytest.raises(InputError):
            ConstraintConfig(base_minpts=1)
        with pytest.raises(InputError):
            ConstraintConfig(eps_min_m=900.0, base_eps_m=800.0)
        with pytest.raises(InputError):
            ConstraintConfig(minpts_factor_fire=0.0)

    @pytest.mark.parametrize("key", ["poi_near_m", "route_near_m"])
    @pytest.mark.parametrize("value", [-5.0, -5e-324, math.nan, math.inf])
    def test_near_distance_out_of_range_is_refused(self, key, value):
        with pytest.raises(InputError, match=f"{key} must be >= 0"):
            ConstraintConfig(**{key: value})
        assert getattr(ConstraintConfig(**{key: 0.0}), key) == 0.0

    @pytest.mark.parametrize("values", [
        {"minpts_factor_poi": 1e308}, {"minpts_factor_route": 1e308},
        {"minpts_factor_flood": 1e308}, {"minpts_factor_fire": 1e308},
        {"base_minpts": 10**18, "minpts_factor_flood": 1e300},
    ])
    def test_minpts_product_past_the_floats_is_refused(self, values):
        with pytest.raises(InputError, match="base_minpts times minpts_factor"):
            ConstraintConfig(**values)

    def test_largest_minpts_a_config_allows_is_an_integer(self):
        # flood and fire both apply: 10 * 1e300 * 1.5
        cfg = ConstraintConfig(minpts_factor_flood=1e300)
        got = adjust_params(0.0, math.inf, math.inf, 5.0, cfg)
        assert got.minpts == math.ceil(10 * 1e300 * 1.5)


class TestRouteLocator:
    def test_distance_matches_exhaustive_projection(self):
        rng = random.Random(16)
        routes = [make_route(f"r{r}",
                             [(rng.uniform(-34, -33), rng.uniform(150, 151),
                               rng.uniform(0, 100)) for _ in range(5)])
                  for r in range(6)]
        locator = RouteLocator(routes)
        from evsite.geo import project_to_polyline
        for _ in range(100):
            p = GeoPoint(rng.uniform(-34.1, -32.9), rng.uniform(149.9, 151.1))
            got = locator.locate(p)[1]
            want = min(project_to_polyline(p, vertices_of(r))[1] for r in routes)
            assert got == pytest.approx(want, abs=1e-9)

    @staticmethod
    def _full_scan(p, routes):
        """locate's answer from every segment of every route, unpruned: the
        nearest vertex first, then each segment in route-id order, replacing
        on a shorter distance or an equal one from a smaller route id."""
        from evsite.geo import haversine_distance, project_to_polyline
        vertices = [(v, r.route_id) for r in sorted(routes, key=lambda r: r.route_id)
                    for v in vertices_of(r)]
        _, vid = min((haversine_distance(p, v), i) for i, (v, _) in enumerate(vertices))
        best_pt, best_id = vertices[vid]
        best_d = haversine_distance(p, best_pt)
        for (a, rid), (b, next_rid) in zip(vertices, vertices[1:]):
            if rid != next_rid:
                continue
            pt, d = project_to_polyline(p, (a, b))
            if d < best_d or (d == best_d and rid < best_id):
                best_pt, best_d, best_id = pt, d, rid
        return best_pt, best_d, best_id

    def test_long_spur_and_tied_routes_match_full_scan(self):
        step = 0.001
        street = [(i * step, 10.0) for i in range(21)]
        routes = [make_route(f"h{k}", [(-33.5 + 0.002 * k, 150.0 + dlon, alt)
                                       for dlon, alt in street])
                  for k in range(6)]
        # one 5 km segment stretches every vertex query to its length
        routes.append(make_route("spur", [(-33.495, 150.01, 20.0),
                                          (-33.45, 150.01, 30.0)]))
        # identical geometry under two ids: every point nearest them ties
        twin = [(-33.48, 150.0 + dlon, alt) for dlon, alt in street]
        routes += [make_route("t-b", twin), make_route("t-a", twin)]
        locator = RouteLocator(routes)
        coords = [(v.lat, v.lon) for r in sorted(routes, key=lambda r: r.route_id)
                  for v in vertices_of(r)]
        alts = [a for r in sorted(routes, key=lambda r: r.route_id) for a in r.altitudes]
        rng = random.Random(17)
        queries = [GeoPoint(rng.uniform(-33.505, -33.44), rng.uniform(149.995, 150.025))
                   for _ in range(150)]
        # on the extension of a dead end, and on the twins
        queries += [GeoPoint(-33.5, 150.0215), GeoPoint(-33.44, 150.01),
                    GeoPoint(-33.4801, 150.0105), GeoPoint(-33.48, 150.005)]
        tied = 0
        for q in queries:
            pt, d, route_id, altitude = locator.locate(q)
            assert (pt, d, route_id) == self._full_scan(q, routes)
            assert altitude == alts[oracles.linear_nearest(coords, q.lat, q.lon)[0]]
            assert route_id != "t-b"
            tied += route_id == "t-a"
        assert tied >= 5

    @staticmethod
    def _offset(origin, east_m, north_m):
        """The point east_m and north_m from origin, longitude wrapped."""
        lat = origin[0] + north_m / METERS_PER_DEG
        lon = origin[1] + east_m / (METERS_PER_DEG * math.cos(math.radians(origin[0])))
        return (lat, (lon + 180.0) % 360.0 - 180.0)

    @staticmethod
    def _check_altitude(p, altitude, routes):
        """altitude is that of p's nearest vertex: the smallest id at the least
        haversine_distance, and one within 1e-6 m of the least distance by
        the oracle's formula, which may round a near tie the other way."""
        ordered = sorted(routes, key=lambda r: r.route_id)
        vertices = [v for r in ordered for v in vertices_of(r)]
        alts = [a for r in ordered for a in r.altitudes]
        _, vid = min((haversine_distance(p, v), i) for i, v in enumerate(vertices))
        assert altitude == alts[vid]
        oracle = [oracles.haversine_oracle(p.lat, p.lon, v.lat, v.lon) for v in vertices]
        assert oracle[vid] <= min(oracle) + 1e-6

    # a step along a route: none (a zero-length segment), a short one, one of
    # about 4 km, like synth's spurs, or an east-west one of about 20 km, which
    # at high latitudes bows far from its chord
    _steps = st.one_of(
        st.just((0.0, 0.0)),
        st.tuples(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0)),
        st.tuples(st.floats(-4000.0, 4000.0), st.sampled_from([-4000.0, 4000.0])),
        st.tuples(st.sampled_from([-20000.0, 20000.0]), st.floats(-400.0, 400.0)))

    @settings(max_examples=60, deadline=None)
    @given(origin=st.sampled_from([(-33.5, 150.0), (0.0, 179.995), (60.0, -179.999),
                                   (84.0, 30.0), (88.5, 179.99), (-89.2, 0.0)]),
           starts=st.lists(st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0)),
                           min_size=1, max_size=4),
           steps=st.lists(st.lists(_steps, min_size=1, max_size=4), min_size=4, max_size=4),
           twin=st.booleans(),
           queries=st.lists(st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
                            min_size=1, max_size=25),
           on_route=st.lists(st.integers(0, 100), max_size=5),
           stub=st.tuples(st.floats(-2.0, 2.0), st.floats(1.0, 4.0)))
    # the nearest vertex sits on a cell row's edge, 1 m north of the query
    @example(origin=(0.0, 179.995), starts=[(0.0, 0.0)], steps=[[(0.0, 0.0)]] * 4,
             twin=False, queries=[(0.0, -1.0)], on_route=[], stub=(0.0, 1.0))
    # a near tie that the oracle's formula rounds the other way
    @example(origin=(84.0, 30.0), starts=[(0.0, 0.0), (-1.5, -1.5)], steps=[[(0.0, 0.0)]] * 4,
             twin=False, queries=[(-1.5, 0.0)], on_route=[], stub=(0.0, 1.0))
    def test_locate_all_equals_full_scan_on_random_layers(self, origin, starts, steps, twin,
                                                          queries, on_route, stub):
        # routes of short, long and zero-length segments, maybe a twin of the
        # first under a smaller id, anywhere from the antimeridian to near a
        # pole; queries scattered, clustered in one grouping cell, on vertices,
        # and one off the middle of the longest segment, with a short route
        # starting a gap north of it
        routes = []
        for k, (start, route_steps) in enumerate(zip(starts, steps)):
            east, north = start
            offsets = [(east, north)]
            for de, dn in route_steps:
                east, north = east + de, north + dn
                offsets.append((east, north))
            routes.append(make_route(f"r{k}", [(*self._offset(origin, e, n), 10.0 * k + j)
                                               for j, (e, n) in enumerate(offsets)]))
        if twin:
            routes.append(make_route("r", [(v.lat, v.lon, a) for v, a in
                                           zip(vertices_of(routes[0]), routes[0].altitudes)]))
        points = [GeoPoint(*self._offset(origin, e, n)) for e, n in queries]
        off, gap = stub
        a, b = max(((a, b) for r in routes for a, b in zip(vertices_of(r), vertices_of(r)[1:])),
                   key=lambda ab: haversine_distance(*ab))
        middle = (a.lat + 0.5 * (b.lat - a.lat),
                  a.lon + 0.5 * ((b.lon - a.lon + 180.0) % 360.0 - 180.0))
        q = self._offset(middle, 0.0, off)
        routes.append(make_route("s", [(*self._offset(q, 0.0, gap), 1.0),
                                       (*self._offset(q, 0.0, gap + 100.0), 2.0)]))
        points.append(GeoPoint(*q))
        vertices = [v for r in routes for v in vertices_of(r)]
        points += [GeoPoint(*self._offset((p.lat, p.lon), 30.0, -20.0)) for p in points[:3]]
        points += [vertices[k % len(vertices)] for k in on_route]
        for p, (pt, d, route_id, altitude) in zip(points, RouteLocator(routes).locate_all(points)):
            assert (pt, d, route_id) == self._full_scan(p, routes)
            self._check_altitude(p, altitude, routes)

    # -- the proximity question alone ----------------------------------------

    def _check_near(self, points, routes, radius_m):
        """near_all's flag, witness and altitude against locate_all's answer
        and the full scan."""
        locator = RouteLocator(routes)
        located = locator.locate_all(points)
        near = locator.near_all(points, radius_m)
        assert len(near) == len(points)
        for p, (_, d, _, altitude), (witness, near_altitude) in zip(points, located, near):
            if not routes:
                assert witness == math.inf and math.isnan(near_altitude)
                continue
            assert (witness <= radius_m) == (d <= radius_m)
            assert (d <= radius_m) == (self._full_scan(p, routes)[1] <= radius_m)
            # the witness is the distance to some on-route point, or inf
            assert d <= witness if witness <= radius_m else witness == math.inf
            assert near_altitude == altitude
            self._check_altitude(p, near_altitude, routes)
        return located, near

    @settings(max_examples=80, deadline=None)
    @given(origin=st.sampled_from([(-33.5, 150.0), (0.0, 179.995), (60.0, -179.999),
                                   (84.0, 30.0), (88.5, 179.99), (-89.2, 0.0)]),
           starts=st.lists(st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0)),
                           max_size=4),
           steps=st.lists(st.lists(st.tuples(st.floats(-400.0, 400.0),
                                             st.floats(-400.0, 400.0)),
                                   min_size=1, max_size=4), min_size=4, max_size=4),
           rings=st.lists(st.booleans(), min_size=4, max_size=4),
           spur=st.none() | st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0),
                                      st.floats(0.0, 2.0 * math.pi)),
           queries=st.lists(st.tuples(st.floats(-5000.0, 5000.0), st.floats(-5000.0, 5000.0)),
                            max_size=20),
           on_vertex=st.lists(st.integers(0, 100), max_size=4),
           extension=st.lists(st.tuples(st.integers(0, 100), st.floats(0.0, 1.0)), max_size=4),
           radius_m=st.just(0.0) | st.floats(0.0, 3000.0),
           tie=st.none() | st.integers(0, 100))
    # no routes at all
    @example(origin=(0.0, 179.995), starts=[], steps=[[(0.0, 0.0)]] * 4, rings=[False] * 4,
             spur=None, queries=[(0.0, 0.0), (10.0, 10.0)], on_vertex=[], extension=[],
             radius_m=200.0, tie=None)
    # radius 0 with points on vertices and on a segment's extension, by a spur
    @example(origin=(84.0, 30.0), starts=[(0.0, 0.0)], steps=[[(300.0, 0.0), (0.0, 300.0)]] * 4,
             rings=[True] * 4, spur=(100.0, 100.0, 1.0), queries=[(150.0, 10.0)],
             on_vertex=[0, 1, 2, 5], extension=[(0, 0.5), (1, 0.25)], radius_m=0.0, tie=None)
    def test_near_all_equals_locate_all_on_random_layers(self, origin, starts, steps, rings,
                                                         spur, queries, on_vertex, extension,
                                                         radius_m, tie):
        # routes of short steps, some closed into rings, and maybe one spur
        # about 4.6 km long whose reach, like synth's spurs, dwarfs the rest;
        # queries scattered, some 36 m from another so that groups have
        # members besides their centre, on vertices and on the extension of
        # a segment past its end; radius_m 0, random, or the exact distance
        # of one query, so that a witness lands on the threshold
        routes = []
        for k, (start, route_steps, ring) in enumerate(zip(starts, steps, rings)):
            east, north = start
            offsets = [(east, north)]
            for de, dn in route_steps:
                east, north = east + de, north + dn
                offsets.append((east, north))
            if ring:
                offsets.append(offsets[0])
            routes.append(make_route(f"r{k}", [(*self._offset(origin, e, n), 10.0 * k + j)
                                               for j, (e, n) in enumerate(offsets)]))
        if spur is not None:
            east, north, heading = spur
            routes.append(make_route("spur", [
                (*self._offset(origin, east, north), 1.0),
                (*self._offset(origin, east + 4600.0 * math.cos(heading),
                               north + 4600.0 * math.sin(heading)), 2.0)]))
        points = [GeoPoint(*self._offset(origin, e, n)) for e, n in queries]
        points += [GeoPoint(*self._offset((p.lat, p.lon), 30.0, -20.0)) for p in points[:3]]
        segments = [(a, b) for r in routes for a, b in zip(vertices_of(r), vertices_of(r)[1:])]
        vertices = [v for r in routes for v in vertices_of(r)]
        if vertices:
            points += [vertices[k % len(vertices)] for k in on_vertex]
            for k, t in extension:
                a, b = segments[k % len(segments)]
                lat = min(90.0, max(-90.0, b.lat + t * (b.lat - a.lat)))
                dlon = (b.lon - a.lon + 180.0) % 360.0 - 180.0
                points.append(GeoPoint(lat, (b.lon + t * dlon + 180.0) % 360.0 - 180.0))
        if tie is not None and points and routes:
            radius_m = RouteLocator(routes).locate(points[tie % len(points)])[1]
        self._check_near(points, routes, radius_m)

    def test_near_all_finds_a_member_nearer_than_the_centre(self):
        # a 40 m segment; the group's centre lies 129 m north of its middle
        # and a member 99 m north: the segment's bound from the centre,
        # about 130.5 m less its reach of about 21 m, is past radius_m, and
        # both its ends lie farther than radius_m from the member, which
        # only a projection finds within it
        mid = (-33.5012, 150.0012)
        routes = [make_route("r", [(*self._offset(mid, -20.0, 0.0), 1.0),
                                   (*self._offset(mid, 20.0, 0.0), 2.0)])]
        centre, member = (GeoPoint(*self._offset(mid, 0.0, n)) for n in (129.0, 99.0))
        assert self._same_cell([centre, member])
        _, near = self._check_near([centre, member], routes, 100.0)
        assert [w <= 100.0 for w, _ in near] == [False, True]

    def test_near_all_with_a_long_spur_over_a_street_grid(self):
        # synth's layout: a grid of streets with segments of about 1.8 km
        # (reach about 930 m) and one spur of 4.6 km (reach about 2,330 m);
        # radius 0, the default 200 m, and the exact distance of a point
        # that lies on the extension of the spur past its end
        step = 0.0165
        routes = [make_route(f"h{k}", [(-33.5 + 0.02 * k, 150.0 + i * step, 10.0 + i + k)
                                       for i in range(7)]) for k in range(5)]
        routes += [make_route(f"v{k}", [(-33.5 + i * step, 150.0 + 0.02 * k, 50.0 + i + k)
                                        for i in range(7)]) for k in range(5)]
        routes.append(make_route("spur", [(-33.49, 150.011, 3.0), (-33.4486, 150.011, 4.0)]))
        rng = random.Random(27)
        points = [GeoPoint(rng.uniform(-33.52, -33.38), rng.uniform(149.98, 150.12))
                  for _ in range(300)]
        points += [vertices_of(routes[0])[3], GeoPoint(-33.4476, 150.011)]
        for radius_m in (0.0, 200.0, RouteLocator(routes).locate(points[-1])[1]):
            located, near = self._check_near(points, routes, radius_m)
            assert {w <= radius_m for w, _ in near} == {True, False}
        assert near[-1][0] == located[-1][1]
        for p, (_, altitude) in zip(points, near):
            assert altitude == oracles.nearest_vertex_altitude(p.lat, p.lon, routes)

    def test_segment_bowing_near_the_pole_is_projected(self):
        # along 89.5 N a 20-degree segment's midpoint lies 37 m farther from
        # its ends than half its length: p, 10 m north of that midpoint, must
        # still project onto it, not stop at the start of a route 20 m north
        m = GeoPoint(89.5, 10.0)
        p = GeoPoint(m.lat + 10.0 / METERS_PER_DEG, 10.0)
        start = p.lat + 20.0 / METERS_PER_DEG
        routes = [make_route("long", [(89.5, 0.0, 1.0), (89.5, 20.0, 2.0)]),
                  make_route("short", [(start, 10.0, 3.0), (start + 0.002, 10.0, 4.0)])]
        pt, d, route_id, altitude = RouteLocator(routes).locate(p)
        assert (route_id, altitude) == ("long", 3.0)
        assert d == pytest.approx(10.0, abs=1e-3)
        assert (pt, d, route_id) == self._full_scan(p, routes)

    # -- answers for a whole batch of points at once --------------------------

    @staticmethod
    def _same_cell(points):
        """Whether all points share one cell of the grid that groups queries."""
        return len({(math.floor(p.lat / _GROUP_CELL_DEG), math.floor(p.lon / _GROUP_CELL_DEG))
                    for p in points}) == 1

    def test_batched_context_equals_per_point_lookups(self):
        # a 300-point hotspot (sigma 150 m) in random order, so that the
        # members of a cell are scattered through the input, over a street
        # grid with a 5 km spur and twin routes, with POIs among the points
        step = 0.001
        routes = [make_route(f"h{k}", [(-33.5 + 0.002 * k, 150.0 + i * step, 10.0 + i)
                                       for i in range(21)])
                  for k in range(6)]
        routes.append(make_route("spur", [(-33.495, 150.01, 20.0),
                                          (-33.45, 150.01, 30.0)]))
        twin = [(-33.48, 150.0 + i * step, 5.0) for i in range(21)]
        routes += [make_route("t-b", twin), make_route("t-a", twin)]
        rng = random.Random(18)
        lat0, lon0 = -33.49, 150.012
        m_lon = METERS_PER_DEG * math.cos(math.radians(lat0))
        locations = [GeoPoint(lat0 + rng.gauss(0, 150) / METERS_PER_DEG,
                              lon0 + rng.gauss(0, 150) / m_lon) for _ in range(300)]
        pois = [PoiRecord(f"p{i:02d}", "fuel", locations[rng.randrange(300)])
                for i in range(12)]
        locator = RouteLocator(routes)
        coords = [(v.lat, v.lon) for r in sorted(routes, key=lambda r: r.route_id)
                  for v in vertices_of(r)]
        alts = [a for r in sorted(routes, key=lambda r: r.route_id) for a in r.altitudes]
        located = locator.locate_all(locations)
        assert located == [locator.locate(p) for p in locations]
        for p, (pt, d, route_id, altitude) in zip(locations, located):
            assert (pt, d, route_id) == self._full_scan(p, routes)
            assert altitude == alts[oracles.linear_nearest(coords, p.lat, p.lon)[0]]
        poi_index = PoiIndex(pois)
        nearest = poi_index.nearest_all(locations)
        assert nearest == [poi_index.nearest_all([p])[0] for p in locations]
        for p, (poi, d) in zip(locations, nearest):
            assert (d, poi.poi_id) == min((haversine_distance(p, q.location), q.poi_id)
                                          for q in pois)
        points = [DemandPoint(i, p, "t", "origin") for i, p in enumerate(locations)]
        cfg = ConstraintConfig()
        assert annotate_context(points, PoiIndex(pois), routes, NO_FIRE, cfg) == [
            adjust_params(altitude, dist_poi, d, None, cfg)
            for (_, d, _, altitude), (_, dist_poi) in zip(located, nearest)]

    def test_cell_straddling_a_spur_end_matches_full_scan(self):
        # a 5 km spur from the south ends inside one grouping cell, 432 m from
        # the cell's first point, which sits on the end of another route;
        # one member lies just past the spur's end and one just before it,
        # both within 377 m of the first point, so their nearest vertex, the
        # spur's end, lies farther from the centre than any member does
        routes = [make_route("spur", [(-33.55, 150.0045, 30.0), (-33.4985, 150.0045, 40.0)]),
                  make_route("north", [(-33.4965, 150.0005, 10.0), (-33.45, 150.0005, 20.0)])]
        members = [GeoPoint(-33.4965, 150.0005), GeoPoint(-33.4970, 150.0015),
                   GeoPoint(-33.4982, 150.0040), GeoPoint(-33.4975, 150.0025),
                   GeoPoint(-33.4988, 150.0033), GeoPoint(-33.4980, 150.0030)]
        assert self._same_cell(members)
        coords = [(v.lat, v.lon) for r in sorted(routes, key=lambda r: r.route_id)
                  for v in vertices_of(r)]
        alts = [a for r in sorted(routes, key=lambda r: r.route_id) for a in r.altitudes]
        got = RouteLocator(routes).locate_all(members)
        for p, (pt, d, route_id, altitude) in zip(members, got):
            assert (pt, d, route_id) == self._full_scan(p, routes)
            assert altitude == alts[oracles.linear_nearest(coords, p.lat, p.lon)[0]]
        past, before = got[2], got[4]
        assert (past[2], past[3]) == ("spur", 40.0)
        assert before[2] == "spur" and before[0].lat < -33.4985 and before[3] == 40.0
        # the same holds for POIs at the first point and at the spur's end
        pois = [PoiRecord("q0", "fuel", members[0]),
                PoiRecord("q1", "fuel", GeoPoint(-33.4985, 150.0045))]
        nearest = PoiIndex(pois).nearest_all(members)
        assert [(poi.poi_id, d) for poi, d in nearest] == [
            min(((q.poi_id, haversine_distance(p, q.location)) for q in pois),
                key=lambda x: (x[1], x[0])) for p in members]
        assert nearest[2][0].poi_id == "q1"

    def test_tied_routes_go_to_the_smaller_id_across_a_cell(self):
        # two north-south routes 2**-7 degrees either side of the members'
        # meridian: every member is at exactly the same distance from both
        lats = [-33.6 + 0.01 * i for i in range(21)]
        routes = [make_route("tie-b", [(lat, 150.0 - 2 ** -7, 1.0) for lat in lats]),
                  make_route("tie-a", [(lat, 150.0 + 2 ** -7, 2.0) for lat in lats])]
        members = [GeoPoint(-33.4999 + 0.0005 * k, 150.0) for k in range(9)]
        assert self._same_cell(members)
        got = RouteLocator(routes).locate_all(members)
        for p, (pt, d, route_id, _) in zip(members, got):
            assert project_to_polyline(p, vertices_of(routes[0]))[1] == d
            assert route_id == "tie-a"
            assert (pt, d, route_id) == self._full_scan(p, routes)

    def test_tied_pois_go_to_the_smaller_id_across_a_cell(self):
        pois = [PoiRecord("p-b", "fuel", GeoPoint(-33.497, 150.0 - 2 ** -7)),
                PoiRecord("p-a", "fuel", GeoPoint(-33.497, 150.0 + 2 ** -7)),
                PoiRecord("p-c", "fuel", GeoPoint(-33.3, 150.0))]
        members = [GeoPoint(-33.4999 + 0.0005 * k, 150.0) for k in range(9)]
        assert self._same_cell(members)
        for p, (poi, d) in zip(members, PoiIndex(pois).nearest_all(members)):
            assert d == haversine_distance(p, pois[0].location)
            assert poi.poi_id == "p-a"

    def test_locate_across_the_antimeridian_matches_full_scan(self):
        routes = [make_route("am", [(0.001, lon, 1.0) for lon in
                                    (179.997, 179.998, 179.999, -179.999, -179.998)]),
                  make_route("am2", [(-0.002, 179.9985, 2.0), (-0.002, -179.9985, 3.0)])]
        rng = random.Random(19)
        queries = [GeoPoint(rng.uniform(-0.004, 0.004),
                            (180.0 + rng.uniform(-0.004, 0.004) + 180.0) % 360.0 - 180.0)
                   for _ in range(60)]
        queries.append(GeoPoint(0.0, 179.9995))
        locator = RouteLocator(routes)
        got = locator.locate_all(queries)
        for q, (pt, d, route_id, _) in zip(queries, got):
            assert (pt, d, route_id) == self._full_scan(q, routes)
            assert d < 450.0
        pt, d, route_id, _ = got[-1]
        assert route_id == "am"
        assert d == pytest.approx(0.001 * METERS_PER_DEG, abs=0.01)
