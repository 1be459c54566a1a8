import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from evsite.geo import (
    _DEG,
    _GROUP_CELL_DEG,
    _REACH_MARGIN_M,
    EARTH_RADIUS_M,
    METERS_PER_DEG,
    GeoPoint,
    MultiPolygon,
    Polygon,
    _haversine_terms,
    haversine_distance,
    point_in_polygon,
    project_segment,
    project_to_polyline,
    segment_reaches,
)
from records import index_of, route_of


def ring(*latlons):
    return tuple(GeoPoint(lat, lon) for lat, lon in latlons)


UNIT_SQUARE = Polygon(ring((0, 0), (0, 1), (1, 1), (1, 0), (0, 0)))


def _wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0


def _seed_pairs(rng, n):
    """n (a, b) pairs: at every scale from 1e-7 to 180 degrees, near the
    antipode (where the clamp of the square root fires), across +-180, and
    on the poles and the antimeridian."""
    pairs = []
    for k in range(n):
        a = GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
        if k % 4 == 0:
            scale = 10.0 ** rng.uniform(-7.0, math.log10(180.0))
            b = GeoPoint(max(-90.0, min(90.0, a.lat + rng.uniform(-scale, scale))),
                         _wrap_lon(a.lon + rng.uniform(-scale, scale)))
        elif k % 4 == 1:
            eps = 10.0 ** rng.uniform(-9.0, -1.0)
            b = GeoPoint(max(-90.0, min(90.0, -a.lat + rng.uniform(-eps, eps))),
                         _wrap_lon(a.lon + 180.0 + rng.uniform(-eps, eps)))
        elif k % 4 == 2:
            a = GeoPoint(a.lat, 180.0 - rng.uniform(0.0, 1.0))
            b = GeoPoint(max(-90.0, min(90.0, a.lat + rng.uniform(-1.0, 1.0))),
                         -180.0 + rng.uniform(0.0, 1.0))
        else:
            a = GeoPoint(rng.choice([a.lat, 90.0, -90.0]), rng.choice([a.lon, 180.0, -180.0]))
            b = GeoPoint(rng.choice([-a.lat, rng.uniform(-90.0, 90.0)]),
                         rng.choice([-a.lon, 180.0, -180.0, rng.uniform(-180.0, 180.0)]))
        pairs.append((a, b))
    return pairs


class TestGeoPoint:
    def test_valid(self):
        GeoPoint(-33.8568, 151.2153)

    @pytest.mark.parametrize("lat,lon", [(91, 0), (-91, 0), (0, 181), (0, -181),
                                         (float("nan"), 0), (0, float("inf"))])
    def test_invalid(self, lat, lon):
        with pytest.raises(ValueError):
            GeoPoint(lat, lon)

    @pytest.mark.parametrize("lat,lon,message", [
        (91.0, 0.0, "latitude out of range: 91.0"),
        (91.0, 181.0, "latitude out of range: 91.0"),
        (0.0, -181.0, "longitude out of range: -181.0"),
        (float("nan"), 181.0, "non-finite coordinate: (nan, 181.0)"),
        (91.0, float("-inf"), "non-finite coordinate: (91.0, -inf)"),
    ])
    def test_invalid_message(self, lat, lon, message):
        # the first failed check names the fault: finiteness, then latitude
        with pytest.raises(ValueError) as e:
            GeoPoint(lat, lon)
        assert str(e.value) == message


class TestHaversine:
    def test_identity(self):
        p = GeoPoint(-33.8568, 151.2153)
        assert haversine_distance(p, p) == 0.0

    def test_antipodal(self):
        d = haversine_distance(GeoPoint(0, 0), GeoPoint(0, 180))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_sydney_pair_vs_oracle(self):
        a = GeoPoint(-33.8568, 151.2153)
        b = GeoPoint(-33.8650, 151.2094)
        expected = oracles.haversine_oracle(a.lat, a.lon, b.lat, b.lon)
        assert haversine_distance(a, b) == pytest.approx(expected, rel=1e-6)

    def test_random_pairs_vs_oracle(self):
        rng = random.Random(1)
        for _ in range(2000):
            a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
            expected = oracles.haversine_oracle(a.lat, a.lon, b.lat, b.lon)
            assert haversine_distance(a, b) == pytest.approx(expected, rel=1e-6, abs=1e-6)

    def test_symmetry_and_triangle(self):
        rng = random.Random(2)
        for _ in range(300):
            pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-179, 179))
                   for _ in range(3)]
            a, b, c = pts
            assert haversine_distance(a, b) == haversine_distance(b, a)
            ab = haversine_distance(a, b)
            bc = haversine_distance(b, c)
            ac = haversine_distance(a, c)
            assert ac <= ab + bc + 1e-9 * (ab + bc + 1)

    def test_kernels_return_the_seed_doubles(self):
        pairs = _seed_pairs(random.Random(40), 10_000)
        want = [oracles.seed_haversine(a.lat, a.lon, b.lat, b.lon) for a, b in pairs]
        # some pairs reach the clamp: the square root at 1 or just above it
        assert sum(d == 2.0 * EARTH_RADIUS_M * math.asin(1.0) for d in want) >= 100
        assert [haversine_distance(a, b) for a, b in pairs] == want
        ends = [b for _, b in pairs]
        idx = index_of(ends, 1.0)
        assert [idx.distances(a, [k])[0] for k, (a, _) in enumerate(pairs)] == want
        a = pairs[0][0]
        assert idx.distances(a, list(range(len(ends)))) == [
            oracles.seed_haversine(a.lat, a.lon, b.lat, b.lon) for b in ends]
        assert [_haversine_terms(math.radians(a.lat), math.cos(math.radians(a.lat)), a.lon,
                                 math.radians(b.lat), math.cos(math.radians(b.lat)), b.lon)
                for a, b in pairs] == want

    def test_deg_is_radians(self):
        # x * _DEG stands for math.radians(x) in every kernel: bit for bit,
        # signed zeros, subnormals, the largest doubles and non-finite values
        rng = random.Random(41)
        xs = [rng.uniform(-360.0, 360.0) for _ in range(10_000)]
        xs += [math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024)) for _ in range(10_000)]
        xs += [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 90.0, -90.0,
               180.0, -180.0, 360.0, 1e300, 1.7976931348623157e308, -1.7976931348623157e308,
               math.inf, -math.inf, math.nan, 7, -2 ** 53]
        for x in xs:
            assert math.radians(x).hex() == (x * _DEG).hex(), x


class TestPointInPolygon:
    def test_center_of_square(self):
        assert point_in_polygon(GeoPoint(0.5, 0.5), MultiPolygon((UNIT_SQUARE,)))

    def test_outside_bbox(self):
        assert not point_in_polygon(GeoPoint(5, 5), MultiPolygon((UNIT_SQUARE,)))

    def test_on_edge_counts_inside(self):
        assert point_in_polygon(GeoPoint(0.0, 0.5), MultiPolygon((UNIT_SQUARE,)))
        assert point_in_polygon(GeoPoint(0.0, 0.0), MultiPolygon((UNIT_SQUARE,)))

    def test_point_in_hole_is_outside(self):
        hole = ring((0.4, 0.4), (0.4, 0.6), (0.6, 0.6), (0.6, 0.4), (0.4, 0.4))
        poly = MultiPolygon((Polygon(UNIT_SQUARE.exterior, (hole,)),))
        assert not point_in_polygon(GeoPoint(0.5, 0.5), poly)
        assert point_in_polygon(GeoPoint(0.2, 0.2), poly)

    def test_random_polygons_vs_crossing_oracle(self):
        rng = random.Random(3)
        agree = disagreements_near_edge = 0
        for _ in range(1000):
            # random simple star-shaped polygon around a center
            clat = rng.uniform(-50, 50)
            clon = rng.uniform(-50, 50)
            n = rng.randint(3, 9)
            verts = []
            for k in range(n):
                ang = 2 * math.pi * k / n
                r = rng.uniform(0.2, 1.5)
                verts.append((clon + r * math.cos(ang), clat + r * math.sin(ang)))
            verts.append(verts[0])
            poly = MultiPolygon((Polygon(
                tuple(GeoPoint(lat, lon) for lon, lat in verts)),))
            p = GeoPoint(clat + rng.uniform(-2, 2), clon + rng.uniform(-2, 2))
            got = point_in_polygon(p, poly)
            assert got == oracles.seed_point_in_polygon(p, poly)
            for q in _edge_probes(verts):
                assert point_in_polygon(q, poly) == oracles.seed_point_in_polygon(q, poly), q
            want = oracles.crossing_count_inside(p.lon, p.lat, [verts])
            if got == want:
                agree += 1
            else:
                assert oracles.min_edge_distance_deg(p.lon, p.lat, [verts]) < 1e-9
                disagreements_near_edge += 1
        assert agree >= 999

    def test_holes_and_two_polygons_match_the_seed_version(self):
        # the seed's two-pass version answers every probe the same: random
        # ones, the vertices, edge midpoints and points one ulp off them,
        # about star polygons with a star hole, two to a MultiPolygon
        rng = random.Random(42)

        def star(clat, clon, r0, r1):
            n = rng.randint(3, 9)
            verts = []
            for k in range(n):
                ang, r = 2 * math.pi * k / n, rng.uniform(r0, r1)
                verts.append((clon + r * math.cos(ang), clat + r * math.sin(ang)))
            return verts + verts[:1]

        def points(verts):
            return tuple(GeoPoint(lat, lon) for lon, lat in verts)

        for _ in range(100):
            polygons, probes = [], []
            for _ in range(2):
                clat, clon = rng.uniform(-50, 50), rng.uniform(-50, 50)
                exterior, hole = star(clat, clon, 0.2, 1.5), star(clat, clon, 0.02, 0.09)
                polygons.append(Polygon(points(exterior), (points(hole),)))
                # in and around the hole, and anywhere about the polygon
                probes += [GeoPoint(clat + rng.uniform(-r, r), clon + rng.uniform(-r, r))
                           for r in (0.1, 0.1, 0.1, 2.0, 2.0)]
                probes += _edge_probes(exterior) + _edge_probes(hole)
            poly = MultiPolygon(tuple(polygons))
            for q in probes:
                assert point_in_polygon(q, poly) == oracles.seed_point_in_polygon(q, poly), q


def _edge_probes(verts):
    """GeoPoints at each (lon, lat) vertex of a ring and the midpoint of each
    of its edges, and one ulp off each of them along each axis and a diagonal."""
    spots = list(verts) + [((x1 + x2) / 2, (y1 + y2) / 2)
                           for (x1, y1), (x2, y2) in zip(verts, verts[1:])]
    out = []
    for lon, lat in spots:
        for dx, dy in [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]:
            x = math.nextafter(lon, dx * math.inf) if dx else lon
            y = math.nextafter(lat, dy * math.inf) if dy else lat
            if -180.0 <= x <= 180.0 and -90.0 <= y <= 90.0:
                out.append(GeoPoint(y, x))
    return out


def _clamp(x, lo, hi):
    return max(lo, min(hi, x))


@st.composite
def rim_polygons(draw):
    """A star-shaped (lon, lat) ring by the antimeridian or above 80 degrees
    of latitude, its vertices clamped to the globe, so that some of its
    edges run along lon +-180 or lat +-90."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    if draw(st.booleans()):
        clon, clat = sign * draw(st.floats(178.5, 180.0)), draw(st.floats(-70.0, 70.0))
    else:
        clon, clat = draw(st.floats(-180.0, 180.0)), sign * draw(st.floats(80.0, 90.0))
    n = draw(st.integers(3, 9))
    verts = []
    for k in range(n):
        r = draw(st.floats(0.2, 1.5))
        verts.append((_clamp(clon + r * math.cos(2 * math.pi * k / n), -180.0, 180.0),
                      _clamp(clat + r * math.sin(2 * math.pi * k / n), -90.0, 90.0)))
    return verts + verts[:1], clon, clat


class TestPointInPolygonAtTheRim:
    """point_in_polygon by the antimeridian and the poles: off the edges it
    agrees with the crossing-count oracle, and a point on an edge is inside."""

    @settings(max_examples=300, deadline=None)
    @given(case=rim_polygons(),
           probes=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                           min_size=1, max_size=20))
    def test_matches_the_crossing_count_oracle(self, case, probes):
        verts, clon, clat = case
        poly = MultiPolygon((Polygon(tuple(GeoPoint(lat, lon) for lon, lat in verts)),))
        for dlon, dlat in probes:
            lon, lat = _clamp(clon + dlon, -180.0, 180.0), _clamp(clat + dlat, -90.0, 90.0)
            got = point_in_polygon(GeoPoint(lat, lon), poly)
            # the seed's version on every probe, near an edge or not
            assert got == oracles.seed_point_in_polygon(GeoPoint(lat, lon), poly), (lon, lat)
            if oracles.min_edge_distance_deg(lon, lat, [verts]) > 1e-9:
                assert got == oracles.crossing_count_inside(lon, lat, [verts]), (lon, lat)
        # the vertices, and the midpoint of each edge along a meridian or a
        # parallel (lon +-180 and lat +-90 among them), lie exactly on an edge
        on_edge = list(verts)
        for (x1, y1), (x2, y2) in zip(verts, verts[1:]):
            if x1 == x2 or y1 == y2:
                on_edge.append((x1 + (x2 - x1) / 2, y1 + (y2 - y1) / 2))
        for lon, lat in on_edge:
            assert point_in_polygon(GeoPoint(lat, lon), poly), (lon, lat)
        for q in _edge_probes(verts):
            assert point_in_polygon(q, poly) == oracles.seed_point_in_polygon(q, poly), q

    def test_ring_split_at_the_antimeridian(self):
        # lon 179.5 to -179.5 across the antimeridian, split there (RFC 7946 3.1.9)
        poly = MultiPolygon((
            Polygon(ring((-1, 179.5), (-1, 180), (1, 180), (1, 179.5), (-1, 179.5))),
            Polygon(ring((-1, -180), (-1, -179.5), (1, -179.5), (1, -180), (-1, -180)))))
        for lat, lon in [(0, 179.75), (0, -179.75), (0, 180.0), (0, -180.0),
                         (0.999, 179.999), (-0.999, -179.999), (1, 180.0)]:
            assert point_in_polygon(GeoPoint(lat, lon), poly), (lat, lon)
        for lat, lon in [(0, 179.4), (0, -179.4), (1.001, 180.0), (0, 0)]:
            assert not point_in_polygon(GeoPoint(lat, lon), poly), (lat, lon)

    def test_ring_up_to_the_pole(self):
        poly = MultiPolygon((Polygon(ring((85, -10), (85, 10), (90, 10), (90, -10),
                                          (85, -10))),))
        for lat, lon in [(90, 0), (90, 10), (89.999, 0), (85, 0), (87, -10)]:
            assert point_in_polygon(GeoPoint(lat, lon), poly), (lat, lon)
        for lat, lon in [(84.999, 0), (89, 10.001), (89, 180), (-90, 0)]:
            assert not point_in_polygon(GeoPoint(lat, lon), poly), (lat, lon)


def assert_radius_queries(idx, q, r, want):
    """neighbors_within, within, any_within and claim_within all agree with
    want.

    within gives the same ids, ascending, with their distances from q.
    claim_within over a fresh free set takes every id in range when minpts is
    their count, and none when it is one more, so it counts them exactly."""
    assert idx.neighbors_within(q, r) == want
    hits = idx.within(q, r)
    assert list(hits) == want
    assert list(hits.values()) == idx.distances(q, want)
    assert idx.any_within(q, r) == bool(want)
    assert sorted(idx.claim_within(q, r, len(want), idx.free_cells())) == want
    assert idx.claim_within(q, r, len(want) + 1, idx.free_cells()) == []


class TestSpatialIndex:
    def test_empty(self):
        idx = index_of([], 0.01)
        assert_radius_queries(idx, GeoPoint(0, 0), 1e7, [])

    def test_identical_points(self):
        p = GeoPoint(10, 10)
        idx = index_of([p, p, p], 0.01)
        assert idx.neighbors_within(p, 0.0) == [0, 1, 2]

    def test_radius_zero_and_huge(self):
        rng = random.Random(4)
        pts = [GeoPoint(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(50)]
        idx = index_of(pts, 0.05)
        assert idx.neighbors_within(pts[7], 0.0) == [7]
        assert idx.neighbors_within(GeoPoint(0, 0), 2e7) == list(range(50))

    def test_radius_queries_vs_linear_scan(self):
        rng = random.Random(5)
        pts = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
               for _ in range(500)]
        coords = [(p.lat, p.lon) for p in pts]
        idx = index_of(pts, 0.01)
        for _ in range(50):
            q = GeoPoint(rng.uniform(-34.2, -32.8), rng.uniform(149.8, 151.2))
            r = rng.uniform(0, 30000)
            assert idx.neighbors_within(q, r) == oracles.linear_neighbors(
                coords, q.lat, q.lon, r)

    def test_nearest_single_and_exact(self):
        p = GeoPoint(-33.5, 150.5)
        idx = index_of([p], 0.01)
        assert idx.nearest(GeoPoint(-34, 151)) == (0, pytest.approx(
            oracles.haversine_oracle(-34, 151, -33.5, 150.5)))
        assert idx.nearest(p) == (0, 0.0)

    def test_point_at_exactly_the_radius_is_found(self):
        # p.lat + radius in degrees rounds to just below 0, the row of q: the
        # window must still hold that row, or nearest finds no point
        q = GeoPoint(0.0, 179.995)
        idx = index_of([q, q], 500.0 / METERS_PER_DEG)
        p = GeoPoint(-8.993203637245379e-06, 179.995)
        d = haversine_distance(p, q)
        assert idx.neighbors_within(p, d) == [0, 1]
        assert idx.any_within(p, d)
        assert idx.nearest(p) == (0, d)

    def test_nearest_vs_linear_scan(self):
        rng = random.Random(6)
        pts = [GeoPoint(rng.uniform(-34, -33), rng.uniform(150, 151))
               for _ in range(300)]
        coords = [(p.lat, p.lon) for p in pts]
        idx = index_of(pts, 0.02)
        for _ in range(100):
            q = GeoPoint(rng.uniform(-35, -32), rng.uniform(149, 152))
            got_id, got_d = idx.nearest(q)
            want_id, want_d = oracles.linear_nearest(coords, q.lat, q.lon)
            assert got_id == want_id
            assert got_d == pytest.approx(want_d)
            # argmin optimality over every indexed point
            assert all(got_d <= oracles.haversine_oracle(q.lat, q.lon, *c) + 1e-9
                       for c in coords)

    @pytest.mark.parametrize("indexed,query,radius", [
        ((0, 179.9995), (0, -179.9995), 200.0),      # across the antimeridian
        ((89.9999, 180.0), (89.9999, 0.0), 50.0),    # across the north pole
        ((-89.9999, 90.0), (-89.9999, -90.0), 50.0),  # across the south pole
    ])
    def test_neighbour_on_the_far_side_of_a_wrap(self, indexed, query, radius):
        idx = index_of([GeoPoint(*indexed)], 0.01)
        assert_radius_queries(idx, GeoPoint(*query), radius, [0])
        assert idx.nearest(GeoPoint(*query))[0] == 0

    @pytest.mark.parametrize("lat,cell", [(0.0, 0.01), (-33.0, 0.05), (70.0, 0.02),
                                          (10.0, 400.0), (89.4, 0.05)])
    def test_queries_near_a_wrap_vs_linear_scan(self, lat, cell):
        rng = random.Random(int(lat) + 100)
        pts = [GeoPoint(lat + rng.uniform(-0.5, 0.5),
                        rng.choice((-1, 1)) * rng.uniform(179.6, 180.0))
               for _ in range(300)]
        pts += [GeoPoint(lat, 180.0), GeoPoint(lat, -180.0)]
        coords = [(p.lat, p.lon) for p in pts]
        idx = index_of(pts, cell)
        for k in range(60):
            q = GeoPoint(lat + rng.uniform(-0.6, 0.6),
                         rng.choice((-1, 1)) * rng.uniform(179.5, 180.0))
            r = rng.uniform(0, 40000) if k < 50 else rng.uniform(1e6, 8e6)
            assert idx.neighbors_within(q, r) == oracles.linear_neighbors(
                coords, q.lat, q.lon, r)
            got_id, got_d = idx.nearest(q)
            want_id, want_d = oracles.linear_nearest(coords, q.lat, q.lon)
            assert got_id == want_id
            assert got_d == pytest.approx(want_d)

    @pytest.mark.parametrize("cell_m", [50.0, 120.0, 300.0])
    def test_dense_cloud_matches_a_haversine_scan_exactly(self, cell_m):
        # 400 points within 500 m, so that queries take some cells whole and
        # skip others; the scan uses the very same distance function
        rng = random.Random(int(cell_m))
        lat0, lon0 = -33.87, 151.21
        m_lon = METERS_PER_DEG * math.cos(math.radians(lat0))
        pts = []
        while len(pts) < 400:
            dn, de = rng.uniform(-500, 500), rng.uniform(-500, 500)
            if math.hypot(dn, de) <= 500:
                pts.append(GeoPoint(lat0 + dn / METERS_PER_DEG, lon0 + de / m_lon))
        pts += pts[:5]  # coincident points
        idx = index_of(pts, cell_m / METERS_PER_DEG)

        def scan(q, r):
            return [i for i, p in enumerate(pts) if haversine_distance(q, p) <= r]

        for k in range(120):
            if k % 2:
                q = pts[rng.randrange(len(pts))]
            else:
                q = GeoPoint(lat0 + rng.uniform(-700, 700) / METERS_PER_DEG,
                             lon0 + rng.uniform(-700, 700) / m_lon)
            if k % 3 == 0:
                # some point lies exactly at the radius
                r = haversine_distance(q, pts[rng.randrange(len(pts))])
            else:
                r = rng.uniform(0, 1200)
            assert_radius_queries(idx, q, r, scan(q, r))
        # near the antipode, where the formula rounds worst
        q = GeoPoint(-lat0 + 1e-5, lon0 - 180.0)
        d = haversine_distance(q, pts[17])
        for r in (d, d - 0.4, d + 0.4, math.nextafter(d, 0.0)):
            assert_radius_queries(idx, q, r, scan(q, r))

    @pytest.mark.parametrize("lat0,lon0,spread,cell", [
        (0.0, 179.99, 0.03, 0.002),   # across the antimeridian
        (-45.0, -180.0, 0.03, 0.01),  # on it
        (89.97, 0.0, 180.0, 0.002),   # all round the north pole
        (-89.98, 120.0, 180.0, 0.05),  # all round the south pole
    ])
    def test_count_and_any_vs_linear_scan_at_ties(self, lat0, lon0, spread, cell):
        # radii are distances to indexed points, so that points lie exactly
        # at r, and one step below them, so that they just miss
        rng = random.Random(int(lat0 * 10 + lon0))

        def near(lat_spread):
            lat = max(-90.0, min(90.0, lat0 + rng.uniform(-lat_spread, lat_spread)))
            lon = lon0 + rng.uniform(-spread, spread)
            return GeoPoint(lat, lon - 360.0 if lon > 180.0 else
                            lon + 360.0 if lon < -180.0 else lon)

        pts = [near(0.03) for _ in range(250)]
        pts += pts[:3]
        idx = index_of(pts, cell)

        def scan(q, r):
            return [i for i, p in enumerate(pts) if haversine_distance(q, p) <= r]

        for k in range(80):
            q = pts[rng.randrange(len(pts))] if k % 2 else near(0.04)
            d = haversine_distance(q, pts[rng.randrange(len(pts))])
            for r in (d, math.nextafter(d, 0.0), rng.uniform(0.0, 500.0)):
                assert_radius_queries(idx, q, r, scan(q, r))

    def test_claim_within_vs_linear_scan(self):
        # free holds a random part of each cell: the claim returns the free ids
        # in range when the whole neighbourhood reaches minpts, else [] and
        # leaves free as it was
        rng = random.Random(11)
        lat0, lon0 = -33.87, 151.21
        m_lon = METERS_PER_DEG * math.cos(math.radians(lat0))
        pts = [GeoPoint(lat0 + rng.gauss(0, 150) / METERS_PER_DEG,
                        lon0 + rng.gauss(0, 150) / m_lon) for _ in range(300)]
        idx = index_of(pts, 60.0 / METERS_PER_DEG)
        for k in range(200):
            free = idx.free_cells()
            keep = rng.random()
            for ids in free.values():
                ids.intersection_update({i for i in ids if rng.random() < keep})
            before = {key: set(ids) for key, ids in free.items()}
            q = pts[rng.randrange(len(pts))]
            r = (haversine_distance(q, pts[rng.randrange(len(pts))]) if k % 2
                 else rng.uniform(0.0, 300.0))
            near = [i for i, p in enumerate(pts) if haversine_distance(q, p) <= r]
            minpts = rng.choice([1, len(near), len(near) + 1, rng.randint(1, 60)])
            unclaimed = {i for ids in before.values() for i in ids}
            got = idx.claim_within(q, r, minpts, free)
            if len(near) >= minpts:
                assert sorted(got) == [i for i in near if i in unclaimed]
                assert free == {key: ids - set(got) for key, ids in before.items()}
            else:
                assert got == []
                assert free == before

    def test_nearest_empty_errors(self):
        with pytest.raises(ValueError, match="empty index"):
            index_of([], 0.01).nearest(GeoPoint(0, 0))


class TestNearestAll:
    """nearest_all answers a batch a group cell at a time; every answer is
    the linear scan's, ties going to the smallest id."""

    @staticmethod
    def assert_linear(idx, pts, queries):
        coords = [(p.lat, p.lon) for p in pts]
        got = idx.nearest_all(queries)
        assert len(got) == len(queries)
        for q, (got_id, got_d) in zip(queries, got):
            want_id, want_d = oracles.linear_nearest(coords, q.lat, q.lon)
            assert got_id == want_id
            assert got_d == haversine_distance(q, pts[want_id])
            assert got_d == pytest.approx(want_d)
        assert got == [idx.nearest(q) for q in queries]

    @pytest.mark.parametrize("cell", [0.001, 0.01, 0.2])
    def test_many_points_in_one_group_cell(self, cell):
        rng = random.Random(31)
        lat0, lon0 = -33.87, 151.21    # about the corner of a group cell
        pts = [GeoPoint(lat0 + rng.uniform(-0.03, 0.03), lon0 + rng.uniform(-0.03, 0.03))
               for _ in range(300)]
        queries = [GeoPoint(lat0 + 0.0002 + rng.uniform(0, 0.0046),
                            lon0 + 0.0002 + rng.uniform(0, 0.0046)) for _ in range(200)]
        assert len({(math.floor(q.lat / _GROUP_CELL_DEG), math.floor(q.lon / _GROUP_CELL_DEG))
                    for q in queries}) == 1
        self.assert_linear(index_of(pts, cell), pts, queries)

    @pytest.mark.parametrize("flip", [False, True])
    def test_equidistant_points_go_to_the_smallest_id(self, flip):
        # ids 1 and 2 lie 2**-7 degrees either side of every query's meridian
        west, east = GeoPoint(-33.497, 150.0 - 2 ** -7), GeoPoint(-33.497, 150.0 + 2 ** -7)
        pts = [GeoPoint(-33.3, 150.0), *((east, west) if flip else (west, east))]
        queries = [GeoPoint(-33.4999 + 0.0005 * k, 150.0) for k in range(9)]
        got = index_of(pts, 0.01).nearest_all(queries)
        for q, (got_id, got_d) in zip(queries, got):
            assert haversine_distance(q, west) == haversine_distance(q, east) == got_d
            assert got_id == 1

    @pytest.mark.parametrize("lat_range,lon_range", [
        ((-0.05, 0.05), (179.95, 180.0)),     # either side of the antimeridian
        ((89.0, 90.0), (-180.0, 180.0)),      # about the north pole
        ((-90.0, -89.2), (-180.0, 180.0)),    # about the south pole
    ])
    def test_across_a_wrap(self, lat_range, lon_range):
        rng = random.Random(32)

        def point():
            lon = rng.uniform(*lon_range) * rng.choice((-1, 1))
            return GeoPoint(rng.uniform(*lat_range), lon)

        pts = [point() for _ in range(200)]
        queries = [point() for _ in range(100)]
        # a few in one group cell, next to an indexed point
        queries += [GeoPoint(pts[0].lat, pts[0].lon), GeoPoint(
            pts[0].lat, math.copysign(min(abs(pts[0].lon) + 1e-4, 180.0), pts[0].lon))]
        self.assert_linear(index_of(pts, 0.05), pts, queries)

    def test_empty_batch(self):
        assert index_of([GeoPoint(0, 0)], 0.01).nearest_all([]) == []
        assert index_of([], 0.01).nearest_all([]) == []

    def test_empty_index_errors(self):
        with pytest.raises(ValueError, match="empty index"):
            index_of([], 0.01).nearest_all([GeoPoint(0, 0)])


class TestNearestBound:
    """nearest_bound is never below the nearest distance, and it sees across
    the antimeridian."""

    @pytest.mark.parametrize("lat_range,lon_range,cell", [
        ((-34.0, -33.0), (150.0, 151.0), 0.02),
        ((-1.0, 1.0), (179.9, 180.0), 0.01),      # either side of the antimeridian
        ((89.9, 90.0), (-180.0, 180.0), 0.01),    # about the north pole
        ((-90.0, 90.0), (-180.0, 180.0), 5.0),    # the whole globe, sparsely
    ])
    def test_bound_is_at_least_the_nearest_distance(self, lat_range, lon_range, cell):
        rng = random.Random(41)

        def point(widen):
            lat = rng.uniform(*lat_range) + rng.uniform(-widen, widen)
            lon = rng.uniform(*lon_range) * rng.choice((-1, 1))
            return GeoPoint(max(-90.0, min(90.0, lat)), lon)

        pts = [point(0.0) for _ in range(150)]
        idx = index_of(pts, cell)
        queries = [point(0.5) for _ in range(200)] + [GeoPoint(-p.lat, _wrap_lon(p.lon + 180.0))
                                                      for p in pts[:20]]
        empty = [q for q in queries
                 if (math.floor(q.lat / cell), math.floor(q.lon / cell)) not in idx._cells]
        assert empty
        for q in queries:
            assert idx.nearest_bound(q) >= idx.nearest(q)[1]

    def test_one_point_from_its_antipode(self):
        p = GeoPoint(-33.87, 151.21)
        q = GeoPoint(33.87, 151.21 - 180.0)
        idx = index_of([p], 0.01)
        assert idx.nearest_bound(q) == idx.nearest(q)[1] == haversine_distance(q, p)

    def test_bound_across_the_antimeridian_is_the_nearest_distance(self):
        # the cells west of the query's are full, and the one nearest point
        # lies one cell east of it, across +-180
        rng = random.Random(5)
        far = GeoPoint(0.0, -179.9995)
        pts = [GeoPoint(rng.uniform(-1, 1), rng.uniform(179.90, 179.95)) for _ in range(400)]
        idx = index_of(pts + [far], 0.01)
        q = GeoPoint(0.0, 179.9995)
        assert idx.nearest(q) == (400, haversine_distance(q, far))
        assert idx.nearest(q)[1] <= idx.nearest_bound(q) <= haversine_distance(q, far)


class TestSharedWindows:
    """any_within and claim_within share one window per (query cell, radius)
    from the pair's second query on. Here every cell is queried by many
    points at one radius, so most queries take the shared window."""

    @pytest.mark.parametrize("lat0,lon0,spread,cell", [
        # cells of about 100 m; 180 starts a column of its own, centred at
        # 180.0005
        (-33.87, 151.21, 0.01, 0.001),
        # across +-180; with 0.007-degree cells the columns that hold 180
        # and -180 are centred past them
        (0.0, 180.0, 0.01, 0.007),
        (70.0, 180.0, 0.02, 0.007),
        # round either pole; the rows that hold +-90 are centred past it
        (89.99, 0.0, 180.0, 0.007),
        (-89.99, 0.0, 180.0, 0.007),
        # 90 starts a row of its own, centred at 90.005
        (89.99, 0.0, 180.0, 0.01),
    ])
    def test_many_queries_per_cell_vs_linear_scan(self, lat0, lon0, spread, cell):
        # a radius per cell that is a distance from the cell's last query
        # point to a nearby indexed point, one step below it, and one radius
        # for all cells
        rng = random.Random(int(lat0 * 100 + lon0 + cell * 1000))

        def near():
            lat = max(-90.0, min(90.0, lat0 + rng.uniform(-0.01, 0.01)))
            return GeoPoint(lat, _wrap_lon(lon0 + rng.uniform(-spread, spread)))

        pts = [near() for _ in range(250)]
        pts += [GeoPoint(lat0, 180.0), GeoPoint(lat0, -180.0), GeoPoint(90.0, 0.0),
                GeoPoint(90.0, 45.0), GeoPoint(-90.0, 0.0), GeoPoint(-90.0, -135.0)]
        pts = [p for p in pts if abs(p.lat - lat0) <= 0.02] + pts[:3]
        idx = index_of(pts, cell)

        def scan(q, r):
            return [i for i, p in enumerate(pts) if haversine_distance(q, p) <= r]

        def key(p):
            return math.floor(p.lat / cell), math.floor(p.lon / cell)

        def corners(row, col):
            # the corners of the cell, the farthest points from its centre,
            # clipped to the globe
            return [GeoPoint(max(-90.0, min(90.0, lat)), max(-180.0, min(180.0, lon)))
                    for lat in (row * cell, math.nextafter((row + 1) * cell, -math.inf))
                    for lon in (col * cell, math.nextafter((col + 1) * cell, -math.inf))]

        cells = sorted({key(p) for p in pts})
        off_globe = [(row, col) for row, col in cells
                     if abs((row + 0.5) * cell) > 90.0 or abs((col + 0.5) * cell) > 180.0]
        assert off_globe
        queries = pts + [near() for _ in range(100)]
        for row, col in rng.sample(cells, min(30, len(cells))) + off_globe:
            queries += corners(row, col)
        groups: dict[tuple[int, int], list[GeoPoint]] = {}
        for q in queries:
            groups.setdefault(key(q), []).append(q)
        for group in groups.values():
            last = group[-1]
            by_distance = sorted(pts, key=lambda p: haversine_distance(last, p))
            d = haversine_distance(last, by_distance[rng.randrange(min(40, len(pts)))])
            for r in (d, math.nextafter(d, 0.0), 150.0):
                for q in group:
                    want = scan(q, r)
                    assert idx.any_within(q, r) == bool(want)
                    assert sorted(idx.claim_within(q, r, len(want), idx.free_cells())) == want
                    assert idx.claim_within(q, r, len(want) + 1, idx.free_cells()) == []
        assert idx._windows, "no query took a shared window"

    def test_negative_radius_raises_on_every_query(self):
        # the second query of a pair would build the shared window, at the
        # radius plus the cell's half-diagonal, which is not negative
        p = GeoPoint(-33.87, 151.21)
        idx = index_of([p], 0.01)
        for _ in range(3):
            assert idx.any_within(p, 10.0)
            with pytest.raises(ValueError, match="radius must be >= 0"):
                idx.any_within(p, -1.0)
            with pytest.raises(ValueError, match="radius must be >= 0"):
                idx.claim_within(p, -1.0, 1, idx.free_cells())


class TestProjectToPolyline:
    def test_at_vertex(self):
        line = [GeoPoint(0, 0), GeoPoint(0, 1)]
        pt, d = project_to_polyline(GeoPoint(0, 1), line)
        assert d == 0.0
        assert (pt.lat, pt.lon) == (0, 1)

    def test_perpendicular_bisector_hits_midpoint(self):
        line = [GeoPoint(0, 0), GeoPoint(0, 0.2)]
        pt, d = project_to_polyline(GeoPoint(0.1, 0.1), line)
        assert pt.lon == pytest.approx(0.1, abs=1e-9)
        assert pt.lat == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_errors(self):
        with pytest.raises(ValueError, match="degenerate polyline"):
            project_to_polyline(GeoPoint(0, 0), [GeoPoint(0, 0)])

    def test_random_vs_dense_sampling(self):
        rng = random.Random(7)
        for _ in range(40):
            base_lat = rng.uniform(-35, -33)
            base_lon = rng.uniform(150, 151)
            line = [GeoPoint(base_lat + rng.uniform(-0.05, 0.05),
                             base_lon + rng.uniform(-0.05, 0.05))
                    for _ in range(rng.randint(2, 4))]
            q = GeoPoint(base_lat + rng.uniform(-0.05, 0.05),
                         base_lon + rng.uniform(-0.05, 0.05))
            _, got_d = project_to_polyline(q, line)
            _, want_d = oracles.dense_projection(
                q.lat, q.lon, [(v.lat, v.lon) for v in line],
                samples_per_segment=20000)
            assert abs(got_d - want_d) < 1.0

    @pytest.mark.parametrize("q", [(0.0, 179.9995), (0.0, -179.9995), (0.0012, 180.0),
                                   (-0.0004, -179.9999)])
    def test_segment_across_the_antimeridian(self, q):
        # the same problem turned 180 degrees about the pole axis lies far
        # from the antimeridian, where dense sampling gives the distance
        def turn(lon):
            return lon - 180.0 if lon > 0 else lon + 180.0

        line = [GeoPoint(0.001, 179.999), GeoPoint(0.001, -179.999)]
        pt, got_d = project_to_polyline(GeoPoint(*q), line)
        (want_lat, want_lon), want_d = oracles.dense_projection(
            q[0], turn(q[1]), [(v.lat, turn(v.lon)) for v in line],
            samples_per_segment=20000)
        assert abs(got_d - want_d) < 1.0
        assert haversine_distance(pt, GeoPoint(want_lat, turn(want_lon))) < 1.0
        assert -180.0 <= pt.lon <= 180.0


def _plane_projection(p, a, b):
    """The closest point of segment a-b to p and its distance, computed the
    readable way: both ends in a local equirectangular plane centred on p,
    the clamped parameter, a GeoPoint and haversine_distance."""
    cos_lat = math.cos(math.radians(p.lat))

    def wrap(x):
        return x - 360.0 if x > 180.0 else x + 360.0 if x < -180.0 else x

    ax, ay = wrap(a.lon - p.lon) * cos_lat * METERS_PER_DEG, (a.lat - p.lat) * METERS_PER_DEG
    bx, by = wrap(b.lon - p.lon) * cos_lat * METERS_PER_DEG, (b.lat - p.lat) * METERS_PER_DEG
    dx, dy = bx - ax, by - ay
    seg_len2 = dx * dx + dy * dy
    t = 0.0 if seg_len2 == 0.0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / seg_len2))
    c = GeoPoint(a.lat + t * (b.lat - a.lat), wrap(a.lon + t * wrap(b.lon - a.lon)))
    return c, haversine_distance(p, c)


def _random_segments(rng, n):
    """(p, a, b) triples: short and 4 km segments, zero-length ones, points
    on a segment's end, and segments across the antimeridian."""
    out = []
    for k in range(n):
        lat0 = rng.uniform(-60.0, 60.0)
        lon0 = rng.choice([rng.uniform(-179.0, 179.0), 179.99, -179.99])
        span = rng.choice([0.0005, 0.04])

        def near(lat, lon, r):
            return GeoPoint(lat + rng.uniform(-r, r),
                            (lon + rng.uniform(-r, r) + 180.0) % 360.0 - 180.0)
        a = near(lat0, lon0, span)
        b = a if k % 5 == 0 else near(lat0, lon0, span)
        p = a if k % 7 == 0 else near(lat0, lon0, 2 * span)
        out.append((p, a, b))
    return out


class TestProjectSegment:
    def test_equals_the_plane_projection_bit_for_bit(self):
        for p, a, b in _random_segments(random.Random(31), 600):
            lat, lon, d = project_segment(p.lat, p.lon, math.radians(p.lat),
                                          math.cos(math.radians(p.lat)),
                                          a.lat, a.lon, b.lat, b.lon)
            c, want_d = _plane_projection(p, a, b)
            assert (lat, lon, d) == (c.lat, c.lon, want_d)

    def test_distance_equals_project_to_polyline(self):
        # project_to_polyline keeps the start vertex unless the projection is
        # strictly closer; a zero-length segment (seg_len2 == 0) projects to it
        degenerate = 0
        for p, a, b in _random_segments(random.Random(32), 600):
            lat, lon, d = project_segment(p.lat, p.lon, math.radians(p.lat),
                                          math.cos(math.radians(p.lat)),
                                          a.lat, a.lon, b.lat, b.lon)
            pt, want_d = project_to_polyline(p, (a, b))
            h = haversine_distance(p, a)
            assert want_d == min(d, h)
            assert pt == (GeoPoint(lat, lon) if d < h else a)
            if a == b:
                degenerate += 1
                assert (lat, lon, d) == (a.lat, a.lon, h)
        assert degenerate >= 100


class TestSegmentReaches:
    @staticmethod
    def _along(a, b, t):
        """The point at t of the lat/lon-linear path from a to b, as
        project_segment interpolates it."""
        def wrap(x):
            return x - 360.0 if x > 180.0 else x + 360.0 if x < -180.0 else x
        return GeoPoint(a.lat + t * (b.lat - a.lat), wrap(a.lon + t * wrap(b.lon - a.lon)))

    @staticmethod
    def _segments(rng):
        """Segments of _random_segments, long east-west ones at high latitudes
        and across the antimeridian, and ones that near a pole."""
        out = [(a, b) for _, a, b in _random_segments(rng, 200)]
        for _ in range(100):
            lat = rng.choice([rng.uniform(80.0, 89.9), rng.uniform(-89.9, -80.0)])
            lon = rng.uniform(-180.0, 180.0)
            b_lon = (lon + rng.uniform(-90.0, 90.0) + 180.0) % 360.0 - 180.0
            out.append((GeoPoint(lat, lon),
                        GeoPoint(max(-90.0, min(90.0, lat + rng.uniform(-0.5, 0.5))), b_lon)))
        return out

    @staticmethod
    def _crossing_segments(rng):
        """Zero-length segments (on the poles and the antimeridian among
        them), and segments across the equator and across +-180."""
        out = []
        for _ in range(100):
            a = GeoPoint(rng.choice([rng.uniform(-90.0, 90.0), 90.0, -90.0]),
                         rng.choice([rng.uniform(-180.0, 180.0), 180.0, -180.0]))
            out.append((a, a))
        for _ in range(100):
            span = rng.choice([0.0005, 0.04, 2.0])
            a = GeoPoint(-rng.uniform(0.0, span), rng.uniform(-179.0, 179.0))
            b = GeoPoint(rng.uniform(0.0, span), a.lon + rng.uniform(-span, span))
            out.append((a, b) if rng.random() < 0.5 else (b, a))
        for _ in range(100):
            span = rng.choice([0.0005, 0.04, 1.0])
            lat = rng.uniform(-85.0, 85.0)
            a = GeoPoint(lat, 180.0 - rng.uniform(0.0, span))
            b = GeoPoint(lat + rng.uniform(-span, span), -180.0 + rng.uniform(0.0, span))
            out.append((a, b) if rng.random() < 0.5 else (b, a))
        return out

    @staticmethod
    def _path_reach(a, b):
        """Half the bound on the length of the path from a to b, plus the
        margin: the longitude difference wrapped as project_segment wraps
        it, scaled by the largest cosine of a latitude on the path."""
        dlon = b.lon - a.lon
        if not -180.0 <= dlon <= 180.0:
            dlon -= math.copysign(360.0, dlon)
        if (a.lat < 0.0) != (b.lat < 0.0):
            cos_max = 1.0
        else:
            cos_max = max(math.cos(math.radians(a.lat)), math.cos(math.radians(b.lat)))
        return 0.5 * METERS_PER_DEG * math.hypot(b.lat - a.lat, dlon * cos_max) + _REACH_MARGIN_M

    def test_route_segment_reach_m_is_half_the_path_length(self):
        rng = random.Random(33)
        for a, b in self._segments(rng):
            line = (a, b, b, GeoPoint(rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 180.0)))
            route = route_of("r", line, [0.0] * len(line))
            assert list(route.segment_reach_m) == [self._path_reach(u, v)
                                                   for u, v in zip(line, line[1:])]
            assert route.segment_reach_m is route.segment_reach_m  # computed once
            # at least half the path, measured as the sum of 4,096 sub-steps
            # (the zero-length segment from b to b measures 0)
            for u, v, reach in zip(line[::2], line[1::2], route.segment_reach_m[::2]):
                assert self._sub_step_length(u, v, 4096) / 2 <= reach, (u, v)

    @staticmethod
    def _sub_step_length(a, b, n):
        """The length of the path from a to b that project_segment
        interpolates, as the sum of the haversine oracle over n steps."""
        dlon = b.lon - a.lon
        if not -180.0 <= dlon <= 180.0:
            dlon -= math.copysign(360.0, dlon)
        lat = [a.lat + k / n * (b.lat - a.lat) for k in range(n + 1)]
        lon = [a.lon + k / n * dlon for k in range(n + 1)]
        return sum(map(oracles.haversine_oracle, lat, lon, lat[1:], lon[1:]))

    def test_every_point_of_a_segment_lies_within_its_reach_of_an_end(self):
        rng = random.Random(34)
        for a, b in self._segments(rng) + self._crossing_segments(rng):
            (reach,) = segment_reaches((a.lat, b.lat), (a.lon, b.lon))
            assert reach <= haversine_distance(a, b) + _REACH_MARGIN_M + 1e-6
            for k in range(65):
                c = self._along(a, b, k / 64)
                assert min(haversine_distance(a, c), haversine_distance(b, c)) <= reach + 1e-6

    @pytest.mark.parametrize("lat,span,short_m", [(89.5, 20.0, 36.0), (-89.5, 90.0, 3200.0)])
    def test_half_the_length_falls_short_near_the_poles(self, lat, span, short_m):
        a, b = GeoPoint(lat, 0.0), GeoPoint(lat, span)
        (reach,) = segment_reaches((a.lat, b.lat), (a.lon, b.lon))
        assert reach - haversine_distance(a, b) / 2 > short_m
