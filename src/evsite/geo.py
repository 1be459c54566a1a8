"""WGS84 geometry primitives: distances, containment, spatial index, polyline projection."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import pairwise, product

EARTH_RADIUS_M = 6371008.8
_DIAMETER_M = 2.0 * EARTH_RADIUS_M
# great-circle meters per degree of latitude (constant on the sphere)
METERS_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0
# radians per degree: d * _DEG is math.radians(d), the very same double
# (CPython defines radians as x * (pi / 180)), without a call
_DEG = math.pi / 180.0
# Slack added to a cell's reach. Each computed haversine lies within about
# 0.2 m of the true great-circle distance (the worst case, near the antipode,
# where asin is steepest); whole-cell decisions compare three of them, so 1 m
# keeps every decision on the side a per-point check would take.
_REACH_MARGIN_M = 1.0
# side of the grid cells by which batched nearest queries are grouped, in degrees
_GROUP_CELL_DEG = 0.005


@dataclass(frozen=True, slots=True)
class GeoPoint:
    lat: float
    lon: float

    def __post_init__(self):
        # one chained test on the way through; NaN fails it, as does +-inf
        if not (-90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0):
            if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
                raise ValueError(f"non-finite coordinate: ({self.lat}, {self.lon})")
            if not -90.0 <= self.lat <= 90.0:
                raise ValueError(f"latitude out of range: {self.lat}")
            raise ValueError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class Polygon:
    """Exterior ring plus optional holes; rings are closed (first == last)."""

    exterior: tuple[GeoPoint, ...]
    holes: tuple[tuple[GeoPoint, ...], ...] = ()

    def __post_init__(self):
        for ring in (self.exterior, *self.holes):
            if len(ring) < 4:
                raise ValueError(f"ring needs >= 4 vertices, got {len(ring)}")
            if ring[0] != ring[-1]:
                raise ValueError("ring is not closed (first != last)")

    def rings(self):
        yield self.exterior
        yield from self.holes


@dataclass(frozen=True)
class MultiPolygon:
    polygons: tuple[Polygon, ...]

    def __post_init__(self):
        if not self.polygons:
            raise ValueError("MultiPolygon must be non-empty")


@dataclass(frozen=True)
class BoundingBox:
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def __post_init__(self):
        if self.min_lat > self.max_lat or self.min_lon > self.max_lon:
            raise ValueError("inverted bounding box")

    def contains(self, p: GeoPoint) -> bool:
        return (self.min_lat <= p.lat <= self.max_lat
                and self.min_lon <= p.lon <= self.max_lon)


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in meters (mean Earth radius). Every copy of the
    formula clamps with s if s < 1.0 else 1.0: min(1.0, s) for every s, NaN
    included, without a call."""
    lat1 = a.lat * _DEG
    lat2 = b.lat * _DEG
    dlat = lat2 - lat1
    dlon = (b.lon - a.lon) * _DEG
    s = math.sqrt(math.sin(dlat / 2.0) ** 2
                  + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(s if s < 1.0 else 1.0)


def point_in_polygon(p: GeoPoint, poly: MultiPolygon) -> bool:
    """Even-odd containment in the lon/lat plane; a point on any edge counts
    inside. One pass over each polygon's edges, its holes' included."""
    x, y = p.lon, p.lat
    for polygon in poly.polygons:
        inside = False
        for ring in polygon.rings():
            for a, b in pairwise(ring):
                ax, ay, bx, by = a.lon, a.lat, b.lon, b.lat
                # collinear with the edge and within its bounding box
                if ((bx - ax) * (y - ay) - (by - ay) * (x - ax) == 0.0
                        and (ax <= x <= bx or bx <= x <= ax)
                        and (ay <= y <= by or by <= y <= ay)):
                    return True
                if (ay > y) != (by > y) and ax + (y - ay) * (bx - ax) / (by - ay) > x:
                    inside = not inside
        if inside:
            return True
    return False


class SpatialIndex:
    """Uniform lat/lon grid over a fixed point set, given as parallel lat and
    lon columns; exact radius and nearest queries. A point's id is its
    position in the columns."""

    def __init__(self, lat, lon, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be > 0")
        self.cell_size = cell_size
        # a point's cell as every query takes it: floor(lat / cell), floor(lon / cell),
        # worked out a column at a time so that the loop only groups the ids
        cell, floor = cell_size, math.floor
        rows = [floor(y / cell) for y in lat]
        cols = [floor(x / cell) for x in lon]
        cells: dict[tuple[int, int], list[int]] = {}
        for i, key in enumerate(zip(rows, cols)):
            ids = cells.get(key)
            if ids is None:
                cells[key] = [i]
            else:
                ids.append(i)
        self._cells = cells
        keys = cells.keys()
        self._row_range = ((min(k[0] for k in keys), max(k[0] for k in keys))
                           if keys else (0, -1))
        self._col_range = ((min(k[1] for k in keys), max(k[1] for k in keys))
                           if keys else (0, -1))
        # the per-point terms of haversine_distance, so that radius queries
        # compute the very same doubles without a call per candidate
        self._rad_lat = array("d", map(math.radians, lat))
        self._cos_lat = array("d", map(math.cos, self._rad_lat))
        self._lon = array("d", lon)
        # cell key -> (radians(lat), cos(lat), lon, reach) of the cell's
        # centre, filled on first use: see _disc
        self._discs: dict[tuple[int, int], tuple[float, float, float, float]] = {}
        # (row, col, radius) of the query cells of _shared_window: those
        # queried once, and the windows of those queried again
        self._seen: set[tuple[int, int, float]] = set()
        self._windows: dict[tuple[int, int, float], list[tuple[int, int]]] = {}
        # no point of a cell lies farther than this from the cell's centre
        self._half_diag_m = math.sqrt(0.5) * cell_size * METERS_PER_DEG + _REACH_MARGIN_M

    def _disc(self, key: tuple[int, int]) -> tuple[float, float, float, float]:
        """A disc around the cell's centre that holds all of its points.

        The centre is the cell's middle with latitude clipped to +-90; the
        reach is the largest haversine from it to a point of the cell plus
        _REACH_MARGIN_M.
        """
        lat_c = math.radians(min(90.0, max(-90.0, (key[0] + 0.5) * self.cell_size)))
        centre = (lat_c, math.cos(lat_c), (key[1] + 0.5) * self.cell_size)
        reach = max(self._distances(centre, self._cells[key]))
        disc = self._discs[key] = (*centre, reach + _REACH_MARGIN_M)
        return disc

    def _window(self, p: GeoPoint, radius_m: float) -> list[tuple[int, int]]:
        """Keys of the occupied cells in the lat/lon window of a radius query."""
        if radius_m < 0:
            raise ValueError("radius must be >= 0")
        if not self._lon:
            return []
        # the margin keeps a point at exactly radius_m inside the window when
        # the degree arithmetic rounds the other way
        dlat = (radius_m + _REACH_MARGIN_M) / METERS_PER_DEG
        if abs(p.lat) + dlat >= 90.0:
            dlon = 360.0  # the query disc holds a pole, so every longitude
        else:
            # widest longitude extent of the query disc within its latitude band
            dlon = dlat / math.cos(math.radians(abs(p.lat) + dlat))
        cell = self.cell_size
        first, last = self._col_range
        r0 = max(math.floor((p.lat - dlat) / cell), self._row_range[0])
        r1 = min(math.floor((p.lat + dlat) / cell), self._row_range[1])
        lo, hi = p.lon - dlon, p.lon + dlon
        if hi - lo >= 360.0:
            lo, hi = -180.0, 180.0
        # column ranges of the query window, the second one wrapped across the
        # antimeridian; either may be empty
        spans = [(max(math.floor(max(lo, -180.0) / cell), first),
                  min(math.floor(min(hi, 180.0) / cell), last))]
        if lo < -180.0:
            spans.append((max(math.floor((lo + 360.0) / cell), first), last))
        elif hi > 180.0:
            spans.append((first, min(math.floor((hi - 360.0) / cell), last)))
        width = 0
        for c0, c1 in spans:
            width += max(0, c1 - c0 + 1)
        if r0 > r1 or not width:
            return []
        cells = self._cells
        if (r1 - r0 + 1) * width > len(cells):
            # scanning occupied cells beats enumerating a huge window
            (a0, a1), (b0, b1) = spans[0], spans[-1]
            return [k for k in cells
                    if r0 <= k[0] <= r1 and (a0 <= k[1] <= a1 or b0 <= k[1] <= b1)]
        # a set: the two ranges of a wrapped query can end in one column
        cols = {c for c0, c1 in spans for c in range(c0, c1 + 1)}
        return list(filter(cells.__contains__, product(range(r0, r1 + 1), cols)))

    def _shared_window(self, p: GeoPoint, radius_m: float) -> list[tuple[int, int]]:
        """A superset of _window(p, radius_m), shared by the query points of
        p's cell at this radius from its second query on.

        The shared window is _window at the cell's centre, at radius_m plus
        _half_diag_m: the lat/lon-linear path from the centre to any point of
        the cell is at most METERS_PER_DEG * cell_size * sqrt(2) / 2 long at
        every latitude, and a geodesic is no longer, so by the triangle
        inequality it holds every cell within radius_m of the cell's points.
        A first query keeps the tighter per-point window, since most pairs
        of a sparse index are queried once, and so does a cell whose centre
        lies off the globe, past +-90 or +-180. neighbors_within keeps it
        too: nearest calls it at a bound that changes with every query.
        """
        if radius_m < 0:
            raise ValueError("radius must be >= 0")
        cell = self.cell_size
        row, col = math.floor(p.lat / cell), math.floor(p.lon / cell)
        key = (row, col, radius_m)
        keys = self._windows.get(key)
        if keys is not None:
            return keys
        if key in self._seen:
            lat, lon = (row + 0.5) * cell, (col + 0.5) * cell
            if -90.0 <= lat <= 90.0 and -180.0 <= lon <= 180.0:
                keys = self._windows[key] = self._window(GeoPoint(lat, lon),
                                                         radius_m + self._half_diag_m)
                return keys
        else:
            self._seen.add(key)
        return self._window(p, radius_m)

    def _split(self, keys, q: tuple[float, float, float],
               radius_m: float) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Of the cells keys, those whose points all lie within radius_m of the
        query point q (its radians(lat), cos(lat) and lon), and those whose
        points must be tested one by one; the rest hold no point in range."""
        discs = self._discs
        lat1, cos1, lon1 = q
        whole, part = [], []
        for key in keys:
            # by the triangle inequality a cell whose disc lies within the
            # query disc is taken whole, and one whose disc misses it skipped
            lat_c, cos_c, lon_c, reach = discs.get(key) or self._disc(key)
            d = _haversine_terms(lat1, cos1, lon1, lat_c, cos_c, lon_c)
            if d + reach <= radius_m:
                whole.append(key)
            elif d - reach <= radius_m:
                part.append(key)
        return whole, part

    def _distances(self, q: tuple[float, float, float], ids) -> list[float]:
        """haversine_distance from q (its radians(lat), cos(lat) and lon) to
        each id's point, the very same doubles: the formula inlined operand
        for operand over the index's columns, without a call per id."""
        lat1, cos1, lon1 = q
        rad_lat, cos_lat, lon = self._rad_lat, self._cos_lat, self._lon
        sin, sqrt, asin = math.sin, math.sqrt, math.asin
        return [_DIAMETER_M * asin(s if s < 1.0 else 1.0)
                for i in ids
                for s in [sqrt(sin((rad_lat[i] - lat1) / 2.0) ** 2
                               + cos1 * cos_lat[i] * sin((lon[i] - lon1) * _DEG / 2.0) ** 2)]]

    def _hits(self, ids, q: tuple[float, float, float], radius_m: float) -> list[int]:
        """The ids whose points lie within radius_m of q, in the order given."""
        return [i for i, d in zip(ids, self._distances(q, ids)) if d <= radius_m]

    def neighbors_within(self, p: GeoPoint, radius_m: float) -> list[int]:
        """Ids of all indexed points at haversine distance <= radius_m, ascending."""
        q = _query_terms(p)
        cells = self._cells
        whole, part = self._split(self._window(p, radius_m), q, radius_m)
        maybe = []
        for key in part:
            maybe += cells[key]
        out = self._hits(maybe, q, radius_m) if maybe else []
        for key in whole:
            out += cells[key]
        out.sort()
        return out

    def within(self, p: GeoPoint, radius_m: float) -> dict[int, float]:
        """id -> haversine_distance from p for all indexed points within
        radius_m, by ascending id: one distance per point of the cells that
        may hold any."""
        q = _query_terms(p)
        cells = self._cells
        whole, part = self._split(self._window(p, radius_m), q, radius_m)
        ids = [i for keys in (whole, part) for key in keys for i in cells[key]]
        ids.sort()
        return {i: d for i, d in zip(ids, self._distances(q, ids)) if d <= radius_m}

    def any_within(self, p: GeoPoint, radius_m: float) -> bool:
        """Whether any indexed point lies at haversine distance <= radius_m."""
        return self._count(self._shared_window(p, radius_m), _query_terms(p), radius_m, 1) > 0

    def _count(self, keys, q: tuple[float, float, float], radius_m: float,
               enough: float = math.inf) -> int:
        """Points of the cells keys within radius_m of q, counted until enough.
        Cells taken whole add len(cell) without testing their points; partial
        cells are tested one at a time, only while the count is short."""
        cells = self._cells
        whole, part = self._split(keys, q, radius_m)
        n = 0
        for key in whole:
            n += len(cells[key])
        for key in part:
            if n >= enough:
                break
            n += len(self._hits(cells[key], q, radius_m))
        return n

    def free_cells(self) -> dict[tuple[int, int], set[int]]:
        """A fresh set of ids per occupied cell, for claim_within to draw from."""
        return {key: set(ids) for key, ids in self._cells.items()}

    def claim_within(self, p: GeoPoint, radius_m: float, minpts: int,
                     free: dict[tuple[int, int], set[int]]) -> list[int]:
        """One DBSCAN expansion step: the ids within radius_m of p that free
        still holds, removed from it, if at least minpts indexed points lie
        within radius_m (whether free holds them or not); otherwise [] and free
        is left as it was.

        free maps each cell key to a subset of the cell's ids (see free_cells).
        The window (_shared_window's) is walked once, over the cells where
        free holds ids: a cell taken whole counts with len(cell), a partial
        one tests only its free ids. The other points are tested only while
        the count is below minpts, and not at all when no id in range is
        free, since then the answer is [] either way.
        """
        q = _query_terms(p)
        cells = self._cells
        keys = self._shared_window(p, radius_m)
        count = 0
        taken = []    # (a cell's free set, its ids in range)
        mixed = []    # (ids, free set) of partial cells that hold clustered ids too
        whole, part = self._split([k for k in keys if free[k]], q, radius_m)
        for key in whole:
            f = free[key]
            count += len(cells[key])
            taken.append((f, list(f)))
        for key in part:
            f = free[key]
            ids = cells[key]
            hits = self._hits(f, q, radius_m)
            count += len(hits)
            if hits:
                taken.append((f, hits))
            if len(f) < len(ids):
                mixed.append((ids, f))
        if not taken:
            return []
        if count < minpts:
            count += self._count([k for k in keys if not free[k]], q, radius_m,
                                 minpts - count)
        for ids, f in mixed:
            if count >= minpts:
                break
            count += len(self._hits([i for i in ids if i not in f], q, radius_m))
        if count < minpts:
            return []
        out = []
        for f, ids in taken:
            f.difference_update(ids)
            out += ids
        return out

    def distances(self, p: GeoPoint, ids: list[int]) -> list[float]:
        """haversine_distance from p to each id's point, the very same doubles."""
        return self._distances(_query_terms(p), ids)

    def nearest_bound(self, p: GeoPoint) -> float:
        """An upper bound on the distance from p to its nearest indexed point:
        the least distance to the points of p's cell or, if it is empty, of
        the first window (see _window) that holds any, its radius doubled
        from one cell side."""
        if not self._lon:
            raise ValueError("empty index")
        cells = self._cells
        ids = cells.get((math.floor(p.lat / self.cell_size), math.floor(p.lon / self.cell_size)))
        radius_m = self.cell_size * METERS_PER_DEG
        while not ids:
            ids = [i for key in self._window(p, radius_m) for i in cells[key]]
            radius_m *= 2.0
        return min(self._distances(_query_terms(p), ids))

    def nearest(self, p: GeoPoint) -> tuple[int, float]:
        """(id, distance) of the closest indexed point; ties broken by smallest id."""
        return self.nearest_all([p])[0]

    def nearest_all(self, points: list[GeoPoint]) -> list[tuple[int, float]]:
        """nearest for every point, parallel to the input list, a group at a
        time (see cell_groups). With D the distance from a group's centre c to
        its nearest point and rho its reach, every member's nearest point lies
        within D + 2 rho of c: one radius query at an upper bound on D plus
        2 rho settles each member's argmin and tie-break."""
        out: list = [None] * len(points)
        for c, rho, members in cell_groups(points):
            ids = self.neighbors_within(c, self.nearest_bound(c) + 2.0 * rho)
            for i in members:
                d, best_id = min(zip(self.distances(points[i], ids), ids))
                out[i] = (best_id, d)
        return out


def cell_groups(points: list[GeoPoint]):
    """(centre, reach, member ids) for the points of each occupied cell of a
    fixed _GROUP_CELL_DEG grid.

    The centre is the cell's first point and the reach the largest distance
    from it to a member plus _REACH_MARGIN_M, which keeps bounds built from a
    few rounded haversines on the safe side. Any grouping gives exact
    answers; this one keeps groups small enough that their shared candidate
    lists stay short.
    """
    cells: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(points):
        cells.setdefault((math.floor(p.lat / _GROUP_CELL_DEG),
                          math.floor(p.lon / _GROUP_CELL_DEG)), []).append(i)
    for members in cells.values():
        c = points[members[0]]
        reach = max(haversine_distance(c, points[i]) for i in members)
        yield c, reach + _REACH_MARGIN_M, members


def _query_terms(p: GeoPoint) -> tuple[float, float, float]:
    """radians(lat), cos(lat) and lon of a query point, as _haversine_terms takes them."""
    lat1 = p.lat * _DEG
    return lat1, math.cos(lat1), p.lon


def _haversine_terms(lat1: float, cos1: float, lon1: float,
                     lat2: float, cos2: float, lon2: float) -> float:
    """haversine_distance from radians(lat), cos(lat) and lon of both ends."""
    s = math.sqrt(math.sin((lat2 - lat1) / 2.0) ** 2
                  + cos1 * cos2 * math.sin((lon2 - lon1) * _DEG / 2.0) ** 2)
    return _DIAMETER_M * math.asin(s if s < 1.0 else 1.0)


def segment_reaches(lat, lon) -> array:
    """For each segment of the polyline with vertex columns lat and lon,
    vertex i to vertex i + 1, a distance within which every point of it lies
    of one of its ends: half an upper bound on the length of the lat/lon-linear
    path that project_segment interpolates, plus _REACH_MARGIN_M.

    A step of dlat and dlon degrees along that path is at most METERS_PER_DEG
    * hypot(dlat, dlon * cos_max) long, cos_max being the largest cosine of a
    latitude on it: 1 if the ends lie on opposite sides of the equator, else
    the larger of theirs. dlon is the short way round, as project_segment
    wraps it; only its size matters to hypot. A geodesic is no longer than
    any path, so the point at t along the path lies within t of that length
    of one end and 1 - t of the other. The margin covers the rounding of the
    haversines a reach is compared with."""
    cos = [math.cos(y * _DEG) for y in lat]
    half, hypot = 0.5 * METERS_PER_DEG, math.hypot
    return array("d", [half * hypot(y2 - y1, (w if w <= 180.0 else 360.0 - w) * cos_max)
                       + _REACH_MARGIN_M
                       for y1, y2, x1, x2, c1, c2 in zip(lat, lat[1:], lon, lon[1:], cos, cos[1:])
                       for w in [abs(x2 - x1)]
                       for cos_max in [1.0 if (y1 < 0.0) != (y2 < 0.0) else c1 if c1 > c2 else c2]])


def project_to_polyline(p: GeoPoint, polyline) -> tuple[GeoPoint, float]:
    """Closest point on the polyline and its distance from p: the first vertex,
    unless some segment's projection (see project_segment) is strictly closer."""
    if len(polyline) < 2:
        raise ValueError("degenerate polyline")
    rad_lat = math.radians(p.lat)
    cos_lat = math.cos(rad_lat)
    best_pt = polyline[0]
    best_d = haversine_distance(p, best_pt)
    best_ll = None
    for a, b in zip(polyline, polyline[1:]):
        lat, lon, d = project_segment(p.lat, p.lon, rad_lat, cos_lat, a.lat, a.lon, b.lat, b.lon)
        if d < best_d:
            best_d, best_ll = d, (lat, lon)
    return (best_pt if best_ll is None else GeoPoint(*best_ll)), best_d


def project_segment(lat: float, lon: float, rad_lat: float, cos_lat: float,
                    a_lat: float, a_lon: float, b_lat: float,
                    b_lon: float) -> tuple[float, float, float]:
    """Closest point (lat, lon) of the segment from a to b to the point p at
    lat, lon, and its haversine_distance from p, the very same double.
    rad_lat and cos_lat are radians(lat) and its cosine.

    Projection runs in a local equirectangular plane centred on p, which is
    accurate at the sub-kilometer snap distances this is used for. Longitude
    differences take the short way round, so a segment across the
    antimeridian is the short one. A zero-length segment projects to a.
    """
    # a longitude difference outside [-180, 180] moves by 360 into it; one
    # already in range keeps its exact double
    ax = a_lon - lon
    if not -180.0 <= ax <= 180.0:
        ax -= math.copysign(360.0, ax)
    bx = b_lon - lon
    if not -180.0 <= bx <= 180.0:
        bx -= math.copysign(360.0, bx)
    dlon = b_lon - a_lon
    if not -180.0 <= dlon <= 180.0:
        dlon -= math.copysign(360.0, dlon)
    ax = ax * cos_lat * METERS_PER_DEG
    ay = (a_lat - lat) * METERS_PER_DEG
    dx = bx * cos_lat * METERS_PER_DEG - ax
    dy = (b_lat - lat) * METERS_PER_DEG - ay
    seg_len2 = dx * dx + dy * dy
    t = 0.0 if seg_len2 == 0.0 else max(0.0, min(1.0, -(ax * dx + ay * dy) / seg_len2))
    c_lat = a_lat + t * (b_lat - a_lat)
    c_lon = a_lon + t * dlon
    if not -180.0 <= c_lon <= 180.0:
        c_lon -= math.copysign(360.0, c_lon)
    c_rad = c_lat * _DEG
    s = math.sqrt(math.sin((c_rad - rad_lat) / 2.0) ** 2
                  + cos_lat * math.cos(c_rad) * math.sin((c_lon - lon) * _DEG / 2.0) ** 2)
    return c_lat, c_lon, _DIAMETER_M * math.asin(s if s < 1.0 else 1.0)
