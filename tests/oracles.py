"""Independent reference implementations used to check the package.

Everything here is deliberately brute force and written straight from first
principles, without reusing package internals, so tests compare two
independent routes to the same answer.
"""

from __future__ import annotations

import math

R_EARTH = 6371008.8


def haversine_oracle(lat1, lon1, lat2, lon2):
    """Great-circle distance via the atan2 form of the haversine formula."""
    p1 = lat1 * math.pi / 180.0
    p2 = lat2 * math.pi / 180.0
    dp = (lat2 - lat1) * math.pi / 180.0
    dl = (lon2 - lon1) * math.pi / 180.0
    a = (math.sin(dp / 2) * math.sin(dp / 2)
         + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) * math.sin(dl / 2))
    return R_EARTH * 2 * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def crossing_count_inside(lon, lat, rings):
    """Even-odd containment from a flat list of (lon, lat) rings."""
    crossings = 0
    for ring in rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            if (y1 > lat) != (y2 > lat):
                x_at = x1 + (lat - y1) / (y2 - y1) * (x2 - x1)
                if x_at > lon:
                    crossings += 1
    return crossings % 2 == 1


def min_edge_distance_deg(lon, lat, rings):
    """Rough distance (degrees) from a point to the nearest ring edge."""
    best = math.inf
    for ring in rings:
        for (x1, y1), (x2, y2) in zip(ring, ring[1:]):
            dx, dy = x2 - x1, y2 - y1
            l2 = dx * dx + dy * dy
            t = 0.0 if l2 == 0 else max(0.0, min(1.0, ((lon - x1) * dx + (lat - y1) * dy) / l2))
            best = min(best, math.hypot(lon - (x1 + t * dx), lat - (y1 + t * dy)))
    return best


def linear_neighbors(coords, qlat, qlon, radius_m):
    return sorted(i for i, (lat, lon) in enumerate(coords)
                  if haversine_oracle(qlat, qlon, lat, lon) <= radius_m)


def linear_nearest(coords, qlat, qlon):
    best = min(range(len(coords)),
               key=lambda i: (haversine_oracle(qlat, qlon, *coords[i]), i))
    return best, haversine_oracle(qlat, qlon, *coords[best])


def nearest_vertex_altitude(lat, lon, routes):
    """Altitude of the route vertex nearest (lat, lon), by a scan of every
    vertex; ties go to the smallest (route_id, vertex index).

    ``routes`` are records with ``route_id`` and parallel ``lat``, ``lon``
    and ``altitudes`` sequences.
    """
    best = None
    for route in sorted(routes, key=lambda r: r.route_id):
        for v_lat, v_lon, alt in zip(route.lat, route.lon, route.altitudes):
            d = haversine_oracle(lat, lon, v_lat, v_lon)
            if best is None or d < best[0]:
                best = (d, alt)
    return best[1]


def dense_projection(qlat, qlon, polyline, samples_per_segment=100_000):
    """Argmin over dense samples along every polyline segment."""
    best = (math.inf, None)
    for (lat1, lon1), (lat2, lon2) in zip(polyline, polyline[1:]):
        for k in range(samples_per_segment + 1):
            t = k / samples_per_segment
            lat = lat1 + t * (lat2 - lat1)
            lon = lon1 + t * (lon2 - lon1)
            d = haversine_oracle(qlat, qlon, lat, lon)
            if d < best[0]:
                best = (d, (lat, lon))
    return best[1], best[0]


def brute_dbscan_per_point(coords, eps_list, minpts_list):
    """O(n^2) DBSCAN with per-point parameters.

    N(p) uses p's own eps (p included); p is core iff |N(p)| >= minpts(p);
    points visited in index order; BFS over an id-sorted queue; a dequeued
    point not yet in a cluster joins the current one. Labels: -1 noise,
    clusters numbered from 0 in creation order.
    """
    n = len(coords)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        lat, lon = coords[i]
        row = dist[i]
        for j in range(i + 1, n):
            row[j] = dist[j][i] = haversine_oracle(lat, lon, *coords[j])
    neighborhoods = [[j for j in range(n) if dist[i][j] <= eps_list[i]]
                     for i in range(n)]
    labels = [-1] * n
    visited = [False] * n
    n_clusters = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if len(neighborhoods[i]) < minpts_list[i]:
            continue
        cluster = n_clusters
        n_clusters += 1
        queue = list(sorted(neighborhoods[i]))
        k = 0
        while k < len(queue):
            q = queue[k]
            k += 1
            if not visited[q]:
                visited[q] = True
                if len(neighborhoods[q]) >= minpts_list[q]:
                    queue.extend(sorted(neighborhoods[q]))
            if labels[q] == -1:
                labels[q] = cluster
    return labels, n_clusters


def textbook_dbscan(coords, eps_m, minpts):
    """Classic single-parameter DBSCAN (neighborhood includes the point)."""
    return brute_dbscan_per_point(coords, [eps_m] * len(coords),
                                  [minpts] * len(coords))


def relabel_by_first_occurrence(labels):
    mapping = {}
    out = []
    for lab in labels:
        if lab == -1:
            out.append(-1)
            continue
        if lab not in mapping:
            mapping[lab] = len(mapping)
        out.append(mapping[lab])
    return out


# The trip-path oracles are the first, per-fix versions of ingest.clean_trips
# and ingest.extract_demand_points. They measure with the package's
# haversine_distance on purpose: the column kernels must give the very same
# doubles, which an independent formula cannot show. Trips are
# (trip_id, ((timestamp, point), ...)) pairs.

def per_fix_clean_trips(trips, max_speed_mps):
    """(kept (trip_id, fixes) pairs, summary dict), one call per fix."""
    from evsite.geo import haversine_distance
    summary = {"duplicate_fixes_removed": 0, "speed_fixes_removed": 0,
               "trips_dropped": 0}
    out = []
    for trip_id, points in trips:
        kept = []
        for ts, pt in points:
            if kept:
                prev_ts, prev_pt = kept[-1]
                if ts == prev_ts and pt == prev_pt:
                    summary["duplicate_fixes_removed"] += 1
                    continue
                dt = ts - prev_ts
                if dt <= 0 or haversine_distance(prev_pt, pt) / dt > max_speed_mps:
                    summary["speed_fixes_removed"] += 1
                    continue
            kept.append((ts, pt))
        if len(kept) < 2:
            summary["trips_dropped"] += 1
        else:
            out.append((trip_id, tuple(kept)))
    return out, summary


def per_fix_demand_points(trips, dwell_radius_m, dwell_min_s):
    """(trip_id, kind, lat, lon) of each demand point in id order: origin,
    destination and the centroid of every stay, a maximal run of fixes
    within dwell_radius_m of its first that spans dwell_min_s."""
    from evsite.geo import haversine_distance
    raw = []
    for trip_id, pts in trips:
        raw.append((trip_id, pts[0][0], 0, "origin", pts[0][1].lat, pts[0][1].lon))
        raw.append((trip_id, pts[-1][0], 2, "destination", pts[-1][1].lat, pts[-1][1].lon))
        i = 0
        while i < len(pts):
            j = i
            while j + 1 < len(pts) and haversine_distance(pts[i][1], pts[j + 1][1]) <= dwell_radius_m:
                j += 1
            if pts[j][0] - pts[i][0] >= dwell_min_s:
                stay = [p for _, p in pts[i:j + 1]]
                raw.append((trip_id, pts[i][0], 1, "dwell",
                            sum(p.lat for p in stay) / len(stay), _stay_lon(stay)))
            i = j + 1
    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    return [(trip_id, kind, lat, lon) for trip_id, _, _, kind, lat, lon in raw]


def _stay_lon(stay):
    """The mean longitude of a stay's points; one whose longitudes span more
    than 180 degrees crosses the antimeridian, and each longitude is first
    moved by 360 degrees to within 180 of the first point's, the mean then
    wrapped back into [-180, 180]."""
    lons = [p.lon for p in stay]
    if max(lons) - min(lons) > 180.0:
        first = lons[0]
        for k, x in enumerate(lons):
            if x - first > 180.0:
                lons[k] = x - 360.0
            elif x - first < -180.0:
                lons[k] = x + 360.0
    mean = sum(lons) / len(lons)
    if mean > 180.0 or mean < -180.0:
        mean = math.remainder(mean, 360.0)
    return mean


# The position oracle is the first, per-position reader of GeoJSON positions
# (the package's own, before ingest._columns read them as columns), with
# GeoPoint's checks written out. ingest._columns, the one position reader of
# route LineStrings, station and POI Points and LGA rings, must accept exactly
# what it accepts, with the same doubles, and raise its first error with the
# same message.

def per_position_reader(coords):
    """[(lat, lon), ...] of a list of [lon, lat, ...] positions, each member a
    JSON number (a float, or an int taken as a float); else the error for the
    first position that is not a valid point, members checked latitude first."""
    def number(value, key):
        if type(value) is float:
            return value
        if type(value) is int:
            return float(value)  # OverflowError for an int too large
        raise ValueError(f"{key} must be a JSON number, got {value!r}")

    out = []
    try:
        for c in coords:
            lat = number(c[1], "latitude")
            lon = number(c[0], "longitude")
            if not (math.isfinite(lat) and math.isfinite(lon)):
                raise ValueError(f"non-finite coordinate: ({lat}, {lon})")
            if not -90.0 <= lat <= 90.0:
                raise ValueError(f"latitude out of range: {lat}")
            if not -180.0 <= lon <= 180.0:
                raise ValueError(f"longitude out of range: {lon}")
            out.append((lat, lon))
    except (IndexError, TypeError, KeyError) as e:
        raise ValueError("position must be [lon, lat, ...]") from e
    return out


# The seed kernels are the package's first haversine and point-in-polygon,
# frozen here verbatim (math.radians, min(1.0, ...), and a pass per edge of
# _on_segment before the crossing count). The package's leaner kernels must
# return their very same doubles and answers on every input.

def seed_haversine(lat1, lon1, lat2, lon2):
    """The first geo.haversine_distance, on plain coordinates."""
    lat1 = math.radians(lat1)
    lat2 = math.radians(lat2)
    dlat = lat2 - lat1
    dlon = math.radians(lon2 - lon1)
    s = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * R_EARTH * math.asin(min(1.0, math.sqrt(s)))


def _seed_on_segment(p, a, b):
    # collinearity + bbox check in the lon/lat plane
    cross = (b.lon - a.lon) * (p.lat - a.lat) - (b.lat - a.lat) * (p.lon - a.lon)
    if cross != 0.0:
        return False
    return (min(a.lon, b.lon) <= p.lon <= max(a.lon, b.lon)
            and min(a.lat, b.lat) <= p.lat <= max(a.lat, b.lat))


def _seed_ring_crossings(p, ring):
    """Number of ring edges crossed by the eastward ray from p (even-odd)."""
    n = 0
    for i in range(len(ring) - 1):
        a, b = ring[i], ring[i + 1]
        if (a.lat > p.lat) != (b.lat > p.lat):
            x = a.lon + (p.lat - a.lat) * (b.lon - a.lon) / (b.lat - a.lat)
            if x > p.lon:
                n += 1
    return n


def seed_point_in_polygon(p, poly):
    """The first, two-pass geo.point_in_polygon: p has lat and lon, poly
    polygons whose rings() are closed sequences of such points."""
    for polygon in poly.polygons:
        for ring in polygon.rings():
            for i in range(len(ring) - 1):
                if _seed_on_segment(p, ring[i], ring[i + 1]):
                    return True
        crossings = sum(_seed_ring_crossings(p, ring) for ring in polygon.rings())
        if crossings % 2 == 1:
            return True
    return False
