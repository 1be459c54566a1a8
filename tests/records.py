"""Package records and indexes built from GeoPoints, for tests."""

from array import array

from evsite.geo import GeoPoint, SpatialIndex
from evsite.ingest import RouteRecord, TripRecord


def route_of(route_id, points, altitudes):
    """The RouteRecord through the GeoPoints points."""
    return RouteRecord(route_id, array("d", [p.lat for p in points]),
                       array("d", [p.lon for p in points]), array("d", altitudes))


def vertices_of(route):
    """A route's vertices as GeoPoints."""
    return [GeoPoint(lat, lon) for lat, lon in zip(route.lat, route.lon)]


def index_of(points, cell_size):
    """A SpatialIndex over the GeoPoints points."""
    return SpatialIndex([p.lat for p in points], [p.lon for p in points], cell_size)


def trip_of(trip_id, fixes):
    """The TripRecord through the (timestamp, GeoPoint) pairs fixes."""
    return TripRecord(trip_id, [ts for ts, _ in fixes], [p.lat for _, p in fixes],
                      [p.lon for _, p in fixes])
