from collections import Counter

from evsite.constraints import RouteLocator
from evsite.geo import SpatialIndex
from evsite.pipeline import run_pipeline, write_evaluation, write_outputs


def test_each_layer_is_indexed_once_per_job(scenario, monkeypatch, tmp_path):
    """One job indexes the POIs once, the stations once and the final
    recommendations once; the route locator is still built three times."""
    _, cfg, _ = scenario
    indexed: list[Counter] = []
    locators = []
    index_init, locator_init = SpatialIndex.__init__, RouteLocator.__init__

    def counted_index(self, lat, lon, cell_size):
        indexed.append(Counter(zip(lat, lon)))
        index_init(self, lat, lon, cell_size)

    def counted_locator(self, routes):
        locators.append(routes)
        locator_init(self, routes)

    monkeypatch.setattr(SpatialIndex, "__init__", counted_index)
    monkeypatch.setattr(RouteLocator, "__init__", counted_locator)
    result = run_pipeline(cfg)
    write_outputs(result, cfg, tmp_path / "out")
    write_evaluation(result, cfg, tmp_path / "out")

    layers = result.layers
    pois = Counter((p.location.lat, p.location.lon) for p in layers.pois)
    stations = Counter((s.location.lat, s.location.lon) for s in layers.stations)
    recs = Counter((r.location.lat, r.location.lon) for r in result.recs_final)
    assert pois and stations and recs
    assert len({frozenset(c.items()) for c in (pois, stations, recs)}) == 3
    assert indexed.count(pois) == 1
    assert indexed.count(stations) == 1
    assert indexed.count(recs) == 1
    assert len(locators) == 3
