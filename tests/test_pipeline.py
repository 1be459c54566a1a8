import json
from collections import Counter

import oracles
from evsite.config import default_config_dict, load_config
from evsite.constraints import RouteLocator, lookup_ffdi
from evsite.geo import GeoPoint, SpatialIndex
from evsite.pipeline import run_pipeline, write_evaluation, write_outputs
from evsite.synth import ScenarioSpec, generate


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


def _bundle_config(tmp_path, spec, **sections):
    """A config over a bundle generated from spec, with sections merged in."""
    scen_dir = tmp_path / "scen"
    generate(spec, scen_dir)
    doc = default_config_dict(str(scen_dir))
    for name, values in sections.items():
        doc[name].update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return load_config(path)


def test_every_site_is_flagged_by_one_rule(tmp_path):
    """Recommended and existing sites alike: the altitude of the nearest route
    vertex, the FFDI of the fire-grid cell, and the flags the configured
    thresholds give them."""
    cfg = _bundle_config(tmp_path, ScenarioSpec(seed=7, lga_rows=3, lga_cols=3),
                         constraints={"flood_alt_m": 50})
    result = run_pipeline(cfg)
    write_outputs(result, cfg, tmp_path / "out")
    c = cfg.constraints
    floods, fires = set(), set()
    for name in ("recommendations.geojson", "stations.geojson"):
        features = json.loads((tmp_path / "out" / name).read_text())["features"]
        assert features
        for f in features:
            lon, lat = f["geometry"]["coordinates"]
            props = f["properties"]
            altitude = oracles.nearest_vertex_altitude(lat, lon, result.layers.routes)
            ffdi = lookup_ffdi(GeoPoint(lat, lon), result.layers.fire_grid)
            assert props["altitude_m"] == altitude
            assert props["ffdi_delta"] == ffdi
            assert props["flood_flag"] is (altitude < c.flood_alt_m)
            assert props["fire_flag"] is (None if ffdi is None else ffdi >= c.ffdi_threshold)
            floods.add(props["flood_flag"])
            fires.add(props["fire_flag"])
    # neither flag is uniform, so a rule that ignored its inputs would fail
    assert floods == {True, False}
    assert fires == {True, False, None}


def _summary_and_features(tmp_path, cfg):
    result = run_pipeline(cfg)
    summary = write_outputs(result, cfg, tmp_path / "out")
    assert json.loads((tmp_path / "out" / "run_summary.json").read_text()) == summary
    features = json.loads((tmp_path / "out" / "recommendations.geojson").read_text())
    return summary, features["features"]


def test_dedup_off_keeps_every_recommendation(tmp_path):
    # a separation that would drop every recommendation if dedup ran
    cfg = _bundle_config(tmp_path, ScenarioSpec(seed=42),
                         dedup={"enabled": False, "min_sep_m": 1e6})
    summary, features = _summary_and_features(tmp_path, cfg)
    assert summary["recommendations_pre_dedup"] > 0
    assert summary["recommendations"] == summary["recommendations_pre_dedup"]
    assert len(features) == summary["recommendations"]


def test_dedup_on_drops_recommendations_near_stations(tmp_path):
    cfg = _bundle_config(tmp_path, ScenarioSpec(seed=42), dedup={"min_sep_m": 1e6})
    summary, features = _summary_and_features(tmp_path, cfg)
    assert summary["recommendations_pre_dedup"] > 0
    assert summary["recommendations"] == 0
    assert features == []
