import json
import math
from pathlib import Path

import pytest

from evsite.geo import GeoPoint, point_in_polygon
from evsite.ingest import (
    load_fire_grid,
    load_lgas,
    load_pois,
    load_routes,
    load_stations,
    load_trips,
)
from evsite.rng import Rng
from evsite.synth import MAX_GENERATED, ScenarioSpec, generate


def read_all(d: Path) -> dict[str, bytes]:
    return {f.name: f.read_bytes() for f in sorted(d.iterdir())}


class TestRng:
    def test_same_seed_same_stream(self):
        a, b, c = Rng(12345), Rng(12345), Rng(54321)
        stream_a = [a.next_u64() for _ in range(5)]
        assert stream_a == [b.next_u64() for _ in range(5)]
        assert stream_a != [c.next_u64() for _ in range(5)]
        assert all(0 <= v < 2 ** 64 for v in stream_a)
        assert len(set(stream_a)) == 5

    def test_uniform_in_range(self):
        rng = Rng(1)
        for _ in range(1000):
            x = rng.uniform(-2.0, 3.0)
            assert -2.0 <= x < 3.0

    def test_randint_bounds(self):
        rng = Rng(2)
        values = {rng.randint(3, 7) for _ in range(500)}
        assert values == {3, 4, 5, 6, 7}

    def test_normal_moments(self):
        rng = Rng(3)
        xs = [rng.normal(10.0, 2.0) for _ in range(20000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / len(xs)
        assert abs(mean - 10.0) < 0.1
        assert abs(var - 4.0) < 0.2


class TestGenerate:
    def test_empty_spec(self, tmp_path):
        spec = ScenarioSpec(seed=1, n_hotspots_per_lga=0,
                            background_noise_points=0, n_stations_per_lga=0)
        manifest = generate(spec, tmp_path)
        assert manifest.layer_counts["trips"] == 0
        trips, bad = load_trips(tmp_path / "trips.csv")
        assert trips == [] and bad == []

    def test_same_seed_byte_identical(self, tmp_path):
        generate(ScenarioSpec(seed=9), tmp_path / "a")
        generate(ScenarioSpec(seed=9), tmp_path / "b")
        assert read_all(tmp_path / "a") == read_all(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate(ScenarioSpec(seed=9), tmp_path / "a")
        generate(ScenarioSpec(seed=10), tmp_path / "b")
        assert (read_all(tmp_path / "a")["trips.csv"]
                != read_all(tmp_path / "b")["trips.csv"])

    def test_counts_match_manifest_and_roundtrip(self, tmp_path):
        spec = ScenarioSpec(seed=5, lga_rows=2, lga_cols=2, n_hotspots_per_lga=3,
                            points_per_hotspot_min=40, points_per_hotspot_max=40)
        manifest = generate(spec, tmp_path)
        assert len(manifest.hotspots) == 12
        assert sum(h.planted_points for h in manifest.hotspots) == 480
        trips, bad = load_trips(tmp_path / "trips.csv")
        assert bad == []
        assert len(trips) == manifest.layer_counts["trips"]
        assert len(load_lgas(tmp_path / "lgas.geojson")) == manifest.layer_counts["lgas"]
        assert len(load_pois(tmp_path / "pois.geojson")) == manifest.layer_counts["pois"]
        assert (len(load_stations(tmp_path / "stations.geojson"))
                == manifest.layer_counts["stations"])
        assert (len(load_routes(tmp_path / "routes.geojson"))
                == manifest.layer_counts["routes"])
        grid = load_fire_grid(tmp_path / "fire_grid.json")
        assert len(grid.cells) == manifest.layer_counts["fire_grid_cells"]
        with open(tmp_path / "manifest.json") as f:
            on_disk = json.load(f)
        assert on_disk == manifest.as_dict()

    def test_hotspot_centers_inside_their_lga(self, tmp_path):
        manifest = generate(ScenarioSpec(seed=6), tmp_path)
        lgas = {l.lga_name: l for l in load_lgas(tmp_path / "lgas.geojson")}
        for h in manifest.hotspots:
            assert point_in_polygon(h.center, lgas[h.lga_name].boundary)

    def test_poi_flags_match_poi_layer(self, tmp_path):
        manifest = generate(ScenarioSpec(seed=7), tmp_path)
        pois = load_pois(tmp_path / "pois.geojson")
        poi_locs = {(p.location.lat, p.location.lon) for p in pois}
        for h in manifest.hotspots:
            assert ((h.center.lat, h.center.lon) in poi_locs) == h.has_poi

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            ScenarioSpec(points_per_hotspot_min=10, points_per_hotspot_max=5)
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"bogus_key": 1})
        # built directly, a spec's bbox is checked too: NaN fails every bound
        with pytest.raises(ValueError, match="bbox must be"):
            ScenarioSpec(bbox=(math.nan, 149.0, -33.0, 151.0))
        with pytest.raises(ValueError, match="bbox must be"):
            ScenarioSpec(bbox=(-35.0, 149.0, -33.0, 180.5))
        assert ScenarioSpec.from_dict({"lga_rows": 3.0, "bbox": [-35, 149, -33, 151]}) == \
            ScenarioSpec(lga_rows=3)

    def test_route_grid_cap(self, tmp_path):
        # the benchmark's finest grid, about 201 lines x 101 vertices (the
        # float steps end each line one short), is far inside the cap; a spec
        # whose grid would pass it is refused before generate
        manifest = generate(ScenarioSpec(seed=3, route_spacing_deg=0.01,
                                         n_hotspots_per_lga=0), tmp_path)
        assert manifest.layer_counts["routes"] == 201
        assert sum(len(r.lat) for r in load_routes(tmp_path / "routes.geojson")) == 201 * 100
        ScenarioSpec(route_spacing_deg=0.002, route_vertex_step_deg=0.004)
        with pytest.raises(ValueError, match=f"more than {MAX_GENERATED}"):
            ScenarioSpec(route_spacing_deg=0.001, route_vertex_step_deg=0.001)
