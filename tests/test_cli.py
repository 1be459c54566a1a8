import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import evsite
from evsite import pipeline, synth
from evsite.cli import main
from evsite.config import (
    DEFAULTS, LAYER_KEYS, default_config_dict, load_config)
from evsite.constraints import ConstraintConfig
from evsite.export import export_map
from evsite.ingest import InputError, load_lgas, load_stations, load_trips


@pytest.fixture
def runner():
    return CliRunner()


def read_dir(d: Path, names) -> dict[str, bytes]:
    return {n: (d / n).read_bytes() for n in names}


# every number a config can set: (section, key)
NUMERIC_KEYS = ([(name, key) for name, section in DEFAULTS.items()
                 for key, value in section.items() if type(value) in (int, float)]
                + [("constraints", f.name) for f in fields(ConstraintConfig)])


# (section, key, value) of each setting with a range, at a value it refuses
OUT_OF_RANGE = [("cleaning", "max_speed_mps", 0), ("demand", "dwell_radius_m", 0),
                ("demand", "dwell_min_s", 0), ("snap", "poi_snap_m", 0),
                ("snap", "route_snap_m", 0), ("evaluate", "align_m", 0),
                ("evaluate", "coverage_radius_m", 0), ("dedup", "min_sep_m", -1)]

# constraints whose largest MinPts, base_minpts times every factor above 1,
# is past the largest float
MINPTS_OVERFLOW = [{"minpts_factor_poi": 1e308}, {"minpts_factor_route": 1e308},
                   {"minpts_factor_flood": 1e308}, {"minpts_factor_fire": 1e308},
                   {"base_minpts": 1e18, "minpts_factor_flood": 1e300}]


# JSON nested far deeper than the interpreter's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestConfig:
    def test_unknown_top_level_key_rejected(self, scenario):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["surprise"] = 1
        p = dirs["tmp"] / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="surprise"):
            load_config(p)

    def test_unknown_nested_key_rejected(self, scenario):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["snap"]["poi_snap_km"] = 1
        p = dirs["tmp"] / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="poi_snap_km"):
            load_config(p)

    @pytest.mark.parametrize("edit,names", [
        (lambda doc: 5, "config.json"),
        (lambda doc: None, "config.json"),
        (lambda doc: doc["snap"].update(poi_snap_m=[1]) or doc, "snap.poi_snap_m"),
        (lambda doc: doc.update(constraints={"base_eps_m": "800"}) or doc,
         "constraints.base_eps_m"),
        (lambda doc: doc["dedup"].update(enabled="no") or doc, "dedup.enabled"),
        (lambda doc: doc["layers"].update(trips=7) or doc, "layers.trips"),
        (lambda doc: doc.update(workers=True) or doc, "workers"),
        (lambda doc: doc["snap"].update(poi_snap_m=math.nan) or doc, "snap.poi_snap_m"),
        (lambda doc: doc["dedup"].update(min_sep_m=math.nan) or doc, "dedup.min_sep_m"),
        (lambda doc: doc["evaluate"].update(coverage_radius_m=math.inf) or doc,
         "evaluate.coverage_radius_m"),
        (lambda doc: doc.update(constraints={"base_minpts": 10.5}) or doc,
         "constraints.base_minpts"),
        (lambda doc: doc.update(workers=0) or doc, "workers"),
        *[(lambda doc, s=s, k=k, v=v: doc[s].update({k: v}) or doc, f"{s}.{k}")
          for s, k, v in OUT_OF_RANGE],
        *[(lambda doc, c=c: doc["constraints"].update(c) or doc, "minpts_factor")
          for c in MINPTS_OVERFLOW],
    ], ids=["root-number", "root-null", "snap-list", "constraints-string",
            "dedup-string", "layer-number", "workers-boolean", "snap-nan",
            "dedup-nan", "evaluate-infinity", "constraints-fraction", "workers-zero",
            *[f"{s}.{k}={v}" for s, k, v in OUT_OF_RANGE],
            *["minpts-" + "-".join(f"{k}={v}" for k, v in c.items())
              for c in MINPTS_OVERFLOW]])
    def test_malformed_config_exits_1(self, runner, scenario, edit, names):
        _, _, dirs = scenario
        doc = edit(default_config_dict(str(dirs["scenario"])))
        dirs["config"].write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert names in result.output

    @pytest.mark.parametrize("command", ["validate", "recommend", "evaluate"])
    def test_every_command_refuses_a_setting_out_of_range(self, runner, scenario, command):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["snap"]["poi_snap_m"] = 0
        dirs["config"].write_text(json.dumps(doc))
        args = [command, "--config", str(dirs["config"])]
        if command != "validate":
            args += ["--out", str(dirs["tmp"] / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "config snap.poi_snap_m must be > 0, got 0.0" in result.output

    @pytest.mark.parametrize("command", ["validate", "recommend", "evaluate"])
    def test_every_command_refuses_a_minpts_past_the_floats(self, runner, scenario, command):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["constraints"]["minpts_factor_flood"] = 1e308
        dirs["config"].write_text(json.dumps(doc))
        args = [command, "--config", str(dirs["config"])]
        if command != "validate":
            args += ["--out", str(dirs["tmp"] / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert "invalid constraints: base_minpts times minpts_factor_poi" in result.output

    @pytest.mark.parametrize("command", ["validate", "recommend", "evaluate"])
    @pytest.mark.parametrize("key", ["poi_near_m", "route_near_m"])
    def test_every_command_refuses_a_negative_near_distance(self, runner, scenario, command,
                                                            key):
        # -5 once loaded and switched the proximity rule off
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["constraints"][key] = -5
        dirs["config"].write_text(json.dumps(doc))
        args = [command, "--config", str(dirs["config"])]
        if command != "validate":
            args += ["--out", str(dirs["tmp"] / "out")]
        result = runner.invoke(main, args)
        assert result.exit_code == 1, result.output
        assert f"invalid constraints: {key} must be >= 0" in result.output

    @pytest.mark.parametrize("section,values", [
        ("evaluate", {"coverage_radius_m": 5e-324}), ("evaluate", {"align_m": 5e-324}),
        ("dedup", {"min_sep_m": 5e-324}), ("snap", {"poi_snap_m": 5e-324}),
        ("snap", {"route_snap_m": 5e-324}), ("demand", {"dwell_radius_m": 5e-324}),
        ("constraints", {"eps_min_m": 5e-324, "base_eps_m": 5e-324})],
        ids=["coverage", "align", "min_sep", "poi_snap", "route_snap", "dwell", "eps"])
    def test_smallest_positive_distance_runs(self, runner, scenario, section, values):
        # 5e-324 m is > 0, but a grid cell that many metres wide is 0 degrees
        # wide unless the cell has a floor
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc[section].update(values)
        dirs["config"].write_text(json.dumps(doc))
        result = runner.invoke(main, ["evaluate", "--config", str(dirs["config"]),
                                      "--out", str(dirs["tmp"] / "out")])
        assert result.exit_code == 0, result.output

    def test_min_sep_zero_loads(self, scenario):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["dedup"]["min_sep_m"] = 0
        dirs["config"].write_text(json.dumps(doc))
        assert load_config(dirs["config"]).min_sep_m == 0.0

    @pytest.mark.parametrize("section,key", NUMERIC_KEYS)
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.sampled_from([math.nan, math.inf, -math.inf])
           | st.integers(min_value=2 ** 1024, max_value=10 ** 400).map(
               lambda n: n * (-1) ** (n % 2)))
    def test_non_finite_number_rejected(self, scenario, section, key, value):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc[section][key] = value
        p = dirs["tmp"] / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=rf"config {section}\.{key} must be a finite"):
            load_config(p)

    # (path, in the config document, of a value the fuzz breaks; the name its
    # message must carry)
    FUZZED_KEYS = ([(("layers", k), k) for k in LAYER_KEYS]
                   + [(("layers", "trips_format"), "trips_format"),
                      (("dedup", "enabled"), "dedup.enabled"), (("workers",), "workers")]
                   + [((name,), name) for name in ("layers", "constraints", *DEFAULTS)])

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=st.sampled_from(FUZZED_KEYS),
           value=st.sampled_from([None, True, "x", [], {}, math.nan,
                                  10 ** 400, -10 ** 400, "remove"]))
    def test_broken_value_exits_1_naming_the_key(self, runner, scenario, key, value):
        (*head, last), name = key
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["layers"]["trips_format"] = "csv"
        parent = doc[head[0]] if head else doc
        if value == "remove":
            del parent[last]
        else:
            parent[last] = value
        p = dirs["tmp"] / "fuzzed.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(p)])
        # a key with a default can go, a section with defaults can be empty,
        # and dedup.enabled is true already; workers, like every count, must
        # fit a float, so 10 ** 400 is refused
        harmless = (last != "layers" and last not in LAYER_KEYS and (
            value == "remove" or (value == {} and name in (*DEFAULTS, "constraints"))
            or (name == "dedup.enabled" and value is True)))
        if harmless:
            assert result.exit_code == 0, result.output
        else:
            assert result.exit_code == 1, result.output
            assert name in result.output or "fuzzed.json" in result.output, result.output

    def test_missing_layer_file(self, scenario, tmp_path):
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["layers"]["pois"] = str(tmp_path / "nope.geojson")
        p = dirs["tmp"] / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InputError, match="nope.geojson"):
            load_config(p)

    def test_layer_path_to_a_directory_exits_1_naming_the_key(self, runner, scenario):
        # an empty path names the directory the config is in
        _, _, dirs = scenario
        doc = default_config_dict(str(dirs["scenario"]))
        doc["layers"]["trips"] = ""
        p = dirs["tmp"] / "dir.json"
        p.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(p)])
        assert result.exit_code == 1, result.output
        assert "layer 'trips': file not found" in result.output


class TestExitCodes:
    @pytest.mark.parametrize("error,code", [
        (InputError("a bad input"), 1), (OSError("an unreadable file"), 1),
        (ValueError("a fault"), 2), (ZeroDivisionError("a fault"), 2)],
        ids=["input", "os", "value", "other"])
    def test_only_input_and_os_errors_exit_1(self, runner, scenario, monkeypatch,
                                              error, code):
        # a builtin ValueError is a fault in the code, not the input's
        _, _, dirs = scenario

        def fail(cfg):
            raise error
        monkeypatch.setattr(pipeline, "run_pipeline", fail)
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(dirs["tmp"] / "out")])
        assert result.exit_code == code, result.output
        prefix = "error: " if code == 1 else "internal error: "
        assert result.output == f"{prefix}{error}\n"


class TestCommandNames:
    def test_help_lists_the_documented_names(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        assert "synth" in result.output.split()
        assert "export-map" in result.output.split()
        assert "synth-cmd" not in result.output


class TestValidate:
    def test_ok_counts_match_manifest(self, runner, scenario):
        manifest, _, dirs = scenario
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 0, result.output
        assert f"trips: {manifest.layer_counts['trips']}" in result.output
        assert f"pois: {manifest.layer_counts['pois']}" in result.output

    def test_missing_poi_file_exits_1(self, runner, scenario):
        _, _, dirs = scenario
        (dirs["scenario"] / "pois.geojson").unlink()
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1
        assert "pois.geojson" in result.output

    def test_bad_poi_category_exits_1(self, runner, scenario):
        _, _, dirs = scenario
        poi_path = dirs["scenario"] / "pois.geojson"
        doc = json.loads(poi_path.read_text())
        doc["features"][0]["properties"]["category"] = "hotel"
        poi_path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1
        assert "feature 0" in result.output

    @pytest.mark.parametrize("layer,key", [("pois.geojson", "poi_id"),
                                           ("lgas.geojson", "lga_name")])
    def test_repeated_id_exits_1_naming_the_file_and_feature(self, runner, scenario,
                                                              layer, key):
        _, _, dirs = scenario
        path = dirs["scenario"] / layer
        doc = json.loads(path.read_text())
        doc["features"][1]["properties"][key] = doc["features"][0]["properties"][key]
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1: duplicate {key} " in result.output

    @pytest.mark.parametrize("layer,key", [
        ("lgas.geojson", "lga_name"), ("stations.geojson", "station_id"),
        ("stations.geojson", "kind"), ("pois.geojson", "poi_id"),
        ("pois.geojson", "category"), ("routes.geojson", "route_id")])
    def test_lone_surrogate_exits_1_naming_the_file_and_feature(self, runner, scenario,
                                                                layer, key):
        # JSON's \ud800 escape gives a string that no UTF-8 output can hold;
        # an LGA name once reached evaluation.txt and failed there
        _, _, dirs = scenario
        path = dirs["scenario"] / layer
        doc = json.loads(path.read_text())
        doc["features"][0]["properties"][key] = "\ud800X"
        path.write_text(json.dumps(doc))
        config = ["--config", str(dirs["config"])]
        for args in (["validate", *config],
                     ["recommend", *config, "--out", str(dirs["tmp"] / "out")],
                     ["evaluate", *config, "--out", str(dirs["tmp"] / "out")]):
            result = runner.invoke(main, args)
            assert result.exit_code == 1, result.output
            assert f"{layer}: feature 0: {key} is not UTF-8 text: '\\ud800X'" in result.output

    @pytest.mark.parametrize("layer,edit", [
        ("stations.geojson", lambda g: g.pop("coordinates")),
        ("stations.geojson", lambda g: g.update(coordinates=[150.0])),
        ("pois.geojson", lambda g: g.pop("type")),
        ("lgas.geojson", lambda g: g.pop("coordinates")),
        ("lgas.geojson", lambda g: g.update(coordinates=7)),
        ("routes.geojson", lambda g: g.pop("coordinates")),
    ], ids=["station-no-coordinates", "station-one-coordinate", "poi-no-type",
            "lga-no-coordinates", "lga-scalar-coordinates", "route-no-coordinates"])
    def test_malformed_geometry_exits_1(self, runner, scenario, layer, edit):
        _, _, dirs = scenario
        path = dirs["scenario"] / layer
        doc = json.loads(path.read_text())
        edit(doc["features"][1]["geometry"])
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1:" in result.output


    @pytest.mark.parametrize("layer,edit", [
        ("stations.geojson", lambda g: g.update(coordinates=[150.0])),
        ("stations.geojson", lambda g: g.update(coordinates=150)),
        ("pois.geojson", lambda g: g.update(coordinates={"lon": 150, "lat": -33})),
        ("routes.geojson", lambda g: g["coordinates"].__setitem__(1, 150)),
        ("routes.geojson", lambda g: g["coordinates"].__setitem__(1, [150.0])),
        ("lgas.geojson", lambda g: g["coordinates"][0][0].__setitem__(1, [])),
    ], ids=["station-one-coordinate", "station-number", "poi-object", "route-number",
            "route-one-coordinate", "lga-empty-position"])
    def test_short_or_non_list_position_exits_1(self, runner, scenario, layer, edit):
        _, _, dirs = scenario
        path = dirs["scenario"] / layer
        doc = json.loads(path.read_text())
        edit(doc["features"][1]["geometry"])
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1: position must be [lon, lat, ...]" in result.output

    @pytest.mark.parametrize("layer,properties", [
        ("pois.geojson", ["poi_id", "category"]),
        ("lgas.geojson", "lga_name"),
        ("stations.geojson", 7),
    ], ids=["poi-list", "lga-string", "station-number"])
    def test_non_object_properties_exits_1(self, runner, scenario, layer, properties):
        _, _, dirs = scenario
        path = dirs["scenario"] / layer
        doc = json.loads(path.read_text())
        doc["features"][1]["properties"] = properties
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1:" in result.output


    @pytest.mark.parametrize("key,index,literal", [
        ("cells", 0, "NaN"), ("bbox", 0, "NaN"), ("bbox", 3, "Infinity"),
        ("n_rows", None, "1e400"),
    ], ids=["cells-nan", "bbox-nan", "bbox-infinity", "n-rows-huge"])
    def test_non_finite_fire_grid_exits_1(self, runner, scenario, key, index, literal):
        _, _, dirs = scenario
        path = dirs["scenario"] / "fire_grid.json"
        doc = json.loads(path.read_text())
        if index is None:
            doc[key] = "__BAD__"
        else:
            doc[key][index] = "__BAD__"
        path.write_text(json.dumps(doc).replace('"__BAD__"', literal))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        name = key if index is None else f"{key}[{index}]"
        assert f"fire_grid.json: {name} must be a finite" in result.output

    def test_huge_geojson_timestamp_is_a_malformed_row(self, runner, scenario):
        _, _, dirs = scenario
        trips, _ = load_trips(dirs["scenario"] / "trips.csv")
        doc = {"type": "FeatureCollection", "features": [
            {"type": "Feature",
             "geometry": {"type": "LineString",
                          "coordinates": [[p.lon, p.lat] for _, p in t.points]},
             "properties": {"trip_id": t.trip_id,
                            "timestamps": [ts for ts, _ in t.points]}}
            for t in trips]}
        doc["features"][1]["properties"]["timestamps"][-1] = "__HUGE__"
        path = dirs["tmp"] / "trips.geojson"
        path.write_text(json.dumps(doc).replace('"__HUGE__"', "1e400"))
        cfg = json.loads(dirs["config"].read_text())
        cfg["layers"].update(trips=str(path), trips_format="geojson")
        dirs["config"].write_text(json.dumps(cfg))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 0, result.output
        assert f"trips: {len(trips) - 1} (malformed rows: 1)" in result.output
        assert "feature 1: timestamp must be a finite integer, got inf" in result.output


    @pytest.mark.parametrize("layer,path", [
        ("stations.geojson", ("geometry", "coordinates", 0)),
        ("lgas.geojson", ("geometry", "coordinates", 0, 0, 1, 0)),
        ("routes.geojson", ("geometry", "coordinates", 1, 1)),
        ("routes.geojson", ("properties", "altitudes", 1)),
    ], ids=["station-coordinate", "lga-ring", "route-coordinate", "route-altitude"])
    def test_integer_too_large_for_a_float_exits_1(self, runner, scenario, layer, path):
        _, _, dirs = scenario
        f = dirs["scenario"] / layer
        doc = json.loads(f.read_text())
        *head, last = path
        target = doc["features"][1]
        for key in head:
            target = target[key]
        target[last] = "__HUGE__"
        f.write_text(json.dumps(doc).replace('"__HUGE__"', str(10 ** 400)))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1: int too large to convert to float" in result.output

    @pytest.mark.parametrize("value", ["151.2", True], ids=["string", "boolean"])
    @pytest.mark.parametrize("layer,path,key", [
        ("stations.geojson", ("geometry", "coordinates", 0), "longitude"),
        ("lgas.geojson", ("geometry", "coordinates", 0, 0, 1, 1), "latitude"),
        ("routes.geojson", ("geometry", "coordinates", 1, 1), "latitude"),
        ("routes.geojson", ("properties", "altitudes", 1), "altitude"),
    ], ids=["station-coordinate", "lga-ring", "route-coordinate", "route-altitude"])
    def test_json_number_as_string_or_boolean_exits_1(self, runner, scenario, layer, path,
                                                      key, value):
        _, _, dirs = scenario
        f = dirs["scenario"] / layer
        doc = json.loads(f.read_text())
        *head, last = path
        target = doc["features"][1]
        for k in head:
            target = target[k]
        target[last] = value
        f.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{layer}: feature 1: {key} must be a JSON number, got {value!r}" in result.output

    @pytest.mark.parametrize("trips_format", ["csv", "geojson"])
    def test_timestamp_past_64_bits_is_a_malformed_row(self, runner, scenario, trips_format):
        _, _, dirs = scenario
        csv_path = dirs["scenario"] / "trips.csv"
        trips, _ = load_trips(csv_path)
        huge = str(10 ** 400)
        if trips_format == "csv":
            # one more fix of the first trip, on a line of its own
            lines = csv_path.read_text().splitlines()
            trip_id, _, lat, lon = lines[1].split(",")
            lines.append(",".join([trip_id, huge, lat, lon]))
            path = dirs["tmp"] / "trips.csv"
            path.write_text("\n".join(lines) + "\n")
            want = (len(trips), f"trips.csv:{len(lines)}: timestamp")
        else:
            doc = {"type": "FeatureCollection", "features": [
                {"type": "Feature",
                 "geometry": {"type": "LineString",
                              "coordinates": [[p.lon, p.lat] for _, p in t.points]},
                 "properties": {"trip_id": t.trip_id,
                                "timestamps": [ts for ts, _ in t.points]}}
                for t in trips]}
            doc["features"][1]["properties"]["timestamps"][-1] = "__HUGE__"
            path = dirs["tmp"] / "trips.geojson"
            path.write_text(json.dumps(doc).replace('"__HUGE__"', huge))
            want = (len(trips) - 1, "trips.geojson: feature 1: timestamp")
        cfg = json.loads(dirs["config"].read_text())
        cfg["layers"].update(trips=str(path), trips_format=trips_format)
        dirs["config"].write_text(json.dumps(cfg))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 0, result.output
        assert f"trips: {want[0]} (malformed rows: 1)" in result.output
        assert f"{want[1]} must fit in a signed 64-bit integer" in result.output

    @pytest.mark.parametrize("name", ["trips.csv", "stations.geojson", "fire_grid.json",
                                      "config.json"],
                             ids=["csv", "geojson", "fire-grid", "config"])
    def test_byte_that_is_not_utf8_exits_1_naming_the_file(self, runner, scenario, name):
        _, _, dirs = scenario
        path = dirs["config"] if name == "config.json" else dirs["scenario"] / name
        data = path.read_bytes()
        # near the end, so that a reader that decodes as it goes meets it late
        path.write_bytes(data[:-5] + b"\xff" + data[-5:])
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert name in result.output and "not UTF-8 text" in result.output
        if name == "trips.csv":
            # the byte's place in the file, not in the decoder's chunk
            at = len(data) - 5
            line = data[:at].count(b"\n") + 1
            assert f"byte 0xff at offset {at} (line {line})" in result.output

    @pytest.mark.parametrize("name", ["stations.geojson", "fire_grid.json"])
    def test_malformed_json_exits_1_naming_the_file(self, runner, scenario, name):
        _, _, dirs = scenario
        (dirs["scenario"] / name).write_text("{not json")
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert f"{name}: not valid JSON" in result.output

    @pytest.mark.parametrize("name", ["stations.geojson", "config.json"])
    def test_deeply_nested_json_exits_1_naming_the_file(self, runner, scenario, name):
        _, _, dirs = scenario
        path = dirs["config"] if name == "config.json" else dirs["scenario"] / name
        path.write_text(DEEP_JSON)
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert name in result.output and "not valid JSON: nested too deeply" in result.output

    def test_integer_past_the_digit_limit_exits_1_naming_the_file(self, runner, scenario):
        # json parses an integer literal with int(), which refuses more than
        # sys.get_int_max_str_digits() digits (4300 by default) where it has a limit
        _, _, dirs = scenario
        path = dirs["scenario"] / "stations.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["geometry"]["coordinates"][0] = "__HUGE__"
        path.write_text(json.dumps(doc).replace('"__HUGE__"', "9" * 5000))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert "stations.geojson: " in result.output
        assert len(result.output) < 500, result.output

    def test_fire_grid_across_the_antimeridian_exits_1(self, runner, scenario):
        # lookup_ffdi cannot wrap a bbox; such a grid once exited 1 naming no key
        _, _, dirs = scenario
        path = dirs["scenario"] / "fire_grid.json"
        doc = json.loads(path.read_text())
        doc["bbox"] = [170, -10, -170, 10]
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert "fire_grid.json: bbox has min_lon 170.0 > max_lon -170.0" in result.output
        assert "a fire grid may not cross the antimeridian" in result.output

    def test_lga_ring_across_the_antimeridian_exits_1(self, runner, scenario):
        _, _, dirs = scenario
        path = dirs["scenario"] / "lgas.geojson"
        doc = json.loads(path.read_text())
        doc["features"][1]["geometry"] = {"type": "Polygon", "coordinates": [
            [[179.5, 0.0], [-179.5, 0.0], [-179.5, 1.0], [179.5, 1.0], [179.5, 0.0]]]}
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", "--config", str(dirs["config"])])
        assert result.exit_code == 1, result.output
        assert "lgas.geojson: feature 1: ring edge from lon 179.5 to lon -179.5" in result.output
        assert "antimeridian" in result.output
        # the same ring split at the antimeridian loads as two polygons
        doc["features"][1]["geometry"] = {"type": "MultiPolygon", "coordinates": [
            [[[179.5, 0.0], [180.0, 0.0], [180.0, 1.0], [179.5, 1.0], [179.5, 0.0]]],
            [[[-180.0, 0.0], [-179.5, 0.0], [-179.5, 1.0], [-180.0, 1.0], [-180.0, 0.0]]]]}
        path.write_text(json.dumps(doc))
        lga = load_lgas(path)[1]
        assert len(lga.boundary.polygons) == 2


class TestRecommend:
    OUT_FILES = ("recommendations.geojson", "stations.geojson", "run_summary.json")

    def test_outputs_schema_valid(self, runner, scenario):
        _, cfg, dirs = scenario
        out = dirs["tmp"] / "out"
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "recommendations.geojson") as f:
            doc = json.load(f)
        assert doc["type"] == "FeatureCollection"
        colors = {"recommended_fast": "#FF0000",
                  "recommended_destination": "#FFA500"}
        for feat in doc["features"]:
            props = feat["properties"]
            assert props["kind"] in colors
            assert props["color"] == colors[props["kind"]]
            assert props["cluster_size"] >= cfg.constraints.minpts_min
            assert set(props) >= {"altitude_m", "ffdi_delta", "flood_flag",
                                  "fire_flag", "snap_target", "lga_name"}
        ids = [f["id"] for f in doc["features"]]
        assert ids == sorted(ids)
        stations = load_stations(dirs["scenario"] / "stations.geojson")
        with open(out / "stations.geojson") as f:
            sdoc = json.load(f)
        kind_colors = {"existing_fast": "#00008B",
                       "existing_destination": "#ADD8E6", "approved": "#008000"}
        for feat in sdoc["features"]:
            assert feat["properties"]["color"] == kind_colors[feat["properties"]["kind"]]
        assert len(sdoc["features"]) == len(stations)
        assert [f["id"] for f in sdoc["features"]] == sorted(s.station_id for s in stations)
        with open(out / "run_summary.json") as f:
            summary = json.load(f)
        assert summary["config"] == json.loads(dirs["config"].read_text())
        assert summary["recommendations"] == len(doc["features"])

    def test_zero_trips_gives_empty_collection(self, runner, scenario, tmp_path):
        _, _, dirs = scenario
        (dirs["scenario"] / "trips.csv").write_text("trip_id,timestamp,lat,lon\n")
        out = tmp_path / "out"
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "recommendations.geojson") as f:
            assert json.load(f)["features"] == []

    def test_byte_identical_across_runs_and_workers(self, runner, scenario):
        _, _, dirs = scenario
        outs = []
        for name, workers in (("o1", 1), ("o2", 1), ("o4", 4)):
            doc = json.loads(dirs["config"].read_text())
            doc["workers"] = workers
            cfg_path = dirs["tmp"] / f"cfg-{name}.json"
            cfg_path.write_text(json.dumps(doc))
            out = dirs["tmp"] / name
            result = runner.invoke(main, ["recommend", "--config", str(cfg_path),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            files = read_dir(out, ("recommendations.geojson", "stations.geojson"))
            outs.append(files)
        assert outs[0] == outs[1] == outs[2]

    def test_byte_identical_across_hash_seeds(self, scenario):
        # string hashing differs between the two processes, and with it the
        # order of every set and dict keyed by strings
        _, _, dirs = scenario
        src = str(Path(evsite.__file__).resolve().parents[1])
        outs = []
        for seed in ("1", "2"):
            out = dirs["tmp"] / f"hash{seed}"
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "evsite.cli", "recommend",
                            "--config", str(dirs["config"]), "--out", str(out)],
                           env=env, check=True, capture_output=True, timeout=300)
            outs.append(read_dir(out, self.OUT_FILES))
        assert outs[0] == outs[1]

    def test_empty_routes_layer_exits_1(self, runner, scenario, tmp_path):
        _, _, dirs = scenario
        (dirs["scenario"] / "routes.geojson").write_text(
            '{"type":"FeatureCollection","features":[]}')
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert "routes.geojson" in result.output

    def test_broken_layer_exits_1(self, runner, scenario, tmp_path):
        _, _, dirs = scenario
        (dirs["scenario"] / "fire_grid.json").write_text("{not json")
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1


class TestEvaluateCmd:
    def test_writes_report_and_table(self, runner, scenario):
        _, _, dirs = scenario
        out = dirs["tmp"] / "out"
        result = runner.invoke(main, ["evaluate", "--config", str(dirs["config"]),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        with open(out / "evaluation.json") as f:
            doc = json.load(f)
        table = (out / "evaluation.txt").read_text()
        assert 0.0 <= doc["alignment_rate"] <= 1.0
        assert doc["coverage_after"] >= doc["coverage_before"]
        for name in doc["per_lga_counts"]:
            assert name in table
        assert f"coverage_after: {doc['coverage_after']}" in table

    def test_no_demand_points_exits_1_naming_the_trips_file(self, runner, scenario):
        # a header-only trips.csv validates and recommends nothing, but
        # coverage has no demand to measure
        _, _, dirs = scenario
        trips = dirs["scenario"] / "trips.csv"
        trips.write_text("trip_id,timestamp,lat,lon\n")
        out = dirs["tmp"] / "out"
        result = runner.invoke(main, ["evaluate", "--config", str(dirs["config"]),
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert result.output == (f"error: trips layer {trips} gives no demand points "
                                 "to evaluate\n")
        assert not (out / "evaluation.json").exists()


class TestSynthCmd:
    def test_generates_bundle(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 3, "n_hotspots_per_lga": 1,
                                         "background_noise_points": 10}))
        out = tmp_path / "scen"
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "manifest.json").exists()
        assert (out / "trips.csv").exists()

    def test_grid_past_ten_rows_validates(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "seed": 1, "lga_rows": 12, "lga_cols": 12, "n_hotspots_per_lga": 0,
            "background_noise_points": 10, "n_stations_per_lga": 0}))
        out = tmp_path / "scen"
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(default_config_dict(str(out))))
        result = runner.invoke(main, ["validate", "--config", str(config_path)])
        assert result.exit_code == 0, result.output
        names = {l.lga_name for l in load_lgas(out / "lgas.geojson")}
        assert len(names) == 144
        assert {"LGA-0110", "LGA-1100"} <= names

    def test_deeply_nested_spec_exits_1(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(DEEP_JSON)
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"{spec_path}: not valid JSON: nested too deeply" in result.output

    def test_unknown_spec_key_exits_1(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"seed": 3, "wat": 1}))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1


    @pytest.mark.parametrize("spec,key", [
        ({"seed": "x"}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"lga_rows": "2"}, "lga_rows"),
        ({"lga_rows": 2.5}, "lga_rows"),
        ({"bbox": 5}, "bbox"),
        ({"bbox": [-35.0, 149.0, -33.0]}, "bbox"),
        ({"bbox": [-35.0, 149.0, -33.0, "151"]}, "bbox[3]"),
        ({"hotspot_sigma_m": None}, "hotspot_sigma_m"),
        ({"hotspot_sigma_m": 10 ** 400}, "hotspot_sigma_m"),
        ({"lga_rows": 10 ** 400}, "lga_rows"),
        ([1], "scenario spec must be a JSON object"),
    ], ids=["seed-string", "seed-float", "seed-boolean", "rows-string", "rows-float",
            "bbox-number", "bbox-short", "bbox-string", "sigma-null", "sigma-huge",
            "rows-huge", "not-an-object"])
    def test_spec_value_of_the_wrong_kind_exits_1(self, runner, tmp_path, spec, key):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"{spec_path}: {key}" in result.output

    @pytest.mark.parametrize("key,value", [
        ("route_spacing_deg", 0), ("route_spacing_deg", -0.01),
        ("route_vertex_step_deg", 0.0), ("route_vertex_step_deg", -1),
        ("n_hotspots_per_lga", -1), ("points_per_hotspot_min", -2),
        ("points_per_hotspot_max", -1), ("background_noise_points", -1),
        ("n_stations_per_lga", -1),
        ("ffdi_missing_prob", -0.5), ("ffdi_missing_prob", 2),
        ("poi_per_hotspot_prob", 1.5),
        ("ffdi_rows", 0), ("ffdi_cols", -3), ("lga_rows", 0), ("lga_cols", -1),
        ("bbox", [-35, 149, -33, 1e308]), ("bbox", [-95, 149, -33, 151]),
        ("bbox", [-33, 149, -35, 151]), ("bbox", [-35, 151, -33, 149]),
    ])
    def test_spec_value_out_of_range_exits_1(self, runner, tmp_path, monkeypatch,
                                             key, value):
        # the spec is refused before any layer is generated: a route step of
        # 0 would loop for ever
        def generate(spec, out_dir):
            raise AssertionError(f"generate called with {spec}")
        monkeypatch.setattr(synth, "generate", generate)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({key: value}))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"{spec_path}: {key} must be" in result.output
        assert not (tmp_path / "o").exists()

    def test_count_past_a_float_is_echoed_in_60_characters(self, runner, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("hugerows.json").write_text('{"lga_rows": ' + "9" * 401 + "}")
        result = runner.invoke(main, ["synth", "--spec", "hugerows.json", "--out", "o"])
        assert result.exit_code == 1, result.output
        assert "hugerows.json: lga_rows must be a finite integer, got 999" in result.output
        assert len(result.output) < 200, result.output

    @pytest.mark.parametrize("spec,code", [
        ({"bbox": [89.9, 179.9, 90, 180]}, 0),
        ({"hotspot_sigma_m": 1e300}, 1),
    ], ids=["bbox-at-the-antimeridian", "sigma-off-the-globe"])
    def test_scattered_points_stay_on_the_globe(self, runner, tmp_path, spec, code):
        # both once exited 1 naming no key: a point past lon 180, and one
        # past lat 90
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "o"
        result = runner.invoke(main, ["synth", "--spec", str(spec_path), "--out", str(out)])
        assert result.exit_code == code, result.output
        if code:
            assert "hotspot_sigma_m and bbox" in result.output
        else:
            # points scattered past the antimeridian wrap to the west of it
            trips, bad = load_trips(out / "trips.csv")
            assert bad == [] and any(p.lon < 0 for t in trips for _, p in t.points)

    @pytest.mark.parametrize("spec", [
        {"route_vertex_step_deg": 1e-7}, {"route_spacing_deg": 1e-7},
        {"route_spacing_deg": 0.001, "route_vertex_step_deg": 0.001},
        {"route_spacing_deg": 5e-324},
    ], ids=["tiny-step", "tiny-spacing", "fine-grid", "least-spacing"])
    def test_route_grid_past_the_vertex_cap_exits_1(self, runner, tmp_path, monkeypatch,
                                                    spec):
        # a positive but tiny route step once ran until killed
        def generate(spec, out_dir):
            raise AssertionError(f"generate called with {spec}")
        monkeypatch.setattr(synth, "generate", generate)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"{spec_path}: route_spacing_deg" in result.output
        assert "route_vertex_step_deg" in result.output
        assert f"more than {synth.MAX_GENERATED}" in result.output

    @pytest.mark.parametrize("spec,keys", [
        ({"ffdi_rows": 100000, "ffdi_cols": 100000}, "ffdi_rows and ffdi_cols"),
        ({"lga_rows": 3000, "lga_cols": 3000}, "lga_rows, lga_cols"),
        ({"lga_rows": 900, "lga_cols": 1000, "n_hotspots_per_lga": 0,
          "n_stations_per_lga": 0}, "lga_rows and lga_cols: more than"),
        ({"points_per_hotspot_min": 100000000, "points_per_hotspot_max": 100000000},
         "points_per_hotspot_max"),
        ({"background_noise_points": 10 ** 300}, "background_noise_points"),
        ({"lga_rows": 1e300, "lga_cols": 1e300, "n_stations_per_lga": 1e300},
         "n_stations_per_lga"),
        ({"route_spacing_deg": 0.002, "route_vertex_step_deg": 0.004,
          "background_noise_points": 600000}, "background_noise_points: 600000"),
    ], ids=["fire-cells", "lga-grid", "lga-tiles", "planted-points", "noise-points",
            "stations", "sum"])
    def test_scenario_past_the_size_bound_exits_1(self, runner, tmp_path, monkeypatch,
                                                  spec, keys):
        # each of these once ran until killed, or exited 2 out of memory
        # under `ulimit -v 1500000`; the last is under the bound part by
        # part, and over it in sum
        def generate(spec, out_dir):
            raise AssertionError(f"generate called with {spec}")
        monkeypatch.setattr(synth, "generate", generate)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert keys in result.output
        assert f"more than {synth.MAX_GENERATED}" in result.output

    def test_integral_number_for_a_count_writes_the_same_bytes(self, runner, tmp_path):
        outs = []
        for rows in ("2", "2.0", "2e0"):
            spec_path = tmp_path / f"spec-{rows}.json"
            spec_path.write_text(f'{{"seed": 4, "lga_rows": {rows}, "ffdi_rows": {rows}, '
                                 '"background_noise_points": 20}')
            out = tmp_path / f"scen-{rows}"
            result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                          "--out", str(out)])
            assert result.exit_code == 0, result.output
            outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0]) == 7

    def test_minimum_above_maximum_exits_1(self, runner, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"points_per_hotspot_min": 5,
                                         "points_per_hotspot_max": 4}))
        result = runner.invoke(main, ["synth", "--spec", str(spec_path),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 1, result.output
        assert f"{spec_path}: points_per_hotspot_min must be <=" in result.output


class TestExportMap:
    def _empty_collection(self, path):
        path.write_text(json.dumps({"type": "FeatureCollection", "features": []}))

    def test_empty_collections(self, tmp_path):
        self._empty_collection(tmp_path / "recommendations.geojson")
        self._empty_collection(tmp_path / "stations.geojson")
        n = export_map(tmp_path / "recommendations.geojson",
                       tmp_path / "stations.geojson", tmp_path / "map.html")
        assert n == 0
        html = (tmp_path / "map.html").read_text()
        assert "<svg" in html
        assert html.count('class="marker"') == 0

    def test_single_recommendation_marker(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "id": "A-0",
            "geometry": {"type": "Point", "coordinates": [150.5, -33.5]},
            "properties": {"kind": "recommended_fast", "color": "#FF0000",
                           "altitude_m": 42.0}}]}
        (tmp_path / "recommendations.geojson").write_text(json.dumps(doc))
        self._empty_collection(tmp_path / "stations.geojson")
        n = export_map(tmp_path / "recommendations.geojson",
                       tmp_path / "stations.geojson", tmp_path / "map.html")
        assert n == 1
        html = (tmp_path / "map.html").read_text()
        assert html.count('class="marker"') == 1
        assert 'fill="#FF0000"' in html
        assert "altitude_m: 42.0" in html

    def test_marker_colour_cannot_add_an_attribute(self, tmp_path):
        doc = {"type": "FeatureCollection", "features": [{
            "type": "Feature", "id": "A-0",
            "geometry": {"type": "Point", "coordinates": [150.5, -33.5]},
            "properties": {"color": '#f00" onmouseover="alert(1)'}}]}
        (tmp_path / "recommendations.geojson").write_text(json.dumps(doc))
        self._empty_collection(tmp_path / "stations.geojson")
        export_map(tmp_path / "recommendations.geojson",
                   tmp_path / "stations.geojson", tmp_path / "map.html")
        html = (tmp_path / "map.html").read_text()
        # the whole value stays inside fill's quotes
        assert 'onmouseover="' not in html
        assert 'fill="#f00&quot; onmouseover=&quot;alert(1)"' in html

    def test_marker_count_matches_features(self, runner, scenario):
        _, _, dirs = scenario
        out = dirs["tmp"] / "out"
        result = runner.invoke(main, ["recommend", "--config", str(dirs["config"]),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        html_path = dirs["tmp"] / "map.html"
        result = runner.invoke(main, ["export-map", "--in", str(out),
                                      "--out", str(html_path)])
        assert result.exit_code == 0, result.output
        html = html_path.read_text()
        n_features = 0
        for name in ("recommendations.geojson", "stations.geojson"):
            with open(out / name) as f:
                n_features += len(json.load(f)["features"])
        assert html.count('class="marker"') == n_features

    def test_missing_inputs_exit_1(self, runner, tmp_path):
        result = runner.invoke(main, ["export-map", "--in", str(tmp_path),
                                      "--out", str(tmp_path / "map.html")])
        assert result.exit_code == 1

    @pytest.mark.parametrize("text,message", [
        ("[1, 2]", "not a GeoJSON FeatureCollection"),
        ('{"type": "FeatureCollection"}', "not a GeoJSON FeatureCollection"),
        ('{"type": "FeatureCollection", "features": {}}', "not a GeoJSON FeatureCollection"),
        (DEEP_JSON, "not valid JSON: nested too deeply"),
        ("{not json", "not valid JSON"),
        ('{"type": "FeatureCollection", "features": [1]}',
         "feature 0: not a GeoJSON Feature"),
        ('{"type": "FeatureCollection", "features": [{"type": "Feature"}]}',
         "feature 0: geometry must be Point"),
        ('{"type": "FeatureCollection", "features": [{"geometry": {"type": "Point"}}]}',
         "feature 0: Point geometry has no coordinates"),
        ('{"type": "FeatureCollection", "features": [{"geometry": '
         '{"type": "LineString", "coordinates": [[1, 2], [3, 4]]}}]}',
         "feature 0: geometry must be Point"),
        ('{"type": "FeatureCollection", "features": [{"geometry": '
         '{"type": "Point", "coordinates": [150.0]}}]}',
         "feature 0: position must be [lon, lat, ...]"),
        ('{"type": "FeatureCollection", "features": [{"geometry": '
         '{"type": "Point", "coordinates": ["150", -33]}}]}',
         "feature 0: longitude must be a JSON number, got '150'"),
        ('{"type": "FeatureCollection", "features": [{"geometry": '
         '{"type": "Point", "coordinates": [1e400, -33]}}]}',
         "feature 0: non-finite coordinate: (-33.0, inf)"),
        ('{"type": "FeatureCollection", "features": [{"geometry": {"type": "Point", '
         '"coordinates": [150, -33]}, "properties": [1]}]}',
         "feature 0: properties must be an object"),
    ], ids=["list", "no-features", "features-object", "nested", "not-json", "feature-number",
            "no-geometry", "no-coordinates", "line", "one-coordinate", "string-coordinate",
            "infinite-coordinate", "properties-list"])
    def test_malformed_input_exits_1_naming_the_file(self, runner, tmp_path, text, message):
        self._empty_collection(tmp_path / "stations.geojson")
        (tmp_path / "recommendations.geojson").write_text(text)
        result = runner.invoke(main, ["export-map", "--in", str(tmp_path),
                                      "--out", str(tmp_path / "map.html")])
        assert result.exit_code == 1, result.output
        assert f"recommendations.geojson: {message}" in result.output

    @pytest.mark.parametrize("edit,what", [
        (lambda f: f.update(id="A\ud800"), "id"),
        (lambda f: f["properties"].update(note="a\udfff"), "property 'note'"),
        (lambda f: f["properties"].update({"\ud800": 1}), "a property name")],
        ids=["id", "value", "name"])
    def test_lone_surrogate_exits_1_naming_the_file(self, runner, tmp_path, edit, what):
        # a marker writes its id and properties into map.html as UTF-8
        feat = {"type": "Feature", "id": "A-0", "properties": {"kind": "recommended_fast"},
                "geometry": {"type": "Point", "coordinates": [150.5, -33.5]}}
        edit(feat)
        (tmp_path / "recommendations.geojson").write_text(json.dumps({
            "type": "FeatureCollection", "features": [feat]}))
        self._empty_collection(tmp_path / "stations.geojson")
        result = runner.invoke(main, ["export-map", "--in", str(tmp_path),
                                      "--out", str(tmp_path / "map.html")])
        assert result.exit_code == 1, result.output
        assert f"recommendations.geojson: feature 0: {what} is not UTF-8 text" in result.output
        assert not (tmp_path / "map.html").exists()

    @pytest.mark.parametrize("coordinates", [[181.0, -33.0], [150.0, -90.5]],
                             ids=["longitude", "latitude"])
    def test_coordinate_out_of_range_exits_1(self, runner, tmp_path, coordinates):
        self._empty_collection(tmp_path / "recommendations.geojson")
        (tmp_path / "stations.geojson").write_text(json.dumps({
            "type": "FeatureCollection", "features": [{
                "type": "Feature", "geometry": {"type": "Point", "coordinates": coordinates},
                "properties": {}}]}))
        result = runner.invoke(main, ["export-map", "--in", str(tmp_path),
                                      "--out", str(tmp_path / "map.html")])
        assert result.exit_code == 1, result.output
        assert "stations.geojson: feature 0: " in result.output
        assert "out of range" in result.output

    def test_text_outputs_are_utf8_in_any_locale(self, scenario):
        # an ASCII locale with UTF-8 mode and locale coercion off: the text
        # writers must not take the locale's encoding
        _, _, dirs = scenario
        path = dirs["scenario"] / "lgas.geojson"
        doc = json.loads(path.read_text())
        doc["features"][0]["properties"]["lga_name"] = "Caf\u00e9-Nord"
        path.write_text(json.dumps(doc))
        src = str(Path(evsite.__file__).resolve().parents[1])
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = dirs["tmp"] / "out"
        for args in (["evaluate", "--config", str(dirs["config"]), "--out", str(out)],
                     ["recommend", "--config", str(dirs["config"]), "--out", str(out)],
                     ["export-map", "--in", str(out), "--out", str(out / "map.html")]):
            run = subprocess.run([sys.executable, "-m", "evsite.cli", *args], env=env,
                                 capture_output=True, timeout=300)
            assert run.returncode == 0, run.stderr
        assert "Caf\u00e9-Nord" in (out / "evaluation.txt").read_text(encoding="utf-8")
        assert 'id: Caf\u00e9-Nord-0' in (out / "map.html").read_text(encoding="utf-8")
