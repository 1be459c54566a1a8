"""The exit-code contract, fuzzed: with one value of one input changed, every
command that reads the input exits 0 or 1, and an exit-1 message names the
file, or, for the config, the key or a layer file.

Exit 1 means ingest.InputError or an OSError: an input the user can mend.
Anything else exits 2, so a fault in the code can never pass for a bad input
here, nor a bad input for a fault.
"""

import copy
import csv
import io
import json
import math
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from evsite.cli import main
from evsite.config import SECTIONS, default_config_dict
from evsite.synth import ScenarioSpec, generate

LAYER_FILES = ("trips.csv", "stations.geojson", "lgas.geojson", "pois.geojson",
               "routes.geojson", "fire_grid.json")

# a bundle of a few dozen points whose every command runs in milliseconds
SPEC = ScenarioSpec(seed=3, bbox=(-34.0, 150.0, -33.8, 150.3), lga_rows=1, lga_cols=2,
                    n_hotspots_per_lga=2, points_per_hotspot_min=12,
                    points_per_hotspot_max=12, background_noise_points=8,
                    poi_per_hotspot_prob=1.0, n_stations_per_lga=1,
                    route_spacing_deg=0.1, route_vertex_step_deg=0.1,
                    ffdi_rows=3, ffdi_cols=3)

# what takes the place of a text value: text with a letter past ASCII or,
# most often, a lone surrogate, which JSON's \ud800 escape gives
TEXT_VALUES = st.text(st.sampled_from("xé\ud800\udfff"), min_size=1, max_size=3)

# what takes the place of a number: NaN and the infinities (written as the
# NaN and Infinity literals), and numbers past a double and past 64 bits
NUMBER_VALUES = st.one_of(
    st.sampled_from([0, -1, 1, 2 ** 63, -2 ** 64, 10 ** 400, 1e308, -1e308, 5e-324,
                     math.nan, math.inf, -math.inf]),
    st.integers(), st.floats(),
)

# what takes the place of any JSON value: the above, wrong types, nesting,
# and empty and number-like strings
JSON_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "9", "-1.5", "LGA-00", [], {},
                     [[[[[[[[[[1]]]]]]]]]], [0.0, 0.0], {"type": "Feature"},
                     {"type": "FeatureCollection", "features": []}]),
    NUMBER_VALUES, TEXT_VALUES,
)


def _replacing(value):
    """What takes the place of value: three times in four a value of its own
    kind, text for text and a number for a number, else any value. Drawn from
    JSON_VALUES alone, a text property would seldom get text, and a lone
    surrogate in one (say lga_name) would go unseen."""
    kind = (TEXT_VALUES if isinstance(value, str)
            else NUMBER_VALUES if type(value) in (int, float) else None)
    if kind is None:
        return JSON_VALUES
    return st.sampled_from([kind, kind, kind, JSON_VALUES]).flatmap(lambda values: values)


# what takes the place of one trips.csv field; a lone surrogate is written
# as the bytes it would have, which are not UTF-8
CSV_FIELDS = st.one_of(
    st.sampled_from(["", "nan", "inf", "-Infinity", "1e400", "9" * 400, "1_0", " 1",
                     "0x1f", "\ud800", "１", '"', "a\nb", "-0", "trip_id"]),
    st.text(max_size=4), st.integers().map(str), st.floats().map(repr),
)


def _paths(doc, at=()):
    """The path of every value in a JSON document, the document's own first."""
    yield at
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from _paths(value, (*at, key))


@st.composite
def json_edits(draw, doc):
    """(path, doc with the value at path replaced or, past the top, deleted)."""
    # a path's shape first, its list indices as 0, so that a property that
    # each feature has once is picked as often as one coordinate of many
    shapes: dict[tuple, list[tuple]] = {}
    for path in _paths(doc):
        shapes.setdefault(tuple(0 if type(k) is int else k for k in path), []).append(path)
    at = draw(st.sampled_from(shapes[draw(st.sampled_from(list(shapes)))]))
    if not at:
        return at, draw(JSON_VALUES)
    doc = copy.deepcopy(doc)
    parent = doc
    for key in at[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[at[-1]]
    else:
        parent[at[-1]] = draw(_replacing(parent[at[-1]]))
    return at, doc


@st.composite
def csv_edits(draw, rows):
    """The bytes of rows with one field replaced, one row deleted, or every
    row but the header deleted."""
    rows = [list(r) for r in rows]
    edit = draw(st.sampled_from(["field", "row", "header only"]))
    if edit == "header only":
        rows = rows[:1]
    elif edit == "row":
        del rows[draw(st.integers(0, len(rows) - 1))]
    else:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(CSV_FIELDS)
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue().encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """(directory holding the layers, config document naming them, directory
    of recommend's outputs)."""
    root = tmp_path_factory.mktemp("fuzz")
    generate(SPEC, root / "bundle")
    # every constraint written out, so that each is a value to change
    config = {**default_config_dict(str(root / "bundle")),
              "constraints": dict(SECTIONS["constraints"])}
    (root / "config.json").write_text(json.dumps(config))
    res = CliRunner().invoke(main, ["recommend", "--config", str(root / "config.json"),
                                    "--out", str(root / "out")])
    assert res.exit_code == 0, res.output
    return root / "bundle", config, root / "out"


def _run(args: list, names: tuple[str, ...]):
    """Run one command: it exits 0, or 1 with a message holding one of names."""
    res = CliRunner().invoke(main, [str(a) for a in args])
    assert res.exit_code in (0, 1), res.output
    # an exception that escaped the command, not an exit it chose
    assert res.exception is None or isinstance(res.exception, SystemExit), res.exception
    if res.exit_code == 1:
        assert any(name in res.output for name in names), res.output


# about 80 (file, value shape) pairs, each edited a few ways: 1,000 examples
# reach a lone surrogate in each text property
@settings(max_examples=1000, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_layer_value_exits_0_or_1_naming_the_file(bundle, data):
    scen, config, _ = bundle
    name = data.draw(st.sampled_from(LAYER_FILES))
    if name == "trips.csv":
        with open(scen / name, newline="", encoding="utf-8") as f:
            edited = data.draw(csv_edits(list(csv.reader(f))))
    else:
        doc = json.loads((scen / name).read_text())
        edited = json.dumps(data.draw(json_edits(doc))[1]).encode()
    with tempfile.TemporaryDirectory(dir=scen.parent) as tmp:
        tmp = Path(tmp)
        (tmp / name).write_bytes(edited)
        layers = {k: str(tmp / name) if Path(v).name == name else v
                  for k, v in config["layers"].items()}
        (tmp / "config.json").write_text(json.dumps({**config, "layers": layers}))
        for command in ("validate", "recommend", "evaluate"):
            args = [command, "--config", tmp / "config.json"]
            _run(args if command == "validate" else [*args, "--out", tmp / "out"], (name,))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_config_value_exits_0_or_1_naming_the_key(bundle, data):
    scen, config, _ = bundle
    at, doc = data.draw(json_edits(config))
    # the key changed, the config itself when it is replaced whole, or a layer
    # file: a setting can leave a layer with nothing to give
    names = (*([k for k in at if isinstance(k, str)] or ["config"]), *LAYER_FILES)
    with tempfile.TemporaryDirectory(dir=scen.parent) as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(doc))
        for command in ("validate", "recommend", "evaluate"):
            args = [command, "--config", tmp / "config.json"]
            _run(args if command == "validate" else [*args, "--out", tmp / "out"], names)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_changed_output_value_exits_0_or_1_from_export_map(bundle, data):
    scen, _, out = bundle
    doc = json.loads((out / "recommendations.geojson").read_text())
    edited = json.dumps(data.draw(json_edits(doc))[1])
    with tempfile.TemporaryDirectory(dir=scen.parent) as tmp:
        tmp = Path(tmp)
        shutil.copy(out / "stations.geojson", tmp)
        (tmp / "recommendations.geojson").write_text(edited)
        _run(["export-map", "--in", tmp, "--out", tmp / "map.html"],
             ("recommendations.geojson",))
