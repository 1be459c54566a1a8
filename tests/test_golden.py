"""Pinned output digests: the sha256 of every byte-stable output of
recommend, evaluate and export-map on seeded synth bundles.

The cases reach branches the benchmark does not: both flood flags and all
three fire flags, a dedup that drops recommendations, and snaps to routes as
well as POIs. Each config names its layers by relative path, so
run_summary.json, which echoes the config, does not depend on the directory.
timing.json holds a wall-clock time and is left out.

A change that moves a digest changes behaviour; the new digest goes in with
a note of the case and the behaviour that moved.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from evsite.cli import main as cli_main
from evsite.config import default_config_dict
from evsite.synth import ScenarioSpec, generate

SEED7_3X3 = {"seed": 7, "lga_rows": 3, "lga_cols": 3}
FLOOD_50 = {"constraints": {"flood_alt_m": 50}}

# name: (spec, config sections over default_config_dict("."))
CASES = {
    "seed42": (ScenarioSpec(seed=42), {}),
    "seed7-3x3-flood50": (ScenarioSpec(**SEED7_3X3), FLOOD_50),
    # dedup keeps 22 of 27
    "seed7-3x3-flood50-sep20km": (ScenarioSpec(**SEED7_3X3),
                                  {**FLOOD_50, "dedup": {"min_sep_m": 20000}}),
    # fewer hotspots have a POI, so more recommendations snap to a route
    "seed7-3x3-flood50-poi0.3": (ScenarioSpec(**SEED7_3X3, poi_per_hotspot_prob=0.3),
                                 FLOOD_50),
    # the 26.6k-point scale scenario
    "seed90-5x5-scale": (ScenarioSpec(seed=90, lga_rows=5, lga_cols=5,
                                      n_hotspots_per_lga=6, points_per_hotspot_min=140,
                                      points_per_hotspot_max=180,
                                      background_noise_points=1500), {}),
}

OUTPUTS = ("recommendations.geojson", "stations.geojson", "run_summary.json",
           "evaluation.json", "evaluation.txt", "map.html")

DIGESTS = {
    "seed42": {
        "recommendations.geojson":
            "77f642b743a98264391345590f70805c9d5f58ce20979a4824220c1788742baf",
        "stations.geojson":
            "eaf676e173ab8cf1fa54702ce512c211cd5f40863c03fc6943ae9d1dae59226c",
        "run_summary.json":
            "940a175b2224f2e2056a6b4f883d92a52d6c4b3e634d24c915c4dec76c38c891",
        "evaluation.json":
            "cd156fb469c851e8491c97bdf2cc60e8fca23f796fda7889947361dea0c2500a",
        "evaluation.txt":
            "f6c1a671a2f89316cb1428142f9587535ad4a6e1b9aa09655d6d8a8f0910cd82",
        "map.html":
            "225d08e692bb274a35c82e527c68689427b728469556e8521e20cdadb3803e68",
    },
    "seed7-3x3-flood50": {
        "recommendations.geojson":
            "1ffcb2e227339964446fe9f0e0e69d0acfd1c44af6fe04ae4b8f8fd1e77af171",
        "stations.geojson":
            "0f7dd78d9cf5315c37db55ac5d82f0176feb859c4fd5d89508bf7ecd394eb48c",
        "run_summary.json":
            "5a92a1093f8ff6c1dc964a41b0c37955f5d2a7f0135be7e6a3dfaf35e6264aec",
        "evaluation.json":
            "ec01aa33feeeb9dd6c3e772f64c0acbede7509716bb9a2e16b9095a75c502999",
        "evaluation.txt":
            "24ce50668ecf35e8545fab8f35767b52d7ef8ae2378e2bc5f200ccf174883963",
        "map.html":
            "4d5b1b5f6f23fd91a3669a2a182bb5d156038a38a25bcc9e34122a8ad40df1c0",
    },
    "seed7-3x3-flood50-sep20km": {
        "recommendations.geojson":
            "63bfafb0fa4d9215d44778506c721076b0cba8f5d2468fab60fdeeca537eaca4",
        "stations.geojson":
            "0f7dd78d9cf5315c37db55ac5d82f0176feb859c4fd5d89508bf7ecd394eb48c",
        "run_summary.json":
            "7419ba6bd5512909476f20d349bab6c1b9d44bba2232d07576dc3cd55e3e42ff",
        "evaluation.json":
            "ea00e5dcb85886856935aa3d20abcfdf051854b8e40cdd6f3749af481343aac0",
        "evaluation.txt":
            "24268c555d72fe9e648afde98b2fbc0f92dd1ddbe330c2a0458cc43e4d43c195",
        "map.html":
            "bb971c10f2a7998773a5372e03d54c53657e005e8dc884cda6631dbba8123ad2",
    },
    "seed7-3x3-flood50-poi0.3": {
        "recommendations.geojson":
            "af3d864ac618af0656d2833bd87aee302b556bb52fead2e043c1674aa6d4a329",
        "stations.geojson":
            "0f7dd78d9cf5315c37db55ac5d82f0176feb859c4fd5d89508bf7ecd394eb48c",
        "run_summary.json":
            "5a92a1093f8ff6c1dc964a41b0c37955f5d2a7f0135be7e6a3dfaf35e6264aec",
        "evaluation.json":
            "51405ad08db97015df41bbd5964129c66fa6d6ac3dd46bed1591bbded83e979a",
        "evaluation.txt":
            "4e053140581dca4d5ba50e15727a20229b6df4b985cbbf9e24575496722ddd63",
        "map.html":
            "ea3d8e7541484d2574eed79c365737a5af94c6621d5e3a98976446cd81a6ef33",
    },
    "seed90-5x5-scale": {
        "recommendations.geojson":
            "053c33f8a31009a92cb112415fe7e6880499e0842a779119231aa2ce4054a413",
        "stations.geojson":
            "f3f71721001aac60dda8ede5bd8c2db02e7cca571eb05050eaab082bed211c2d",
        "run_summary.json":
            "fa6da599194f26a972d0cdfc307cdfc60c3ce850e8931438fba9f126801da84e",
        "evaluation.json":
            "a28d50e70997e7264157200f51df0b9db6b0df1201da74c4df3f2274b8e21464",
        "evaluation.txt":
            "972b480947cc7918c22460b66e7333b7e167525e5f6529ae58e612947a9a0854",
        "map.html":
            "af1d1f61c3456b9be2e6412a975388dd31cbd578a5bf1ebcc285c33f8d20e896",
    },
}


def _digests(tmp_path, spec, sections) -> dict[str, str]:
    bundle = tmp_path / "bundle"
    generate(spec, bundle)
    doc = default_config_dict(".")
    for name, values in sections.items():
        doc[name].update(values)
    config = bundle / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    runner = CliRunner()
    for args in (["recommend", "--config", config, "--out", out],
                 ["evaluate", "--config", config, "--out", out],
                 ["export-map", "--in", out, "--out", out / "map.html"]):
        res = runner.invoke(cli_main, [str(a) for a in args])
        assert res.exit_code == 0, res.output
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("case", CASES)
def test_outputs_keep_their_digests(tmp_path, case):
    assert _digests(tmp_path, *CASES[case]) == DIGESTS[case]
